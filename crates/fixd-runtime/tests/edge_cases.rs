//! Edge-case integration tests for the runtime substrate: partitions,
//! targeted corruption, timer semantics, the trace's bounded tail.

use fixd_runtime::{
    Context, Fault, FaultPlan, Message, Partition, Pid, Program, TimerId, World, WorldConfig,
    TRACE_TAIL,
};

/// Echo server: replies to every ping; counts pings.
#[derive(Clone)]
struct Echo {
    pings: u64,
    timer_fired: bool,
    cancel_own_timer: bool,
}

impl Echo {
    fn new() -> Self {
        Self {
            pings: 0,
            timer_fired: false,
            cancel_own_timer: false,
        }
    }
}

impl Program for Echo {
    fn on_start(&mut self, ctx: &mut Context) {
        if ctx.pid() == Pid(0) {
            ctx.broadcast(1, b"ping");
            let t = ctx.set_timer(100);
            if self.cancel_own_timer {
                ctx.cancel_timer(t);
            }
        }
    }
    fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
        if msg.tag == 1 {
            self.pings += 1;
            ctx.send(msg.src, 2, b"pong".to_vec());
        }
    }
    fn on_timer(&mut self, _ctx: &mut Context, _t: TimerId) {
        self.timer_fired = true;
    }
    fn snapshot(&self) -> Vec<u8> {
        let mut b = self.pings.to_le_bytes().to_vec();
        b.push(u8::from(self.timer_fired));
        b.push(u8::from(self.cancel_own_timer));
        b
    }
    fn restore(&mut self, b: &[u8]) {
        self.pings = u64::from_le_bytes(b[0..8].try_into().unwrap());
        self.timer_fired = b[8] != 0;
        self.cancel_own_timer = b[9] != 0;
    }
}

fn echo_world(n: usize) -> World {
    let mut w = World::new(WorldConfig::seeded(5));
    for _ in 0..n {
        w.add_process(Box::new(Echo::new()));
    }
    w
}

#[test]
fn permanent_partition_blocks_cross_group_traffic() {
    let mut w = echo_world(4);
    let part = Partition::split(4, &[&[Pid(0), Pid(1)], &[Pid(2), Pid(3)]]);
    w.set_fault_plan(FaultPlan::none().with(Fault::PartitionAt {
        at: 0,
        partition: part,
        heal_at: None,
    }));
    w.run_to_quiescence(10_000);
    // Pings to P2/P3 dropped; only P1 heard one.
    assert_eq!(w.program::<Echo>(Pid(1)).unwrap().pings, 1);
    assert_eq!(w.program::<Echo>(Pid(2)).unwrap().pings, 0);
    assert_eq!(w.program::<Echo>(Pid(3)).unwrap().pings, 0);
    assert!(w.stats().dropped >= 2);
}

#[test]
fn healed_partition_is_timing_dependent_but_deterministic() {
    let run = || {
        let mut w = echo_world(4);
        let part = Partition::split(4, &[&[Pid(0)], &[Pid(1), Pid(2), Pid(3)]]);
        w.set_fault_plan(FaultPlan::none().with(Fault::PartitionAt {
            at: 0,
            partition: part,
            heal_at: Some(5),
        }));
        w.run_to_quiescence(10_000);
        (0..4)
            .map(|i| w.program::<Echo>(Pid(i)).unwrap().pings)
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn corrupt_link_flips_payloads_deterministically() {
    let mut w = echo_world(2);
    w.set_fault_plan(FaultPlan::none().with(Fault::CorruptLink {
        from: Some(Pid(0)),
        to: Some(Pid(1)),
        start: 0,
        end: u64::MAX,
    }));
    w.run_to_quiescence(10_000);
    // The ping arrived corrupted (tag intact, payload flipped) and was
    // still processed — corruption must not wedge the runtime.
    assert_eq!(w.program::<Echo>(Pid(1)).unwrap().pings, 1);
    assert_eq!(w.stats().corrupted, 1);
}

#[test]
fn cancelled_timer_never_fires() {
    let mut w = World::new(WorldConfig::seeded(5));
    w.add_process(Box::new(Echo {
        cancel_own_timer: true,
        ..Echo::new()
    }));
    w.run_to_quiescence(10_000);
    assert!(!w.program::<Echo>(Pid(0)).unwrap().timer_fired);
}

#[test]
fn uncancelled_timer_fires_once() {
    let mut w = World::new(WorldConfig::seeded(5));
    w.add_process(Box::new(Echo::new()));
    w.run_to_quiescence(10_000);
    assert!(w.program::<Echo>(Pid(0)).unwrap().timer_fired);
}

#[test]
fn bounded_trace_caps_memory_not_correctness() {
    // 32 starts, 31 pings, 31 pongs and a timer: more than the tail.
    let mut w = World::new(WorldConfig::seeded(5));
    for _ in 0..32 {
        w.add_process(Box::new(Echo::new()));
    }
    w.run_to_quiescence(10_000);
    assert!(w.trace().len() <= TRACE_TAIL);
    assert!((TRACE_TAIL as u64) < w.trace().pushed());
    // Execution unaffected by the trace bound.
    assert_eq!(w.program::<Echo>(Pid(1)).unwrap().pings, 1);
}

#[test]
fn inject_timer_reaches_handler() {
    let mut w = World::new(WorldConfig::seeded(5));
    w.add_process(Box::new(Echo::new()));
    w.run_to_quiescence(10_000);
    assert!(w.global_snapshot().timers.is_empty());
    w.inject_timer(Pid(0), TimerId(999), w.now() + 1);
    assert_eq!(w.global_snapshot().timers.len(), 1);
    w.run_to_quiescence(10);
    assert!(w.global_snapshot().timers.is_empty());
}

/// P0 arms a timer at t=100 and cancels it on any message; P1 arms
/// one at t=50. Both count what fired.
#[derive(Clone)]
struct Alarm {
    armed: Option<TimerId>,
    fired: u64,
}
impl Program for Alarm {
    fn on_start(&mut self, ctx: &mut Context) {
        let delay = if ctx.pid() == Pid(0) { 100 } else { 50 };
        self.armed = Some(ctx.set_timer(delay));
    }
    fn on_timer(&mut self, _ctx: &mut Context, _t: TimerId) {
        self.armed = None;
        self.fired += 1;
    }
    fn on_message(&mut self, ctx: &mut Context, _msg: &Message) {
        if let Some(t) = self.armed.take() {
            ctx.cancel_timer(t);
        }
    }
    fn snapshot(&self) -> Vec<u8> {
        let mut b = self.fired.to_le_bytes().to_vec();
        b.extend_from_slice(&self.armed.map_or(0, |t| t.0).to_le_bytes());
        b
    }
    fn restore(&mut self, b: &[u8]) {
        self.fired = u64::from_le_bytes(b[0..8].try_into().unwrap());
        let t = u64::from_le_bytes(b[8..16].try_into().unwrap());
        self.armed = (t != 0).then_some(TimerId(t));
    }
}

#[test]
fn restored_timer_fires_after_a_later_cancel() {
    let mut w = World::new(WorldConfig::seeded(4));
    for _ in 0..2 {
        w.add_process(Box::new(Alarm {
            armed: None,
            fired: 0,
        }));
    }
    w.run_steps(2); // both starts: timers at t=100 (P0) and t=50 (P1)
    let snap = w.global_snapshot();
    assert_eq!(snap.timers.len(), 2);
    let mut from_capture = w.clone();
    from_capture.run_to_quiescence(100);
    // A message makes P0 cancel its timer before it fires. Two steps
    // (the poke, P1's timer) and no peek past them: the cancel mark
    // still waits for the fire event that the restore purges.
    let poke = Message {
        id: 0,
        src: Pid(1),
        dst: Pid(0),
        tag: 0,
        payload: vec![].into(),
        sent_at: w.now(),
        ckpt_index: 0,
    };
    let now = w.now();
    w.inject_message(poke, now);
    w.step();
    w.step();
    w.restore_snapshot(&snap);
    w.run_to_quiescence(100);
    let fired = |w: &World, p| w.program::<Alarm>(Pid(p)).unwrap().fired;
    assert_eq!(fired(&from_capture, 0), 1);
    assert_eq!(
        (fired(&w, 0), fired(&w, 1)),
        (fired(&from_capture, 0), fired(&from_capture, 1)),
        "the restored timer fires as in a run from the capture"
    );
}

#[test]
fn wildcard_drop_fault_silences_everything() {
    let mut w = echo_world(3);
    w.set_fault_plan(FaultPlan::none().with(Fault::DropLink {
        from: None,
        to: None,
        start: 0,
        end: u64::MAX,
    }));
    let report = w.run_to_quiescence(10_000);
    assert_eq!(report.delivered, 0);
    assert_eq!(w.stats().dropped, w.stats().sent);
}

/// Sends one *empty* message P0 → P1 on start; counts arrivals.
#[derive(Clone)]
struct EmptyShot {
    got: u64,
}

impl Program for EmptyShot {
    fn on_start(&mut self, ctx: &mut Context) {
        if ctx.pid() == Pid(0) {
            ctx.send(Pid(1), 1, vec![]);
        }
    }
    fn on_message(&mut self, _ctx: &mut Context, msg: &Message) {
        assert!(msg.payload.is_empty(), "nothing may grow an empty payload");
        self.got += 1;
    }
    fn snapshot(&self) -> Vec<u8> {
        self.got.to_le_bytes().to_vec()
    }
    fn restore(&mut self, b: &[u8]) {
        self.got = u64::from_le_bytes(b.try_into().unwrap());
    }
}

// Regression (issue 7): corruption injection indexed the payload with
// `next_u64() % len`, a guaranteed division-by-zero panic the first time
// a corrupting link carried an empty payload. Both corruption paths —
// the targeted fault-plan link and the probabilistic network — must
// treat an empty payload as an explicit no-op and still deliver.

#[test]
fn empty_payload_over_corrupt_link_fault_is_a_noop() {
    let mut w = World::new(WorldConfig::seeded(5));
    w.add_process(Box::new(EmptyShot { got: 0 }));
    w.add_process(Box::new(EmptyShot { got: 0 }));
    w.set_fault_plan(FaultPlan::none().with(Fault::CorruptLink {
        from: Some(Pid(0)),
        to: Some(Pid(1)),
        start: 0,
        end: u64::MAX,
    }));
    let report = w.run_to_quiescence(10_000);
    assert!(report.quiescent);
    assert_eq!(w.program::<EmptyShot>(Pid(1)).unwrap().got, 1);
    assert_eq!(w.stats().corrupted, 0, "nothing to flip in zero bytes");
}

#[test]
fn empty_payload_over_corrupting_network_is_a_noop() {
    let mut cfg = WorldConfig::seeded(5);
    cfg.net = fixd_runtime::NetworkConfig::corrupting(1.0);
    let mut w = World::new(cfg);
    w.add_process(Box::new(EmptyShot { got: 0 }));
    w.add_process(Box::new(EmptyShot { got: 0 }));
    let report = w.run_to_quiescence(10_000);
    assert!(report.quiescent);
    assert_eq!(w.program::<EmptyShot>(Pid(1)).unwrap().got, 1);
    assert_eq!(w.stats().corrupted, 0);
}
