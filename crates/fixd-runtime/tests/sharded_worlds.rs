//! Sharded-world equivalence: for any shard count, a [`World`] sharded
//! with [`World::shard`] must produce the **byte-identical** execution
//! of the serial world — same step records (full structural equality,
//! not just a fingerprint), same network counters, same end time, same
//! global snapshot, and the same process table after every single step.
//! These tests run the same scenarios side by side at shard counts
//! {1, 2, 4, 8} across delivery policies, faults, step budgets and lazy
//! population, plus dormant receivers booted by cross-shard handoff.

use proptest::prelude::*;

use fixd_runtime::{
    Context, DeliveryPolicy, FaultPlan, Message, NetworkConfig, Partition, Pid, Program, RunReport,
    SharedStepRecord, TimerId, World, WorldConfig, TRACE_TAIL,
};

/// `w.run_to_quiescence(budget)` as calls of at most half a tail of
/// steps, returning their reports: a step traces at most two records (a
/// handler's crash mark and its own), so every record a call traces is
/// still in the trace's tail when it returns, and goes onto `log`.
fn run_logged(w: &mut World, budget: u64, log: &mut Vec<SharedStepRecord>) -> Vec<RunReport> {
    let (mut reports, mut left) = (Vec::new(), budget);
    loop {
        let seen = w.trace().pushed();
        let r = w.run_to_quiescence(left.min(TRACE_TAIL as u64 / 2));
        let t = w.trace();
        let fresh = (t.pushed() - seen) as usize;
        log.extend(t.records().skip(t.len() - fresh).cloned());
        left -= r.steps;
        reports.push(r);
        if r.quiescent || left == 0 {
            return reports;
        }
    }
}

/// Gossip-ish program: payload- and RNG-dependent fan-out, timers on
/// start, an occasional self-crash — every cross-shard surface live.
#[derive(Clone)]
struct Noisy {
    acc: u64,
    fanout: u8,
}

impl Program for Noisy {
    fn on_start(&mut self, ctx: &mut Context) {
        if ctx.pid() == Pid(0) {
            for i in 0..self.fanout {
                let dst = Pid(1 + (u32::from(i) % (ctx.world_size() as u32 - 1)));
                ctx.send(dst, 1, vec![i, 3]);
            }
        }
        let t = ctx.set_timer(25 + u64::from(ctx.pid().0));
        if ctx.pid().0 % 3 == 2 {
            ctx.cancel_timer(t);
        }
    }
    fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
        self.acc = self
            .acc
            .wrapping_add(ctx.random())
            .wrapping_add(u64::from(msg.payload[0]));
        let ttl = msg.payload[1];
        if ttl > 0 {
            let dst = Pid((ctx.random_below(ctx.world_size() as u64)) as u32);
            if dst != ctx.pid() {
                ctx.send(dst, 1, vec![msg.payload[0], ttl - 1]);
            }
        }
        if self.acc % 97 == 13 {
            ctx.crash();
        }
    }
    fn on_timer(&mut self, ctx: &mut Context, _t: TimerId) {
        ctx.output(vec![ctx.pid().0 as u8]);
        if self.acc == 0 && ctx.pid().0 == 1 {
            ctx.send(Pid(0), 1, vec![1, 1]);
        }
    }
    fn snapshot(&self) -> Vec<u8> {
        let mut b = self.acc.to_le_bytes().to_vec();
        b.push(self.fanout);
        b
    }
    fn restore(&mut self, b: &[u8]) {
        self.acc = u64::from_le_bytes(b[0..8].try_into().unwrap());
        self.fanout = b[8];
    }
}

/// Echoes a decrementing counter back to its sender (lazy-world filler).
#[derive(Clone)]
struct Echo {
    seen: u64,
}

impl Program for Echo {
    fn on_start(&mut self, ctx: &mut Context) {
        if ctx.pid() == Pid(0) {
            ctx.send(Pid(1), 1, vec![4]);
        }
    }
    fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
        self.seen += 1;
        let _ = ctx.random();
        if msg.payload[0] > 0 {
            ctx.send(msg.src, 1, vec![msg.payload[0] - 1]);
        }
    }
    fn snapshot(&self) -> Vec<u8> {
        self.seen.to_le_bytes().to_vec()
    }
    fn restore(&mut self, b: &[u8]) {
        self.seen = u64::from_le_bytes(b.try_into().unwrap());
    }
}

/// One scenario, described declaratively so that one build serves
/// every shard count.
#[derive(Clone)]
struct Scenario {
    seed: u64,
    net: NetworkConfig,
    /// Eager [`Noisy`] processes (pids 0..eager).
    eager: usize,
    fanout: u8,
    /// Lazy [`Echo`] width appended after the eager block.
    lazy: usize,
    /// Pids to `schedule_start` explicitly (lazy worlds).
    starts: Vec<u32>,
    faults: FaultPlan,
    max_steps: u64,
}

impl Scenario {
    fn cfg(&self) -> WorldConfig {
        let mut cfg = WorldConfig::seeded(self.seed);
        cfg.net = self.net.clone();
        cfg
    }

    fn build(&self, shards: usize) -> World {
        let mut w = World::new(self.cfg());
        for _ in 0..self.eager {
            w.add_process(Box::new(Noisy {
                acc: 0,
                fanout: self.fanout,
            }));
        }
        if self.lazy > 0 {
            w.add_lazy_processes(self.lazy, |_| Box::new(Echo { seen: 0 }));
        }
        w.set_fault_plan(self.faults.clone());
        for &p in &self.starts {
            w.schedule_start(Pid(p));
        }
        w.shard(shards);
        w
    }
}

/// Run the scenario serially and at each shard count; every observable
/// must match the serial run exactly.
fn assert_equivalent(sc: &Scenario) -> World {
    assert_equivalent_in_runs(sc, &[sc.max_steps])
}

/// [`assert_equivalent`] with the run cut into one run call per budget:
/// every call's [`fixd_runtime::RunReport`] must match too, whether the
/// budget ends mid-window or not.
fn assert_equivalent_in_runs(sc: &Scenario, budgets: &[u64]) -> World {
    let mut serial = sc.build(1);
    let mut serial_log = Vec::new();
    let serial_reports: Vec<_> = budgets
        .iter()
        .map(|&b| run_logged(&mut serial, b, &mut serial_log))
        .collect();
    for shards in [1usize, 2, 4, 8] {
        let mut sharded = sc.build(shards);
        let mut log = Vec::new();
        let reports: Vec<_> = budgets
            .iter()
            .map(|&b| run_logged(&mut sharded, b, &mut log))
            .collect();
        assert_eq!(
            reports, serial_reports,
            "RunReport drifted at {shards} shards (budgets {budgets:?})"
        );
        assert_eq!(
            log, serial_log,
            "step records drifted at {shards} shards (seed {})",
            sc.seed
        );
        assert_eq!(sharded.stats(), serial.stats(), "NetStats drifted");
        assert_eq!(sharded.now(), serial.now(), "virtual clock drifted");
        assert_eq!(
            sharded.fingerprint(),
            serial.global_snapshot().fingerprint(),
            "global snapshot drifted at {shards} shards"
        );
        assert_eq!(
            sharded.materialized_procs(),
            serial.materialized_procs(),
            "lazy materialization drifted at {shards} shards"
        );
    }
    serial
}

fn gossip(seed: u64, n: usize, net: NetworkConfig) -> Scenario {
    Scenario {
        seed,
        net,
        eager: n,
        fanout: 4,
        lazy: 0,
        starts: vec![],
        faults: FaultPlan::none(),
        max_steps: 20_000,
    }
}

#[test]
fn gossip_matches_serial_across_network_modes() {
    for (i, net) in [
        NetworkConfig::default(),
        NetworkConfig::jittery(1, 40),
        NetworkConfig::lossy(0.2),
        NetworkConfig::duplicating(0.5),
        NetworkConfig::corrupting(0.5),
    ]
    .into_iter()
    .enumerate()
    {
        assert_equivalent(&gossip(0xA0 + i as u64, 5, net));
    }
}

/// The channel part of a snapshot lives on the shards, which run up to a
/// window ahead of the world: a sharded world refuses the capture.
#[test]
#[should_panic(expected = "global_snapshot is not supported on a sharded world")]
fn global_snapshot_of_a_sharded_world_is_refused() {
    let mut w = gossip(0xA0, 5, NetworkConfig::default()).build(2);
    w.run_steps(10);
    w.global_snapshot();
}

#[test]
fn faulty_gossip_matches_serial() {
    let mut sc = gossip(0xBEEF, 6, NetworkConfig::jittery(2, 30));
    sc.faults = FaultPlan::none()
        .crash(Pid(2), 120)
        .drop_link(Pid(0), Pid(3), 40, 90)
        .corrupt_link(Pid(1), Pid(4), 0, u64::MAX);
    sc.eager = 6;
    assert_equivalent(&sc);
}

#[test]
fn lazy_ring_matches_serial_and_boots_dormant_remotely() {
    // Pid(0) and Pid(1) converse in a 64-wide lazy world. At any shard
    // count > 1 they live on different shards, so every delivery is a
    // cross-shard handoff — including the one that boots dormant Pid(1).
    let sc = Scenario {
        seed: 0xD00F,
        net: NetworkConfig::default(),
        eager: 0,
        fanout: 0,
        lazy: 64,
        starts: vec![0],
        faults: FaultPlan::none(),
        max_steps: 5_000,
    };
    let serial = assert_equivalent(&sc);
    assert_eq!(serial.materialized_procs(), 2, "only the two talkers ran");
}

#[test]
fn dormant_crash_fault_matches_serial() {
    // A fault plan that kills a dormant pid mid-run: the status-only
    // crash path must behave identically under sharding.
    let sc = Scenario {
        seed: 0xFA11,
        net: NetworkConfig::default(),
        eager: 0,
        fanout: 0,
        lazy: 32,
        starts: vec![0],
        faults: FaultPlan::none().crash(Pid(9), 30).crash(Pid(1), 35),
        max_steps: 5_000,
    };
    assert_equivalent(&sc);
}

// ---------------------------------------------------------------------
// Per-edge lookahead: heterogeneous link latencies and mid-run
// delivery-timing changes.
// ---------------------------------------------------------------------

/// Pid 0 pings pid 1 on a timer cadence; pid 1 replies to every ping.
/// Deterministic (no RNG), so every delivery instant is an exact
/// function of the link latencies.
#[derive(Clone)]
struct Chatter {
    rounds: u8,
}

impl Program for Chatter {
    fn on_start(&mut self, ctx: &mut Context) {
        if ctx.pid() == Pid(0) {
            ctx.set_timer(30);
        }
    }
    fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
        if ctx.pid() != Pid(0) {
            ctx.send(msg.src, 2, vec![msg.payload[0]]);
        }
    }
    fn on_timer(&mut self, ctx: &mut Context, _t: TimerId) {
        ctx.send(Pid(1), 1, vec![self.rounds]);
        if self.rounds > 0 {
            self.rounds -= 1;
            ctx.set_timer(7);
        }
    }
    fn snapshot(&self) -> Vec<u8> {
        vec![self.rounds]
    }
    fn restore(&mut self, b: &[u8]) {
        self.rounds = b[0];
    }
}

/// Regression (window staleness): a partition isolates the fast link's
/// endpoints from t = 0, so the per-window lookahead starts at the slow
/// default (10). The heal at t = 25 revives the 2-tick link **mid-run**
/// — the conservative window must be recomputed from the now-live link
/// set, or post-heal fast deliveries land inside a stale 10-wide window
/// and the coordinator's in-window barrier assertion (`qe.at >= wend`)
/// trips. Pinning serial equality here catches both the assert and any
/// silent reorder.
#[test]
fn midrun_heal_revives_fast_link_and_shrinks_window() {
    let net = NetworkConfig::default().with_link(
        Some(Pid(0)),
        Some(Pid(1)),
        DeliveryPolicy::Fifo { latency: 2 },
    );
    let build = |shards: usize| {
        let mut cfg = WorldConfig::seeded(0x57A1E);
        cfg.net = net.clone();
        let mut w = World::new(cfg);
        for _ in 0..2 {
            w.add_process(Box::new(Chatter { rounds: 3 }));
        }
        let split = Partition::split(2, &[&[Pid(0)], &[Pid(1)]]);
        w.set_fault_plan(FaultPlan::none().partition(0, split, Some(25)));
        w.shard(shards);
        w
    };
    let mut serial = build(1);
    let mut serial_log = Vec::new();
    run_logged(&mut serial, 5_000, &mut serial_log);
    for shards in [2usize, 4, 8] {
        let mut sharded = build(shards);
        let mut log = Vec::new();
        run_logged(&mut sharded, 5_000, &mut log);
        assert_eq!(log, serial_log, "stale window bound at shards={shards}");
        assert_eq!(sharded.stats(), serial.stats());
        assert_eq!(
            sharded.fingerprint(),
            serial.global_snapshot().fingerprint()
        );
        // The post-heal pings actually crossed the fast link.
        assert!(sharded.stats().delivered >= 4, "shards={shards}");
    }
}

/// A fast wildcard link (any → pid 0) must narrow the window for every
/// sender, and a crashed fast-link source must widen it back — the
/// per-edge bound follows liveness, not just topology.
#[test]
fn crashed_fast_source_widens_window_soundly() {
    let mut net = NetworkConfig::jittery(5, 20);
    net = net.with_link(Some(Pid(2)), None, DeliveryPolicy::Fifo { latency: 1 });
    let mut sc = gossip(0xFA57, 5, net);
    sc.faults = FaultPlan::none().crash(Pid(2), 40);
    assert_equivalent(&sc);
}

// ---------------------------------------------------------------------
// The parallel phase: one worker set per world, shards handed to the
// workers and back by ownership, lone-shard windows inline.
// ---------------------------------------------------------------------

#[test]
fn window_grid_is_shard_count_invariant_and_inline_count_repeats() {
    let mut faulty = gossip(0x61D, 6, NetworkConfig::jittery(2, 30));
    faulty.faults = FaultPlan::none()
        .crash(Pid(2), 120)
        .drop_link(Pid(0), Pid(3), 40, 90);
    for sc in [
        gossip(0x61D, 6, NetworkConfig::default()),
        gossip(0x61D, 6, NetworkConfig::jittery(1, 40)),
        faulty,
    ] {
        let mut grid = None;
        for shards in [2usize, 4, 8] {
            let run = || {
                let mut w = sc.build(shards);
                w.run_to_quiescence(sc.max_steps);
                let t = w.shard_timing();
                (t.windows, t.inline_windows)
            };
            let (windows, inline) = run();
            assert_eq!(run(), (windows, inline), "counters repeat, shards={shards}");
            assert!(windows > 0 && inline <= windows);
            assert_eq!(
                *grid.get_or_insert(windows),
                windows,
                "the window grid is global: shards={shards}"
            );
        }
    }
}

/// Forwards a 48-byte parcel along a random walk until its hop budget
/// runs out; timers keep lone pids busy between deliveries.
#[derive(Clone)]
struct Courier {
    carried: u64,
}

impl Program for Courier {
    fn on_start(&mut self, ctx: &mut Context) {
        let mut parcel = vec![ctx.pid().0 as u8; 48];
        parcel[0] = 14;
        ctx.send(Pid((ctx.pid().0 + 1) % ctx.world_size() as u32), 1, parcel);
        ctx.set_timer(60 + u64::from(ctx.pid().0));
    }
    fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
        self.carried += msg.payload.len() as u64;
        if msg.payload[0] > 0 {
            let mut parcel = msg.payload.to_vec();
            parcel[0] -= 1;
            let dst = Pid(ctx.random_below(ctx.world_size() as u64) as u32);
            ctx.send(dst, 1, parcel);
        }
    }
    fn on_timer(&mut self, ctx: &mut Context, _t: TimerId) {
        ctx.output(self.carried.to_le_bytes().to_vec());
    }
    fn snapshot(&self) -> Vec<u8> {
        self.carried.to_le_bytes().to_vec()
    }
    fn restore(&mut self, b: &[u8]) {
        self.carried = u64::from_le_bytes(b.try_into().unwrap());
    }
}

/// Workers live as long as the world and run ahead of it, so each
/// step's payload traffic reaches the world when the step commits: none
/// may be lost or counted twice, within a run call or between calls cut
/// mid-window.
#[test]
fn accounting_survives_long_lived_workers_and_split_runs() {
    const N: usize = 32;
    let cfg = || {
        let mut cfg = WorldConfig::seeded(0xACC7);
        cfg.net = NetworkConfig::jittery(1, 30);
        cfg.net.dup_prob = 0.05;
        cfg.net.corrupt_prob = 0.05;
        cfg
    };
    // Mail to the crashed pid turns into drops inside the shard windows.
    let build = |shards: usize| {
        let mut w = World::new(cfg());
        for _ in 0..N {
            w.add_process(Box::new(Courier { carried: 0 }));
        }
        w.set_fault_plan(FaultPlan::none().crash(Pid(5), 40));
        w.shard(shards);
        w
    };
    let total = build(1).run_to_quiescence(1_000_000).steps;

    for cuts in [1u64, 3] {
        // A cut run call ends with a peek, which counts too: the serial
        // reference is cut at the same steps. The worlds share this
        // thread's counters, so each call's traffic is its delta.
        let mut serial = (build(1), Vec::new());
        let mut sharded: Vec<_> = [2usize, 4, 8]
            .into_iter()
            .map(|k| (build(k), Vec::new()))
            .collect();
        for cut in 1..=cuts {
            let budget = if cut < cuts { total / cuts } else { 1_000_000 };
            let run = |(w, log): &mut (World, Vec<SharedStepRecord>)| {
                let p0 = w.payload_stats();
                let report = run_logged(w, budget, log);
                (report, w.payload_stats().since(p0))
            };
            let (want, want_pay) = run(&mut serial);
            assert!(want_pay.copied > 0 && want_pay.aliased > 0);
            for s in &mut sharded {
                let at = format!("shards={}, run call {cut} of {cuts}", s.0.shards());
                let (report, pay) = run(s);
                let w = &s.0;
                assert_eq!(report, want, "{at}");
                assert_eq!(pay, want_pay, "payload counters, {at}");
                assert_eq!(w.stats(), serial.0.stats(), "NetStats, {at}");
            }
        }
        for (w, log) in &sharded {
            let t = w.shard_timing();
            assert!(t.windows >= 150, "only {} windows", t.windows);
            assert!(t.inline_windows < t.windows, "no window handed off");
            assert_eq!(*log, serial.1);
            assert_eq!(w.fingerprint(), serial.0.global_snapshot().fingerprint());
        }
    }
}

/// The summed window time lies between the critical path and the
/// critical path times the shard count: no window's shards did less
/// than its slowest one, or more than all of them at its pace.
#[test]
fn busy_time_is_bounded_by_the_critical_path() {
    for shards in [2usize, 4] {
        let mut w = gossip(0x61D, 6, NetworkConfig::jittery(1, 40)).build(shards);
        w.run_to_quiescence(100_000);
        let t = w.shard_timing();
        assert!(t.windows > 0);
        assert!(t.critical <= t.busy, "shards={shards}: {t:?}");
        assert!(
            t.busy <= t.critical * shards as u32,
            "shards={shards}: {t:?}"
        );
    }
    let serial = World::new(WorldConfig::seeded(1));
    assert_eq!(serial.shard_timing().busy, std::time::Duration::ZERO);
}

/// Two handlers on different shards meet inside one window: the witness
/// reports in and holds until released, the culprit waits for it,
/// releases it and panics. Every wait is bounded, so an executor that
/// ran the two shards one after the other would be slow, not stuck.
#[derive(Clone, Default)]
struct Rendezvous(std::sync::Arc<(std::sync::Mutex<u8>, std::sync::Condvar)>);

impl Rendezvous {
    fn advance_to(&self, stage: u8) {
        *self.0 .0.lock().unwrap() = stage;
        self.0 .1.notify_all();
    }
    fn wait_for(&self, stage: u8) {
        let (lock, cv) = &*self.0;
        let patience = std::time::Duration::from_secs(5);
        drop(cv.wait_timeout_while(lock.lock().unwrap(), patience, |s| *s < stage));
    }
}

/// Gossips under a one-tick-window network; at virtual time 40 every
/// pid's timer fires in the same window, and there the culprit's
/// handler panics while the witness's shard is mid-window.
#[derive(Clone)]
struct Saboteur {
    culprit: Pid,
    witness: Pid,
    meet: Rendezvous,
}

impl Program for Saboteur {
    fn on_start(&mut self, ctx: &mut Context) {
        ctx.send(Pid((ctx.pid().0 + 1) % ctx.world_size() as u32), 1, vec![9]);
        ctx.set_timer(40);
    }
    fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
        if msg.payload[0] > 0 {
            let dst = Pid(ctx.random_below(ctx.world_size() as u64) as u32);
            ctx.send(dst, 1, vec![msg.payload[0] - 1]);
        }
    }
    fn on_timer(&mut self, ctx: &mut Context, _t: TimerId) {
        if ctx.pid() == self.witness {
            self.meet.advance_to(1);
            self.meet.wait_for(2);
        } else if ctx.pid() == self.culprit {
            self.meet.wait_for(1);
            self.meet.advance_to(2);
            panic!("handler bug on {:?}", ctx.pid());
        }
    }
    fn snapshot(&self) -> Vec<u8> {
        Vec::new()
    }
    fn restore(&mut self, _: &[u8]) {}
}

/// A handler panic must reach the caller as that panic, with its own
/// message — a coordinator left waiting for a shard that died with its
/// worker would hang.
fn run_with_handler_panic(shards: usize, culprit: Pid, witness: Pid) {
    assert_ne!(culprit.idx() % shards, witness.idx() % shards);
    let mut cfg = WorldConfig::seeded(0x5AB0);
    cfg.net = NetworkConfig::jittery(1, 20);
    let mut w = World::new(cfg);
    let meet = Rendezvous::default();
    for _ in 0..16 {
        w.add_process(Box::new(Saboteur {
            culprit,
            witness,
            meet: meet.clone(),
        }));
    }
    w.shard(shards);
    w.run_to_quiescence(100_000);
}

macro_rules! handler_panic_surfaces {
    ($($name:ident: $shards:expr, $culprit:expr, $witness:expr;)*) => {$(
        #[test]
        #[should_panic(expected = "handler bug on")]
        fn $name() {
            run_with_handler_panic($shards, Pid($culprit), Pid($witness));
        }
    )*};
}

// Pid 1 lives on shard 1 and pid 8 on shard 0 at every count; shard 0
// never has a worker, so its windows run on the calling thread.
handler_panic_surfaces! {
    handler_panic_on_shard_1_surfaces_at_2_shards: 2, 1, 2;
    handler_panic_on_shard_1_surfaces_at_4_shards: 4, 1, 2;
    handler_panic_on_shard_1_surfaces_at_8_shards: 8, 1, 2;
    handler_panic_on_shard_0_surfaces_at_2_shards: 2, 8, 3;
    handler_panic_on_shard_0_surfaces_at_4_shards: 4, 8, 3;
    handler_panic_on_shard_0_surfaces_at_8_shards: 8, 8, 3;
}

// ---------------------------------------------------------------------
// Lock step: the world's own process table is the serial world's after
// every step — what the supervisor, its monitors, the Time Machine and
// the Scroll read between steps.
// ---------------------------------------------------------------------

/// Step `sc` serially and on `shards` shards side by side, peeking
/// before every step as the supervisor does, and compare after every
/// step everything a driver can read: each pid's full checkpoint
/// (program bytes, RNG position, delivered, checkpoint index,
/// message/timer ids), liveness and delivered count, plus the
/// trace length and the network counters.
fn assert_lockstep(sc: &Scenario, shards: usize) {
    let mut serial = sc.build(1);
    let mut sharded = sc.build(shards);
    let pids: Vec<Pid> = (0..serial.num_procs() as u32).map(Pid).collect();
    for step in 0.. {
        let at = format!("{shards} shards, step {step}, seed {}", sc.seed);
        assert_eq!(sharded.peek(), serial.peek(), "peeked event, {at}");
        let (a, b) = (serial.step(), sharded.step());
        assert_eq!(b, a, "step record, {at}");
        for &p in &pids {
            assert_eq!(
                format!("{:?}", sharded.checkpoint_process(p)),
                format!("{:?}", serial.checkpoint_process(p)),
                "checkpoint of {p}, {at}"
            );
            assert_eq!(sharded.status(p), serial.status(p), "status of {p}, {at}");
            assert_eq!(
                sharded.delivered_count(p),
                serial.delivered_count(p),
                "delivered count of {p}, {at}"
            );
        }
        assert_eq!(
            sharded.trace().pushed(),
            serial.trace().pushed(),
            "trace, {at}"
        );
        assert_eq!(sharded.stats(), serial.stats(), "network counters, {at}");
        if a.is_none() {
            break;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random faulty workloads — crashes (a pid's own and the plan's),
    /// a dropping and a corrupting link, lossy, duplicating, corrupting
    /// and jittery networks — in lock step at 2, 4 and 8 shards.
    #[test]
    fn process_table_matches_serial_after_every_step(
        seed in 0u64..10_000,
        n in 3usize..8,
        fanout in 1u8..6,
        jitter in any::<bool>(),
        drop in 0.0f64..0.2,
        dup in 0.0f64..0.2,
        corrupt in 0.0f64..0.2,
        crash_at in 1u64..150,
        cut in 1u64..100,
    ) {
        let mut net = if jitter {
            NetworkConfig::jittery(1, 30)
        } else {
            NetworkConfig::default()
        };
        net.drop_prob = drop;
        net.dup_prob = dup;
        net.corrupt_prob = corrupt;
        let mut sc = gossip(seed, n, net);
        sc.fanout = fanout;
        sc.faults = FaultPlan::none()
            .crash(Pid(n as u32 - 1), crash_at)
            .drop_link(Pid(0), Pid(1), cut, cut + 40)
            .corrupt_link(Pid(1), Pid(2), 0, u64::MAX);
        for shards in [2usize, 4, 8] {
            assert_lockstep(&sc, shards);
        }
    }
}

// ---------------------------------------------------------------------
// Property: random scenarios match at every shard count.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn random_workloads_match_serial(
        seed in 0u64..10_000,
        n in 2usize..7,
        fanout in 1u8..6,
        jitter in any::<bool>(),
        drop in 0.0f64..0.25,
        dup in 0.0f64..0.25,
        corrupt in 0.0f64..0.25,
        crash in any::<bool>(),
        crash_at in 1u64..200,
        budget in 1u64..300,
        second in 1u64..300,
    ) {
        let mut net = if jitter {
            NetworkConfig::jittery(1, 30)
        } else {
            NetworkConfig::default()
        };
        net.drop_prob = drop;
        net.dup_prob = dup;
        net.corrupt_prob = corrupt;
        let mut sc = gossip(seed, n, net);
        if crash {
            sc.faults = FaultPlan::none().crash(Pid(1), crash_at);
        }
        // Two random budgets cut the run (usually mid-window), then it
        // drains: every report must be the serial one.
        assert_equivalent_in_runs(&sc, &[budget, second, sc.max_steps]);
    }

    /// Heterogeneous per-link latencies (concrete and wildcard edges)
    /// crossed with crash/partition fault plans: the per-edge
    /// conservative window must stay byte-equal to serial at every
    /// shard count.
    #[test]
    fn heterogeneous_links_match_serial(
        seed in 0u64..10_000,
        n in 3usize..7,
        fanout in 1u8..6,
        la in 1u64..12,
        lb in 1u64..12,
        src in 0u32..6,
        dst in 0u32..6,
        wild_src in any::<bool>(),
        fault in 0u8..3,
        fault_at in 1u64..120,
        heal in any::<bool>(),
    ) {
        let mut net = NetworkConfig::jittery(2, 25);
        net = net.with_link(
            Some(Pid(src % n as u32)),
            Some(Pid(dst % n as u32)),
            DeliveryPolicy::Fifo { latency: la },
        );
        net = net.with_link(
            if wild_src { None } else { Some(Pid((src + 1) % n as u32)) },
            None,
            DeliveryPolicy::RandomDelay { min: lb, max: lb + 10 },
        );
        let mut sc = gossip(seed, n, net);
        sc.faults = match fault {
            0 => FaultPlan::none(),
            1 => FaultPlan::none().crash(Pid(src % n as u32), fault_at),
            _ => {
                let left: Vec<Pid> = (0..n as u32 / 2).map(Pid).collect();
                let right: Vec<Pid> = (n as u32 / 2..n as u32).map(Pid).collect();
                FaultPlan::none().partition(
                    fault_at,
                    Partition::split(n, &[&left, &right]),
                    heal.then(|| fault_at + 30),
                )
            }
        };
        assert_equivalent(&sc);
    }
}
