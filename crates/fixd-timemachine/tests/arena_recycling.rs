//! Arena-recycling laws under faults: every hot-path box returns to the
//! world's step arena **exactly once**, and only at a point where the
//! world holds the last reference. The suite pins pool sizes before and
//! after the fault paths that complicate ownership — duplicate delivery
//! (two Deliver records alias one box), corruption copy-on-write (two
//! boxes per logical message), and Time-Machine rollback (orphaned
//! sends dropped from the delivery log).

use fixd_runtime::{
    Context, FaultPlan, Message, NetworkConfig, Pid, Program, TimerId, World, WorldConfig,
    TRACE_TAIL,
};
use fixd_timemachine::{CheckpointPolicy, TimeMachine, TimeMachineConfig};

/// Forwards every received message to the other process until its
/// budget runs out. Two of these produce a long steady-state step loop.
#[derive(Clone)]
struct Forward {
    left: u64,
}

impl Program for Forward {
    fn on_start(&mut self, ctx: &mut Context) {
        if ctx.pid() == Pid(0) {
            ctx.send(Pid(1), 1, vec![7u8; 64]);
        }
    }
    fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
        if self.left > 0 {
            self.left -= 1;
            let other = Pid(1 - ctx.pid().0);
            ctx.send(other, 1, msg.payload.clone());
        }
    }
    fn on_timer(&mut self, _ctx: &mut Context, _t: TimerId) {}
    fn snapshot(&self) -> Vec<u8> {
        self.left.to_le_bytes().to_vec()
    }
    fn restore(&mut self, b: &[u8]) {
        self.left = u64::from_le_bytes(b.try_into().unwrap());
    }
}

/// P0 sends `k` distinct messages to P1 at start; everyone else sinks.
#[derive(Clone)]
struct SendK {
    k: u64,
}

impl Program for SendK {
    fn on_start(&mut self, ctx: &mut Context) {
        if ctx.pid() == Pid(0) {
            for i in 0..self.k {
                ctx.send(Pid(1), 1, vec![i as u8; 16]);
            }
        }
    }
    fn on_message(&mut self, _ctx: &mut Context, _msg: &Message) {}
    fn on_timer(&mut self, _ctx: &mut Context, _t: TimerId) {}
    fn snapshot(&self) -> Vec<u8> {
        self.k.to_le_bytes().to_vec()
    }
    fn restore(&mut self, b: &[u8]) {
        self.k = u64::from_le_bytes(b.try_into().unwrap());
    }
}

fn world_with(seed: u64, net: NetworkConfig) -> World {
    let mut cfg = WorldConfig::seeded(seed);
    cfg.net = net;
    World::new(cfg)
}

/// Push status-only side records until every earlier record has been
/// evicted from the trace's tail (each push displaces the oldest).
fn flush_trace(w: &mut World, dormant: Pid) {
    for _ in 0..TRACE_TAIL {
        w.crash_now(dormant);
    }
}

#[test]
fn steady_state_draws_every_box_from_the_pool() {
    let mut w = world_with(11, NetworkConfig::default());
    w.add_process(Box::new(Forward { left: 2_000 }));
    w.add_process(Box::new(Forward { left: 2_000 }));

    // Warm phase: pools fill as the trace's tail starts evicting.
    for _ in 0..500 {
        assert!(w.step().is_some());
    }
    let warm = w.arena_stats();
    assert!(warm.msgs_recycled > 0, "message pool is cycling: {warm:?}");
    assert!(
        warm.records_recycled > 0,
        "record pool is cycling: {warm:?}"
    );

    // Steady phase: every box comes from the pool — the fresh-allocation
    // counters must not move at all.
    for _ in 0..1_000 {
        assert!(w.step().is_some());
    }
    let steady = w.arena_stats();
    assert_eq!(
        steady.msgs_allocated, warm.msgs_allocated,
        "steady-state step loop allocated a fresh message box"
    );
    assert_eq!(
        steady.records_allocated, warm.records_allocated,
        "steady-state step loop allocated a fresh record shell"
    );
}

#[test]
fn duplicated_delivery_pools_the_shared_box_exactly_once() {
    const K: u64 = 5;
    let mut w = world_with(7, NetworkConfig::duplicating(1.0));
    w.add_process(Box::new(SendK { k: K }));
    w.add_process(Box::new(SendK { k: 0 }));
    w.add_process(Box::new(SendK { k: 0 }));
    let report = w.run_to_quiescence(1_000);
    assert_eq!(report.delivered, 2 * K, "every message delivered twice");

    flush_trace(&mut w, Pid(2));
    let stats = w.arena_stats();
    assert_eq!(
        stats.msgs_pooled, K as usize,
        "one pooled box per message, despite two Deliver records each: {stats:?}"
    );
}

#[test]
fn corruption_cow_pools_original_and_private_copy_once_each() {
    const K: u64 = 3;
    let mut w = world_with(13, NetworkConfig::default());
    w.add_process(Box::new(SendK { k: K }));
    w.add_process(Box::new(SendK { k: 0 }));
    w.add_process(Box::new(SendK { k: 0 }));
    w.set_fault_plan(FaultPlan::none().corrupt_link(Pid(0), Pid(1), 0, u64::MAX));
    let report = w.run_to_quiescence(1_000);
    assert_eq!(report.delivered, K);

    flush_trace(&mut w, Pid(2));
    let stats = w.arena_stats();
    // The corruption path copy-on-writes the routed clone (`to_mut`), so
    // each logical message ends as two boxes: the sender's original in
    // its record's effects, and the corrupted private copy in the
    // Deliver record. Both return to the pool, each exactly once.
    assert_eq!(
        stats.msgs_pooled,
        2 * K as usize,
        "original and CoW copy each pooled once: {stats:?}"
    );
}

#[test]
fn tm_rollback_returns_orphan_boxes_to_the_pool() {
    let mut w = world_with(5, NetworkConfig::default());
    w.add_process(Box::new(Forward { left: 100 }));
    w.add_process(Box::new(Forward { left: 100 }));
    let mut tm = TimeMachine::new(
        2,
        TimeMachineConfig {
            policy: CheckpointPolicy::EveryReceive,
            ..TimeMachineConfig::default()
        },
    );
    // Past the trace's tail: the oldest orphaned sends' records have
    // been evicted, so the world holds their boxes' last references.
    tm.run(&mut w, 40 + TRACE_TAIL as u64);

    let before = w.arena_stats();
    let report = tm.rollback(&mut w, Pid(0), 1).expect("checkpoint 1 exists");
    assert!(report.procs_rolled >= 1);
    let after = w.arena_stats();
    // Dropping the rolled-back branch released the delivery log's (and
    // queue's) orphaned sends; the world was their last holder, so the
    // boxes land in the pool instead of the allocator.
    assert!(
        after.msgs_pooled > before.msgs_pooled,
        "rollback reclaimed no orphan boxes: before {before:?}, after {after:?}"
    );
    // Exactly-once conservation: the pool can never hold more boxes
    // than were ever allocated.
    assert!(after.msgs_pooled as u64 <= after.msgs_allocated + after.msgs_recycled);
}
