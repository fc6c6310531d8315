//! Lazy process slots: a wide world must allocate like its *active*
//! population. These tests pin the contract — an untouched process is
//! an 8-byte `None` slot with no program or RNG state, and
//! materializing late yields exactly the state an eager world had.

use fixd_runtime::{Context, Message, Pid, Program, TimerId, World, WorldConfig};

/// Echoes one message back to its sender, counting deliveries.
#[derive(Clone)]
struct Echo {
    seen: u64,
}

impl Program for Echo {
    fn on_start(&mut self, ctx: &mut Context) {
        if ctx.pid() == Pid(0) {
            ctx.send(Pid(1), 1, vec![1]);
        }
    }
    fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
        self.seen += 1;
        let _ = ctx.random();
        if msg.payload[0] > 0 {
            ctx.send(msg.src, 1, vec![msg.payload[0] - 1]);
        }
    }
    fn on_timer(&mut self, _ctx: &mut Context, _t: TimerId) {}
    fn snapshot(&self) -> Vec<u8> {
        self.seen.to_le_bytes().to_vec()
    }
    fn restore(&mut self, b: &[u8]) {
        self.seen = u64::from_le_bytes(b.try_into().unwrap());
    }
}

fn lazy_world(width: usize, seed: u64) -> World {
    let mut w = World::new(WorldConfig::seeded(seed));
    w.add_lazy_processes(width, |_pid| Box::new(Echo { seen: 0 }));
    w
}

#[test]
fn untouched_processes_never_materialize() {
    let width = 10_000;
    let mut w = lazy_world(width, 42);
    w.schedule_start(Pid(0));
    w.schedule_start(Pid(1));
    w.run_to_quiescence(10_000);

    // Only the two scheduled processes (who only talked to each other)
    // ever materialized; the other 9 998 slots are still `None`.
    assert_eq!(w.materialized_procs(), 2);
    assert!(w.is_materialized(Pid(0)));
    assert!(w.is_materialized(Pid(1)));
    assert!(!w.is_materialized(Pid(2)));
    assert!(!w.is_materialized(Pid(width as u32 - 1)));

    // Dormant reads are cheap and allocation-free: zero counters.
    let dormant = Pid(777);
    assert_eq!(w.delivered_count(dormant), 0);
    assert!(w.program::<Echo>(dormant).is_none());
    // ...and reading them did not materialize anything.
    assert_eq!(w.materialized_procs(), 2);
}

#[test]
fn first_delivery_materializes_with_eager_identity() {
    // The same two-process conversation in an eager 3-process world and
    // embedded at the same pids in a lazy 1000-process world must
    // produce identical per-process states: a lazy process is an eager
    // one that has not run yet (same derived RNG stream, same counters).
    let eager_fp = {
        let mut w = World::new(WorldConfig::seeded(7));
        for _ in 0..3 {
            w.add_process(Box::new(Echo { seen: 0 }));
        }
        w.run_to_quiescence(10_000);
        (
            w.checkpoint_process(Pid(0)).fingerprint(),
            w.checkpoint_process(Pid(1)).fingerprint(),
        )
    };
    let lazy_fp = {
        let mut w = lazy_world(1_000, 7);
        w.schedule_start(Pid(0));
        w.schedule_start(Pid(1));
        w.schedule_start(Pid(2));
        w.run_to_quiescence(10_000);
        (
            w.checkpoint_process(Pid(0)).fingerprint(),
            w.checkpoint_process(Pid(1)).fingerprint(),
        )
    };
    assert_eq!(eager_fp, lazy_fp, "lazy must equal eager at the same seed");
}

#[test]
fn dormant_checkpoint_and_snapshot_are_deterministic() {
    let mut a = lazy_world(100, 9);
    let mut b = lazy_world(100, 9);
    a.schedule_start(Pid(0));
    b.schedule_start(Pid(0));
    a.run_to_quiescence(1_000);
    b.run_to_quiescence(1_000);

    // Checkpointing a dormant process builds a transient fresh entry —
    // no materialization, same fingerprint every time.
    let dormant = Pid(55);
    let fp1 = a.checkpoint_process(dormant).fingerprint();
    let fp2 = a.checkpoint_process(dormant).fingerprint();
    let fp3 = b.checkpoint_process(dormant).fingerprint();
    assert_eq!(fp1, fp2);
    assert_eq!(fp1, fp3);
    assert!(
        !a.is_materialized(dormant),
        "checkpoint must not materialize"
    );

    // Global snapshots cover every slot and agree across identical runs.
    assert_eq!(
        a.global_snapshot().fingerprint(),
        b.global_snapshot().fingerprint()
    );
    assert!(!a.is_materialized(dormant), "snapshot must not materialize");
}

#[test]
fn delivery_to_dormant_process_boots_it() {
    let mut w = lazy_world(50, 3);
    w.schedule_start(Pid(0));
    // Pid(0)'s start sends to Pid(1), which is dormant: the delivery
    // must materialize it and run its handler.
    w.run_to_quiescence(1_000);
    assert!(w.is_materialized(Pid(1)));
    assert!(w.program::<Echo>(Pid(1)).unwrap().seen > 0);
    // Its context counted the receipt once it participated.
    assert!(w.delivered_count(Pid(1)) > 0);
}

// ---------------------------------------------------------------------
// Fault injection against dormant pids (issue 7 bugfix): crash/revive/
// partition/FaultPlan targeting a never-materialized process must flip
// status only — no program construction, no panic, no spurious slot.
// ---------------------------------------------------------------------

use fixd_runtime::{Fault, FaultPlan, Partition, ProcStatus};

#[test]
fn crash_now_on_dormant_pid_flips_status_without_materializing() {
    let mut w = lazy_world(50, 11);
    let dormant = Pid(1);
    w.crash_now(dormant);
    assert_eq!(w.status(dormant), ProcStatus::Crashed);
    assert!(
        !w.is_materialized(dormant),
        "crashing a dormant pid must not build its program"
    );

    // Deliveries to the dead-and-dormant pid drop; it stays dormant.
    w.schedule_start(Pid(0));
    let report = w.run_to_quiescence(1_000);
    assert!(report.quiescent);
    assert!(w.stats().dropped >= 1, "send to crashed pid must drop");
    assert!(!w.is_materialized(dormant));
    assert_eq!(w.materialized_procs(), 1, "only Pid(0) ever ran");
}

#[test]
fn revive_dormant_crashed_pid_without_materializing() {
    let mut w = lazy_world(50, 11);
    let dormant = Pid(1);
    w.crash_now(dormant);
    w.revive(dormant);
    assert_eq!(w.status(dormant), ProcStatus::Running);
    assert!(!w.is_materialized(dormant), "revive is status-only too");

    // Once revived, a delivery boots it with its eager identity.
    w.schedule_start(Pid(0));
    w.run_to_quiescence(1_000);
    assert!(w.is_materialized(dormant));
    assert!(w.program::<Echo>(dormant).unwrap().seen > 0);
}

#[test]
fn fault_plan_crash_against_dormant_pid_is_status_only() {
    let mut w = lazy_world(50, 13);
    // Pid(7) is never touched by the workload; the plan kills it at t=5.
    w.set_fault_plan(FaultPlan::none().crash(Pid(7), 5));
    w.schedule_start(Pid(0));
    let report = w.run_to_quiescence(1_000);
    assert!(report.quiescent);
    assert_eq!(w.status(Pid(7)), ProcStatus::Crashed);
    assert!(
        !w.is_materialized(Pid(7)),
        "a scheduled crash must not materialize its dormant target"
    );
}

#[test]
fn start_scheduled_for_dormant_pid_crashed_first_is_skipped() {
    let mut w = lazy_world(50, 17);
    w.schedule_start(Pid(3));
    w.crash_now(Pid(3));
    let report = w.run_to_quiescence(1_000);
    assert!(report.quiescent);
    // The queued Start was skipped for the dead pid — which therefore
    // never materialized.
    assert!(!w.is_materialized(Pid(3)));
    assert_eq!(w.materialized_procs(), 0);
}

#[test]
fn partition_spanning_dormant_pids_does_not_materialize_them() {
    let mut w = lazy_world(50, 19);
    // Pid(0) on one side; everyone else (all dormant) on the other.
    let others: Vec<Pid> = (1..50).map(Pid).collect();
    let part = Partition::split(50, &[&[Pid(0)], &others]);
    w.set_fault_plan(FaultPlan::none().with(Fault::PartitionAt {
        at: 0,
        partition: part,
        heal_at: None,
    }));
    // Applying a partition whose groups span 49 dormant pids is pure
    // bookkeeping: nobody materializes.
    let report = w.run_to_quiescence(1_000);
    assert!(report.quiescent);
    assert_eq!(w.materialized_procs(), 0);

    // Traffic started once the cut is active is partitioned away before
    // it can boot anything on the far side.
    w.schedule_start(Pid(0));
    let report = w.run_to_quiescence(1_000);
    assert!(report.quiescent);
    assert!(w.stats().dropped >= 1, "cross-cut send must drop");
    assert_eq!(w.materialized_procs(), 1, "only Pid(0) ever ran");
    assert!(!w.is_materialized(Pid(1)));
}

#[test]
fn global_snapshot_reports_dormant_crashed_status() {
    let mut w = lazy_world(50, 23);
    w.crash_now(Pid(40));
    let snap = w.global_snapshot();
    assert_eq!(snap.crashed, vec![Pid(40)]);
    assert!(
        !w.is_materialized(Pid(40)),
        "snapshot must not materialize the crashed dormant pid"
    );
    // Identical runs agree on the snapshot fingerprint.
    let mut v = lazy_world(50, 23);
    v.crash_now(Pid(40));
    assert_eq!(snap.fingerprint(), v.global_snapshot().fingerprint());
}
