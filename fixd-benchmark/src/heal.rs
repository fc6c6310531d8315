//! `heal-loop`: the paper's whole loop on the four buggy example apps —
//! build → `supervise` to the fault → `diagnose` → `BugReport::render`
//! → `heal_update` → `supervise` to quiescence → the app's convergence
//! predicate. Rollback, checkpoint assembly, small-space exploration
//! and patch + migrate dominate; the step loop barely registers.

use std::time::Instant;

use fixd::core::{Fixd, FixdConfig, Monitor};
use fixd::examples::{kvstore, pipeline, token_ring, two_phase_commit as tpc};
use fixd::healer::{migrate, MigrateError, Patch};
use fixd::runtime::{NetworkConfig, Pid, World, WorldConfig};

use crate::harness::{
    derive_seed, first_problem, timed, trace_metrics, Args, Clock, Ledger, Outcome, Timed,
};
use crate::stats::{median, percentile};
use crate::supervise::TracedSession;
use crate::trace::{Name, Tracer};

const MAX_STEPS: u64 = 100_000;
const PIPELINE_COST: u64 = 50;

/// Sixteen consecutive scenarios: 5 kvstore, 4 pipeline, 5 token ring,
/// 2 two-phase commit. The four apps' loop times sit in four separate
/// bands (2PC < kvstore < ring < pipeline); these shares put the median
/// inside the ring band and the 90th percentile inside the pipeline
/// band, not on a boundary between two bands where a percentile would
/// flip between them from run to run.
const MIX: [Kind; 16] = {
    use Kind::*;
    [
        Kv, Ring, Pipeline, Kv, Ring, Tpc, Pipeline, Kv, Ring, Kv, Pipeline, Ring, Tpc, Kv, Ring,
        Pipeline,
    ]
};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Kv,
    Pipeline,
    Ring,
    Tpc,
}

enum App {
    /// kvstore v1 (arrival-order backup) under jitter (1, 80).
    Kv { puts: usize },
    /// Source → cruncher; the cruncher corrupts the item at 3/4.
    Pipeline { items: u64 },
    /// Token ring whose node `buggy` duplicates the token at `dup_at`.
    Ring { n: usize, buggy: usize, dup_at: u8 },
    /// 2PC whose coordinator commits on the first YES.
    Tpc { votes: Vec<bool> },
}

pub struct Scenario {
    app: App,
    seed: u64,
}

/// The token-ring fix of `tests/integration.rs`: clear the dup knob,
/// keep all other state.
fn ring_patch() -> Patch {
    Patch::code_only("ring-no-dup", 1, 2, || {
        Box::new(token_ring::RingNode::correct())
    })
    .with_migration(migrate::from_fn(|old| {
        let mut b = old.to_vec();
        if b.len() < 3 {
            return Err(MigrateError::Malformed("ring state".into()));
        }
        b[2] = 255; // dup_at = None
        Ok(b)
    }))
}

/// Monitors and patches, one per app, shared by every loop of a round.
struct Kit {
    monitors: [Monitor; 4],
    patches: [Patch; 4],
}

impl Kit {
    fn new() -> Self {
        Self {
            monitors: [
                kvstore::gap_monitor(),
                pipeline::results_monitor(),
                token_ring::mutex_monitor(),
                tpc::atomicity_monitor(),
            ],
            patches: [
                kvstore::backup_patch(),
                pipeline::cruncher_patch(PIPELINE_COST),
                ring_patch(),
                tpc::coordinator_patch(),
            ],
        }
    }
}

impl Scenario {
    fn kind(&self) -> Kind {
        match self.app {
            App::Kv { .. } => Kind::Kv,
            App::Pipeline { .. } => Kind::Pipeline,
            App::Ring { .. } => Kind::Ring,
            App::Tpc { .. } => Kind::Tpc,
        }
    }

    fn build(&self) -> World {
        let jittery = |lo, hi| {
            let mut cfg = WorldConfig::seeded(self.seed);
            cfg.net = NetworkConfig::jittery(lo, hi);
            cfg
        };
        match &self.app {
            App::Kv { puts } => {
                kvstore::kv_world(self.seed, kvstore::script(*puts, self.seed), (1, 80))
            }
            App::Pipeline { items } => {
                pipeline::pipeline_world(self.seed, *items, PIPELINE_COST, Some(items * 3 / 4))
            }
            App::Ring { n, buggy, dup_at } => {
                token_ring::ring_world_cfg(jittery(1, 4), *n, Some((*buggy, *dup_at)))
            }
            App::Tpc { votes } => tpc::tpc_world_cfg(jittery(1, 60), votes, true),
        }
    }

    /// The process the patch is for.
    fn patched_pid(&self) -> Pid {
        match self.app {
            App::Kv { .. } => Pid(2),
            App::Pipeline { .. } => Pid(1),
            App::Ring { buggy, .. } => Pid(buggy as u32),
            App::Tpc { .. } => Pid(0),
        }
    }

    /// The app's convergence predicate over the healed, quiescent world.
    fn converged(&self, w: &World) -> bool {
        match &self.app {
            App::Kv { .. } => {
                let primary = w.program::<kvstore::Primary>(Pid(1));
                let backup = w.program::<kvstore::BackupV2>(Pid(2));
                primary.zip(backup).is_some_and(|(p, b)| p.store == b.store)
            }
            App::Pipeline { items } => w
                .program::<pipeline::Cruncher>(Pid(1))
                .is_some_and(|c| c.results.len() as u64 == *items && c.poison_at.is_none()),
            // The ring has no end state to compare; at quiescence
            // nobody may still hold a token.
            App::Ring { n, .. } => (0..*n).all(|i| {
                w.program::<token_ring::RingNode>(Pid(i as u32))
                    .is_some_and(|r| !r.holding)
            }),
            App::Tpc { votes } => {
                w.program::<tpc::Coordinator>(Pid(0))
                    .is_some_and(|c| c.decided == Some(false))
                    && (1..=votes.len()).all(|i| {
                        w.program::<tpc::Participant>(Pid(i as u32))
                            .is_some_and(|p| p.committed == Some(false))
                    })
            }
        }
    }
}

/// The Healer applies one patch to *every* process on the recovery
/// line, so a line that also holds a participant refuses the
/// coordinator patch (`PreconditionFailed`). The participant that
/// learnt the premature COMMIT stays off that line only if the first
/// rollback (`Fixd::respond`) already took it back, and for a global
/// monitor that rollback blames the process with the most receives
/// (ties: the highest pid). Schedules on which that is not the
/// committed participant are left out when the inputs are generated —
/// judged on the bare app, without FixD — because the benchmark needs
/// workloads on which no operation fails.
fn tpc_heals_in_place(sc: &Scenario) -> bool {
    let mut w = sc.build();
    let monitor = tpc::atomicity_monitor();
    while w.step().is_some() {
        if monitor.violated_in(&w).is_some() {
            let receives: Vec<u64> = (0..w.num_procs())
                .map(|i| w.delivered_count(Pid(i as u32)))
                .collect();
            let most = receives.iter().max();
            let blamed = receives.iter().rposition(|r| Some(r) == most);
            return blamed.is_some_and(|b| {
                w.program::<tpc::Participant>(Pid(b as u32))
                    .is_some_and(|p| p.committed == Some(true))
            });
        }
    }
    true
}

/// Shape `k` of consecutive groups of `sizes` shapes: (group, index
/// within the group).
fn pick(mut k: u64, sizes: &[u64]) -> (usize, u64) {
    for (group, &size) in sizes.iter().enumerate() {
        if k < size {
            return (group, k);
        }
        k -= size;
    }
    unreachable!("shape {k} past the last group")
}

/// Generate the round's scenarios. Sizes walk their whole range with a
/// seed-derived offset (a stride coprime to the range) rather than
/// being drawn independently, so every seed gives the same total work
/// and a smooth latency distribution.
pub fn scenarios(args: &Args) -> Vec<Scenario> {
    let loops = args.size(1600, 48);
    let mut made = [0u64; 4];
    let offset = |kind: Kind| derive_seed(args.seed, 0x0FF5E7, kind as u64) % 1_000_000;
    (0..loops as u64)
        .map(|i| {
            let kind = MIX[i as usize % MIX.len()];
            let j = made[kind as usize];
            made[kind as usize] += 1;
            let at = |stride: u64, range: u64| (offset(kind) + j * stride) % range;
            let seed = derive_seed(args.seed, 0x4EA1, i);
            match kind {
                Kind::Kv => Scenario {
                    app: App::Kv {
                        puts: 8 + at(7, 25) as usize,
                    },
                    seed,
                },
                Kind::Pipeline => Scenario {
                    app: App::Pipeline {
                        items: 32 + at(89, 225),
                    },
                    seed,
                },
                Kind::Ring => {
                    // 24 shapes: n in 4..=6, buggy node 1..n, dup on
                    // the first or second lap.
                    let (i, k) = pick(at(5, 24), &[6, 8, 10]);
                    let (n, buggy, lap) = (4 + i, 1 + (k / 2) as usize, 1 + (k % 2) as usize);
                    Scenario {
                        app: App::Ring {
                            n,
                            buggy,
                            dup_at: ((4 - lap) * n - 1 - buggy) as u8,
                        },
                        seed,
                    }
                }
                Kind::Tpc => {
                    // 12 shapes: 3..=5 participants, one NO voter.
                    let (i, no_voter) = pick(at(5, 12), &[3, 4, 5]);
                    let votes: Vec<bool> = (0..3 + i as u64).map(|v| v != no_voter).collect();
                    (0u64..)
                        .map(|attempt| Scenario {
                            app: App::Tpc {
                                votes: votes.clone(),
                            },
                            seed: derive_seed(seed, 0x79C, attempt),
                        })
                        .find(tpc_heals_in_place)
                        .expect("some schedule heals in place")
                }
            }
        })
        .collect()
}

/// Sums over one untraced round.
#[derive(Default)]
struct Tally {
    loops: u64,
    detected: u64,
    converged: u64,
    reproduced: u64,
    refused: u64,
    steps: u64,
    states: u64,
    transitions: u64,
    salvaged: u64,
    discarded: u64,
    line_breadth: u64,
    scroll_entries: u64,
    checkpoints: u64,
    /// Resident Scroll bytes + checkpoint bytes at the end of each loop.
    resident_b: u64,
    report_us: Vec<f64>,
    heal_us: Vec<f64>,
}

/// Loops per rate sample: converged loops ÷ wall of each hundred.
const BATCH: usize = 100;

/// One untraced round through the real entry points. Returns the tally
/// and the round's wall (world + supervisor build included).
fn round(scs: &[Scenario], timed_part: &mut Timed, ledger: &mut Ledger) -> (Tally, f64) {
    let kit = Kit::new();
    let mut t = Tally::default();
    timed_part.begin_round();
    let start = Instant::now();
    let mut batch_start = (start, 0);
    for (i, sc) in scs.iter().enumerate() {
        if i > 0 && i % BATCH == 0 {
            let now = Instant::now();
            let wall = (now - batch_start.0).as_secs_f64();
            timed_part
                .rates
                .push((t.converged - batch_start.1) as f64 / wall);
            batch_start = (now, t.converged);
        }
        let k = sc.kind() as usize;
        let mut world = sc.build();
        let mut fixd = Fixd::new(world.num_procs(), FixdConfig::seeded(sc.seed))
            .monitor(kit.monitors[k].clone());
        let detect = fixd.supervise(&mut world, MAX_STEPS);
        t.loops += 1;
        t.steps += detect.steps;
        let Some(fault) = detect.fault else {
            // The bug did not manifest on this schedule: not a failure,
            // counted in `core.detected_frac`.
            ledger.op((!detect.quiescent).then(|| format!("loop {i}: no fault, no quiescence")));
            continue;
        };
        t.detected += 1;
        let t1 = Instant::now();
        let report = fixd.diagnose(&mut world, fault);
        let rendered = report.as_ref().map(|r| r.render());
        let t2 = Instant::now();
        let heal = fixd.heal_update(&mut world, sc.patched_pid(), &kit.patches[k]);
        let resume = fixd.supervise(&mut world, MAX_STEPS);
        let t3 = Instant::now();
        t.report_us.push((t2 - t1).as_secs_f64() * 1e6);
        t.heal_us.push((t3 - t2).as_secs_f64() * 1e6);
        timed_part.op_us((t3 - t1).as_secs_f64() * 1e6);
        t.steps += resume.steps;
        let stats = fixd.stats();
        t.scroll_entries += stats.scroll_entries as u64;
        t.checkpoints += stats.checkpoints as u64;
        t.resident_b += (fixd.scroll().resident_bytes() + stats.checkpoint_bytes) as u64;

        let reproduced = report.as_ref().is_ok_and(|r| r.reproduced());
        if let Ok(r) = &report {
            t.states += r.states_explored as u64;
            t.transitions += r.transitions;
            t.line_breadth += r.recovery_line.iter().filter(|&&l| l != u64::MAX).count() as u64;
        }
        if let Ok(h) = &heal {
            t.salvaged += h.salvaged_events;
            t.discarded += h.discarded_events;
        }
        t.reproduced += u64::from(reproduced);
        t.refused += u64::from(heal.is_err());
        let converged = resume.quiescent && resume.fault.is_none() && sc.converged(&world);
        let problem = first_problem(&[
            (report.is_ok(), &|| {
                format!("loop {i}: diagnose failed: {:?}", report.as_ref().err())
            }),
            (reproduced, &|| {
                format!("loop {i}: fault not reproduced from the checkpoint")
            }),
            (rendered.as_ref().is_ok_and(|s| !s.is_empty()), &|| {
                format!("loop {i}: empty bug report")
            }),
            (heal.is_ok(), &|| {
                format!("loop {i}: heal refused: {:?}", heal.as_ref().err())
            }),
            (resume.fault.is_none(), &|| {
                format!("loop {i}: fault after the heal")
            }),
            (resume.quiescent, &|| {
                format!("loop {i}: no quiescence after the heal")
            }),
            (converged, &|| format!("loop {i}: app did not converge")),
        ]);
        t.converged += u64::from(problem.is_none());
        ledger.op(problem);
    }
    let wall = (Instant::now() - batch_start.0).as_secs_f64();
    timed_part
        .rates
        .push((t.converged - batch_start.1) as f64 / wall);
    (t, start.elapsed().as_secs_f64())
}

/// Per-rollback and per-heal counts only the traced loop can see.
#[derive(Default)]
struct TracedCounts {
    rollbacks: u64,
    events_undone: u64,
    msgs_replayed: u64,
}

/// One traced round: the same loops through the bench-owned copy.
fn traced_round(
    scs: &[Scenario],
    tr: &mut Tracer,
    counts: &mut TracedCounts,
    ledger: &mut Ledger,
) -> f64 {
    let kit = Kit::new();
    let start = Instant::now();
    for (i, sc) in scs.iter().enumerate() {
        let k = sc.kind() as usize;
        tr.enter_op(i as u32);
        let mut world = tr.call(Name::WorldBuild, || sc.build());
        let mut session = TracedSession::new(
            world.num_procs(),
            FixdConfig::seeded(sc.seed),
            vec![kit.monitors[k].clone()],
            tr,
        );
        tr.enter(Name::Detect);
        let detect = session.supervise(&mut world, MAX_STEPS, tr);
        tr.exit(Name::Detect);
        let mut problem = None;
        if let Some(fault) = detect.fault {
            let diagnosis = session.diagnose(&mut world, fault, tr);
            if let Ok(d) = &diagnosis {
                counts.rollbacks += 1;
                counts.events_undone += d.rollback.events_undone;
                counts.msgs_replayed += d.rollback.msgs_replayed as u64;
                std::hint::black_box(&d.rendered);
            }
            let heal = tr.call(Name::HealUpdate, || {
                session
                    .fixd
                    .heal_update(&mut world, sc.patched_pid(), &kit.patches[k])
            });
            tr.enter(Name::Resume);
            let resume = session.supervise(&mut world, MAX_STEPS, tr);
            tr.exit(Name::Resume);
            let converged = tr.call(Name::Check, || sc.converged(&world));
            problem = first_problem(&[
                (diagnosis.is_ok_and(|d| d.report.reproduced()), &|| {
                    format!("traced loop {i}: not diagnosed or not reproduced")
                }),
                (heal.is_ok(), &|| format!("traced loop {i}: heal refused")),
                (
                    resume.quiescent && resume.fault.is_none() && converged,
                    &|| format!("traced loop {i}: did not converge"),
                ),
            ]);
        }
        tr.exit(Name::Op);
        ledger.op(problem);
    }
    start.elapsed().as_secs_f64()
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut timed_part = Timed::default();

    // One discarded warm-up round (first-touch page faults).
    round(&scenarios(args), &mut Timed::default(), &mut out.ledger);

    let mut clock = Clock::new(args.phase_seconds(), args.min_rounds());
    let mut tally = Tally::default();
    let mut walls = Vec::new();
    let mut report_us = Vec::new();
    let mut heal_us = Vec::new();
    while clock.more() {
        let (scs, wall) = timed(|| scenarios(args));
        timed_part.setups.push(wall);
        let (t, wall) = round(&scs, &mut timed_part, &mut out.ledger);
        walls.push(wall);
        report_us.extend_from_slice(&t.report_us);
        heal_us.extend_from_slice(&t.heal_us);
        tally = t;
    }
    timed_part.rounds = clock.rounds;
    timed_part.ops_per_round = tally.converged;

    for (name, v) in [
        ("loops", tally.loops),
        ("detected", tally.detected),
        ("converged", tally.converged),
        ("steps", tally.steps),
        ("states", tally.states),
        ("transitions", tally.transitions),
        ("salvaged_events", tally.salvaged),
        ("scroll_entries", tally.scroll_entries),
        ("checkpoints", tally.checkpoints),
    ] {
        out.counts.insert(name, v);
    }

    let mut traced_rounds = 0;
    if args.trace {
        let scs = scenarios(args);
        let mut tr = Tracer::new();
        let mut counts = TracedCounts::default();
        let mut traced_walls = Vec::new();
        let mut clock = Clock::new(args.phase_seconds(), args.min_rounds());
        while clock.more() {
            traced_walls.push(traced_round(&scs, &mut tr, &mut counts, &mut out.ledger));
        }
        traced_rounds = clock.rounds;

        let overhead = median(&traced_walls) / median(&walls) - 1.0;
        let m = &mut out.metrics;
        trace_metrics(&tr, "heal-loop", overhead, m);
        let detected = tally.detected as f64;
        let rollbacks = counts.rollbacks as f64;
        m.set("scroll.entries", tally.scroll_entries as f64);
        m.set("timemachine.checkpoints", tally.checkpoints as f64);
        m.set_ratio(
            "timemachine.events_undone_per_rollback",
            counts.events_undone as f64,
            rollbacks,
        );
        m.set_ratio(
            "timemachine.msgs_replayed_per_rollback",
            counts.msgs_replayed as f64,
            rollbacks,
        );
        m.set_ratio(
            "timemachine.line_breadth",
            tally.line_breadth as f64,
            detected,
        );
        m.set_ratio(
            "core.resident_b_per_step",
            tally.resident_b as f64,
            tally.steps as f64,
        );
        m.set("core.report_us_p50", percentile(&report_us, 0.5));
        m.set("core.report_us_p90", percentile(&report_us, 0.9));
        m.set("core.report_us_p99", percentile(&report_us, 0.99));
        m.set("core.heal_us_p50", percentile(&heal_us, 0.5));
        m.set("core.heal_us_p90", percentile(&heal_us, 0.9));
        m.set_ratio("core.detected_frac", detected, tally.loops as f64);
        m.set_ratio(
            "investigator.states_per_diagnosis",
            tally.states as f64,
            detected,
        );
        m.set_ratio(
            "investigator.reproduced_frac",
            tally.reproduced as f64,
            detected,
        );
        m.set_ratio(
            "investigator.transitions_per_state",
            tally.transitions as f64,
            tally.states as f64,
        );
        m.set_ratio(
            "healer.salvaged_events_per_heal",
            tally.salvaged as f64,
            detected,
        );
        m.set_ratio(
            "healer.discarded_events_per_heal",
            tally.discarded as f64,
            detected,
        );
        m.set_ratio("healer.refused_frac", tally.refused as f64, detected);
    }
    timed_part.summarise(args, traced_rounds, &mut out.metrics);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The traced copy of `respond`/`diagnose` may not drift from the
    /// real one: same detection, rollback line and explored space.
    #[test]
    fn traced_diagnosis_matches_the_real_one() {
        let args = Args {
            seed: 3,
            seconds: 0.0,
            trace: true,
            smoke: true,
        };
        let kit = Kit::new();
        let mut tr = Tracer::new();
        let mut compared = [false; 4];
        for sc in scenarios(&args) {
            let k = sc.kind() as usize;
            let mut real_world = sc.build();
            let mut real = Fixd::new(real_world.num_procs(), FixdConfig::seeded(sc.seed))
                .monitor(kit.monitors[k].clone());
            let real_detect = real.supervise(&mut real_world, MAX_STEPS);

            let mut traced_world = sc.build();
            let mut session = TracedSession::new(
                traced_world.num_procs(),
                FixdConfig::seeded(sc.seed),
                vec![kit.monitors[k].clone()],
                &mut tr,
            );
            tr.enter_op(0);
            let traced_detect = session.supervise(&mut traced_world, MAX_STEPS, &mut tr);
            assert_eq!(real_detect.steps, traced_detect.steps);
            assert_eq!(real_detect.fault, traced_detect.fault);
            assert_eq!(real.stats(), session.stats());
            if let (Some(rf), Some(tf)) = (real_detect.fault, traced_detect.fault) {
                let real_respond = real.respond(&mut real_world, &rf).unwrap();
                let real_explore = real.investigate(real_respond.state);
                let d = session.diagnose(&mut traced_world, tf, &mut tr).unwrap();
                assert_eq!(real_respond.rollback, d.rollback);
                assert_eq!(real_respond.rollback.line, d.report.recovery_line);
                assert_eq!(real_explore.states, d.report.states_explored);
                assert_eq!(real_explore.transitions, d.report.transitions);
                assert!(d.report.reproduced());
                assert_eq!(
                    real_world.global_snapshot().fingerprint(),
                    traced_world.global_snapshot().fingerprint()
                );
                compared[k] = true;
            }
            tr.exit(Name::Op);
        }
        assert_eq!(compared, [true; 4], "every app must reach a diagnosis");
    }

    #[test]
    fn scenarios_repeat_per_seed_and_cover_their_ranges() {
        let args = |seed| Args {
            seed,
            seconds: 0.0,
            trace: false,
            smoke: true,
        };
        let shape = |s: &Scenario| match &s.app {
            App::Kv { puts } => (0, *puts as u64, s.seed),
            App::Pipeline { items } => (1, *items, s.seed),
            App::Ring { n, buggy, dup_at } => (
                2,
                (*n * 1000 + *buggy * 100) as u64 + u64::from(*dup_at),
                s.seed,
            ),
            App::Tpc { votes } => (3, votes.len() as u64, s.seed),
        };
        let a: Vec<_> = scenarios(&args(1)).iter().map(shape).collect();
        let b: Vec<_> = scenarios(&args(1)).iter().map(shape).collect();
        let c: Vec<_> = scenarios(&args(2)).iter().map(shape).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        for s in scenarios(&args(1)) {
            match s.app {
                App::Kv { puts } => assert!((8..=32).contains(&puts)),
                App::Pipeline { items } => assert!((32..=256).contains(&items)),
                App::Ring { n, buggy, dup_at } => {
                    assert!((4..=6).contains(&n) && (1..n).contains(&buggy));
                    assert!([3 * n - 1 - buggy, 2 * n - 1 - buggy].contains(&(dup_at as usize)));
                }
                App::Tpc { votes } => {
                    assert!((3..=5).contains(&votes.len()));
                    assert_eq!(votes.iter().filter(|v| !**v).count(), 1);
                }
            }
        }
    }
}
