//! Run every FixD experiment (F1–F8) quickly and print the paper-style
//! tables; the criterion benches measure the same workloads with
//! statistical rigor.
//!
//! Run: `cargo run -p fixd-bench --bin experiments --release`

use fixd_baselines::{Cmc, FlashbackCheckpointer, Liblog, PrintfLogger};
use fixd_bench::{gossip_world, time_it};
use fixd_core::{Fixd, FixdConfig};
use fixd_examples::token_ring::RingNode;
use fixd_examples::{kvstore, pipeline, token_ring, two_phase_commit as tpc};
use fixd_healer::Patch;
use fixd_investigator::{ExploreConfig, ModelD, NetModel, SearchOrder};
use fixd_runtime::{EventKind, Pid, Program};
use fixd_scroll::{record::record_run, RecordConfig, ScrollStats};
use fixd_timemachine::{CheckpointPolicy, TimeMachine, TimeMachineConfig};

fn main() {
    f1_scroll();
    f2_checkpoints();
    f3_investigator();
    f4_response();
    f5_healer();
    f6_recovery_lines();
    f7_modeld();
    f8_matrix();
    println!("\nall experiments completed");
}

fn f1_scroll() {
    println!("==============================================================");
    println!("F1 (Fig. 1): Scroll recording overhead and log size");
    println!("==============================================================");
    println!(
        "{:<10} {:>8} {:>10} {:>12} {:>12}",
        "mode", "n", "time", "entries", "bytes"
    );
    for &n in &[4usize, 8] {
        let (report, t_bare) = time_it(|| {
            let mut w = gossip_world(n, 7, 256, false);
            w.run_to_quiescence(1_000_000)
        });
        println!(
            "{:<10} {:>8} {:>10.2?} {:>12} {:>12}",
            "bare", n, t_bare, "-", "-"
        );
        let ((store, _), t_scroll) = time_it(|| {
            let mut w = gossip_world(n, 7, 256, false);
            record_run(&mut w, RecordConfig::default(), 1_000_000)
        });
        let stats = ScrollStats::compute(&store);
        println!(
            "{:<10} {:>8} {:>10.2?} {:>12} {:>12}",
            "scroll", n, t_scroll, stats.total_entries, stats.encoded_bytes
        );
        let (printf_bytes, t_printf) = time_it(|| {
            let mut w = gossip_world(n, 7, 256, false);
            let mut log = PrintfLogger::new();
            while let Some(step) = w.step() {
                log.observe(&step);
            }
            (log.len(), log.bytes())
        });
        println!(
            "{:<10} {:>8} {:>10.2?} {:>12} {:>12}",
            "printf", n, t_printf, printf_bytes.0, printf_bytes.1
        );
        let ((ll, _), t_ll) = time_it(|| {
            let mut w = gossip_world(n, 7, 256, false);
            Liblog::record(&mut w, 7, 1_000_000)
        });
        println!(
            "{:<10} {:>8} {:>10.2?} {:>12} {:>12}",
            "liblog",
            n,
            t_ll,
            ll.store().total_entries(),
            ll.log_bytes()
        );
        let _ = report;
    }
}

fn f2_checkpoints() {
    println!("\n==============================================================");
    println!("F2 (Fig. 2, §4.2): COW speculation checkpoints vs eager copies");
    println!("==============================================================");
    println!(
        "{:<12} {:>10} {:>10} {:>12} {:>12} {:>8}",
        "state size", "cow time", "eager time", "cow bytes", "eager bytes", "ratio"
    );
    for &state in &[4 * 1024usize, 64 * 1024] {
        let (cow_bytes, t_cow) = time_it(|| {
            let mut w = gossip_world(4, 3, state, false);
            let mut tm = TimeMachine::new(
                4,
                TimeMachineConfig {
                    policy: CheckpointPolicy::EveryReceive,
                    page_size: 256,
                },
            );
            tm.run(&mut w, 1_000_000);
            tm.total_checkpoint_bytes()
        });
        let (eager_bytes, t_eager) = time_it(|| {
            let mut w = gossip_world(4, 3, state, false);
            let mut fb = FlashbackCheckpointer::new(4);
            while let Some(ev) = w.peek() {
                if let EventKind::Deliver { msg } = &ev.kind {
                    fb.take(&w, msg.dst);
                }
                if w.step().is_none() {
                    break;
                }
            }
            fb.bytes_held()
        });
        println!(
            "{:<12} {:>10.2?} {:>10.2?} {:>12} {:>12} {:>7.1}x",
            state,
            t_cow,
            t_eager,
            cow_bytes,
            eager_bytes,
            eager_bytes as f64 / cow_bytes as f64
        );
    }
}

fn ring_factory(n: usize) -> impl Fn() -> Vec<Box<dyn Program>> + Send + Sync {
    move || {
        (0..n)
            .map(|i| -> Box<dyn Program> {
                if i == 2 {
                    Box::new(RingNode::buggy(5))
                } else {
                    Box::new(RingNode::correct())
                }
            })
            .collect()
    }
}

fn f3_investigator() {
    println!("\n==============================================================");
    println!("F3 (Fig. 3, §2.1): Investigator state-space growth and orders");
    println!("==============================================================");
    println!("state-space growth (all-to-all broadcast, cap 200k):");
    for n in 3..=7 {
        let (report, t) = time_it(|| {
            ModelD::from_initial(1, NetModel::reliable(), fixd_bench::shouter_factory(n))
                .config(ExploreConfig {
                    max_states: 200_000,
                    stop_at_first_violation: false,
                    max_violations: 10_000,
                    ..ExploreConfig::default()
                })
                .run()
        });
        println!(
            "  n={n}: {:>8} states {:>9} transitions in {:>8.2?}{}",
            report.states,
            report.transitions,
            t,
            if report.truncated {
                "  << the §2.1 wall"
            } else {
                ""
            }
        );
    }
    println!("time to first mutual-exclusion violation (n=4):");
    for (name, order) in [
        ("bfs", SearchOrder::Bfs),
        ("dfs", SearchOrder::Dfs),
        ("random", SearchOrder::Random { seed: 3 }),
    ] {
        let (report, t) = time_it(|| {
            ModelD::from_initial(1, NetModel::reliable(), ring_factory(4))
                .invariant(token_ring::mutex_monitor().invariant())
                .config(ExploreConfig {
                    order: order.clone(),
                    stop_at_first_violation: true,
                    max_states: 2_000_000,
                    ..ExploreConfig::default()
                })
                .run()
        });
        println!(
            "  {name:<7}: {:>8} states, trail depth {:>3}, {:>8.2?}",
            report.states,
            report.violations.first().map_or(0, |v| v.depth),
            t
        );
    }
    println!("parallel workers (n=4, cap 30k):");
    for threads in [1usize, 2, 4] {
        let (states, t) = time_it(|| {
            ModelD::from_initial(1, NetModel::reliable(), ring_factory(4))
                .config(ExploreConfig {
                    max_states: 30_000,
                    ..ExploreConfig::default()
                })
                .run_parallel(threads)
                .states
        });
        println!("  {threads} worker(s): {states:>8} states in {t:>8.2?}");
    }
}

fn f4_response() {
    println!("\n==============================================================");
    println!("F4 (Fig. 4): FixD fault response vs CMC whole-history checking");
    println!("==============================================================");
    let script = kvstore::script(12, 5);
    let mut manifested = None;
    let (_, t_detect) = time_it(|| {
        for seed in 0..200u64 {
            let mut w = kvstore::kv_world(seed, script.clone(), (1, 80));
            let mut fixd = Fixd::new(3, FixdConfig::seeded(seed)).monitor(kvstore::gap_monitor());
            let out = fixd.supervise(&mut w, 100_000);
            if let Some(fault) = out.fault {
                manifested = Some((seed, w, fixd, fault));
                return;
            }
        }
    });
    let (seed, mut w, mut fixd, fault) = manifested.expect("bug manifests");
    println!("fault manifested on seed {seed} (search took {t_detect:.2?})");
    let (outcome, t_respond) = time_it(|| fixd.respond(&mut w, &fault).unwrap());
    println!(
        "respond (rollback+assemble): {:.2?}; line breadth {}, {} replayed",
        t_respond, outcome.rollback.procs_rolled, outcome.rollback.msgs_replayed
    );
    let (inv_report, t_inv) = time_it(|| fixd.investigate(outcome.state));
    println!(
        "investigate from checkpoint: {:>6} states in {:.2?}, {} trail(s)",
        inv_report.states,
        t_inv,
        inv_report.violations.len()
    );
    for ops in [4usize, 6, 8] {
        let s = kvstore::script(ops, 5);
        let (cmc, t_cmc) = time_it(|| {
            Cmc::new(1, NetModel::reliable(), move || {
                vec![
                    Box::new(kvstore::Client { script: s.clone() }) as Box<dyn Program>,
                    Box::new(kvstore::Primary::default()),
                    Box::new(kvstore::BackupV1::default()),
                ]
            })
            .config(ExploreConfig {
                max_states: 500_000,
                ..ExploreConfig::default()
            })
            .run()
        });
        println!(
            "CMC from initial (ops={ops}): {:>6} states in {:.2?}, {} violation(s){}{}",
            cmc.states,
            t_cmc,
            cmc.violations.len(),
            if cmc.violations.is_empty() {
                "  << reordering is outside CMC's model; the bug is invisible"
            } else {
                ""
            },
            if cmc.truncated { " (truncated)" } else { "" }
        );
    }
}

fn f5_healer() {
    println!("\n==============================================================");
    println!("F5 (Fig. 5, §3.4): update-from-checkpoint vs restart-from-scratch");
    println!("==============================================================");
    const COST: u64 = 5_000;
    println!(
        "{:>6} {:>16} {:>16} {:>10} {:>10}",
        "items", "update time", "restart time", "salvaged", "redone"
    );
    for &n_items in &[16u64, 64, 256] {
        let detect = || {
            let mut world = pipeline::pipeline_world(2, n_items, COST, Some(n_items - 2));
            let mut fixd = Fixd::new(2, FixdConfig::seeded(2)).monitor(pipeline::results_monitor());
            let out = fixd.supervise(&mut world, 1_000_000);
            (world, fixd, out.fault.expect("detected"))
        };
        let patch = pipeline::cruncher_patch(COST);
        let (mut world, mut fixd, _) = detect();
        let (salvaged, t_update) = time_it(|| {
            let heal = fixd.heal_update(&mut world, Pid(1), &patch).unwrap();
            fixd.supervise(&mut world, 1_000_000);
            heal.salvaged_events
        });
        let (mut world2, mut fixd2, _) = detect();
        let (_, t_restart) = time_it(|| {
            fixd2.heal_restart(&mut world2, &patch, &[Pid(1)]);
            let src = Patch::code_only("src", 1, 2, move || Box::new(pipeline::Source { n_items }));
            fixd2.heal_restart(&mut world2, &src, &[Pid(0)]);
            fixd2.supervise(&mut world2, 1_000_000);
        });
        println!(
            "{:>6} {:>16.2?} {:>16.2?} {:>10} {:>10}",
            n_items, t_update, t_restart, salvaged, n_items
        );
    }
}

fn f6_recovery_lines() {
    println!("\n==============================================================");
    println!("F6 (Fig. 6): safe recovery lines (CIC) vs the domino effect");
    println!("==============================================================");
    println!(
        "{:<10} {:>4} {:>14} {:>13} {:>9} {:>9}",
        "policy", "n", "events undone", "procs rolled", "purged", "replayed"
    );
    for &n in &[4usize, 6, 8] {
        for (name, policy) in [
            ("CIC", CheckpointPolicy::EveryReceive),
            ("periodic", CheckpointPolicy::Periodic { every: 30 }),
        ] {
            let mut w = gossip_world(n, 13, 1024, false);
            let mut tm = TimeMachine::new(
                n,
                TimeMachineConfig {
                    policy,
                    page_size: 256,
                },
            );
            tm.run(&mut w, 400);
            let fail = (0..n)
                .map(|i| Pid(i as u32))
                .max_by_key(|&p| tm.interval(p))
                .unwrap();
            let target = tm.interval(fail).saturating_sub(1);
            let r = tm.rollback(&mut w, fail, target).expect("rollback");
            println!(
                "{:<10} {:>4} {:>14} {:>13} {:>9} {:>9}",
                name, n, r.events_undone, r.procs_rolled, r.msgs_purged, r.msgs_replayed
            );
        }
    }
}

fn f7_modeld() {
    println!("\n==============================================================");
    println!("F7 (Fig. 7): ModelD front-end + back-end (see fig7_modeld_demo)");
    println!("==============================================================");
    // Abbreviated functional check; the full demo is its own binary.
    let votes = vec![true, false];
    let report = ModelD::from_initial(1, NetModel::reliable(), tpc::tpc_factory(votes, true))
        .invariant(tpc::atomicity_monitor().invariant())
        .run();
    println!(
        "guarded-command engine over real 2PC code: {} states, {} violation(s) — {}",
        report.states,
        report.violations.len(),
        if report.violations.is_empty() {
            "UNEXPECTED"
        } else {
            "bug found"
        }
    );
}

fn f8_matrix() {
    println!("\n==============================================================");
    println!("F8 (Fig. 8): characteristics matrix");
    println!("==============================================================");
    print!("{}", fixd_core::render_matrix());
}
