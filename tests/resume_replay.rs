//! A process resumed from a checkpoint outside the world reproduces the
//! world (paper §2.2 local playback started from a Time-Machine
//! checkpoint, §4.1–4.3 assembly).
//!
//! For every pid and every cut `k` of a recorded run, the pid's
//! checkpoint after `k` steps is resumed in a `SoloHarness` with its
//! program restored from the checkpoint's bytes, and the pid's Scroll
//! suffix after the cut is replayed through it. Every handler's effects
//! must fingerprint exactly as the world's did — timer ids included, so
//! a harness that restarted its id counters at 1 diverges at the first
//! timer it mints. And the replay must end on the world's state: after
//! the suffix, the program's bytes are the pid's at the last cut.

use fixd::examples::{kvstore, pipeline, token_ring, two_phase_commit};
use fixd::prelude::*;
use fixd::runtime::ProcCheckpoint;
use fixd::scroll::replay::{replay_from, Fidelity, ReplayConfig};
use fixd::scroll::RecordConfig;

const SEEDS: [u64; 4] = [5, 6, 7, 8];
const MAX_STEPS: usize = 2_000;

/// One pid's state at one cut: its checkpoint, and how many Scroll
/// entries it had when the checkpoint was taken.
struct Cut {
    ck: ProcCheckpoint,
    recorded: usize,
}

fn assert_resumes_exactly(app: &str, seed: u64, build: impl Fn() -> World) {
    let mut w = build();
    w.ensure_started();
    let n = w.num_procs();
    let pids: Vec<Pid> = (0..n as u32).map(Pid).collect();
    let mut rec = ScrollRecorder::new(n, RecordConfig::default());
    let cut = |w: &World, rec: &ScrollRecorder| -> Vec<Cut> {
        pids.iter()
            .map(|&p| Cut {
                ck: w.checkpoint_process(p),
                recorded: rec.store().len(p),
            })
            .collect()
    };
    let mut cuts = vec![cut(&w, &rec)];
    while let Some(step) = w.step() {
        rec.observe(&w, &step);
        cuts.push(cut(&w, &rec));
        assert!(cuts.len() <= MAX_STEPS, "{app} seed {seed}: no quiescence");
    }
    let store = rec.into_store();
    // Programs in their initial state, to restore checkpoints into.
    let fresh = build();
    let last = cuts.last().expect("the cut before the first step");
    for (k, at_k) in cuts.iter().enumerate() {
        for (&pid, c) in pids.iter().zip(at_k) {
            let mut program = fresh.with_program(pid, |p| p.clone_program());
            program.restore(&c.ck.state.to_bytes());
            let out = replay_from(
                &c.ck,
                n,
                program.as_mut(),
                &store.scroll(pid)[c.recorded..],
                ReplayConfig {
                    capture_states: false,
                    stop_on_divergence: true,
                },
            );
            if let Fidelity::Divergent { at_local_seq, .. } = out.fidelity {
                panic!("{app} seed {seed}, {pid} cut {k}: diverged at local_seq {at_local_seq}");
            }
            assert_eq!(
                out.final_state,
                last[pid.idx()].ck.state.to_bytes(),
                "{app} seed {seed}, {pid} cut {k}: the replay ends in another state"
            );
        }
    }
}

#[test]
fn token_ring_resumes_exactly() {
    for seed in SEEDS {
        assert_resumes_exactly("token ring", seed, || token_ring::ring_world(3, seed, None));
    }
}

#[test]
fn kvstore_resumes_exactly() {
    for seed in SEEDS {
        assert_resumes_exactly("kvstore", seed, || {
            kvstore::kv_world(seed, kvstore::script(8, seed), (1, 80))
        });
    }
}

#[test]
fn two_phase_commit_resumes_exactly() {
    for seed in SEEDS {
        assert_resumes_exactly("2PC", seed, || {
            two_phase_commit::tpc_world(seed, &[true, true, false], false)
        });
    }
}

#[test]
fn pipeline_resumes_exactly() {
    for seed in SEEDS {
        assert_resumes_exactly("pipeline", seed, || {
            pipeline::pipeline_world(seed, 8, 50, None)
        });
    }
}
