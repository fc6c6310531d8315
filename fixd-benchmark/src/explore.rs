//! `explore-chordkv`: exhaustive `ModelD::run()` of the Chord
//! keyed-storage target (as in `fixd-bench/tests/explore_chord_kv.rs`)
//! under the `no-bad-read` invariant — the Investigator alone, on real
//! program code, with a visited set far beyond cache. Scroll and Time
//! Machine idle.

use std::sync::Arc;

use fixd::examples::chord::{ChordNode, ChordRing, KV_READ_MARK};
use fixd::investigator::{
    ExploreConfig, ExploreReport, Invariant, ModelAction, ModelD, NetModel, WorldState,
};
use fixd::runtime::{Pid, Program};

use crate::harness::{
    derive_seed, first_problem, timed, trace_metrics, Args, Clock, Ledger, Outcome, Timed,
};
use crate::stats::median;
use crate::trace::{Name, Tracer};

const MEMBERS: usize = 3;

/// A dense `MEMBERS`-member keyed-storage ring as a model-checker
/// target: no stabilize rounds, no random lookups — the put / get /
/// replicate traffic of `puts` writes per member is the whole workload.
fn kv_model(seed: u64, puts: u32) -> ModelD {
    ModelD::from_initial(seed, NetModel::reliable(), move || {
        let members: Vec<Pid> = (0..MEMBERS as u32).map(Pid).collect();
        let ring = Arc::new(ChordRing::new(&members));
        (0..MEMBERS)
            .map(|_| {
                Box::new(ChordNode::new(Arc::clone(&ring), 0, 0).with_kv_workload(puts))
                    as Box<dyn Program>
            })
            .collect()
    })
    .invariant(Invariant::new("no-bad-read", |s: &WorldState| {
        s.outputs()
            .iter()
            .all(|(_, p)| p.first() != Some(&KV_READ_MARK) || p.get(1) == Some(&1))
    }))
    .config(ExploreConfig::exhaustive(2_000_000))
}

fn exhaustive_and_clean(r: &ExploreReport<ModelAction>) -> bool {
    !r.truncated && r.violations.is_empty() && r.deadlocks.is_empty()
}

/// Build the target and — as the reference the set-up owes the output
/// checks — explore the one-put model, which must be exhaustive, clean
/// and smaller than the target.
fn set_up(args: &Args, ledger: &mut Ledger) -> (ModelD, usize) {
    let seed = derive_seed(args.seed, 0xE8B1, 0);
    let small = kv_model(seed, 1).run();
    if !exhaustive_and_clean(&small) || small.states < 10 {
        ledger.fail(format!("one-put reference model: {}", small.summary()));
    }
    (kv_model(seed, args.size(2, 1)), small.states)
}

fn check(
    what: &str,
    r: &ExploreReport<ModelAction>,
    reference: Option<(usize, u64)>,
    floor: usize,
    ledger: &mut Ledger,
) {
    ledger.op(first_problem(&[
        (exhaustive_and_clean(r), &|| {
            format!("{what}: {}", r.summary())
        }),
        (r.states >= floor, &|| {
            format!("{what}: fewer states than the one-put model")
        }),
        (
            reference.is_none_or(|x| x == (r.states, r.transitions)),
            &|| format!("{what}: space differs between runs: {}", r.summary()),
        ),
    ]));
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut timed_part = Timed::default();

    // One discarded warm-up run: the visited set's first-touch page
    // faults land here.
    let (md, floor) = set_up(args, &mut out.ledger);
    let warm = md.run();
    check("warm-up", &warm, None, floor, &mut out.ledger);
    let space = (warm.states, warm.transitions);
    out.counts
        .insert("max_depth", warm.max_depth_reached as u64);
    drop((md, warm));

    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut clock = Clock::new(seconds, args.min_rounds());
    let mut walls = Vec::new();
    while clock.more() {
        let ((md, floor), wall) = timed(|| set_up(args, &mut out.ledger));
        timed_part.setups.push(wall);
        let (r, wall) = timed(|| md.run());
        check("serial", &r, Some(space), floor, &mut out.ledger);
        timed_part.rates.push(r.states as f64 / wall);
        timed_part.begin_round();
        timed_part.op_us(wall * 1e6);
        walls.push(wall);
    }
    timed_part.rounds = clock.rounds;
    timed_part.ops_per_round = space.0 as u64;
    out.counts.insert("states", space.0 as u64);
    out.counts.insert("transitions", space.1);

    let mut traced_rounds = 0;
    if args.trace {
        // `ModelD::run` is one opaque call, so the traced run has one
        // span per engine and the same target for all three.
        let (md, floor) = set_up(args, &mut out.ledger);
        let mut tr = Tracer::new();
        let mut rates = [0.0f64; 3];
        let engines = [
            (Name::ExploreSerial, "serial", 0),
            (Name::ExploreW1, "frontier w1", 1),
            (Name::ExploreW2, "frontier w2", 2),
        ];
        for (i, (name, what, workers)) in engines.into_iter().enumerate() {
            tr.enter_op(i as u32);
            let r = tr.call(name, || match workers {
                0 => md.run(),
                n => md.run_parallel(n),
            });
            let ns = tr.exit(Name::Op);
            check(what, &r, Some(space), floor, &mut out.ledger);
            rates[i] = r.states as f64 / (ns as f64 / 1e9);
        }
        traced_rounds = 1;
        let overhead = tr.agg(Name::ExploreSerial).total_ns as f64 / 1e9 / median(&walls) - 1.0;
        let m = &mut out.metrics;
        trace_metrics(&tr, "explore-chordkv", overhead, m);
        m.set(
            "investigator.serial_states_per_s",
            median(&timed_part.rates),
        );
        m.set("investigator.frontier_w1_states_per_s", rates[1]);
        m.set("investigator.frontier_w2_states_per_s", rates[2]);
        m.set(
            "investigator.transitions_per_state",
            space.1 as f64 / space.0 as f64,
        );
        // Every transition that did not discover a state revisited one.
        m.set(
            "investigator.revisit_frac",
            1.0 - (space.0 as f64 - 1.0) / space.1 as f64,
        );
    }
    timed_part.summarise(args, traced_rounds, &mut out.metrics);
    out
}
