//! `steady-wide` and `steady-spill`: long fault-free supervision of
//! 96-wide Chord worlds.
//!
//! `steady-wide` drains each world bare (`World::step`) and then under
//! `Fixd::supervise` with the default config (a checkpoint at every
//! receive, resident Scroll): Scroll append and Time-Machine
//! checkpointing do most of the work. `steady-spill` supervises the same
//! worlds the way a long-lived deployment would — the Scroll spills
//! sealed prefixes to a `SharedDisk`, checkpoints intern into one shared
//! `PageStore`, supervision runs in segments with a Time-Machine GC of
//! the previous segment's line between them — and then reads the spilled
//! Scroll back (`encode_segment` for every pid, `replay_process` for a
//! few members), so a gain for resident append that costs spill, GC or
//! read-back shows.

use std::sync::Arc;
use std::time::Instant;

use fixd::core::{Fixd, FixdConfig};
use fixd::examples::chord::{chord_world, ChordNode, ChordRing};
use fixd::runtime::{Pid, SharedDisk, World};
use fixd::scroll::{replay_process, Fidelity, SpillConfig};
use fixd::store::{fnv1a, StoreStats};
use fixd::timemachine::PageStore;

use crate::harness::{
    derive_seed, first_problem, timed, trace_metrics, Args, Clock, Ledger, Outcome, Timed,
};
use crate::metrics::Metrics;
use crate::stats::median;
use crate::supervise::TracedSession;
use crate::trace::{Name, Tracer};

const STABILIZE_ROUNDS: u32 = 3;

struct Sizes {
    worlds: usize,
    width: usize,
    lookups: u32,
    /// steady-spill: steps per supervised segment.
    segment: u64,
    /// steady-spill: per-process resident Scroll bytes before a spill.
    spill_threshold: usize,
    /// steady-spill: members replayed from the spilled Scroll.
    replayed: usize,
    /// steady-spill: worlds also supervised unspilled as the reference.
    reference_worlds: usize,
}

fn sizes(args: &Args) -> Sizes {
    Sizes {
        worlds: args.size(24, 2),
        width: args.size(96, 12),
        lookups: args.size(16, 4),
        segment: args.size(1024, 128),
        spill_threshold: args.size(16 * 1024, 1024),
        replayed: args.size(8, 2),
        reference_worlds: args.size(2, 1),
    }
}

/// What a supervised world must reproduce.
#[derive(Clone, Copy)]
struct Reference {
    steps: u64,
    fingerprint: u64,
    /// Hash of every pid's encoded scroll (unspilled supervised run).
    scroll_hash: Option<u64>,
}

/// Everything one round needs before its clock starts.
struct Round {
    seeds: Vec<u64>,
    worlds: Vec<World>,
    cfgs: Vec<FixdConfig>,
    /// steady-wide: every world drained bare (`World::step` alone).
    /// steady-spill: the first worlds supervised without spilling.
    reference: Vec<Reference>,
    /// Wall of the bare drains, for `runtime.bare_step_ns`.
    bare_wall: f64,
}

fn build_world(sz: &Sizes, seed: u64) -> World {
    chord_world(sz.width, seed, STABILIZE_ROUNDS, sz.lookups)
}

/// `prebuilt`: build the supervised worlds now (untraced rounds);
/// traced rounds build them inside a span instead.
fn set_up(args: &Args, sz: &Sizes, spill: bool, prebuilt: bool) -> Round {
    let seeds: Vec<u64> = (0..sz.worlds as u64)
        .map(|i| derive_seed(args.seed, 0x57EAD, i))
        .collect();
    let pages = PageStore::new();
    let disk = SharedDisk::new();
    let cfgs = seeds
        .iter()
        .map(|&seed| {
            let mut cfg = FixdConfig::seeded(seed);
            if spill {
                cfg.page_store = Some(pages.clone());
                cfg.scroll_spill = Some(SpillConfig::new(disk.clone(), sz.spill_threshold));
            }
            cfg
        })
        .collect();
    let mut bare_wall = 0.0;
    let reference = if spill {
        seeds[..sz.reference_worlds]
            .iter()
            .map(|&seed| {
                let mut w = build_world(sz, seed);
                let mut plain = Fixd::new(sz.width, FixdConfig::seeded(seed));
                let steps = plain.supervise(&mut w, u64::MAX).steps;
                let scroll_hash = (0..sz.width).fold(0, |h, p| {
                    h ^ pid_hash(p, &plain.scroll().encode_segment(Pid(p as u32)))
                });
                Reference {
                    steps,
                    fingerprint: w.global_snapshot().fingerprint(),
                    scroll_hash: Some(scroll_hash),
                }
            })
            .collect()
    } else {
        seeds
            .iter()
            .map(|&seed| {
                let mut w = build_world(sz, seed);
                let (steps, wall) = timed(|| {
                    let mut n = 0u64;
                    while w.step().is_some() {
                        n += 1;
                    }
                    n
                });
                bare_wall += wall;
                Reference {
                    steps,
                    fingerprint: w.global_snapshot().fingerprint(),
                    scroll_hash: None,
                }
            })
            .collect()
    };
    Round {
        worlds: if prebuilt {
            seeds.iter().map(|&s| build_world(sz, s)).collect()
        } else {
            Vec::new()
        },
        seeds,
        cfgs,
        reference,
        bare_wall,
    }
}

/// One pid's share of a world's scroll hash.
fn pid_hash(p: usize, encoded: &[u8]) -> u64 {
    fnv1a(encoded).rotate_left(p as u32 % 64)
}

/// Sums over the supervised worlds of one round.
#[derive(Default)]
struct Tally {
    steps: u64,
    bare_wall: f64,
    supervise_wall: f64,
    gc_wall: f64,
    encode_wall: f64,
    replay_wall: f64,
    scroll_entries: u64,
    checkpoints: u64,
    checkpoint_b: u64,
    resident_scroll_b: u64,
    delivered: u64,
    ring_pushes: u64,
    queue_pushes: u64,
    payload_copied: u64,
    payload_aliased: u64,
    encoded_b: u64,
    replayed_b: u64,
    replayed_steps: u64,
    replays: u64,
    replays_exact: u64,
    spilled_segments: u64,
    spilled_b: u64,
    gc_passes: u64,
    gc_dropped: u64,
    gc_freed_b: u64,
    /// Page-store counters: cumulative over the round; `live_bytes` is
    /// the largest footprint seen at the end of a world.
    store: StoreStats,
}

impl Tally {
    fn world_counters(&mut self, w: &World, fixd: &Fixd) {
        self.delivered += w.stats().delivered;
        let q = w.queue_stats();
        self.ring_pushes += q.ring_pushes;
        self.queue_pushes += q.ring_pushes + q.overflow_pushes + q.past_pushes;
        let p = w.payload_stats();
        self.payload_copied += p.copied;
        self.payload_aliased += p.aliased;
        let s = fixd.stats();
        self.scroll_entries += s.scroll_entries as u64;
        self.checkpoints += s.checkpoints as u64;
        self.checkpoint_b += s.checkpoint_bytes as u64;
        self.resident_scroll_b += fixd.scroll().resident_bytes() as u64;
        self.spilled_segments += fixd.scroll().spilled_segments() as u64;
        self.spilled_b += fixd.scroll().spilled_bytes() as u64;
    }

    /// Fold in the page store of the world just finished. The shared
    /// store of steady-spill is cumulative already; the private stores
    /// of steady-wide add up.
    fn store_counters(&mut self, s: StoreStats, shared: bool) {
        let live = self.store.live_bytes.max(s.live_bytes);
        if shared {
            self.store = s;
        } else {
            self.store.hits += s.hits;
            self.store.misses += s.misses;
            self.store.deduped_bytes += s.deduped_bytes;
            self.store.freed_bytes += s.freed_bytes;
        }
        self.store.live_bytes = live;
    }

    /// The write-path wall `ops_per_s` divides by.
    fn write_wall(&self) -> f64 {
        self.supervise_wall + self.gc_wall
    }
}

/// The stable line of a segment boundary: every process's current
/// checkpoint interval.
fn current_line(fixd: &mut Fixd, width: usize) -> Vec<u64> {
    let tm = fixd.time_machine();
    (0..width).map(|p| tm.interval(Pid(p as u32))).collect()
}

/// One untraced round through the real entry points. Each world is one
/// rate sample (steps ÷ its write-path wall) and one latency sample:
/// the wall of its whole cycle — supervised to quiescence and, for
/// steady-spill, read back — per 1,000 steps, so that worlds of
/// different lengths compare.
fn round(sz: &Sizes, spill: bool, r: Round, timed_part: &mut Timed, ledger: &mut Ledger) -> Tally {
    let mut t = Tally {
        bare_wall: r.bare_wall,
        ..Tally::default()
    };
    timed_part.begin_round();
    let members: Vec<Pid> = (0..sz.width as u32).map(Pid).collect();
    let ring = Arc::new(ChordRing::new(&members));
    for (i, (mut w, cfg)) in r.worlds.into_iter().zip(r.cfgs).enumerate() {
        let seed = r.seeds[i];
        let mut fixd = Fixd::new(sz.width, cfg);
        w.reset_payload_base();
        let op_start = Instant::now();
        let write_wall_before = t.write_wall();
        let mut steps = 0u64;
        let mut clean = true;
        let mut within_threshold = true;
        if spill {
            let mut previous: Option<Vec<u64>> = None;
            loop {
                let (out, wall) = timed(|| fixd.supervise(&mut w, sz.segment));
                t.supervise_wall += wall;
                steps += out.steps;
                clean &= out.fault.is_none();
                within_threshold &= fixd.scroll().resident_bytes() < sz.spill_threshold * sz.width;
                if out.quiescent {
                    break;
                }
                let (gc, wall) = timed(|| {
                    let line = current_line(&mut fixd, sz.width);
                    previous
                        .replace(line)
                        .map(|stable| fixd.time_machine().gc(&stable))
                });
                t.gc_wall += wall;
                if let Some(gc) = gc {
                    t.gc_passes += 1;
                    t.gc_dropped += gc.checkpoints_dropped as u64;
                    t.gc_freed_b += gc.page_bytes_freed;
                }
            }
        } else {
            let (out, wall) = timed(|| fixd.supervise(&mut w, u64::MAX));
            t.supervise_wall += wall;
            steps = out.steps;
            clean = out.fault.is_none() && out.quiescent;
        }

        let mut scroll_hash = None;
        let mut exact = true;
        if spill {
            let mut encoded_len = vec![0usize; sz.width];
            let (hash, wall) = timed(|| {
                encoded_len.iter_mut().enumerate().fold(0, |h, (p, len)| {
                    let bytes = fixd.scroll().encode_segment(Pid(p as u32));
                    *len = bytes.len();
                    h ^ pid_hash(p, &bytes)
                })
            });
            scroll_hash = Some(hash);
            t.encode_wall += wall;
            t.encoded_b += encoded_len.iter().sum::<usize>() as u64;
            let (_, wall) = timed(|| {
                for (p, len) in encoded_len.iter().enumerate().take(sz.replayed) {
                    let pid = Pid(p as u32);
                    let mut fresh = ChordNode::new(Arc::clone(&ring), STABILIZE_ROUNDS, sz.lookups);
                    let out =
                        replay_process(pid, sz.width, seed, &mut fresh, &fixd.scroll().scroll(pid));
                    t.replays += 1;
                    t.replays_exact += u64::from(out.fidelity == Fidelity::Exact);
                    exact &= out.fidelity == Fidelity::Exact;
                    t.replayed_steps += out.steps;
                    t.replayed_b += *len as u64;
                }
            });
            t.replay_wall += wall;
        }
        let op_wall = op_start.elapsed().as_secs_f64();
        timed_part.op_us(op_wall * 1e6 * 1000.0 / steps as f64);
        timed_part
            .rates
            .push(steps as f64 / (t.write_wall() - write_wall_before));

        t.steps += steps;
        t.world_counters(&w, &fixd);
        t.store_counters(fixd.time_machine().page_store().stats(), spill);
        let fingerprint = w.global_snapshot().fingerprint();
        let reference = r.reference.get(i);
        ledger.op(first_problem(&[
            (clean, &|| {
                format!("world {i}: fault or no quiescence under supervision")
            }),
            (w.peek().is_none(), &|| {
                format!("world {i}: events left after supervision")
            }),
            (within_threshold, &|| {
                format!("world {i}: resident scroll bytes reached threshold x width")
            }),
            (exact, &|| {
                format!("world {i}: spilled scroll did not replay exactly")
            }),
            (
                reference.is_none_or(|r| (r.steps, r.fingerprint) == (steps, fingerprint)),
                &|| format!("world {i}: supervised run ends differently from its reference run"),
            ),
            (
                reference.is_none_or(|r| r.scroll_hash.is_none() || r.scroll_hash == scroll_hash),
                &|| {
                    format!(
                        "world {i}: spilled scroll re-encodes differently from the unspilled one"
                    )
                },
            ),
        ]));
    }
    t
}

/// One traced round: the same work through the bench-owned loop.
/// Returns the traced write-path wall (for `trace.overhead_frac`).
fn traced_round(sz: &Sizes, spill: bool, r: Round, tr: &mut Tracer, ledger: &mut Ledger) -> f64 {
    let members: Vec<Pid> = (0..sz.width as u32).map(Pid).collect();
    let ring = Arc::new(ChordRing::new(&members));
    let mut write_wall = 0.0;
    for (i, cfg) in r.cfgs.into_iter().enumerate() {
        let seed = r.seeds[i];
        let mut w = tr.call(Name::WorldBuild, || build_world(sz, seed));
        let mut session = TracedSession::new(sz.width, cfg, Vec::new(), tr);
        tr.enter_op(i as u32);
        let mut clean = true;
        if spill {
            let mut previous: Option<Vec<u64>> = None;
            loop {
                let (out, wall) = timed(|| session.supervise(&mut w, sz.segment, tr));
                write_wall += wall;
                clean &= out.fault.is_none();
                if out.quiescent {
                    break;
                }
                let (_, wall) = timed(|| {
                    let line = current_line(&mut session.fixd, sz.width);
                    if let Some(stable) = previous.replace(line) {
                        tr.call(Name::Gc, || session.fixd.time_machine().gc(&stable));
                    }
                });
                write_wall += wall;
            }
            for p in 0..sz.width {
                tr.call(Name::Encode, || {
                    session.scroll().encode_segment(Pid(p as u32))
                });
            }
            for p in 0..sz.replayed {
                let pid = Pid(p as u32);
                let mut fresh = ChordNode::new(Arc::clone(&ring), STABILIZE_ROUNDS, sz.lookups);
                let out = tr.call(Name::Replay, || {
                    replay_process(
                        pid,
                        sz.width,
                        seed,
                        &mut fresh,
                        &session.scroll().scroll(pid),
                    )
                });
                clean &= out.fidelity == Fidelity::Exact;
            }
        } else {
            let (out, wall) = timed(|| session.supervise(&mut w, u64::MAX, tr));
            write_wall += wall;
            clean = out.fault.is_none() && out.quiescent;
        }
        tr.exit(Name::Op);
        let fingerprint = tr.call(Name::Snapshot, || w.global_snapshot().fingerprint());
        let reference = r.reference.get(i);
        ledger.op(first_problem(&[
            (clean, &|| {
                format!("traced world {i}: fault, no quiescence or inexact replay")
            }),
            (
                reference.is_none_or(|r| r.fingerprint == fingerprint),
                &|| format!("traced world {i}: ends differently from its reference run"),
            ),
        ]));
    }
    write_wall
}

pub fn run(args: &Args, spill: bool) -> Outcome {
    let sz = sizes(args);
    let mut out = Outcome::default();
    let mut timed_part = Timed::default();

    // One discarded warm-up round: first-touch page faults make the
    // first worlds of a process several times slower than the rest.
    let warm_up = set_up(args, &sz, spill, true);
    round(&sz, spill, warm_up, &mut Timed::default(), &mut out.ledger);

    let mut clock = Clock::new(args.phase_seconds(), args.min_rounds());
    let mut tally = Tally::default();
    let mut write_walls = Vec::new();
    while clock.more() {
        let (r, wall) = timed(|| set_up(args, &sz, spill, true));
        timed_part.setups.push(wall);
        tally = round(&sz, spill, r, &mut timed_part, &mut out.ledger);
        write_walls.push(tally.write_wall());
    }
    timed_part.rounds = clock.rounds;
    timed_part.ops_per_round = tally.steps;

    out.counts.insert("steps", tally.steps);
    out.counts.insert("scroll_entries", tally.scroll_entries);
    out.counts.insert("checkpoints", tally.checkpoints);
    out.counts.insert("delivered", tally.delivered);
    if spill {
        out.counts.insert("replayed_steps", tally.replayed_steps);
    }

    let mut traced_rounds = 0;
    if args.trace {
        let mut tr = Tracer::new();
        let mut traced_wall = Vec::new();
        let mut clock = Clock::new(args.phase_seconds(), args.min_rounds());
        while clock.more() {
            let r = set_up(args, &sz, spill, false);
            traced_wall.push(traced_round(&sz, spill, r, &mut tr, &mut out.ledger));
        }
        traced_rounds = clock.rounds;
        let overhead = median(&traced_wall) / median(&write_walls) - 1.0;
        let name = if spill { "steady-spill" } else { "steady-wide" };
        trace_metrics(&tr, name, overhead, &mut out.metrics);
        layer_metrics(&mut out.metrics, &tally);
    }
    timed_part.summarise(args, traced_rounds, &mut out.metrics);
    out
}

/// The count- and wall-based per-layer metrics of the last untraced
/// round (the span-based ones are set by `trace_metrics`).
fn layer_metrics(m: &mut Metrics, t: &Tally) {
    let steps = t.steps as f64;
    let entries = t.scroll_entries as f64;
    m.set("runtime.bare_step_ns", t.bare_wall * 1e9 / steps);
    m.set(
        "runtime.payload_copied_b_per_step",
        t.payload_copied as f64 / steps,
    );
    m.set(
        "runtime.payload_aliased_b_per_step",
        t.payload_aliased as f64 / steps,
    );
    m.set_ratio(
        "runtime.queue_ring_push_frac",
        t.ring_pushes as f64,
        t.queue_pushes as f64,
    );
    m.set("runtime.delivered_per_step", t.delivered as f64 / steps);

    m.set_ratio(
        "scroll.encode_mb_per_s",
        t.encoded_b as f64 / 1e6,
        t.encode_wall,
    );
    m.set_ratio(
        "scroll.replay_steps_per_s",
        t.replayed_steps as f64,
        t.replay_wall,
    );
    m.set_ratio(
        "scroll.replay_exact_frac",
        t.replays_exact as f64,
        t.replays as f64,
    );
    m.set_ratio(
        "scroll.readback_mb_per_s",
        (t.encoded_b + t.replayed_b) as f64 / 1e6,
        t.encode_wall + t.replay_wall,
    );
    m.set("scroll.entries", entries);
    m.set(
        "scroll.resident_b_per_entry",
        t.resident_scroll_b as f64 / entries,
    );
    m.set("scroll.encoded_b_per_entry", t.encoded_b as f64 / entries);
    m.set("scroll.spilled_segments", t.spilled_segments as f64);
    m.set("scroll.spilled_b", t.spilled_b as f64);

    m.set_ratio(
        "timemachine.gc_dropped_per_pass",
        t.gc_dropped as f64,
        t.gc_passes as f64,
    );
    m.set("timemachine.gc_freed_b", t.gc_freed_b as f64);
    m.set("timemachine.checkpoints", t.checkpoints as f64);
    m.set(
        "timemachine.checkpoint_b_per_step",
        t.checkpoint_b as f64 / steps,
    );

    let store = &t.store;
    m.set_ratio(
        "store.intern_hit_frac",
        store.hits as f64,
        (store.hits + store.misses) as f64,
    );
    m.set("store.live_b", store.live_bytes as f64);
    m.set("store.deduped_b", store.deduped_bytes as f64);
    m.set("store.freed_b", store.freed_bytes as f64);

    m.set("core.supervised_steps_per_s", steps / t.write_wall());
    m.set_ratio("core.supervise_overhead_x", t.supervise_wall, t.bare_wall);
    m.set(
        "core.resident_b_per_step",
        (t.resident_scroll_b + t.checkpoint_b) as f64 / steps,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The traced loop may not drift from `Fixd::supervise`: one world
    /// through both must end in the same state with the same counters.
    #[test]
    fn traced_supervise_matches_the_real_loop() {
        let args = Args {
            seed: 7,
            seconds: 0.0,
            trace: true,
            smoke: true,
        };
        let sz = sizes(&args);
        let seed = derive_seed(args.seed, 0x57EAD, 0);

        let mut real_world = build_world(&sz, seed);
        let mut real = Fixd::new(sz.width, FixdConfig::seeded(seed));
        let real_out = real.supervise(&mut real_world, u64::MAX);

        let mut tr = Tracer::new();
        let mut traced_world = build_world(&sz, seed);
        let mut session =
            TracedSession::new(sz.width, FixdConfig::seeded(seed), Vec::new(), &mut tr);
        tr.enter_op(0);
        let traced_out = session.supervise(&mut traced_world, u64::MAX, &mut tr);
        tr.exit(Name::Op);

        assert!(real_out.quiescent && traced_out.quiescent);
        assert_eq!(real_out.steps, traced_out.steps);
        assert_eq!(
            real_world.global_snapshot().fingerprint(),
            traced_world.global_snapshot().fingerprint()
        );
        assert_eq!(real.stats(), session.stats());
        assert_eq!(tr.agg(Name::Step).count, real_out.steps);
        assert!(tr.coverage() > 0.5, "coverage {}", tr.coverage());
    }
}
