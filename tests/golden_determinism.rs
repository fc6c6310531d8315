//! Golden determinism: the allocation-free hot-path refactor (shared
//! `StepRecord`s, `SharedMessage`, `Payload` outputs, zero-copy segment
//! decoding) is purely representational — it must not move a single
//! observable bit of the simulation.
//!
//! Two goldens, both captured from the pre-refactor seed:
//!
//! 1. the full campaign-report JSON of a fixed two-seed standard matrix
//!    (`tests/fixtures/golden_campaign_cells.json`), byte-identical
//!    modulo the `payload_copied`/`payload_aliased` instrumentation
//!    counters — those *measure the clones themselves*, so the
//!    refactor's entire purpose is to change them (downward);
//! 2. a fingerprint chain over the complete `StepRecord` sequence of a
//!    faulty mesh run (every event's seq/time/kind/message identity and
//!    every handler's full `Effects` fingerprint).
//!
//! Re-bless (only ever on known-good code): `FIXD_BLESS=1 cargo test
//! --test golden_determinism`.

use fixd::campaign::{run_campaign_with_threads, standard_matrix};
use fixd::prelude::*;
use fixd::runtime::wire::{fnv1a, fnv_mix};
use fixd::runtime::{EventKind, FaultPlan, NetworkConfig, Trace};

const FIXTURE: &str = "tests/fixtures/golden_campaign_cells.json";

/// Trace-sequence fingerprint captured from the seed (pre-refactor)
/// `World::step` implementation for `mesh_world(3, 0xF00D)`.
const GOLDEN_TRACE_FP: u64 = 0x1ed0_71bf_787b_dd5d;
/// Number of records behind [`GOLDEN_TRACE_FP`], so a silently truncated
/// run cannot masquerade as a matching one.
const GOLDEN_TRACE_LEN: usize = 136;

/// Drop the `payload_copied`/`payload_aliased` key-value pairs from a
/// campaign-cells JSON: they count clone operations, which the
/// allocation-free refactor removes by design. Everything else —
/// steps, fingerprints, scroll/checkpoint accounting, app metrics —
/// must stay byte-identical.
fn strip_instrumentation(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    for line in json.lines() {
        let mut line = line.to_string();
        for key in ["payload_copied", "payload_aliased"] {
            if let Some(start) = line.find(&format!("\"{key}\": ")) {
                let tail = &line[start..];
                let end = tail.find(", ").map_or(tail.len(), |e| e + 2);
                line.replace_range(start..start + end, "");
            }
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

#[test]
fn campaign_report_matches_pre_refactor_seed() {
    let spec = standard_matrix(&[1, 2]);
    let report = run_campaign_with_threads(&spec, 2);
    assert_eq!(report.total_cells(), spec.expected_cells());
    let got = strip_instrumentation(&report.to_json());
    if std::env::var("FIXD_BLESS").is_ok() {
        std::fs::create_dir_all("tests/fixtures").unwrap();
        std::fs::write(FIXTURE, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(FIXTURE)
        .expect("golden fixture missing — run with FIXD_BLESS=1 on known-good code");
    assert_eq!(
        got, want,
        "campaign report drifted from the pre-refactor seed"
    );
}

/// A small mesh with every hot-path surface live: forwarded (aliased)
/// payloads, fresh sends, outputs, timers set and cancelled, random
/// draws, a self-crash, plus network loss/duplication/corruption and a
/// scheduled crash from the fault plan.
struct Mesh {
    hops: u8,
    seen: u64,
}

impl Program for Mesh {
    fn on_start(&mut self, ctx: &mut Context) {
        if ctx.pid() == Pid(0) {
            ctx.send(Pid(1), 1, vec![self.hops; 96]);
        }
        let t = ctx.set_timer(40 + u64::from(ctx.pid().0));
        if ctx.pid().0 == 2 {
            ctx.cancel_timer(t);
        }
    }
    fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
        self.seen += 1;
        let _ = ctx.random();
        ctx.output(vec![msg.payload[0], ctx.pid().0 as u8]);
        if msg.tag != 9 && msg.payload[0] > 0 {
            let next = Pid(((ctx.pid().0 as usize + 1) % ctx.world_size()) as u32);
            let prev =
                Pid(((ctx.pid().0 as usize + ctx.world_size() - 1) % ctx.world_size()) as u32);
            let mut fresh = vec![msg.payload[0] - 1; 64];
            fresh[1] = ctx.pid().0 as u8;
            ctx.send(next, 2, fresh);
            // Echo the received buffer itself (aliased, not re-built);
            // tag 9 receivers only count it, so the run terminates.
            ctx.send(prev, 9, msg.payload.clone());
        }
        if self.seen == 40 && ctx.pid() == Pid(1) {
            ctx.crash();
        }
    }
    fn on_timer(&mut self, ctx: &mut Context, _t: TimerId) {
        ctx.output(b"tick".to_vec());
        if self.seen < 2 {
            ctx.send(Pid(0), 3, vec![0; 16]);
        }
    }
    fn snapshot(&self) -> Vec<u8> {
        let mut b = self.seen.to_le_bytes().to_vec();
        b.push(self.hops);
        b
    }
    fn restore(&mut self, b: &[u8]) {
        self.seen = u64::from_le_bytes(b[0..8].try_into().unwrap());
        self.hops = b[8];
    }
    fn clone_program(&self) -> Box<dyn Program> {
        Box::new(Mesh {
            hops: self.hops,
            seen: self.seen,
        })
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn mesh_world(n: usize, seed: u64) -> World {
    let mut cfg = WorldConfig::seeded(seed);
    cfg.net = NetworkConfig {
        drop_prob: 0.01,
        dup_prob: 0.08,
        corrupt_prob: 0.05,
        ..NetworkConfig::default()
    };
    let mut w = World::new(cfg);
    for _ in 0..n {
        w.add_process(Box::new(Mesh { hops: 40, seen: 0 }));
    }
    w.set_fault_plan(
        FaultPlan::none()
            .crash(Pid(2), 400)
            .drop_link(Pid(0), Pid(2), 150, 170),
    );
    w
}

/// Order-dependent fingerprint over every retained record: event
/// identity (seq, time, kind, message id + content) chained with the
/// handler's full [`fixd::runtime::Effects`] fingerprint.
fn trace_fingerprint(trace: &Trace) -> u64 {
    let mut h = 0x517E_u64;
    for r in trace.records() {
        h = fnv_mix(h, r.event.seq);
        h = fnv_mix(h, r.event.at);
        let (tag, msg) = match &r.event.kind {
            EventKind::Start { pid } => ((1 + u64::from(pid.0)) << 8, None),
            EventKind::Deliver { msg } => (2, Some(msg)),
            EventKind::Drop { msg } => (3, Some(msg)),
            EventKind::TimerFire { pid, timer } => {
                (4 + (u64::from(pid.0) << 8) + (timer.0 << 16), None)
            }
            EventKind::Crash { pid } => (5 + (u64::from(pid.0) << 8), None),
            EventKind::Restart { pid } => (6 + (u64::from(pid.0) << 8), None),
            EventKind::PartitionChange { .. } => (7, None),
        };
        h = fnv_mix(h, tag);
        if let Some(m) = msg {
            h = fnv_mix(h, m.id);
            h = fnv_mix(h, m.content_fingerprint());
            h = fnv_mix(h, fnv1a(&m.payload));
        }
        h = fnv_mix(h, r.effects.fingerprint());
    }
    h
}

#[test]
fn step_record_sequence_matches_pre_refactor_seed() {
    let mut w = mesh_world(3, 0xF00D);
    let report = w.run_to_quiescence(10_000);
    assert!(report.quiescent, "workload must drain");
    let fp = trace_fingerprint(w.trace());
    let len = w.trace().len();
    if std::env::var("FIXD_BLESS").is_ok() {
        println!("GOLDEN_TRACE_FP: {fp:#x}  GOLDEN_TRACE_LEN: {len}");
        return;
    }
    assert_eq!(len, GOLDEN_TRACE_LEN, "record count drifted");
    assert_eq!(
        fp, GOLDEN_TRACE_FP,
        "StepRecord sequence drifted from the pre-refactor seed"
    );
}

/// A sharded world must reproduce the *same* golden fingerprint as the
/// serial world at every shard count — cross-shard handoff is not
/// allowed to move a single observable bit.
#[test]
fn sharded_mesh_reproduces_golden_at_every_shard_count() {
    for shards in [1usize, 2, 4, 8] {
        let mut w = mesh_world(3, 0xF00D);
        w.shard(shards);
        let report = w.run_to_quiescence(10_000);
        assert!(report.quiescent, "workload must drain (shards={shards})");
        assert_eq!(
            w.trace().len(),
            GOLDEN_TRACE_LEN,
            "record count drifted at shards={shards}"
        );
        assert_eq!(
            trace_fingerprint(w.trace()),
            GOLDEN_TRACE_FP,
            "sharded StepRecord sequence drifted at shards={shards}"
        );
    }
}
