//! Aliasing regression tests for the allocation-free step loop: the
//! hot-path sharing properties are pinned with `ptr_eq`/`strong_count`
//! so a future refactor that silently re-introduces a deep clone fails
//! here, not in a profiler.
//!
//! Pinned properties:
//!
//! 1. one [`fixd::runtime::SharedStepRecord`] per step, aliased by the
//!    trace and the `step()` caller;
//! 2. one [`SharedMessage`] per delivery, aliased by the trace record,
//!    the Scroll entry, and the Time Machine's delivery log;
//! 3. segment decoding aliases one shared buffer per segment instead of
//!    allocating one payload per entry.

use std::sync::Arc;

use fixd::prelude::*;
use fixd::runtime::{EventKind, Payload, SharedMessage, SharedStepRecord, Trace};
use fixd::scroll::codec::{decode_segment, decode_segment_shared, encode_segment};
use fixd::scroll::{EntryKind, RecordConfig, ScrollRecorder};
use fixd::timemachine::{TimeMachine, TimeMachineConfig};

/// P0 pings P1, P1 pongs back, for `rounds` rounds.
#[derive(Clone)]
struct Pinger {
    rounds: u8,
    got: u64,
}

impl Program for Pinger {
    fn on_start(&mut self, ctx: &mut Context) {
        if ctx.pid() == Pid(0) {
            ctx.send(Pid(1), 1, vec![self.rounds; 128]);
        }
    }
    fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
        self.got += 1;
        if msg.payload[0] > 0 {
            let back = Pid(1 - ctx.pid().0);
            ctx.send(back, 1, vec![msg.payload[0] - 1; 128]);
        }
    }
    fn snapshot(&self) -> Vec<u8> {
        vec![self.rounds, self.got as u8]
    }
    fn restore(&mut self, b: &[u8]) {
        self.rounds = b[0];
        self.got = u64::from(b[1]);
    }
}

/// The records `t` took since its push counter read `seen`, oldest
/// first.
fn pushed_since(t: &Trace, seen: u64) -> impl Iterator<Item = SharedStepRecord> + '_ {
    let fresh = (t.pushed() - seen) as usize;
    t.records().skip(t.len() - fresh).cloned()
}

/// Run `w` to quiescence and return every record it traced meanwhile,
/// in trace order. Each step's records are read off the trace's tail by
/// its push counter, so a handler's crash mark, pushed before its
/// step's record, stays there.
fn drain_logged(w: &mut World) -> Vec<SharedStepRecord> {
    let mut log = Vec::new();
    let mut seen = w.trace().pushed();
    while w.step().is_some() {
        log.extend(pushed_since(w.trace(), seen));
        seen = w.trace().pushed();
    }
    log
}

fn ping_world(seed: u64) -> World {
    let mut w = World::new(WorldConfig::seeded(seed));
    w.add_process(Box::new(Pinger { rounds: 6, got: 0 }));
    w.add_process(Box::new(Pinger { rounds: 6, got: 0 }));
    w
}

#[test]
fn trace_aliases_the_returned_record() {
    let mut w = ping_world(3);
    while let Some(rec) = w.step() {
        let held = w.trace().records().last().expect("trace keeps the record");
        assert!(
            Arc::ptr_eq(&rec, held),
            "step() and the trace must share one StepRecord allocation"
        );
        // Exactly two handles while we hold ours: caller + trace. No
        // hidden retained clone anywhere in the step cycle.
        assert_eq!(Arc::strong_count(&rec), 2);
    }
}

#[test]
fn one_message_shared_by_trace_scroll_and_time_machine() {
    // Drive a world the way `Fixd::supervise` does: Time Machine hooks
    // around the step, Scroll recorder after it. Every delivered
    // message must be ONE allocation aliased by all three observers.
    let mut w = ping_world(7);
    let mut tm = TimeMachine::new(2, TimeMachineConfig::default());
    let mut rec = ScrollRecorder::new(2, RecordConfig::default());
    let mut checked = 0;
    while let Some(ev) = w.peek() {
        tm.before_step(&mut w, &ev);
        let Some(step) = w.step() else { break };
        tm.after_step(&mut w, &step);
        rec.observe(&w, &step);

        let EventKind::Deliver { msg } = &step.event.kind else {
            continue;
        };
        // Scroll entry for this delivery.
        let scroll = rec.store().scroll(msg.dst);
        let EntryKind::Deliver { msg: recorded } = &scroll.last().expect("entry recorded").kind
        else {
            panic!("last scroll entry must be the delivery")
        };
        // Time Machine delivery log entry (logged in before_step).
        let logged = tm.logged_deliveries().last().expect("delivery logged");

        assert!(
            msg.ptr_eq(recorded),
            "scroll entry must alias the trace record's message"
        );
        assert!(
            msg.ptr_eq(logged),
            "TM delivery log must alias the trace record's message"
        );
        assert!(
            msg.payload.ptr_eq(&recorded.payload) && msg.payload.ptr_eq(&logged.payload),
            "and with it the payload view"
        );
        // At least: trace record + scroll entry + TM log hold the one
        // message (the peeked event's handle dropped with `ev`).
        assert!(
            msg.strong_count() >= 3,
            "expected ≥3 handles on one message, got {}",
            msg.strong_count()
        );
        checked += 1;
    }
    assert!(checked >= 6, "run must deliver several messages");
}

#[test]
fn shared_segment_decode_aliases_one_buffer() {
    // Record a run, encode each scroll as a segment, decode it through
    // the shared path: every entry's payload must be a view into the
    // one segment buffer — zero per-entry payload allocations.
    let mut w = ping_world(11);
    let mut rec = ScrollRecorder::new(2, RecordConfig::default());
    while let Some(step) = w.step() {
        rec.observe(&w, &step);
    }
    let store = rec.into_store();
    for pid in [Pid(0), Pid(1)] {
        let entries = store.scroll(pid);
        let blob = encode_segment(&entries);
        let seg = Payload::untracked(blob.clone());
        let decoded = decode_segment_shared(&seg).expect("segment decodes");
        assert_eq!(decoded.len(), entries.len());
        let mut payloads = 0;
        for (d, orig) in decoded.iter().zip(entries.iter()) {
            assert_eq!(d, orig, "shared decode must not change content");
            let (Some(p), Some(q)) = (d.kind.payload(), orig.kind.payload()) else {
                continue;
            };
            assert!(
                p.shares_buffer(&seg),
                "decoded payload must alias the segment buffer"
            );
            assert_eq!(p, q);
            payloads += 1;
        }
        assert!(payloads >= 3, "P{} scroll must carry payloads", pid.0);
        // The copying path still works and agrees, in its own buffers.
        let copied = decode_segment(&blob).expect("copying decode");
        assert_eq!(copied, decoded);
        for e in &copied {
            if let Some(p) = e.kind.payload() {
                assert!(!p.shares_buffer(&seg), "copying decode owns its bytes");
            }
        }
    }
}

#[test]
fn drop_events_alias_the_undeliverable_message() {
    // A message to a crashed process surfaces as a Drop event; the Drop
    // record must alias the queued message, not clone it.
    let mut w = ping_world(13);
    // Ping-pong alternates, so step until the in-flight message is the
    // one headed for P1.
    let inflight: Vec<SharedMessage> = loop {
        let mail: Vec<SharedMessage> = w
            .inflight_messages()
            .iter()
            .filter(|m| m.dst == Pid(1))
            .cloned()
            .collect();
        if !mail.is_empty() {
            break mail;
        }
        assert!(w.step().is_some(), "ran quiescent before finding P1 mail");
    };
    w.crash_now(Pid(1));
    let mut dropped = 0;
    for r in drain_logged(&mut w) {
        if let EventKind::Drop { msg } = &r.event.kind {
            if let Some(orig) = inflight.iter().find(|m| m.ptr_eq(msg)) {
                assert!(orig.payload.ptr_eq(&msg.payload));
                dropped += 1;
            }
        }
    }
    assert!(dropped >= 1, "the queued mail must surface as Drop records");
}
