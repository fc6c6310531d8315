//! Execution traces: the runtime's own record of what happened.
//!
//! Distinct from the Scroll: the trace is a debugging/diagnostic artifact
//! of the simulator itself (complete, heavyweight), whereas the Scroll
//! records only the nondeterministic actions needed for replay (paper
//! §3.1). The Scroll's recorder consumes `StepRecord`s as they are
//! produced.
//!
//! Since the allocation-free-step-loop refactor the trace retains
//! [`SharedStepRecord`]s: [`crate::World::step`] seals each record into
//! an `Arc` once and the trace, the step's caller, and any driver that
//! keeps the record around all alias that single allocation — pushing a
//! record is a reference-count bump, not a deep clone of the event and
//! its effects. Outputs are no longer copied into a side list either:
//! they live (as shared [`Payload`](crate::Payload)s) inside each
//! record's effects, and [`Trace::outputs_of`]/[`Trace::outputs`] read
//! them from there.

use std::sync::Arc;

use crate::event::{Effects, Event, Output};
use crate::{Pid, VTime};

/// One executed event plus everything its handler did.
#[derive(Clone, Debug, PartialEq)]
pub struct StepRecord {
    pub event: Event,
    pub effects: Effects,
}

/// A step record in its shared form: one allocation, aliased by the
/// trace, the `step()` caller, and every driver that retains it.
pub type SharedStepRecord = Arc<StepRecord>;

/// A bounded in-memory trace of step records.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    records: Vec<SharedStepRecord>,
    capacity: Option<usize>,
    dropped: u64,
}

impl Trace {
    /// Unbounded trace.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Trace keeping at most `cap` most-recent records (ring semantics).
    pub fn bounded(cap: usize) -> Self {
        Self {
            capacity: Some(cap),
            ..Self::default()
        }
    }

    /// Append a record (a refcount bump on the shared allocation),
    /// evicting the oldest if at capacity.
    /// Append a record; with a bounded trace the displaced oldest record
    /// is handed back so the world can return its boxes to the
    /// [`StepArena`](crate::ArenaStats) instead of the allocator.
    pub fn push(&mut self, rec: SharedStepRecord) -> Option<SharedStepRecord> {
        let evicted = if let Some(cap) = self.capacity {
            if self.records.len() == cap {
                self.dropped += 1;
                Some(self.records.remove(0))
            } else {
                None
            }
        } else {
            None
        };
        self.records.push(rec);
        evicted
    }

    /// All retained records, oldest first.
    pub fn records(&self) -> &[SharedStepRecord] {
        &self.records
    }

    /// All outputs emitted by `pid`, in order, read straight out of the
    /// retained records' effects (no copies were made to track them).
    /// A bounded trace forgets the outputs of evicted records along with
    /// everything else about them.
    pub fn outputs_of(&self, pid: Pid) -> Vec<&[u8]> {
        self.records
            .iter()
            .filter(|r| r.event.kind.pid() == Some(pid))
            .flat_map(|r| r.effects.outputs.iter().map(|p| p.as_slice()))
            .collect()
    }

    /// All outputs in emission order, materialized as [`Output`] values
    /// whose `data` aliases the recorded effects (refcount bumps, not
    /// byte copies).
    pub fn outputs(&self) -> Vec<Output> {
        self.records
            .iter()
            .filter_map(|r| r.event.kind.pid().map(|pid| (pid, r)))
            .flat_map(|(pid, r)| {
                r.effects.outputs.iter().map(move |p| Output {
                    pid,
                    at: r.event.at,
                    data: p.clone(),
                })
            })
            .collect()
    }

    /// Records concerning `pid`, oldest first.
    pub fn records_of(&self, pid: Pid) -> impl Iterator<Item = &SharedStepRecord> {
        self.records
            .iter()
            .filter(move |r| r.event.kind.pid() == Some(pid))
    }

    /// Records in the virtual-time window `[start, end)`.
    pub fn records_between(
        &self,
        start: VTime,
        end: VTime,
    ) -> impl Iterator<Item = &SharedStepRecord> {
        self.records
            .iter()
            .filter(move |r| (start..end).contains(&r.event.at))
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// How many records were evicted due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Human-readable rendering of the last `n` records (for reports).
    pub fn render_tail(&self, n: usize) -> String {
        use std::fmt::Write;
        let start = self.records.len().saturating_sub(n);
        let mut s = String::new();
        for r in &self.records[start..] {
            let _ = writeln!(
                s,
                "#{:<6} t={:<8} {:?}",
                r.event.seq, r.event.at, r.event.kind
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::payload::Payload;

    fn rec(seq: u64, at: VTime, pid: u32) -> SharedStepRecord {
        rec_with_outputs(seq, at, pid, &[])
    }

    fn rec_with_outputs(seq: u64, at: VTime, pid: u32, outputs: &[&[u8]]) -> SharedStepRecord {
        Arc::new(StepRecord {
            event: Event {
                seq,
                at,
                kind: EventKind::Start { pid: Pid(pid) },
            },
            effects: Effects {
                outputs: outputs
                    .iter()
                    .map(|o| Payload::untracked(o.to_vec()))
                    .collect(),
                ..Effects::default()
            },
        })
    }

    #[test]
    fn bounded_trace_evicts_oldest() {
        let mut t = Trace::bounded(2);
        t.push(rec(0, 0, 0));
        t.push(rec(1, 1, 0));
        t.push(rec(2, 2, 0));
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.records()[0].event.seq, 1);
    }

    #[test]
    fn filters_by_pid_and_time() {
        let mut t = Trace::unbounded();
        t.push(rec(0, 5, 0));
        t.push(rec(1, 10, 1));
        t.push(rec(2, 15, 0));
        assert_eq!(t.records_of(Pid(0)).count(), 2);
        assert_eq!(t.records_between(5, 15).count(), 2);
    }

    #[test]
    fn outputs_read_from_record_effects() {
        let mut t = Trace::unbounded();
        t.push(rec_with_outputs(0, 1, 0, &[b"a"]));
        t.push(rec_with_outputs(1, 2, 1, &[b"b"]));
        t.push(rec_with_outputs(2, 3, 0, &[b"c"]));
        assert_eq!(t.outputs_of(Pid(0)), vec![&b"a"[..], &b"c"[..]]);
        let all = t.outputs();
        assert_eq!(all.len(), 3);
        assert_eq!(all[1].pid, Pid(1));
        assert_eq!(all[1].at, 2);
        assert!(
            all[1].data.ptr_eq(&t.records()[1].effects.outputs[0]),
            "materialized outputs alias the recorded effects"
        );
    }

    #[test]
    fn push_aliases_the_shared_record() {
        let mut t = Trace::unbounded();
        let r = rec(0, 0, 0);
        t.push(r.clone());
        assert!(
            Arc::ptr_eq(&r, &t.records()[0]),
            "the trace holds the same record allocation the caller got"
        );
        assert_eq!(Arc::strong_count(&r), 2);
    }

    #[test]
    fn render_tail_is_bounded() {
        let mut t = Trace::unbounded();
        for i in 0..10 {
            t.push(rec(i, i, 0));
        }
        let s = t.render_tail(3);
        assert_eq!(s.lines().count(), 3);
        assert!(s.contains("#9"));
    }
}
