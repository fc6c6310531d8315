//! The world's trace: a fixed-size tail of the last steps it executed.
//!
//! Distinct from the Scroll: the Scroll is the log of a run, and it
//! records only the nondeterministic actions needed for replay (paper
//! §3.1). The trace keeps just the last [`TRACE_TAIL`] records, for a
//! bug report's tail and for drivers that look at the step they just
//! ran; a record it evicts goes back to the world's step arena. The
//! Scroll's recorder consumes `StepRecord`s as they are produced.
//!
//! The trace retains [`SharedStepRecord`]s: [`crate::World::step`]
//! seals each record into an `Arc` once and the trace, the step's
//! caller, and any driver that keeps the record around all alias that
//! single allocation — pushing a record is a reference-count bump, not
//! a deep clone of the event and its effects.

use std::collections::{vec_deque, VecDeque};
use std::sync::Arc;

use crate::event::{Effects, Event};

/// How many of the most recent records the trace keeps.
pub const TRACE_TAIL: usize = 64;

/// One executed event plus everything its handler did.
#[derive(Clone, Debug, PartialEq)]
pub struct StepRecord {
    pub event: Event,
    pub effects: Effects,
}

/// A step record in its shared form: one allocation, aliased by the
/// trace, the `step()` caller, and every driver that retains it.
pub type SharedStepRecord = Arc<StepRecord>;

/// The last [`TRACE_TAIL`] step records, plus a count of every record
/// ever pushed.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    tail: VecDeque<SharedStepRecord>,
    pushed: u64,
}

impl Trace {
    /// Append a record (a refcount bump on the shared allocation). Once
    /// the tail is full the oldest record is handed back, so the world
    /// can return its boxes to the [`StepArena`](crate::ArenaStats)
    /// instead of the allocator.
    pub(crate) fn push(&mut self, rec: SharedStepRecord) -> Option<SharedStepRecord> {
        let evicted = if self.tail.len() == TRACE_TAIL {
            self.tail.pop_front()
        } else {
            None
        };
        self.tail.push_back(rec);
        self.pushed += 1;
        evicted
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> vec_deque::Iter<'_, SharedStepRecord> {
        self.tail.iter()
    }

    /// Number of retained records (at most [`TRACE_TAIL`]).
    pub fn len(&self) -> usize {
        self.tail.len()
    }

    /// True if nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.tail.is_empty()
    }

    /// Records ever pushed, evicted ones included. The last
    /// `pushed() - n` records are the ones pushed since the count read
    /// `n`, as long as that is at most [`Trace::len`].
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Human-readable rendering of the last `n` records (for reports).
    pub fn render_tail(&self, n: usize) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for r in self.tail.iter().skip(self.tail.len().saturating_sub(n)) {
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
    use crate::Pid;

    fn rec(seq: u64) -> SharedStepRecord {
        Arc::new(StepRecord {
            event: Event {
                seq,
                at: seq,
                kind: EventKind::Start { pid: Pid(0) },
            },
            effects: Effects::default(),
        })
    }

    #[test]
    fn bounded_trace_evicts_oldest() {
        let mut t = Trace::default();
        for i in 0..TRACE_TAIL as u64 {
            assert!(t.push(rec(i)).is_none());
        }
        let evicted = t.push(rec(TRACE_TAIL as u64)).expect("a full tail evicts");
        assert_eq!(evicted.event.seq, 0);
        assert_eq!(t.len(), TRACE_TAIL);
        assert_eq!(t.pushed(), TRACE_TAIL as u64 + 1);
        assert_eq!(t.records().next().unwrap().event.seq, 1);
        assert_eq!(t.records().last().unwrap().event.seq, TRACE_TAIL as u64);
    }

    #[test]
    fn push_aliases_the_shared_record() {
        let mut t = Trace::default();
        let r = rec(0);
        t.push(r.clone());
        assert!(
            Arc::ptr_eq(&r, t.records().next().unwrap()),
            "the trace holds the same record allocation the caller got"
        );
        assert_eq!(Arc::strong_count(&r), 2);
    }

    #[test]
    fn render_tail_is_bounded() {
        let mut t = Trace::default();
        for i in 0..10 {
            t.push(rec(i));
        }
        let s = t.render_tail(3);
        assert_eq!(s.lines().count(), 3);
        assert!(s.contains("#9"));
    }
}
