//! Consistent cuts over recorded scrolls.
//!
//! A *cut* takes the first `c_p` entries of each process `p`. The cut is
//! *consistent* when no process has observed an event of another process
//! that lies outside the cut — exactly the global-state consistency the
//! Time Machine needs when it pieces together "a consistent global
//! checkpoint of the system" from per-process replies (paper §3.3,
//! Fig. 4). A cut holds every earlier entry of each process it includes,
//! and happens-before is generated by process order and send → receive,
//! so a cut is consistent exactly when each delivery it includes has its
//! sending entry ([`crate::sendref`]) inside it too.

use std::borrow::Cow;

use fixd_runtime::Pid;

use crate::entry::{EntryKind, ScrollEntry};
use crate::sendref::SendRefs;
use crate::storage::ScrollStore;

/// A cut: how many entries of each process's scroll are included.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cut {
    counts: Vec<usize>,
}

impl Cut {
    /// A cut including `counts[p]` entries of process `p`.
    pub fn new(counts: Vec<usize>) -> Self {
        Self { counts }
    }

    /// The empty cut over `n` processes (always consistent).
    pub fn empty(n: usize) -> Self {
        Self { counts: vec![0; n] }
    }

    /// The full cut over a store.
    pub fn full(store: &ScrollStore) -> Self {
        Self {
            counts: (0..store.width())
                .map(|i| store.len(Pid(i as u32)))
                .collect(),
        }
    }

    /// Entries of process `p` included.
    pub fn count(&self, p: Pid) -> usize {
        self.counts.get(p.idx()).copied().unwrap_or(0)
    }

    /// Raw counts.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Is the cut consistent? It must lie within the store, and every
    /// delivery it includes must have its sending entry inside it (a
    /// message no recorded entry sent is exempt).
    pub fn is_consistent(&self, store: &ScrollStore) -> bool {
        let within = (self.counts.iter().enumerate()).all(|(i, &c)| c <= store.len(Pid(i as u32)));
        within && {
            let (scrolls, refs) = read(store);
            self.counts.iter().zip(&scrolls).all(|(&c, scroll)| {
                scroll[..c]
                    .iter()
                    .all(|e| outside(e, &refs, &self.counts).is_none())
            })
        }
    }

    /// Total entries included.
    pub fn size(&self) -> usize {
        self.counts.iter().sum()
    }
}

/// Every scroll of `store`, and their send references.
fn read(store: &ScrollStore) -> (Vec<Cow<'_, [ScrollEntry]>>, SendRefs) {
    let scrolls: Vec<Cow<'_, [ScrollEntry]>> = (0..store.width())
        .map(|i| store.scroll(Pid(i as u32)))
        .collect();
    let refs = SendRefs::new(scrolls.iter().map(|s| &s[..]));
    (scrolls, refs)
}

/// The sending entry of delivery `e`, if it lies outside the cut
/// `counts`.
fn outside(e: &ScrollEntry, refs: &SendRefs, counts: &[usize]) -> Option<(Pid, u64)> {
    let EntryKind::Deliver { msg } = &e.kind else {
        return None;
    };
    refs.sender(msg)
        .filter(|&(src, k)| counts.get(src.idx()).is_none_or(|&c| k as usize >= c))
}

/// The latest consistent cut in which process `fault_pid` includes at most
/// its first `limit` entries. Computed by fixed-point shrinking: start
/// from the full store (clamped for `fault_pid`) and repeatedly retract
/// each process to just before its first included delivery whose send
/// lies outside the cut. This is the same monotone retraction that drives
/// rollback-dependency resolution in the Time Machine (the "domino"
/// computation of Fig. 6, performed here on logs instead of checkpoints).
pub fn latest_consistent_cut(store: &ScrollStore, fault_pid: Pid, limit: usize) -> Cut {
    let n = store.width();
    let mut counts = Cut::full(store).counts;
    if fault_pid.idx() < n {
        counts[fault_pid.idx()] = counts[fault_pid.idx()].min(limit);
    }
    let (scrolls, refs) = read(store);
    loop {
        let mut changed = false;
        for p in 0..n {
            let first = scrolls[p][..counts[p]]
                .iter()
                .position(|e| outside(e, &refs, &counts).is_some());
            if let Some(j) = first {
                counts[p] = j;
                changed = true;
            }
        }
        if !changed {
            return Cut::new(counts);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{record_run, RecordConfig};
    use fixd_runtime::{Context, Message, Program, World, WorldConfig};

    #[derive(Clone)]
    struct PingPong {
        rounds: u8,
    }
    impl Program for PingPong {
        fn on_start(&mut self, ctx: &mut Context) {
            if ctx.pid() == Pid(0) {
                ctx.send(Pid(1), 1, vec![self.rounds]);
            }
        }
        fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
            if msg.payload[0] > 0 {
                ctx.send(msg.src, 1, vec![msg.payload[0] - 1]);
            }
        }
        fn snapshot(&self) -> Vec<u8> {
            vec![self.rounds]
        }
        fn restore(&mut self, b: &[u8]) {
            self.rounds = b[0];
        }
    }

    fn pingpong_store(rounds: u8) -> ScrollStore {
        let mut w = World::new(WorldConfig::seeded(4));
        w.add_process(Box::new(PingPong { rounds }));
        w.add_process(Box::new(PingPong { rounds }));
        let (store, _) = record_run(&mut w, RecordConfig::default(), 10_000);
        store
    }

    #[test]
    fn empty_and_full_cuts_consistent() {
        let store = pingpong_store(6);
        assert!(Cut::empty(2).is_consistent(&store));
        assert!(Cut::full(&store).is_consistent(&store));
    }

    #[test]
    fn cutting_mid_conversation_can_be_inconsistent() {
        let store = pingpong_store(6);
        // Include everything of P1 but nothing of P0: P1 has observed P0's
        // sends => inconsistent.
        let full1 = store.len(Pid(1));
        let cut = Cut::new(vec![0, full1]);
        assert!(!cut.is_consistent(&store));
    }

    #[test]
    fn latest_consistent_cut_is_consistent_and_respects_limit() {
        let store = pingpong_store(8);
        let limit = 2;
        let cut = latest_consistent_cut(&store, Pid(0), limit);
        assert!(cut.is_consistent(&store));
        assert!(cut.count(Pid(0)) <= limit);
        // Maximality: adding one entry to any process breaks consistency
        // or exceeds the store/limit.
        for p in 0..2u32 {
            let pid = Pid(p);
            let mut counts = cut.counts().to_vec();
            if pid == Pid(0) && counts[0] == limit {
                continue;
            }
            if counts[p as usize] < store.len(pid) {
                counts[p as usize] += 1;
                let bigger = Cut::new(counts);
                assert!(!bigger.is_consistent(&store), "cut not maximal at P{p}");
            }
        }
    }

    #[test]
    fn a_cut_beyond_the_scroll_is_not_consistent() {
        let store = pingpong_store(2);
        let len = store.len(Pid(0));
        let cut = Cut::new(vec![len + 1, 0]);
        assert!(!cut.is_consistent(&store));
        assert!(
            !Cut::new(vec![0, 0, 1]).is_consistent(&store),
            "a pid beyond the store"
        );
    }

    #[test]
    fn cut_size_counts_entries() {
        let store = pingpong_store(4);
        let full = Cut::full(&store);
        assert_eq!(full.size(), store.total_entries());
    }
}
