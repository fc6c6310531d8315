//! Consistent cuts over recorded scrolls.
//!
//! A *cut* takes the first `c_p` entries of each process `p`. The cut is
//! *consistent* when no process has observed an event of another process
//! that lies outside the cut — exactly the global-state consistency the
//! Time Machine needs when it pieces together "a consistent global
//! checkpoint of the system" from per-process replies (paper §3.3,
//! Fig. 4).

use fixd_runtime::{Pid, VectorClock};

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

    /// The frontier clock of process `p` under this cut: the vector clock
    /// of its last included entry (zero clock if none); `None` if the cut
    /// takes more of `p` than its scroll holds. Reads the entry where it
    /// lies ([`ScrollStore::entry`]): nothing is decoded for a cut inside
    /// the resident tail.
    pub fn frontier(&self, store: &ScrollStore, p: Pid) -> Option<VectorClock> {
        match self.count(p) {
            0 => Some(VectorClock::ZERO),
            c => store.entry(p, c - 1).map(|last| last.vc.clone()),
        }
    }

    /// Is the cut consistent? It must lie within the store, and for all
    /// p, q process p must not have observed more of q's history than
    /// the cut includes of q: `frontier(p)[q] <= frontier(q)[q]`.
    pub fn is_consistent(&self, store: &ScrollStore) -> bool {
        let n = store.width().max(self.counts.len());
        let frontiers: Option<Vec<VectorClock>> = (0..n)
            .map(|i| self.frontier(store, Pid(i as u32)))
            .collect();
        let Some(frontiers) = frontiers else {
            return false;
        };
        for p in 0..n {
            for (q, frontier_q) in frontiers.iter().enumerate() {
                if p == q {
                    continue;
                }
                let qq = Pid(q as u32);
                if frontiers[p].get(qq) > frontier_q.get(qq) {
                    return false;
                }
            }
        }
        true
    }

    /// Total entries included.
    pub fn size(&self) -> usize {
        self.counts.iter().sum()
    }
}

/// The latest consistent cut in which process `fault_pid` includes at most
/// its first `limit` entries. Computed by fixed-point shrinking: start
/// from the full store (clamped for `fault_pid`) and repeatedly retract
/// any process that has observed beyond another's frontier. This is the
/// same monotone retraction that drives rollback-dependency resolution in
/// the Time Machine (the "domino" computation of Fig. 6, performed here on
/// logs instead of checkpoints).
pub fn latest_consistent_cut(store: &ScrollStore, fault_pid: Pid, limit: usize) -> Cut {
    let n = store.width();
    let mut counts = Cut::full(store).counts;
    if fault_pid.idx() < n {
        counts[fault_pid.idx()] = counts[fault_pid.idx()].min(limit);
    }
    loop {
        let cut = Cut::new(counts.clone());
        // The counts start at the store's lengths and only shrink, so
        // every frontier lies within the scroll.
        let frontiers: Vec<VectorClock> = (0..n)
            .map(|i| {
                cut.frontier(store, Pid(i as u32))
                    .unwrap_or(VectorClock::ZERO)
            })
            .collect();
        let mut changed = false;
        for p in 0..n {
            for (q, frontier_q) in frontiers.iter().enumerate() {
                if p == q {
                    continue;
                }
                let qq = Pid(q as u32);
                // p saw more of q than the cut includes: retract p until
                // its frontier no longer exceeds q's self-component.
                while counts[p] > 0 {
                    let fp = Cut::new(counts.clone()).frontier(store, Pid(p as u32));
                    if fp.is_none_or(|fp| fp.get(qq) <= frontier_q.get(qq)) {
                        break;
                    }
                    counts[p] -= 1;
                    changed = true;
                }
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
        fn clone_program(&self) -> Box<dyn Program> {
            Box::new(PingPong {
                rounds: self.rounds,
            })
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
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
    fn frontier_of_empty_prefix_is_zero() {
        let store = pingpong_store(2);
        let cut = Cut::empty(2);
        assert_eq!(cut.frontier(&store, Pid(0)).map(|f| f.total()), Some(0));
    }

    #[test]
    fn a_cut_beyond_the_scroll_is_not_consistent() {
        let store = pingpong_store(2);
        let len = store.len(Pid(0));
        let cut = Cut::new(vec![len + 1, 0]);
        assert_eq!(cut.frontier(&store, Pid(0)), None);
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
