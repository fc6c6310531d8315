//! Merging per-process scrolls into a globally consistent total order.
//!
//! Paper §2.2: *"The collective local logs for all the entities in the
//! system can be combined and analyzed to provide insight on the behavior
//! of the system"*, and both playback schemes "generally make use of
//! logging to impose a total order on all the messages sent in the
//! system". We impose that total order from the clocks the entries
//! already record: an entry's key is the sum of its vector clock's
//! components before its handler's sends (the recorded clock's sum minus
//! `sends`, since each send ticks the clock once), ties broken by pid,
//! then local sequence. That is a linear extension of the happens-before
//! partial order, because happens-before is the transitive closure of two
//! relations and the key respects both:
//!
//! * **Program order.** A process's key never falls from one entry to the
//!   next: the next action starts from the clock the last one ended with
//!   (its sends included) and only ticks or merges it, so a tie (a timer
//!   firing after an entry that sent nothing) is settled by `local_seq`.
//! * **Messages.** A receipt's key is above the key of the entry that
//!   sent it: the message carries the sender's clock after its send
//!   tick, whose sum exceeds the sending entry's key, and the receipt
//!   merges that clock in and ticks.
//!
//! Vector clocks are then used to *verify* the merge is causally
//! consistent.

use crate::entry::{EntryKind, ScrollEntry};
use crate::storage::ScrollStore;

/// A detected violation of causal order in a merged log.
#[derive(Clone, Debug, PartialEq)]
pub struct CausalViolation {
    /// Index (in the merged order) of the earlier-placed entry.
    pub earlier_index: usize,
    /// Index of the later-placed entry that causally precedes it.
    pub later_index: usize,
}

/// Merge all per-process scrolls into one total order consistent with
/// causality: sorted by the sum of each entry's clock before its
/// handler's sends, then pid, then `local_seq` (see the module docs for
/// why that respects happens-before).
pub fn merge_total_order(store: &ScrollStore) -> Vec<ScrollEntry> {
    let mut all: Vec<ScrollEntry> = (0..store.width())
        .flat_map(|i| store.scroll(fixd_runtime::Pid(i as u32)).into_owned())
        .collect();
    all.sort_by_cached_key(|e| (causal_key(e), e.pid, e.local_seq));
    all
}

/// The sum of `e`'s clock components before its handler's sends. Summed
/// in `u128`, so counts near `u64::MAX` cannot wrap; a decoded entry
/// whose `sends` exceeds its clock's sum keys at 0 instead of panicking.
fn causal_key(e: &ScrollEntry) -> u128 {
    let sum: u128 = e.vc.entries().map(|(_, c)| u128::from(c)).sum();
    sum.saturating_sub(u128::from(e.sends))
}

/// Verify a merged order is a linear extension of happens-before: no entry
/// is placed before another entry that causally precedes it. `O(n²)` in
/// the worst case; intended for validation and tests, not hot paths.
pub fn check_causal_consistency(merged: &[ScrollEntry]) -> Result<(), CausalViolation> {
    for i in 0..merged.len() {
        for j in (i + 1)..merged.len() {
            // If merged[j] strictly happens-before merged[i], order is bad.
            if merged[j].vc.leq(&merged[i].vc) && merged[j].vc != merged[i].vc {
                return Err(CausalViolation {
                    earlier_index: i,
                    later_index: j,
                });
            }
        }
    }
    Ok(())
}

/// Check the *message discipline*: every delivery in the merged log must
/// appear after some entry of the sender whose vector clock dominates the
/// message's send clock (i.e. the send is within the recorded history).
/// Deliveries from unrecorded senders (black boxes) are skipped.
pub fn check_send_before_receive(merged: &[ScrollEntry]) -> Result<(), CausalViolation> {
    for (i, e) in merged.iter().enumerate() {
        let EntryKind::Deliver { msg } = &e.kind else {
            continue;
        };
        let sender_recorded = merged.iter().any(|f| f.pid == msg.src);
        if !sender_recorded {
            continue;
        }
        let send_seen_earlier = merged[..i]
            .iter()
            .any(|f| f.pid == msg.src && msg.vc.get(msg.src) <= f.vc.get(msg.src));
        // The send itself isn't an entry; it is subsumed by the sender's
        // handler entry that performed it. If the sender performed the
        // send, some earlier entry of the sender has vc[src] >= msg.vc[src].
        if !send_seen_earlier && msg.vc.get(msg.src) > 0 {
            return Err(CausalViolation {
                earlier_index: i,
                later_index: i,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{record_run, RecordConfig};
    use fixd_runtime::{Context, Message, Pid, Program, Topology, World, WorldConfig};

    /// Gossip: every process forwards each first-seen rumor to its ring
    /// neighbor; generates rich causal structure.
    #[derive(Clone)]
    struct Gossip {
        seen: u64,
        n: usize,
    }
    impl Program for Gossip {
        fn on_start(&mut self, ctx: &mut Context) {
            if ctx.pid() == Pid(0) {
                let topo = Topology::ring(self.n);
                for &nb in topo.neighbors(ctx.pid()) {
                    ctx.send(nb, 1, vec![3]);
                }
            }
        }
        fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
            self.seen += 1;
            if msg.payload[0] > 0 {
                let topo = Topology::ring(self.n);
                for &nb in topo.neighbors(ctx.pid()) {
                    ctx.send(nb, 1, vec![msg.payload[0] - 1]);
                }
            }
        }
        fn snapshot(&self) -> Vec<u8> {
            self.seen.to_le_bytes().to_vec()
        }
        fn restore(&mut self, b: &[u8]) {
            self.seen = u64::from_le_bytes(b.try_into().unwrap());
        }
    }

    fn gossip_store(n: usize, seed: u64, jitter: bool) -> ScrollStore {
        let mut cfg = WorldConfig::seeded(seed);
        if jitter {
            cfg.net = fixd_runtime::NetworkConfig::jittery(1, 50);
        }
        let mut w = World::new(cfg);
        for _ in 0..n {
            w.add_process(Box::new(Gossip { seen: 0, n }));
        }
        let (store, _) = record_run(&mut w, RecordConfig::default(), 10_000);
        store
    }

    #[test]
    fn merge_is_causally_consistent_fifo() {
        let store = gossip_store(4, 1, false);
        let merged = merge_total_order(&store);
        assert!(merged.len() >= 4);
        check_causal_consistency(&merged).unwrap();
        check_send_before_receive(&merged).unwrap();
    }

    #[test]
    fn merge_is_causally_consistent_with_reordering_network() {
        for seed in 0..5 {
            let store = gossip_store(5, seed, true);
            let merged = merge_total_order(&store);
            check_causal_consistency(&merged).unwrap();
            check_send_before_receive(&merged).unwrap();
        }
    }

    #[test]
    fn merge_preserves_local_order() {
        let store = gossip_store(4, 3, true);
        let merged = merge_total_order(&store);
        for pid in 0..4u32 {
            let seqs: Vec<u64> = merged
                .iter()
                .filter(|e| e.pid == Pid(pid))
                .map(|e| e.local_seq)
                .collect();
            assert!(seqs.windows(2).all(|w| w[0] < w[1]), "P{pid} order broken");
        }
    }

    /// P0 pings P1 and arms a late timer; P1 answers the ping twice.
    #[derive(Clone)]
    struct PingTwice;
    impl Program for PingTwice {
        fn on_start(&mut self, ctx: &mut Context) {
            if ctx.pid() == Pid(0) {
                ctx.send(Pid(1), 1, vec![]);
                ctx.set_timer(1_000);
            }
        }
        fn on_message(&mut self, ctx: &mut Context, _: &Message) {
            if ctx.pid() == Pid(1) {
                ctx.send(Pid(0), 2, vec![]);
                ctx.send(Pid(0), 2, vec![]);
            }
        }
        fn snapshot(&self) -> Vec<u8> {
            Vec::new()
        }
        fn restore(&mut self, _: &[u8]) {}
    }

    /// The key's two cases. Both receipts of a handler that sent twice
    /// (P1's entry 1) key above it: its key leaves out its own sends
    /// (counted in, P0's first receipt would tie with it and sort first,
    /// on the lower pid). A timer firing that sends nothing (P0's entry
    /// 3) ties with the entry before it, which `local_seq` places first.
    #[test]
    fn the_merge_key_orders_receipts_after_sends_and_breaks_ties_by_local_seq() {
        let mut w = World::new(WorldConfig::seeded(1));
        w.add_process(Box::new(PingTwice));
        w.add_process(Box::new(PingTwice));
        let merged = merge_total_order(&record_run(&mut w, RecordConfig::default(), 100).0);
        let at = |pid, seq| {
            let i = merged
                .iter()
                .position(|e| e.pid == Pid(pid) && e.local_seq == seq);
            (i.unwrap(), &merged[i.unwrap()])
        };
        let (sent_at, sender) = at(1, 1);
        assert_eq!(sender.sends, 2);
        let sum = |e: &ScrollEntry| e.vc.entries().map(|(_, c)| u128::from(c)).sum::<u128>();
        assert_eq!(sum(at(0, 1).1), sum(sender), "the sends, counted, tie");
        for (i, receipt) in [at(0, 1), at(0, 2)] {
            assert!(matches!(receipt.kind, EntryKind::Deliver { .. }));
            assert!(causal_key(receipt) > causal_key(sender) && i > sent_at);
        }
        let ((i, before), (j, fire)) = (at(0, 2), at(0, 3));
        assert!(matches!(fire.kind, EntryKind::TimerFire { .. }) && fire.sends == 0);
        assert_eq!(causal_key(before), causal_key(fire), "a tie on the sum");
        assert!(i < j);
    }

    #[test]
    fn violation_detected_in_shuffled_log() {
        let store = gossip_store(4, 1, false);
        let mut merged = merge_total_order(&store);
        // Force a violation: move the last entry first (it causally
        // depends on earlier ones in this gossip pattern).
        let last = merged.pop().unwrap();
        merged.insert(0, last);
        assert!(check_causal_consistency(&merged).is_err());
    }
}
