//! Merging per-process scrolls into a globally consistent total order.
//!
//! Paper §2.2: *"The collective local logs for all the entities in the
//! system can be combined and analyzed to provide insight on the behavior
//! of the system"*, and both playback schemes "generally make use of
//! logging to impose a total order on all the messages sent in the
//! system". We impose that total order with a k-way merge of the
//! per-process scrolls: from the processes whose next entry is *ready*,
//! it emits the head with the smallest `(at, pid)`. An entry is ready
//! unless it is a delivery whose sending entry ([`crate::sendref`]) has
//! not been emitted yet. That is a linear extension of the happens-before
//! partial order, because happens-before is the transitive closure of two
//! relations and the merge respects both:
//!
//! * **Program order.** Each scroll is consumed from its head, so a
//!   process's entries come out in `local_seq` order.
//! * **Messages.** A receipt is not ready before the entry that sent it
//!   has been emitted.
//!
//! Every entry of a well-formed store is eventually ready (happens-before
//! is acyclic), so the merge never stalls on one. On a damaged store it
//! could: then every waiting head is released and the verifier below
//! reports the violation.
//!
//! [`check_causal_consistency`] and [`check_send_before_receive`] verify a
//! merged order in one linear pass each, from the same two relations.

use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use fixd_runtime::Pid;

use crate::entry::{EntryKind, ScrollEntry};
use crate::sendref::SendRefs;
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
/// causality (see the module docs): a deterministic k-way merge that
/// emits the smallest `(at, pid)` head among the ready ones.
pub fn merge_total_order(store: &ScrollStore) -> Vec<ScrollEntry> {
    let scrolls: Vec<Cow<'_, [ScrollEntry]>> = (0..store.width())
        .map(|i| store.scroll(Pid(i as u32)))
        .collect();
    let refs = SendRefs::new(scrolls.iter().map(|s| &s[..]));
    let mut next = vec![0usize; scrolls.len()];
    let mut ready = BinaryHeap::new();
    // Per sender: the heads waiting for it, as (sending index, pid).
    let mut waiting: Vec<Vec<(usize, usize)>> = vec![Vec::new(); scrolls.len()];
    let offer = |p: usize,
                 next: &[usize],
                 ready: &mut BinaryHeap<Reverse<(u64, usize)>>,
                 waiting: &mut [Vec<(usize, usize)>]| {
        let Some(e) = scrolls[p].get(next[p]) else {
            return;
        };
        if let EntryKind::Deliver { msg } = &e.kind {
            if let Some((src, k)) = refs.sender(msg) {
                if next[src.idx()] <= k as usize {
                    waiting[src.idx()].push((k as usize, p));
                    return;
                }
            }
        }
        ready.push(Reverse((e.at, p)));
    };
    for p in 0..scrolls.len() {
        offer(p, &next, &mut ready, &mut waiting);
    }
    let total = scrolls.iter().map(|s| s.len()).sum();
    let mut out = Vec::with_capacity(total);
    while out.len() < total {
        let Some(Reverse((_, p))) = ready.pop() else {
            // Only a damaged store gets here: release every waiting head.
            for (_, q) in waiting.iter_mut().flat_map(std::mem::take) {
                let at = scrolls[q][next[q]].at;
                ready.push(Reverse((at, q)));
            }
            continue;
        };
        out.push(scrolls[p][next[p]].clone());
        next[p] += 1;
        for (k, q) in std::mem::take(&mut waiting[p]) {
            if next[p] > k {
                offer(q, &next, &mut ready, &mut waiting);
            } else {
                waiting[p].push((k, q));
            }
        }
        offer(p, &next, &mut ready, &mut waiting);
    }
    out
}

/// Per pid, the sends `merged` records (`None` for a pid with no entry
/// in it).
fn recorded(merged: &[ScrollEntry]) -> Vec<Option<u64>> {
    let mut out: Vec<Option<u64>> = Vec::new();
    for e in merged {
        if out.len() <= e.pid.idx() {
            out.resize(e.pid.idx() + 1, None);
        }
        let sent = out[e.pid.idx()].get_or_insert(0);
        *sent = sent.saturating_add(e.sends);
    }
    out
}

/// The first index after `from` at which `src`'s running total of sends
/// in `merged`, counted from `sent` at `from`, reaches `id`.
fn reaching(merged: &[ScrollEntry], from: usize, src: Pid, mut sent: u64, id: u64) -> usize {
    for (j, e) in merged.iter().enumerate().skip(from + 1) {
        if e.pid == src {
            sent = sent.saturating_add(e.sends);
            if sent >= id {
                return j;
            }
        }
    }
    from
}

/// The one pass both checks make: program order, then each delivery's
/// id against its sender's running total of sends. `exempt(src, id)`
/// says whether a delivery whose send is not behind it is let through.
fn check_pass(
    merged: &[ScrollEntry],
    exempt: impl Fn(&[Option<u64>], Pid, u64) -> bool,
) -> Result<(), CausalViolation> {
    let totals = recorded(merged);
    // Per pid: sends so far, and the last entry placed (index, local_seq).
    let mut sent = vec![0u64; totals.len()];
    let mut last: Vec<Option<(usize, u64)>> = vec![None; totals.len()];
    for (i, e) in merged.iter().enumerate() {
        let p = e.pid.idx();
        if let Some((j, seq)) = last[p] {
            if e.local_seq <= seq {
                return Err(CausalViolation {
                    earlier_index: j,
                    later_index: i,
                });
            }
        }
        last[p] = Some((i, e.local_seq));
        if let EntryKind::Deliver { msg } = &e.kind {
            let src = msg.src;
            let so_far = sent.get(src.idx()).copied().unwrap_or(0);
            if msg.id > so_far && !exempt(&totals, src, msg.id) {
                return Err(CausalViolation {
                    earlier_index: i,
                    later_index: reaching(merged, i, src, so_far, msg.id),
                });
            }
        }
        sent[p] = sent[p].saturating_add(e.sends);
    }
    Ok(())
}

/// Verify a merged order is a linear extension of happens-before: each
/// process's entries in `local_seq` order, and each delivery after the
/// entry that sent it, in one linear pass. A delivery whose send is not
/// in `merged` at all (an unrecorded sender, a message no send minted) is
/// exempt.
pub fn check_causal_consistency(merged: &[ScrollEntry]) -> Result<(), CausalViolation> {
    check_pass(merged, |totals, src, id| {
        totals
            .get(src.idx())
            .copied()
            .flatten()
            .is_none_or(|t| t < id)
    })
}

/// Check the *message discipline*: every delivery in the merged log must
/// appear after the entry of its sender that sent it (the send is within
/// the recorded history, [`crate::sendref`]). Deliveries from senders
/// with no entry in `merged` (black boxes), and messages no send minted,
/// are skipped; a recorded sender whose scroll never sent the message is
/// a violation (reported at the delivery's own index).
pub fn check_send_before_receive(merged: &[ScrollEntry]) -> Result<(), CausalViolation> {
    check_pass(merged, |totals, src, id| {
        id == crate::sendref::UNMINTED || totals.get(src.idx()).copied().flatten().is_none()
    })
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

    fn entry(pid: u32, local_seq: u64, at: u64, sends: u64, kind: EntryKind) -> ScrollEntry {
        ScrollEntry {
            pid: Pid(pid),
            local_seq,
            at,
            kind,
            randoms: Default::default(),
            effects_fp: 0,
            sends,
        }
    }

    fn deliver(src: u32, dst: u32, id: u64) -> EntryKind {
        EntryKind::Deliver {
            msg: Message {
                id,
                src: Pid(src),
                dst: Pid(dst),
                tag: 0,
                payload: Default::default(),
                sent_at: 0,
                ckpt_index: 0,
            }
            .into(),
        }
    }

    /// A receipt whose `(at, pid)` sorts before the entry that sent it
    /// still comes after it: it is not ready until then. And a damaged
    /// store whose deliveries wait on each other in a cycle does not
    /// stall the merge; the check then reports it.
    #[test]
    fn a_receipt_waits_for_its_send_and_a_cycle_does_not_stall() {
        let mut store = ScrollStore::new(2);
        store.append(entry(0, 0, 10, 1, EntryKind::Start));
        store.append(entry(1, 0, 0, 0, EntryKind::Start));
        store.append(entry(1, 1, 5, 0, deliver(0, 1, 1)));
        let order: Vec<_> = merge_total_order(&store)
            .iter()
            .map(|e| (e.pid.0, e.local_seq))
            .collect();
        assert_eq!(order, [(1, 0), (0, 0), (1, 1)]);

        let mut cycle = ScrollStore::new(2);
        cycle.append(entry(0, 0, 0, 0, deliver(1, 0, 1)));
        cycle.append(entry(0, 1, 1, 1, EntryKind::Start));
        cycle.append(entry(1, 0, 0, 0, deliver(0, 1, 1)));
        cycle.append(entry(1, 1, 1, 1, EntryKind::Start));
        let merged = merge_total_order(&cycle);
        assert_eq!(merged.len(), 4);
        assert!(check_causal_consistency(&merged).is_err());
        assert!(check_send_before_receive(&merged).is_err());
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
