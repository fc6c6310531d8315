//! Rollback dependencies and the recovery-line computation.
//!
//! Every message carries its sender's checkpoint *interval* (the index of
//! the sender's most recent checkpoint, stamped via
//! [`fixd_runtime::Message::ckpt_index`]), and the Time Machine logs every
//! delivery with the receiver's interval. Each logged delivery is a
//! dependency edge `(sender, sender_interval) → (receiver,
//! receiver_interval)`, read off the record rather than stored beside it:
//! if the sender rolls back to a checkpoint ≤ `sender_interval` (undoing
//! that interval's sends), the message becomes an *orphan*, forcing the
//! receiver to roll back to a checkpoint ≤ `receiver_interval` (undoing
//! the receive). The fixed point of this propagation is the **recovery
//! line** — "Safe recovery line" in Fig. 6 of the paper.

use fixd_runtime::Pid;

/// Sentinel for "this process does not roll back".
pub const NO_ROLLBACK: u64 = u64::MAX;

/// One rollback dependency: a message sent in `src`'s interval
/// `src_interval` was received in `dst`'s interval `dst_interval`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DepEdge {
    pub src: Pid,
    pub src_interval: u64,
    pub dst: Pid,
    pub dst_interval: u64,
}

/// Compute the recovery line over `edges` when `fail` must roll back to
/// checkpoint `target`. Returns, per process of an `n`-process run, the
/// checkpoint index to restore, or [`NO_ROLLBACK`] if the process keeps
/// its current state.
///
/// The propagation is monotone (indices only decrease), so the fixed
/// point is the *maximal* consistent line — no process rolls back
/// further than the dependencies force.
pub fn recovery_line(
    edges: impl Iterator<Item = DepEdge> + Clone,
    n: usize,
    fail: Pid,
    target: u64,
) -> Vec<u64> {
    let mut line = vec![NO_ROLLBACK; n];
    if fail.idx() < n {
        line[fail.idx()] = target;
    }
    loop {
        let mut changed = false;
        for e in edges.clone() {
            let (si, di) = (e.src.idx(), e.dst.idx());
            if si >= n || di >= n {
                continue;
            }
            // Sender interval undone => receive orphaned.
            if line[si] <= e.src_interval && line[di] > e.dst_interval {
                line[di] = e.dst_interval;
                changed = true;
            }
        }
        if !changed {
            return line;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(src: u32, si: u64, dst: u32, di: u64) -> DepEdge {
        DepEdge {
            src: Pid(src),
            src_interval: si,
            dst: Pid(dst),
            dst_interval: di,
        }
    }

    fn line(edges: &[DepEdge], n: usize, fail: u32, target: u64) -> Vec<u64> {
        recovery_line(edges.iter().copied(), n, Pid(fail), target)
    }

    #[test]
    fn isolated_failure_rolls_back_only_itself() {
        assert_eq!(line(&[], 3, 1, 2), vec![NO_ROLLBACK, 2, NO_ROLLBACK]);
    }

    #[test]
    fn direct_dependency_propagates() {
        // P0 sent in interval 3, P1 received in its interval 5.
        let g = [e(0, 3, 1, 5)];
        // P0 rolls to checkpoint 2: interval 3 undone (3 >= 2)? Edge rule:
        // line[0]=2 <= src_interval=3 => orphan => P1 rolls to 5.
        assert_eq!(line(&g, 2, 0, 2), vec![2, 5]);
        // P0 rolls to checkpoint 4: interval 3 survives => no cascade.
        assert_eq!(line(&g, 2, 0, 4), vec![4, NO_ROLLBACK]);
    }

    #[test]
    fn transitive_cascade() {
        let g = [
            e(0, 1, 1, 2), // P0@1 -> P1@2
            e(1, 2, 2, 7), // P1@2 -> P2@7 (sent in the undone interval)
        ];
        assert_eq!(line(&g, 3, 0, 0), vec![0, 2, 7]);
    }

    #[test]
    fn cascade_stops_at_earlier_intervals() {
        // Received before the undone region: line[0]=6 > 5, so interval
        // 5 survives.
        let g = [e(0, 5, 1, 4)];
        assert_eq!(line(&g, 2, 0, 6), vec![6, NO_ROLLBACK]);
    }

    #[test]
    fn cyclic_dependencies_converge() {
        // The second edge is a back edge. P0 -> 1 undoes the interval-2
        // send => P1 -> 2, and P1's interval-1 send survives (line[1]=2 >
        // 1): the back edge stays inactive.
        let g = [e(0, 2, 1, 2), e(1, 1, 0, 3)];
        assert_eq!(line(&g, 2, 0, 1), vec![1, 2]);
        // Tighter failure: P1 to 0 undoes its interval 1 send => P0 must
        // undo its interval-3 receive.
        assert_eq!(line(&g, 2, 1, 0), vec![3, 0]);
    }

    #[test]
    fn domino_effect_with_sparse_checkpoints() {
        // Classic domino: alternating messages, checkpoints far apart.
        let g = [e(0, 0, 1, 0), e(1, 0, 0, 0)];
        // Everyone cascades to 0 — the unbounded rollback the paper's
        // Fig. 6 guards against.
        assert_eq!(line(&g, 2, 0, 0), vec![0, 0]);
    }

    #[test]
    fn takes_minimum_over_multiple_edges() {
        // An earlier receive of an interval-0 send.
        let g = [e(0, 0, 1, 5), e(0, 0, 1, 3)];
        assert_eq!(
            line(&g, 2, 0, 0)[1],
            3,
            "must undo the earliest affected receive"
        );
    }
}
