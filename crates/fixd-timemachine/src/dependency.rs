//! The rollback-dependency graph and recovery-line computation.
//!
//! Every message carries its sender's checkpoint *interval* (the index of
//! the sender's most recent checkpoint, stamped via
//! [`fixd_runtime::Message::ckpt_index`]). When the message is delivered,
//! the Time Machine records a dependency edge
//! `(sender, sender_interval) → (receiver, receiver_interval)`:
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

/// The rollback-dependency graph of a run.
#[derive(Clone, Debug, Default)]
pub struct DependencyGraph {
    edges: Vec<DepEdge>,
}

impl DependencyGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a dependency.
    pub fn add(&mut self, edge: DepEdge) {
        self.edges.push(edge);
    }

    /// All recorded edges.
    pub fn edges(&self) -> &[DepEdge] {
        &self.edges
    }

    /// Number of recorded dependencies.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when no dependencies are recorded.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Retain only edges matching `pred` (garbage collection).
    pub fn retain_edges(&mut self, pred: impl FnMut(&DepEdge) -> bool) {
        self.edges.retain(pred);
    }

    /// Drop edges made irrelevant by a rollback: any edge whose receive
    /// interval was undone (`dst_interval >= line[dst]`) no longer
    /// describes the (new) history.
    pub fn retract(&mut self, line: &[u64]) {
        self.edges.retain(|e| {
            let dl = line.get(e.dst.idx()).copied().unwrap_or(NO_ROLLBACK);
            let sl = line.get(e.src.idx()).copied().unwrap_or(NO_ROLLBACK);
            e.dst_interval < dl && e.src_interval < sl
        });
    }

    /// Compute the recovery line when `fail` must roll back to checkpoint
    /// `target`. Returns, per process, the checkpoint index to restore,
    /// or [`NO_ROLLBACK`] if the process keeps its current state.
    ///
    /// The propagation is monotone (indices only decrease), so the fixed
    /// point is the *maximal* consistent line — no process rolls back
    /// further than the dependencies force.
    pub fn recovery_line(&self, n: usize, fail: Pid, target: u64) -> Vec<u64> {
        let mut line = vec![NO_ROLLBACK; n];
        if fail.idx() < n {
            line[fail.idx()] = target;
        }
        loop {
            let mut changed = false;
            for e in &self.edges {
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

    /// Convenience: how many processes a line forces to roll back.
    pub fn rollback_breadth(line: &[u64]) -> usize {
        line.iter().filter(|&&l| l != NO_ROLLBACK).count()
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

    #[test]
    fn isolated_failure_rolls_back_only_itself() {
        let g = DependencyGraph::new();
        let line = g.recovery_line(3, Pid(1), 2);
        assert_eq!(line, vec![NO_ROLLBACK, 2, NO_ROLLBACK]);
        assert_eq!(DependencyGraph::rollback_breadth(&line), 1);
    }

    #[test]
    fn direct_dependency_propagates() {
        let mut g = DependencyGraph::new();
        // P0 sent in interval 3, P1 received in its interval 5.
        g.add(e(0, 3, 1, 5));
        // P0 rolls to checkpoint 2: interval 3 undone (3 >= 2)? Edge rule:
        // line[0]=2 <= src_interval=3 => orphan => P1 rolls to 5.
        let line = g.recovery_line(2, Pid(0), 2);
        assert_eq!(line, vec![2, 5]);
        // P0 rolls to checkpoint 4: interval 3 survives => no cascade.
        let line = g.recovery_line(2, Pid(0), 4);
        assert_eq!(line, vec![4, NO_ROLLBACK]);
    }

    #[test]
    fn transitive_cascade() {
        let mut g = DependencyGraph::new();
        g.add(e(0, 1, 1, 2)); // P0@1 -> P1@2
        g.add(e(1, 2, 2, 7)); // P1@2 -> P2@7 (sent in the undone interval)
        let line = g.recovery_line(3, Pid(0), 0);
        assert_eq!(line, vec![0, 2, 7]);
    }

    #[test]
    fn cascade_stops_at_earlier_intervals() {
        let mut g = DependencyGraph::new();
        g.add(e(0, 5, 1, 4)); // received before the undone region
        let line = g.recovery_line(2, Pid(0), 6);
        // line[0]=6 > 5 so interval 5 survives.
        assert_eq!(line, vec![6, NO_ROLLBACK]);
    }

    #[test]
    fn cyclic_dependencies_converge() {
        let mut g = DependencyGraph::new();
        g.add(e(0, 2, 1, 2));
        g.add(e(1, 1, 0, 3)); // back edge
        let line = g.recovery_line(2, Pid(0), 1);
        // P0 -> 1 undoes interval 2 edge => P1 -> 2; P1's interval 1
        // survives (1 < 2)... wait line[1]=2 > 1 so back edge inactive.
        assert_eq!(line, vec![1, 2]);
        // Tighter failure: P1 to 0 undoes its interval 1 send => P0 must
        // undo its interval-3 receive.
        let line = g.recovery_line(2, Pid(1), 0);
        assert_eq!(line, vec![3, 0]);
    }

    #[test]
    fn domino_effect_with_sparse_checkpoints() {
        // Classic domino: alternating messages, checkpoints far apart.
        let mut g = DependencyGraph::new();
        g.add(e(0, 0, 1, 0));
        g.add(e(1, 0, 0, 0));
        let line = g.recovery_line(2, Pid(0), 0);
        // Everyone cascades to 0 — the unbounded rollback the paper's
        // Fig. 6 guards against.
        assert_eq!(line, vec![0, 0]);
    }

    #[test]
    fn retract_removes_undone_edges() {
        let mut g = DependencyGraph::new();
        g.add(e(0, 1, 1, 2));
        g.add(e(0, 0, 1, 0));
        let line = vec![1, 2];
        g.retract(&line);
        // Edge (0@1 -> 1@2): src_interval 1 >= line[0]=1 => dropped.
        // Edge (0@0 -> 1@0): both below the line => kept.
        assert_eq!(g.len(), 1);
        assert_eq!(g.edges()[0], e(0, 0, 1, 0));
    }

    #[test]
    fn takes_minimum_over_multiple_edges() {
        let mut g = DependencyGraph::new();
        g.add(e(0, 0, 1, 5));
        g.add(e(0, 0, 1, 3)); // an earlier receive of an interval-0 send
        let line = g.recovery_line(2, Pid(0), 0);
        assert_eq!(line[1], 3, "must undo the earliest affected receive");
    }
}
