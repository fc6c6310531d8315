//! Search-order strategies for the exploration frontier.
//!
//! ModelD's back-end supports "the ability to customize the search order
//! for the state graph" (§4.3) — "originally introduced ... as a way to
//! support heuristic search". The order is the queue the one-worker
//! exploration loop drains: BFS reaches a shortest counterexample first,
//! DFS reaches deep violations fast with low memory, randomized order
//! de-biases long exploration. A run that is not cut short reports the
//! same graph and the same shortest trails in every order (see
//! [`crate::frontier`]): for such a run the order is a cost, and
//! [`crate::ExploreConfig::exhaustive`] takes the cheap one. The order
//! decides what a stopped run has seen, which is why
//! [`crate::ExploreConfig::default`] stays breadth-first.

use std::collections::VecDeque;

use fixd_runtime::DetRng;

/// How the frontier is drained.
#[derive(Clone, Debug, PartialEq)]
pub enum SearchOrder {
    /// Breadth-first: a stopped run has seen the shortest
    /// counterexamples; highest memory.
    Bfs,
    /// Depth-first: the queue is a stack of states, not a layer, and a
    /// state is expanded right after it was made; a hunt that stops at
    /// the first violation returns a long trail. Where paths of
    /// different length meet, a finished run pays for its BFS-minimal
    /// depths by expanding states again as shorter paths turn up; once
    /// that has happened to more than 1024 states and an eighth of the
    /// visited ones, the rest of the run drains the same queue oldest
    /// first (`frontier::StealQueue`). A graph whose paths to a state
    /// all have one length never gets there.
    Dfs,
    /// Uniform-random frontier draws (seeded, reproducible).
    Random { seed: u64 },
}

/// The one-worker queue of the exploration loop for the orders that
/// are not LIFO. [`SearchOrder::Dfs`] has no queue here: it is one lane
/// of [`crate::frontier::StealQueue`], the lane every worker of a
/// parallel run drains.
pub(crate) enum Frontier<I> {
    Bfs(VecDeque<I>),
    Random(Vec<I>, DetRng),
}

impl<I> Frontier<I> {
    /// `None` for the LIFO order.
    pub fn new(order: &SearchOrder) -> Option<Self> {
        match order {
            SearchOrder::Bfs => Some(Frontier::Bfs(VecDeque::new())),
            SearchOrder::Dfs => None,
            SearchOrder::Random { seed } => {
                Some(Frontier::Random(Vec::new(), DetRng::derive(*seed, 0xF0)))
            }
        }
    }

    pub fn push(&mut self, item: I) {
        match self {
            Frontier::Bfs(q) => q.push_back(item),
            Frontier::Random(v, _) => v.push(item),
        }
    }

    pub fn pop(&mut self) -> Option<I> {
        match self {
            Frontier::Bfs(q) => q.pop_front(),
            Frontier::Random(v, rng) => {
                if v.is_empty() {
                    None
                } else {
                    let i = rng.below(v.len() as u64) as usize;
                    Some(v.swap_remove(i))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bfs_is_fifo() {
        let mut f = Frontier::new(&SearchOrder::Bfs).unwrap();
        f.push(1);
        f.push(2);
        assert_eq!(f.pop(), Some(1));
        assert_eq!(f.pop(), Some(2));
        assert!(f.pop().is_none());
    }

    #[test]
    fn random_is_seed_deterministic_and_complete() {
        let drain = |seed: u64| {
            let mut f = Frontier::new(&SearchOrder::Random { seed }).unwrap();
            for i in 0..20u64 {
                f.push(i);
            }
            std::iter::from_fn(|| f.pop()).collect::<Vec<_>>()
        };
        let a = drain(5);
        let b = drain(5);
        assert_eq!(a, b, "same seed, same order");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>(), "nothing lost");
        assert_ne!(a, sorted, "order actually shuffled (w.h.p.)");
    }
}
