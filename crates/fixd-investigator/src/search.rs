//! Search-order strategies for the exploration frontier.
//!
//! ModelD's back-end supports "the ability to customize the search order
//! for the state graph" (§4.3) — "originally introduced ... as a way to
//! support heuristic search". The order is the queue the one-worker
//! exploration loop drains: BFS reaches a shortest counterexample first,
//! DFS reaches deep violations fast with low memory, randomized order
//! de-biases long exploration. A run that is not cut short reports the
//! same graph and the same shortest trails in every order (see
//! [`crate::frontier`]); the order decides what a stopped run has seen.

use std::collections::VecDeque;

use fixd_runtime::DetRng;

/// How the frontier is drained.
#[derive(Clone, Debug, PartialEq)]
pub enum SearchOrder {
    /// Breadth-first: a stopped run has seen the shortest
    /// counterexamples; highest memory.
    Bfs,
    /// Depth-first: low memory; a hunt that stops at the first violation
    /// returns a long trail.
    Dfs,
    /// Uniform-random frontier draws (seeded, reproducible).
    Random { seed: u64 },
}

/// The one-worker queue of the exploration loop, drained in a
/// [`SearchOrder`].
pub(crate) enum Frontier<I> {
    Bfs(VecDeque<I>),
    Dfs(Vec<I>),
    Random(Vec<I>, DetRng),
}

impl<I> Frontier<I> {
    pub fn new(order: &SearchOrder) -> Self {
        match order {
            SearchOrder::Bfs => Frontier::Bfs(VecDeque::new()),
            SearchOrder::Dfs => Frontier::Dfs(Vec::new()),
            SearchOrder::Random { seed } => {
                Frontier::Random(Vec::new(), DetRng::derive(*seed, 0xF0))
            }
        }
    }

    pub fn push(&mut self, item: I) {
        match self {
            Frontier::Bfs(q) => q.push_back(item),
            Frontier::Dfs(v) | Frontier::Random(v, _) => v.push(item),
        }
    }

    pub fn pop(&mut self) -> Option<I> {
        match self {
            Frontier::Bfs(q) => q.pop_front(),
            Frontier::Dfs(v) => v.pop(),
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
        let mut f = Frontier::new(&SearchOrder::Bfs);
        f.push(1);
        f.push(2);
        assert_eq!(f.pop(), Some(1));
        assert_eq!(f.pop(), Some(2));
        assert!(f.pop().is_none());
    }

    #[test]
    fn dfs_is_lifo() {
        let mut f = Frontier::new(&SearchOrder::Dfs);
        f.push(1);
        f.push(2);
        assert_eq!(f.pop(), Some(2));
        assert_eq!(f.pop(), Some(1));
    }

    #[test]
    fn random_is_seed_deterministic_and_complete() {
        let drain = |seed: u64| {
            let mut f = Frontier::new(&SearchOrder::Random { seed });
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
