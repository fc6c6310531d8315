//! Shared workload builders for the FixD benchmark harness.
//!
//! One module per experiment family; every `benches/figN_*.rs` target and
//! the `experiments` binary build their worlds through these helpers so
//! the criterion benches and the printed tables measure the same
//! workloads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use fixd_runtime::{Context, Message, NetworkConfig, Pid, Program, World, WorldConfig};

/// Allocation *events* (alloc + alloc_zeroed + realloc), maintained by
/// [`CountingAlloc`]. Counts, not bytes: the gates built on this are
/// "this loop does not call the allocator" (`tests/step_allocs.rs`) and
/// "this operation calls it exactly once" (`tests/spill_allocs.rs`),
/// and a count catches even a 1-byte slip that a byte-threshold would
/// hide.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Live (allocated − freed) heap bytes, maintained by [`CountingAlloc`]:
/// what `scale_demo` prices a dormant process with.
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// A counting wrapper over the system allocator; a binary or test
/// installs it with `#[global_allocator]` and reads [`alloc_events`] or
/// [`live_bytes`]. Frees are not events — recycling is about *not
/// allocating*, and a free in a hot loop would imply a paired
/// allocation somewhere anyway.
pub struct CountingAlloc;

// SAFETY: delegates every operation to `System` unchanged; only the
// two counters are maintained on the side.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }
    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        q
    }
}

/// Allocation events since process start, on every thread (zero
/// forever unless [`CountingAlloc`] is the global allocator).
pub fn alloc_events() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Heap bytes live right now, on every thread (zero forever unless
/// [`CountingAlloc`] is the global allocator).
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// A gossip workload: P0 seeds `ttl`-hop rumors to every neighbor; each
/// receipt mutates a `state_size`-byte buffer sparsely and forwards until
/// the ttl expires. Tunable event count ≈ `seeds * (ttl + 1)`.
#[derive(Clone)]
pub struct Gossiper {
    pub buf: Vec<u8>,
    pub seen: u64,
}

impl Gossiper {
    pub fn new(state_size: usize) -> Self {
        Self {
            buf: vec![0; state_size],
            seen: 0,
        }
    }
}

impl Program for Gossiper {
    fn on_start(&mut self, ctx: &mut Context) {
        if ctx.pid() == Pid(0) {
            let n = ctx.world_size();
            for s in 0..n as u8 {
                let dst = Pid((1 + (s as usize % (n - 1))) as u32);
                ctx.send(dst, 1, vec![s, 6]);
            }
        }
    }
    fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
        self.seen += 1;
        let i = (self.seen as usize).wrapping_mul(131) % self.buf.len();
        self.buf[i] = self.buf[i].wrapping_add(msg.payload[0]);
        let ttl = msg.payload[1];
        if ttl > 0 {
            let dst = Pid(((ctx.pid().0 as usize + 1) % ctx.world_size()) as u32);
            ctx.send(dst, 1, vec![msg.payload[0], ttl - 1]);
        }
    }
    fn snapshot(&self) -> Vec<u8> {
        let mut b = self.seen.to_le_bytes().to_vec();
        b.extend_from_slice(&self.buf);
        b
    }
    fn restore(&mut self, b: &[u8]) {
        self.seen = u64::from_le_bytes(b[0..8].try_into().unwrap());
        self.buf = b[8..].to_vec();
    }
}

/// Build a gossip world.
pub fn gossip_world(n: usize, seed: u64, state_size: usize, jitter: bool) -> World {
    let mut cfg = WorldConfig::seeded(seed);
    if jitter {
        cfg.net = NetworkConfig::jittery(1, 40);
    }
    let mut w = World::new(cfg);
    for _ in 0..n {
        w.add_process(Box::new(Gossiper::new(state_size)));
    }
    w
}

/// An all-to-all broadcast: every process shouts to every other at start
/// and counts receipts. With n processes, n(n−1) concurrent messages
/// interleave — the workload that exhibits the §2.1 state-space wall.
#[derive(Clone)]
pub struct Shouter {
    pub heard: u64,
}

impl Program for Shouter {
    fn on_start(&mut self, ctx: &mut Context) {
        ctx.broadcast(1, [1]);
    }
    fn on_message(&mut self, _ctx: &mut Context, _msg: &Message) {
        self.heard += 1;
    }
    fn snapshot(&self) -> Vec<u8> {
        self.heard.to_le_bytes().to_vec()
    }
    fn restore(&mut self, b: &[u8]) {
        self.heard = u64::from_le_bytes(b.try_into().unwrap());
    }
}

/// Factory for an n-process broadcast application (Investigator input).
pub fn shouter_factory(n: usize) -> impl Fn() -> Vec<Box<dyn Program>> + Send + Sync {
    move || {
        (0..n)
            .map(|_| Box::new(Shouter { heard: 0 }) as Box<dyn Program>)
            .collect()
    }
}

/// Simple wall-clock stopwatch for the `experiments` table binary.
pub fn time_it<R>(f: impl FnOnce() -> R) -> (R, std::time::Duration) {
    let t0 = std::time::Instant::now();
    let r = f();
    (r, t0.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gossip_world_runs_to_quiescence() {
        let mut w = gossip_world(4, 1, 1024, false);
        let r = w.run_to_quiescence(100_000);
        assert!(r.quiescent);
        assert!(r.delivered > 10);
    }

    #[test]
    fn gossip_is_seed_deterministic() {
        let fp = |seed| {
            let mut w = gossip_world(4, seed, 256, true);
            w.run_to_quiescence(100_000);
            w.global_snapshot().fingerprint()
        };
        assert_eq!(fp(3), fp(3));
    }
}
