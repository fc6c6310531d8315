//! A source → cruncher work pipeline, for measuring salvaged
//! computation (experiment F5).
//!
//! The source streams `n_items` work items; the cruncher performs real
//! CPU work per item (iterated mixing) and records each result. The
//! buggy cruncher mis-handles items whose payload matches a poison
//! pattern (models the latent bug that fires deep into a long
//! computation). Recovery-strategy comparison:
//!
//! * restart-from-scratch recomputes *all* items;
//! * update-from-checkpoint salvages every item crunched before the
//!   poison and recomputes only the suffix.

use fixd_core::Monitor;
use fixd_healer::{migrate, Patch};
use fixd_runtime::wire::{fnv_mix, get_varint, put_varint};
use fixd_runtime::{Context, Message, Pid, Program, World, WorldConfig};

/// Source → cruncher: a work item (payload: item index as varint).
pub const WORK: u16 = 30;

/// Iterations of mixing per item — the knob for "how expensive is one
/// unit of computation".
pub const DEFAULT_COST: u64 = 1000;

/// The work source (P0).
#[derive(Clone)]
pub struct Source {
    pub n_items: u64,
}

impl Program for Source {
    fn on_start(&mut self, ctx: &mut Context) {
        for i in 0..self.n_items {
            let mut p = Vec::new();
            put_varint(&mut p, i);
            ctx.send(Pid(1), WORK, p);
        }
    }
    fn snapshot(&self) -> Vec<u8> {
        super::snapshot_vec(self)
    }
    fn snapshot_to(&self, b: &mut Vec<u8>) {
        b.extend_from_slice(&self.n_items.to_le_bytes());
    }
    fn restore(&mut self, b: &[u8]) {
        self.n_items = u64::from_le_bytes(b.try_into().unwrap());
    }
    fn name(&self) -> &'static str {
        "source"
    }
}

/// The real computation: `cost` rounds of 64-bit mixing.
pub fn crunch(item: u64, cost: u64) -> u64 {
    let mut h = item.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for i in 0..cost {
        h = fnv_mix(h, i);
    }
    h
}

/// Size of the cruncher's working-set buffer. Each item touches one
/// cell, so checkpoint deltas are sparse — the access pattern
/// copy-on-write checkpointing exploits (paper §4.2).
pub const SCRATCH_SIZE: usize = 8192;

/// The cruncher (P1). `poison_at`: the item index the buggy version
/// corrupts (produces 0 instead of the real result).
#[derive(Clone)]
pub struct Cruncher {
    pub results: Vec<(u64, u64)>,
    pub cost: u64,
    pub poison_at: Option<u64>,
    /// Working memory; one cell mutated per item.
    pub scratch: Vec<u8>,
}

impl Cruncher {
    /// A correct cruncher.
    pub fn correct(cost: u64) -> Self {
        Self {
            results: Vec::new(),
            cost,
            poison_at: None,
            scratch: vec![0; SCRATCH_SIZE],
        }
    }

    /// A cruncher that corrupts item `poison_at`.
    pub fn buggy(cost: u64, poison_at: u64) -> Self {
        Self {
            poison_at: Some(poison_at),
            ..Self::correct(cost)
        }
    }
}

impl Program for Cruncher {
    fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
        if msg.tag != WORK {
            return;
        }
        let mut pos = 0;
        let item = get_varint(&msg.payload, &mut pos).unwrap_or(0);
        let result = if self.poison_at == Some(item) {
            0 // BUG: corrupted result
        } else {
            crunch(item, self.cost)
        };
        let cell = (item as usize).wrapping_mul(97) % self.scratch.len();
        self.scratch[cell] = self.scratch[cell].wrapping_add(result as u8);
        self.results.push((item, result));
        let mut out = Vec::new();
        put_varint(&mut out, item);
        put_varint(&mut out, result);
        ctx.output(out);
    }
    fn snapshot(&self) -> Vec<u8> {
        super::snapshot_vec(self)
    }
    fn snapshot_to(&self, b: &mut Vec<u8>) {
        // Layout: fixed-width header + fixed-size scratch FIRST, growing
        // results tail LAST — so sparse scratch mutations and appends
        // dirty few pages (checkpoint-friendly, like a real heap image).
        b.reserve(self.scratch.len() + self.results.len() * 10 + 32);
        b.extend_from_slice(&self.cost.to_le_bytes());
        match self.poison_at {
            Some(p) => {
                b.push(1);
                b.extend_from_slice(&p.to_le_bytes());
            }
            None => {
                b.push(0);
                b.extend_from_slice(&0u64.to_le_bytes());
            }
        }
        b.extend_from_slice(&(self.scratch.len() as u64).to_le_bytes());
        b.extend_from_slice(&self.scratch);
        put_varint(b, self.results.len() as u64);
        for &(i, r) in &self.results {
            put_varint(b, i);
            put_varint(b, r);
        }
    }
    fn restore(&mut self, b: &[u8]) {
        self.cost = u64::from_le_bytes(b[0..8].try_into().unwrap());
        let has_poison = b[8] == 1;
        let poison = u64::from_le_bytes(b[9..17].try_into().unwrap());
        self.poison_at = has_poison.then_some(poison);
        let slen = u64::from_le_bytes(b[17..25].try_into().unwrap()) as usize;
        self.scratch = b[25..25 + slen].to_vec();
        let mut pos = 25 + slen;
        let n = get_varint(b, &mut pos).unwrap_or(0);
        self.results.clear();
        for _ in 0..n {
            let i = get_varint(b, &mut pos).unwrap_or(0);
            let r = get_varint(b, &mut pos).unwrap_or(0);
            self.results.push((i, r));
        }
    }
    fn name(&self) -> &'static str {
        "cruncher"
    }
}

/// Correctness monitor: every recorded result matches the reference
/// computation. Item-wise — a result's verdict depends on `cost` and on
/// the `(item, result)` pair alone — so a supervisor re-derives only
/// the results it has not verified yet.
pub fn results_monitor() -> Monitor {
    Monitor::local_items(
        "results-correct",
        |c: &Cruncher| (c.cost, c.results.as_slice()),
        |_, &cost, &(item, result)| result == crunch(item, cost),
    )
}

/// Build the 2-process pipeline world over an explicit [`WorldConfig`]
/// (campaign matrices inject network pathologies through the config).
pub fn pipeline_world_cfg(
    cfg: WorldConfig,
    n_items: u64,
    cost: u64,
    poison_at: Option<u64>,
) -> World {
    let mut w = World::new(cfg);
    w.add_process(Box::new(Source { n_items }));
    w.add_process(Box::new(match poison_at {
        Some(p) => Cruncher::buggy(cost, p),
        None => Cruncher::correct(cost),
    }));
    w
}

/// Build the 2-process pipeline world.
pub fn pipeline_world(seed: u64, n_items: u64, cost: u64, poison_at: Option<u64>) -> World {
    pipeline_world_cfg(WorldConfig::seeded(seed), n_items, cost, poison_at)
}

/// The fix: stop poisoning. State layout is identical; the migration
/// clears the poison flag.
pub fn cruncher_patch(cost: u64) -> Patch {
    Patch::code_only("cruncher-fix", 1, 2, move || {
        Box::new(Cruncher::correct(cost))
    })
    .with_migration(migrate::from_fn(|old| {
        // Re-encode with poison flag cleared: decode then re-encode.
        let mut c = Cruncher::correct(0);
        c.restore(old);
        c.poison_at = None;
        Ok(c.snapshot())
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correct_pipeline_produces_reference_results() {
        let mut w = pipeline_world(1, 8, 100, None);
        w.run_to_quiescence(10_000);
        let monitor = results_monitor();
        assert!(monitor.violated_in(&w).is_none());
        let c = w.program::<Cruncher>(Pid(1)).unwrap();
        assert_eq!(c.results.len(), 8);
    }

    #[test]
    fn poison_detected_by_monitor() {
        let mut w = pipeline_world(1, 8, 100, Some(5));
        let monitor = results_monitor();
        let mut fired_at = None;
        let mut steps = 0u64;
        while w.step().is_some() {
            steps += 1;
            if monitor.violated_in(&w).is_some() {
                fired_at = Some(steps);
                break;
            }
        }
        let fired_at = fired_at.expect("poison must be detected");
        // Items 0..=4 crunched fine before detection.
        let c = w.program::<Cruncher>(Pid(1)).unwrap();
        assert_eq!(
            c.results.len(),
            6,
            "detected right at item 5 (after {fired_at} steps)"
        );
    }

    #[test]
    fn patch_clears_poison_and_keeps_results() {
        let mut buggy = Cruncher::buggy(100, 3);
        buggy.results.push((0, crunch(0, 100)));
        let patch = cruncher_patch(100);
        let fixed = patch.instantiate(&buggy.snapshot()).unwrap();
        let c = fixed.downcast_ref::<Cruncher>().unwrap();
        assert_eq!(c.poison_at, None);
        assert_eq!(c.results.len(), 1);
        assert_eq!(c.cost, 100);
    }

    #[test]
    fn crunch_is_deterministic_and_item_sensitive() {
        assert_eq!(crunch(3, 50), crunch(3, 50));
        assert_ne!(crunch(3, 50), crunch(4, 50));
        assert_ne!(crunch(3, 50), crunch(3, 51));
    }
}
