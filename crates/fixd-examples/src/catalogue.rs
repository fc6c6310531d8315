//! The heal catalogue: the one place the buggy apps of the paper's whole
//! loop — detect, roll back and investigate (§4.3), report, heal by
//! dynamic update (§4.4) — are defined. Each entry builds its world from
//! explicit parameters and a seed, names its monitors, its patch and the
//! pid the patch is for, and judges whether a healed, quiescent world
//! converged. Callers keep their own parameter maps.

use fixd_core::Monitor;
use fixd_healer::Patch;
use fixd_runtime::{NetworkConfig, Pid, World, WorldConfig};

use crate::{chord, kvstore, pipeline, token_ring, two_phase_commit as tpc};

/// The pipeline's per-item cost.
pub const PIPELINE_COST: u64 = 50;

/// A seeded config whose network delays each message by `lo..=hi`.
pub fn jittery(seed: u64, lo: u64, hi: u64) -> WorldConfig {
    let mut cfg = WorldConfig::seeded(seed);
    cfg.net = NetworkConfig::jittery(lo, hi);
    cfg
}

/// One buggy app and its parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HealApp {
    /// kvstore v1 (arrival-order backup) under jitter (1, 80), `puts`
    /// scripted puts.
    Kv { puts: usize },
    /// Source → cruncher over `items` items; the cruncher corrupts the
    /// item at ¾.
    Pipeline { items: u64 },
    /// `n`-node token ring under jitter (1, 4) whose node `buggy`
    /// duplicates the token when `dup_at` rounds remain.
    Ring { n: usize, buggy: usize, dup_at: u8 },
    /// 2PC under jitter (1, 60) whose coordinator commits on the first
    /// YES; one participant per vote.
    Tpc { votes: Vec<bool> },
    /// The late symptom: `n` Chord-KV members under jitter (1, 8), `puts`
    /// writes each; member `forgetful` acknowledges the `forget_at`-th
    /// put it owns without storing it, and only the origin's later read
    /// shows it ([`chord::KvMember`]). Not in `heal-loop`.
    ChordKv {
        n: usize,
        puts: u32,
        forgetful: usize,
        forget_at: u32,
    },
}

impl HealApp {
    /// The app's world at `seed`.
    pub fn build(&self, seed: u64) -> World {
        match self {
            Self::Kv { puts } => kvstore::kv_world(seed, kvstore::script(*puts, seed), (1, 80)),
            Self::Pipeline { items } => {
                pipeline::pipeline_world(seed, *items, PIPELINE_COST, Some(items * 3 / 4))
            }
            Self::Ring { n, buggy, dup_at } => {
                token_ring::ring_world_cfg(jittery(seed, 1, 4), *n, Some((*buggy, *dup_at)))
            }
            Self::Tpc { votes } => tpc::tpc_world_cfg(jittery(seed, 1, 60), votes, true),
            Self::ChordKv {
                n,
                puts,
                forgetful,
                forget_at,
            } => chord::kv_members_world_cfg(
                jittery(seed, 1, 8),
                *n,
                *puts,
                Some((*forgetful, *forget_at)),
            ),
        }
    }

    /// The monitors that catch the bug.
    pub fn monitors(&self) -> Vec<Monitor> {
        vec![match self {
            Self::Kv { .. } => kvstore::gap_monitor(),
            Self::Pipeline { .. } => pipeline::results_monitor(),
            Self::Ring { .. } => token_ring::mutex_monitor(),
            Self::Tpc { .. } => tpc::atomicity_monitor(),
            Self::ChordKv { .. } => chord::read_monitor(),
        }]
    }

    /// The fix, and the process it is for.
    pub fn patch(&self) -> (Patch, Pid) {
        match self {
            Self::Kv { .. } => (kvstore::backup_patch(), Pid(2)),
            Self::Pipeline { .. } => (pipeline::cruncher_patch(PIPELINE_COST), Pid(1)),
            Self::Ring { buggy, .. } => (token_ring::ring_patch(), Pid(*buggy as u32)),
            Self::Tpc { .. } => (tpc::coordinator_patch(), Pid(0)),
            Self::ChordKv { n, forgetful, .. } => (chord::forget_patch(*n), Pid(*forgetful as u32)),
        }
    }

    /// Did the healed, quiescent world converge?
    pub fn converged(&self, w: &World) -> bool {
        match self {
            Self::Kv { .. } => {
                let primary = w.program::<kvstore::Primary>(Pid(1));
                let backup = w.program::<kvstore::BackupV2>(Pid(2));
                primary.zip(backup).is_some_and(|(p, b)| p.store == b.store)
            }
            Self::Pipeline { items } => w
                .program::<pipeline::Cruncher>(Pid(1))
                .is_some_and(|c| c.results.len() as u64 == *items && c.poison_at.is_none()),
            // The ring has no end state to compare; at quiescence nobody
            // may still hold a token.
            Self::Ring { n, .. } => (0..*n).all(|i| {
                w.program::<token_ring::RingNode>(Pid(i as u32))
                    .is_some_and(|r| !r.holding)
            }),
            Self::Tpc { votes } => {
                let commit = Some(votes.iter().all(|&v| v));
                w.program::<tpc::Coordinator>(Pid(0))
                    .is_some_and(|c| c.decided == commit)
                    && (1..=votes.len()).all(|i| {
                        w.program::<tpc::Participant>(Pid(i as u32))
                            .is_some_and(|p| p.committed == commit)
                    })
            }
            // Every read-after-write check came back right.
            Self::ChordKv { n, puts, .. } => (0..*n).all(|i| {
                w.program::<chord::KvMember>(Pid(i as u32))
                    .is_some_and(|m| {
                        let s = m.node.kv_stats;
                        s.get_bad == 0 && s.get_ok == u64::from(*puts)
                    })
            }),
        }
    }
}
