//! FixD configuration.

use fixd_investigator::{ExploreConfig, NetModel};
use fixd_scroll::SpillConfig;
use fixd_timemachine::{CheckpointPolicy, PageStore, TimeMachineConfig};

/// Configuration for a [`crate::Fixd`] supervisor.
#[derive(Clone, Debug)]
pub struct FixdConfig {
    /// World seed — must match the supervised world for replay and model
    /// assembly to line up.
    pub seed: u64,
    /// Checkpointing discipline of the Time Machine.
    pub policy: CheckpointPolicy,
    /// Page size for content-addressed checkpoint images.
    pub page_size: usize,
    /// Intern checkpoint pages into this store instead of a private one.
    /// Hand one store to many supervisors (e.g. campaign cells) and
    /// identical pages across their worlds are held once.
    pub page_store: Option<PageStore>,
    /// Seal and spill scroll prefixes through this config's disk, so
    /// arbitrarily long supervised runs keep only scroll tails resident.
    pub scroll_spill: Option<SpillConfig>,
    /// Environment model the Investigator explores under.
    pub net_model: NetModel,
    /// Investigator limits.
    pub explore: ExploreConfig,
    /// Evaluate fault monitors every N executed events (1 = every event).
    pub check_every: u64,
    /// Record dropped messages in the Scroll (diagnostic).
    pub record_drops: bool,
}

impl Default for FixdConfig {
    fn default() -> Self {
        Self {
            seed: 0xF1BD,
            policy: CheckpointPolicy::EveryReceive,
            page_size: fixd_timemachine::DEFAULT_PAGE_SIZE,
            page_store: None,
            scroll_spill: None,
            net_model: NetModel::reliable(),
            explore: ExploreConfig::default(),
            check_every: 1,
            record_drops: false,
        }
    }
}

impl FixdConfig {
    /// Config with a specific seed, defaults otherwise.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// The Time Machine configuration slice.
    pub fn tm_config(&self) -> TimeMachineConfig {
        TimeMachineConfig {
            policy: self.policy,
            page_size: self.page_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_seeding() {
        let c = FixdConfig::default();
        assert_eq!(c.policy, CheckpointPolicy::EveryReceive);
        assert_eq!(c.check_every, 1);
        let s = FixdConfig::seeded(99);
        assert_eq!(s.seed, 99);
        assert_eq!(s.tm_config().page_size, c.page_size);
        assert!(!c.record_drops);
    }
}
