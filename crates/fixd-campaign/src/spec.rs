//! Campaign specifications: the cartesian scenario matrix.
//!
//! A [`CampaignSpec`] is `apps × fault cases × seeds`, filtered by each
//! app's supported pathologies. Cells are enumerated in a stable order
//! (app-major, then case, then seed) so the driver's aggregation is
//! deterministic no matter how many threads execute it.

use std::sync::Arc;

use fixd_core::{DetectedFault, Monitor};
use fixd_runtime::{FaultPlan, NetworkConfig, World, WorldConfig};

/// Coarse label of what a fault case stresses; used for coverage
/// accounting in the report.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Pathology {
    /// No injected faults, default network.
    Clean,
    /// Crash-stop process failures.
    Crash,
    /// Probabilistic message loss.
    Loss,
    /// Probabilistic message duplication.
    Duplication,
    /// Latency jitter (message reordering).
    Reorder,
    /// In-flight payload corruption.
    Corruption,
    /// Timed network partitions.
    Partition,
}

impl Pathology {
    /// Stable lowercase name (used in JSON and summaries).
    pub fn as_str(self) -> &'static str {
        match self {
            Pathology::Clean => "clean",
            Pathology::Crash => "crash",
            Pathology::Loss => "loss",
            Pathology::Duplication => "duplication",
            Pathology::Reorder => "reorder",
            Pathology::Corruption => "corruption",
            Pathology::Partition => "partition",
        }
    }
}

/// Result of an app's post-run verdict over one cell.
#[derive(Clone, Debug, Default)]
pub struct CellCheck {
    /// `Some(reason)` when an app-specific postcondition failed.
    pub failure: Option<String>,
    /// App-specific counters (sorted by the app for stable output).
    pub metrics: Vec<(String, u64)>,
}

impl CellCheck {
    /// A passing verdict with metrics.
    pub fn pass(metrics: Vec<(String, u64)>) -> Self {
        Self {
            failure: None,
            metrics,
        }
    }

    /// A failing verdict.
    pub fn fail(reason: impl Into<String>, metrics: Vec<(String, u64)>) -> Self {
        Self {
            failure: Some(reason.into()),
            metrics,
        }
    }
}

/// Builds a world for one cell (the config already carries the cell's
/// seed and the case's network pathology).
pub type WorldFactory = Arc<dyn Fn(WorldConfig) -> World + Send + Sync>;
/// Produces the app's fault monitors (fresh per cell).
pub type MonitorFactory = Arc<dyn Fn() -> Vec<Monitor> + Send + Sync>;
/// App-specific postcondition over the finished world.
pub type CheckFn =
    Arc<dyn Fn(&World, &FaultCase, Option<&DetectedFault>) -> CellCheck + Send + Sync>;
/// Builds the fault plan for a case, given world size and cell seed.
pub type PlanFn = Arc<dyn Fn(usize, u64) -> FaultPlan + Send + Sync>;

/// One application column of the matrix.
#[derive(Clone)]
pub struct AppSpec {
    /// Stable app name (appears in cells and coverage sets).
    pub name: &'static str,
    /// Pathologies this app's assertions are sound under.
    pub supports: &'static [Pathology],
    /// World builder. The driver shards the world it returns when a
    /// cell runs on more than one shard.
    pub build: WorldFactory,
    /// Fault monitors supervised during the run.
    pub monitors: MonitorFactory,
    /// Post-run verdict.
    pub check: CheckFn,
}

/// One fault-scenario row of the matrix: a network pathology plus a
/// fault plan.
#[derive(Clone)]
pub struct FaultCase {
    /// Stable case name (appears in cells and summaries).
    pub name: &'static str,
    /// Coverage label.
    pub pathology: Pathology,
    /// Network behaviour for every cell of this case.
    pub net: NetworkConfig,
    /// Fault plan builder (`(world_size, seed)` → plan).
    pub plan: PlanFn,
    /// True when the case can never lose a message (no drops, no
    /// crashes, partitions that heal before traffic crosses them).
    /// App verdicts assert full liveness — not just safety — under
    /// lossless cases.
    pub lossless: bool,
    /// Secondary pathologies a combined case also stresses (e.g. a
    /// loss+dup case labels [`Pathology::Duplication`] primarily and
    /// `[Loss, Reorder]` here). Apps must support *all* labels to run
    /// the case, and coverage accounting counts every label.
    pub also: &'static [Pathology],
}

impl FaultCase {
    /// A case with no injected fault plan.
    pub fn net_only(name: &'static str, pathology: Pathology, net: NetworkConfig) -> Self {
        Self {
            name,
            pathology,
            net,
            plan: Arc::new(|_, _| FaultPlan::none()),
            lossless: false,
            also: &[],
        }
    }

    /// A case with a fault plan over the default network.
    pub fn planned(
        name: &'static str,
        pathology: Pathology,
        plan: impl Fn(usize, u64) -> FaultPlan + Send + Sync + 'static,
    ) -> Self {
        Self {
            name,
            pathology,
            net: NetworkConfig::default(),
            plan: Arc::new(plan),
            lossless: false,
            also: &[],
        }
    }

    /// Mark this case as lossless (builder style): apps additionally
    /// assert full completion, not just safety.
    pub fn lossless(mut self) -> Self {
        self.lossless = true;
        self
    }

    /// Attach secondary pathology labels (builder style).
    pub fn also(mut self, also: &'static [Pathology]) -> Self {
        self.also = also;
        self
    }

    /// Every pathology this case stresses: primary first, then the
    /// secondary labels.
    pub fn pathologies(&self) -> impl Iterator<Item = Pathology> + '_ {
        std::iter::once(self.pathology).chain(self.also.iter().copied())
    }

    /// Can `app` soundly run this case? Requires support for the
    /// primary *and* every secondary pathology.
    pub fn supported_by(&self, app: &AppSpec) -> bool {
        self.pathologies().all(|p| app.supports.contains(&p))
    }
}

/// One concrete cell of the matrix (indices into the spec's vectors).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cell {
    /// Position in the spec's stable enumeration order.
    pub index: usize,
    /// Index into [`CampaignSpec::apps`].
    pub app: usize,
    /// Index into [`CampaignSpec::cases`].
    pub case: usize,
    /// The cell's world/supervision seed.
    pub seed: u64,
}

/// The full campaign: a cartesian scenario matrix plus run limits.
#[derive(Clone)]
pub struct CampaignSpec {
    /// Application columns.
    pub apps: Vec<AppSpec>,
    /// Fault-scenario rows.
    pub cases: Vec<FaultCase>,
    /// Seeds swept per (app, case) pair.
    pub seeds: Vec<u64>,
    /// Per-cell supervision budget.
    pub max_steps: u64,
}

impl CampaignSpec {
    /// An empty spec with the default step budget.
    pub fn new() -> Self {
        Self {
            apps: Vec::new(),
            cases: Vec::new(),
            seeds: Vec::new(),
            max_steps: 100_000,
        }
    }

    /// Add an app column (builder style).
    pub fn app(mut self, app: AppSpec) -> Self {
        self.apps.push(app);
        self
    }

    /// Add a fault-case row (builder style).
    pub fn case(mut self, case: FaultCase) -> Self {
        self.cases.push(case);
        self
    }

    /// Sweep these seeds (builder style).
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds.extend(seeds);
        self
    }

    /// Enumerate every cell in the stable order (app-major, then case,
    /// then seed), skipping unsupported (app, pathology) pairs.
    pub fn cells(&self) -> Vec<Cell> {
        let mut out = Vec::new();
        for (ai, app) in self.apps.iter().enumerate() {
            for (ci, case) in self.cases.iter().enumerate() {
                if !case.supported_by(app) {
                    continue;
                }
                for &seed in &self.seeds {
                    out.push(Cell {
                        index: out.len(),
                        app: ai,
                        case: ci,
                        seed,
                    });
                }
            }
        }
        out
    }

    /// Number of cells the matrix expands to. Campaign jobs compare the
    /// report's cell count against this so silently skipped sweeps fail
    /// loudly (the skip would have to happen in the *driver*; this count
    /// shares [`CampaignSpec::cells`] so the two cannot drift apart).
    pub fn expected_cells(&self) -> usize {
        self.cells().len()
    }
}

impl Default for CampaignSpec {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_app(name: &'static str, supports: &'static [Pathology]) -> AppSpec {
        AppSpec {
            name,
            supports,
            build: Arc::new(World::new),
            monitors: Arc::new(Vec::new),
            check: Arc::new(|_, _, _| CellCheck::default()),
        }
    }

    #[test]
    fn cells_enumerate_in_stable_order_and_respect_support() {
        let spec = CampaignSpec::new()
            .app(dummy_app("a", &[Pathology::Clean, Pathology::Loss]))
            .app(dummy_app("b", &[Pathology::Clean]))
            .case(FaultCase::net_only(
                "clean",
                Pathology::Clean,
                NetworkConfig::default(),
            ))
            .case(FaultCase::net_only(
                "loss",
                Pathology::Loss,
                NetworkConfig::lossy(0.1),
            ))
            .seeds(0..3);
        let cells = spec.cells();
        assert_eq!(cells.len(), spec.expected_cells());
        assert_eq!(cells.len(), 9, "2+1 supported pairs × 3 seeds");
        // Stable, contiguous indices in app-major order.
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
        assert_eq!((cells[0].app, cells[0].case, cells[0].seed), (0, 0, 0));
        assert_eq!((cells[8].app, cells[8].case, cells[8].seed), (1, 0, 2));
    }

    #[test]
    fn pathology_names_are_stable() {
        assert_eq!(Pathology::Clean.as_str(), "clean");
        assert_eq!(Pathology::Partition.as_str(), "partition");
    }
}
