//! Property: a campaign cell whose world runs on shards
//! ([`fixd_runtime::World::shard`]) produces the **identical**
//! [`fixd_campaign::CellOutcome`] as the one-shard run at every shard
//! count — under random heterogeneous
//! per-link latencies and random fault plans.
//!
//! This is the report-level half of the shard-equivalence property; the
//! StepRecord-level half lives in `fixd-runtime/tests/sharded_worlds.rs`.

use std::sync::Arc;

use fixd_campaign::{
    kvstore_app, run_cell, run_cell_sharded, token_ring_app, CampaignSpec, Cell, FaultCase,
    Pathology,
};
use fixd_runtime::{DeliveryPolicy, FaultPlan, NetworkConfig, Partition, Pid};
use proptest::prelude::*;

/// Build a one-app, one-case spec from random network/fault parameters.
/// The case mixes a jittery default policy with one concrete FIFO edge
/// and one wildcard RandomDelay column, so the per-edge conservative
/// window genuinely differs per link.
fn spec_for(
    app_idx: usize,
    base_min: u64,
    base_max: u64,
    fifo_latency: u64,
    wild_min: u64,
    fault_kind: u8,
) -> CampaignSpec {
    let net = NetworkConfig::jittery(base_min, base_max)
        .with_link(
            Some(Pid(0)),
            Some(Pid(1)),
            DeliveryPolicy::Fifo {
                latency: fifo_latency,
            },
        )
        .with_link(
            None,
            Some(Pid(2)),
            DeliveryPolicy::RandomDelay {
                min: wild_min,
                max: wild_min + 10,
            },
        );
    let mut case = FaultCase::net_only("prop-hetero", Pathology::Reorder, net);
    case.plan = match fault_kind {
        1 => Arc::new(|n, _seed| FaultPlan::none().crash(Pid(n as u32 - 1), 40)),
        2 => Arc::new(|n, _seed| {
            let left: Vec<Pid> = (0..n as u32 / 2).map(Pid).collect();
            let right: Vec<Pid> = (n as u32 / 2..n as u32).map(Pid).collect();
            FaultPlan::none().partition(30, Partition::split(n, &[&left, &right]), Some(90))
        }),
        _ => case.plan,
    };
    let app = if app_idx == 0 {
        token_ring_app()
    } else {
        kvstore_app()
    };
    CampaignSpec::new().app(app).case(case).seeds([0])
}

proptest! {
    // Each case is four full supervised runs of a real app; keep the
    // case count modest so the suite stays fast.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn cell_outcome_is_shard_count_invariant(
        seed in 0u64..1_000,
        app_idx in 0usize..2,
        base_min in 1u64..5,
        spread in 0u64..20,
        fifo_latency in 1u64..8,
        wild_min in 1u64..30,
        fault_kind in 0u8..3,
    ) {
        let spec = spec_for(
            app_idx,
            base_min,
            base_min + spread,
            fifo_latency,
            wild_min,
            fault_kind,
        );
        let cell = Cell { index: 0, app: 0, case: 0, seed };
        let serial = run_cell(&spec, &cell);
        for shards in [2usize, 4, 8] {
            let sharded = run_cell_sharded(&spec, &cell, shards);
            prop_assert_eq!(&serial, &sharded, "shards={}", shards);
        }
    }
}
