//! Property: [`CampaignReport`] aggregation is completion-order
//! independent — shuffling the order in which cells finish (what thread
//! interleaving does in the real driver) produces the identical report,
//! byte for byte.

use fixd_campaign::{run_campaign_sharded, standard_matrix, CampaignReport, CellOutcome};
use fixd_runtime::DetRng;
use proptest::prelude::*;

/// A deterministic pool of outcomes to permute: one real single-threaded
/// run of a small standard matrix (computed once, shared by all cases).
fn outcome_pool() -> &'static [CellOutcome] {
    static POOL: std::sync::OnceLock<Vec<CellOutcome>> = std::sync::OnceLock::new();
    POOL.get_or_init(|| {
        let spec = standard_matrix(&[3, 11]);
        run_campaign_sharded(&spec, 1, 1).cells
    })
}

/// Fisher–Yates with the workspace's deterministic RNG.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = DetRng::derive(seed, 0x5E);
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn report_aggregation_is_order_independent(shuffle_seed in 0u64..10_000) {
        let pool = outcome_pool();
        let baseline: Vec<(usize, CellOutcome)> =
            pool.iter().cloned().enumerate().collect();
        let mut permuted = baseline.clone();
        shuffle(&mut permuted, shuffle_seed);

        let a = CampaignReport::from_cells(baseline);
        let b = CampaignReport::from_cells(permuted);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.to_json(), b.to_json());
        prop_assert_eq!(a.summary(), b.summary());
    }
}
