//! Two-phase commit: FixD's from-checkpoint investigation vs CMC-style
//! whole-history checking.
//!
//! The buggy coordinator commits after the first YES — an atomicity
//! violation only some vote orderings expose. This example contrasts the
//! two investigation modes the paper compares (§4.3, Fig. 4):
//!
//! * **CMC**: model-check the implementation from its initial state;
//! * **FixD**: run normally until the fault fires, roll back to a
//!   consistent checkpoint, and investigate only from there.
//!
//! Both find the bug; FixD explores a fraction of the states. Afterwards
//! the Healer applies the wait-for-all fix and the protocol completes
//! correctly.
//!
//! Run: `cargo run --example two_phase_commit`

use fixd_baselines::Cmc;
use fixd_core::{Fixd, FixdConfig};
use fixd_examples::catalogue::HealApp;
use fixd_examples::two_phase_commit::{atomicity_monitor, tpc_factory};
use fixd_investigator::{ExploreConfig, NetModel};

fn main() {
    let votes = vec![true, false, true];

    // --- CMC baseline: whole-space verification from the initial state.
    let cmc = Cmc::new(1, NetModel::reliable(), tpc_factory(votes.clone(), true))
        .invariant(atomicity_monitor().invariant())
        .config(ExploreConfig::default());
    let cmc_report = cmc.run();
    println!(
        "CMC  (from initial)   : {:>6} states, {} violating trail(s)",
        cmc_report.states,
        cmc_report.violations.len()
    );
    assert!(!cmc_report.violations.is_empty());

    // --- FixD: supervise a real run; investigate from the checkpoint.
    let mut found = None;
    let app = HealApp::Tpc {
        votes: votes.clone(),
    };
    for seed in 0..50u64 {
        let mut w = app.build(seed);
        let mut fixd = Fixd::new(4, FixdConfig::seeded(seed)).monitor(atomicity_monitor());
        let out = fixd.supervise(&mut w, 10_000);
        if let Some(fault) = out.fault {
            found = Some((seed, w, fixd, fault));
            break;
        }
    }
    let (seed, mut world, mut fixd, fault) = found.expect("violating schedule exists");
    println!(
        "FixD: seed {seed} manifests `{}` at t={}",
        fault.monitor, fault.at
    );
    let report = fixd.diagnose(&mut world, fault).expect("diagnosis");
    println!(
        "FixD (from checkpoint): {:>6} states, {} violating trail(s)",
        report.states_explored,
        report.trails.len()
    );
    println!("{}", report.render());
    assert!(report.reproduced());
    assert!(
        report.states_explored < cmc_report.states,
        "from-checkpoint investigation must be cheaper"
    );

    // --- Heal: the coordinator learns to wait for all votes.
    let (patch, pid) = app.patch();
    let heal = fixd.heal_update(&mut world, pid, &patch).expect("heal");
    println!("healed {:?}; resuming", heal.procs_updated);
    let end = fixd.supervise(&mut world, 10_000);
    assert!(end.fault.is_none());
    assert!(app.converged(&world), "with a NO vote the fixed 2PC aborts");
    println!("fixed coordinator decided ABORT (correct). OK");
}
