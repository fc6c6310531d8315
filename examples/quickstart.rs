//! Quickstart: the complete FixD loop in ~60 lines of user code.
//!
//! Scenario: a replicated max-register whose buggy replica applies
//! *every* write instead of taking the max. FixD supervises the run,
//! detects the regression, rolls the system back to a consistent
//! checkpoint where the invariant holds, investigates the neighborhood
//! of the fault, prints a bug report, and applies the fix in place —
//! salvaging the good prefix of the computation.
//!
//! Run: `cargo run --example quickstart`

use fixd_core::{Fixd, FixdConfig, Monitor};
use fixd_healer::Patch;
use fixd_runtime::{Context, Message, Pid, Program, World, WorldConfig};

/// The buggy register: blindly overwrites.
#[derive(Clone)]
struct RegV1 {
    value: u64,
    high_water: u64,
}

impl Program for RegV1 {
    fn on_start(&mut self, ctx: &mut Context) {
        if ctx.pid() == Pid(0) {
            for v in [4u8, 9, 2, 7] {
                ctx.send(Pid(1), 1, [v]);
            }
        }
    }
    fn on_message(&mut self, _ctx: &mut Context, msg: &Message) {
        let v = u64::from(msg.payload[0]);
        self.value = v; // BUG: should be self.value.max(v)
        self.high_water = self.high_water.max(v);
    }
    fn snapshot(&self) -> Vec<u8> {
        let mut b = self.value.to_le_bytes().to_vec();
        b.extend_from_slice(&self.high_water.to_le_bytes());
        b
    }
    fn restore(&mut self, b: &[u8]) {
        self.value = u64::from_le_bytes(b[0..8].try_into().unwrap());
        self.high_water = u64::from_le_bytes(b[8..16].try_into().unwrap());
    }
}

/// The fixed register.
#[derive(Clone)]
struct RegV2 {
    value: u64,
    high_water: u64,
}

impl Program for RegV2 {
    fn on_message(&mut self, _ctx: &mut Context, msg: &Message) {
        let v = u64::from(msg.payload[0]);
        self.value = self.value.max(v);
        self.high_water = self.high_water.max(v);
    }
    fn snapshot(&self) -> Vec<u8> {
        let mut b = self.value.to_le_bytes().to_vec();
        b.extend_from_slice(&self.high_water.to_le_bytes());
        b
    }
    fn restore(&mut self, b: &[u8]) {
        self.value = u64::from_le_bytes(b[0..8].try_into().unwrap());
        self.high_water = u64::from_le_bytes(b[8..16].try_into().unwrap());
    }
}

fn main() {
    // 1. The application world.
    let seed = 7;
    let mut world = World::new(WorldConfig::seeded(seed));
    world.add_process(Box::new(RegV1 {
        value: 0,
        high_water: 0,
    }));
    world.add_process(Box::new(RegV1 {
        value: 0,
        high_water: 0,
    }));

    // 2. FixD supervision with one invariant: the register must never be
    //    below its own high-water mark.
    let mut fixd = Fixd::new(2, FixdConfig::seeded(seed))
        .monitor(Monitor::local::<RegV1>("monotone-register", |_, r| {
            r.value >= r.high_water
        }));

    // 3. Run until the bug manifests.
    let outcome = fixd.supervise(&mut world, 10_000);
    let fault = outcome.fault.expect("the regression manifests");
    println!(
        "detected: `{}` at {:?} (t={})",
        fault.monitor, fault.pid, fault.at
    );

    // 4. Respond (Fig. 4): rollback + investigate + report.
    let report = fixd.diagnose(&mut world, fault).expect("diagnosis");
    println!("{}", report.render());

    // 5. Heal (Fig. 5): dynamic update from the restored checkpoint.
    let patch = Patch::code_only("monotone-fix", 1, 2, || {
        Box::new(RegV2 {
            value: 0,
            high_water: 0,
        })
    });
    let heal = fixd.heal_update(&mut world, Pid(1), &patch).expect("heal");
    println!(
        "healed: {:?} updated, {} events salvaged, {} discarded",
        heal.procs_updated, heal.salvaged_events, heal.discarded_events
    );

    // 6. Resume to completion on the fixed code.
    let end = fixd.supervise(&mut world, 10_000);
    assert!(end.fault.is_none(), "no more violations after the fix");
    let final_value = world.program::<RegV2>(Pid(1)).unwrap().value;
    println!("final register value: {final_value} (expected 9)");
    assert_eq!(final_value, 9);
    println!("quickstart OK");
}
