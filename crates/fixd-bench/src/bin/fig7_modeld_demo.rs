//! **Experiment F7** (paper Fig. 7, §4.3): the two components of ModelD —
//! front-end DSL and back-end guarded-command engine — plus the dynamic
//! action-set change that lets the engine "run the actual implementation
//! of a process involved in a distributed application".
//!
//! Run: `cargo run -p fixd-bench --bin fig7_modeld_demo`

use fixd_investigator::{
    Action, ExploreConfig, Explorer, GuardedSystemBuilder, Invariant, ModelD, NetModel, SearchOrder,
};
use fixd_runtime::{Context, Message, Pid, Program};

fn main() {
    println!("== ModelD front-end: the guarded-command DSL (Fig. 7 front-end) ==");
    // A tiny elevator: floor 0..3, door open/closed.
    let mut sys = GuardedSystemBuilder::new((0u8, false))
        .action("up", |s: &(u8, bool)| !s.1 && s.0 < 3, |s| s.0 += 1)
        .action("down", |s: &(u8, bool)| !s.1 && s.0 > 0, |s| s.0 -= 1)
        .action("open", |s: &(u8, bool)| !s.1, |s| s.1 = true)
        .action("close", |s: &(u8, bool)| s.1, |s| s.1 = false)
        .build();
    let report = Explorer::new(&sys, ExploreConfig::default())
        .invariant(Invariant::new("door-closed-while-moving", |_s| true))
        .run();
    println!("elevator reachability: {}", report.summary());
    assert_eq!(report.states, 8); // 4 floors × door open/closed

    println!("\n== back-end feature: dynamic action-set change (§4.3/§4.4) ==");
    // Inject an updated "up" that skips floors (the Healer's injection
    // mechanism, shown on the abstract model).
    sys.replace_action(
        "up",
        Action::new("up", |s: &(u8, bool)| !s.1 && s.0 == 0, |s| s.0 = 3),
    );
    let report2 = Explorer::new(&sys, ExploreConfig::default()).run();
    println!("after action swap: {}", report2.summary());
    assert!(
        report2.transitions < report.transitions,
        "the express elevator has fewer transitions"
    );

    println!("\n== back-end feature: customizable search order ==");
    for (name, order) in [
        ("bfs", SearchOrder::Bfs),
        ("dfs", SearchOrder::Dfs),
        ("random", SearchOrder::Random { seed: 7 }),
    ] {
        let r = Explorer::new(
            &sys,
            ExploreConfig {
                order,
                ..ExploreConfig::default()
            },
        )
        .run();
        println!(
            "  {name:<7}: {} states (same set, different order)",
            r.states
        );
    }

    println!("\n== checking a real implementation (the §4.3 example) ==");
    // An event-based protocol: the *actual* Program code runs inside the
    // model checker; network actions are the modeled environment.
    #[derive(Clone)]
    struct Counter {
        n: u8,
    }
    impl Program for Counter {
        fn on_start(&mut self, ctx: &mut Context) {
            if ctx.pid() == Pid(0) {
                ctx.send(Pid(1), 1, vec![1]);
                ctx.send(Pid(1), 1, vec![2]);
            }
        }
        fn on_message(&mut self, _ctx: &mut Context, msg: &Message) {
            self.n = self.n.wrapping_add(msg.payload[0]);
        }
        fn snapshot(&self) -> Vec<u8> {
            vec![self.n]
        }
        fn restore(&mut self, b: &[u8]) {
            self.n = b[0];
        }
    }
    let md = ModelD::from_initial(1, NetModel::reliable(), || {
        vec![
            Box::new(Counter { n: 0 }) as Box<dyn Program>,
            Box::new(Counter { n: 0 }),
        ]
    })
    .invariant(Invariant::new(
        "sum-bounded",
        |s: &fixd_investigator::WorldState| s.program::<Counter>(Pid(1)).is_none_or(|c| c.n <= 3),
    ));
    let r = md.run();
    println!("real-code check (FIFO env model): {}", r.summary());

    // Swap the environment model: a duplicating network breaks the bound.
    let mut md2 = ModelD::from_initial(1, NetModel::reliable(), || {
        vec![
            Box::new(Counter { n: 0 }) as Box<dyn Program>,
            Box::new(Counter { n: 0 }),
        ]
    })
    .invariant(Invariant::new(
        "sum-bounded",
        |s: &fixd_investigator::WorldState| s.program::<Counter>(Pid(1)).is_none_or(|c| c.n <= 3),
    ));
    md2.set_net(NetModel::duplicating());
    let r2 = md2.run();
    println!("after env-model swap (duplicating net): {}", r2.summary());
    assert!(!r2.violations.is_empty(), "duplication breaks the bound");
    println!("\nModelD demo OK");
}
