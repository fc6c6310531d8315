//! CMC-style model checking of real code from the initial state.
//!
//! "CMC \[2\] is a model checker that generates the state space of a
//! given application by executing the C or C++ source code. During the
//! state space exploration, CMC automatically checks for certain generic
//! properties such as memory leaks and invalid memory accesses. Also, CMC
//! reports any deadlock states ... To check for specific properties, the
//! user has to provide additional invariants." (§4.3)
//!
//! Behavioral equivalent here: ModelD exploration **from the initial
//! state** (no checkpoint head start) with deadlock detection on and a
//! generic resource-leak check (undeliverable mail addressed to crashed
//! processes — the message-queue analogue of a memory leak), plus user
//! invariants.

use fixd_investigator::{
    ExploreConfig, ExploreReport, Invariant, ModelAction, ModelD, NetModel, WorldState,
};
use fixd_runtime::{Pid, Program};

/// The CMC comparator.
pub struct Cmc {
    md: ModelD,
}

impl Cmc {
    /// Check an application from its initial state.
    pub fn new(
        seed: u64,
        net: NetModel,
        factory: impl Fn() -> Vec<Box<dyn Program>> + Send + Sync + 'static,
    ) -> Self {
        let md = ModelD::from_initial(seed, net, factory).invariant(Self::leak_check());
        Self { md }
    }

    /// CMC's generic "leak" check adapted to the substrate: mail
    /// addressed to a crashed process can never be consumed — a resource
    /// leak the application should not produce.
    pub fn leak_check() -> Invariant<WorldState> {
        Invariant::new("no-leaked-mail", |s: &WorldState| {
            for dst in 0..s.width() {
                if !s.is_crashed(Pid(dst as u32)) {
                    continue;
                }
                for src in 0..s.width() {
                    if !s.channel(Pid(src as u32), Pid(dst as u32)).is_empty() {
                        return false;
                    }
                }
            }
            true
        })
    }

    /// Add a user invariant (builder style).
    pub fn invariant(mut self, inv: Invariant<WorldState>) -> Self {
        self.md = self.md.invariant(inv);
        self
    }

    /// Set exploration limits.
    pub fn config(mut self, cfg: ExploreConfig) -> Self {
        // CMC reports deadlocks: force detection on.
        let cfg = ExploreConfig {
            detect_deadlocks: true,
            ..cfg
        };
        self.md = self.md.config(cfg);
        self
    }

    /// Run the exploration.
    pub fn run(&self) -> ExploreReport<ModelAction> {
        self.md.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixd_runtime::{Context, Message};

    /// Request/response pair where the server never answers the second
    /// request kind — a deadlock under "client waits" semantics is not
    /// modelled (message passing is async), but the leak check catches a
    /// client that mails a crashed server.
    #[derive(Clone)]
    struct Client;
    impl Program for Client {
        fn on_start(&mut self, ctx: &mut Context) {
            ctx.send(Pid(1), 1, vec![1]);
        }
        fn snapshot(&self) -> Vec<u8> {
            vec![]
        }
        fn restore(&mut self, _b: &[u8]) {}
    }

    #[derive(Clone)]
    struct Server {
        served: u64,
    }
    impl Program for Server {
        fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
            self.served += 1;
            ctx.send(msg.src, 2, vec![]);
        }
        fn snapshot(&self) -> Vec<u8> {
            self.served.to_le_bytes().to_vec()
        }
        fn restore(&mut self, b: &[u8]) {
            self.served = u64::from_le_bytes(b.try_into().unwrap());
        }
    }

    fn factory() -> Vec<Box<dyn Program>> {
        vec![
            Box::new(Client) as Box<dyn Program>,
            Box::new(Server { served: 0 }),
        ]
    }

    #[test]
    fn clean_protocol_passes() {
        let report = Cmc::new(1, NetModel::reliable(), factory)
            .config(ExploreConfig::default())
            .run();
        assert!(report.clean(), "{}", report.summary());
        assert!(report.states > 1);
    }

    #[test]
    fn leak_detected_under_crash_model() {
        // With a crash budget, some branch crashes the server while the
        // client's request is in flight => leaked mail.
        let report = Cmc::new(1, NetModel::crashy(1), factory)
            .config(ExploreConfig::default())
            .run();
        assert!(
            report
                .violations
                .iter()
                .any(|t| t.violation == "no-leaked-mail"),
            "{}",
            report.summary()
        );
    }

    #[test]
    fn user_invariants_compose() {
        let report = Cmc::new(1, NetModel::reliable(), factory)
            .invariant(Invariant::new("server-never-serves", |s: &WorldState| {
                s.program::<Server>(Pid(1)).is_none_or(|sv| sv.served == 0)
            }))
            .config(ExploreConfig::default())
            .run();
        assert!(!report.violations.is_empty());
    }
}
