//! Update-point detection: when is it safe to swap a process's code?
//!
//! Paper §3.4 requires updating "when it is in a state that does not
//! violate any invariants". We additionally require (Ginseng-style
//! conservatism) that the process is *quiescent*: no in-flight messages
//! involve it, and it is not inside an active speculation — so the swap
//! cannot interleave with a half-finished exchange on the old protocol.

use fixd_runtime::{Pid, World};
use fixd_timemachine::TimeMachine;

/// The verdict on one candidate update point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UpdatePoint {
    pub pid: Pid,
    /// No messages in flight to or from the process.
    pub channels_quiet: bool,
    /// Not inside an active speculation.
    pub not_speculative: bool,
    /// The caller-supplied invariant check passed.
    pub invariants_hold: bool,
}

impl UpdatePoint {
    /// Safe overall?
    pub fn is_safe(&self) -> bool {
        self.channels_quiet && self.not_speculative && self.invariants_hold
    }

    /// Human-readable refusal reason, if unsafe.
    pub fn refusal(&self) -> Option<String> {
        if self.is_safe() {
            return None;
        }
        let mut why = Vec::new();
        if !self.channels_quiet {
            why.push("messages in flight");
        }
        if !self.not_speculative {
            why.push("inside an active speculation");
        }
        if !self.invariants_hold {
            why.push("invariants do not hold");
        }
        Some(why.join(", "))
    }
}

/// Evaluate the update point for `pid` right now.
///
/// `invariants_hold` is the caller's predicate over the world (typically
/// the same invariants the Investigator checked, evaluated on the
/// restored state).
pub fn update_point(
    world: &World,
    tm: &TimeMachine,
    pid: Pid,
    invariants_hold: impl FnOnce(&World) -> bool,
) -> UpdatePoint {
    let channels_quiet = !world
        .inflight_messages()
        .iter()
        .any(|m| m.src == pid || m.dst == pid);
    UpdatePoint {
        pid,
        channels_quiet,
        not_speculative: tm.active_spec_of(pid).is_none(),
        invariants_hold: invariants_hold(world),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixd_runtime::{Context, Program, WorldConfig};
    use fixd_timemachine::{CheckpointPolicy, TimeMachineConfig};

    #[derive(Clone)]
    struct Talky;
    impl Program for Talky {
        fn on_start(&mut self, ctx: &mut Context) {
            if ctx.pid() == Pid(0) {
                ctx.send(Pid(1), 1, vec![4]);
            }
        }
        fn on_message(&mut self, ctx: &mut Context, msg: &fixd_runtime::Message) {
            if msg.payload[0] > 0 {
                let other = Pid(1 - ctx.pid().0);
                ctx.send(other, 1, vec![msg.payload[0] - 1]);
            }
        }
        fn snapshot(&self) -> Vec<u8> {
            vec![0]
        }
        fn restore(&mut self, _b: &[u8]) {}
    }

    fn setup() -> (World, TimeMachine) {
        let mut w = World::new(WorldConfig::seeded(2));
        w.add_process(Box::new(Talky));
        w.add_process(Box::new(Talky));
        let tm = TimeMachine::new(
            2,
            TimeMachineConfig {
                policy: CheckpointPolicy::EveryReceive,
                ..Default::default()
            },
        );
        (w, tm)
    }

    #[test]
    fn mid_conversation_is_not_quiet() {
        let (mut w, mut tm) = setup();
        tm.run(&mut w, 2); // P0's send is in flight
        let up = update_point(&w, &tm, Pid(1), |_| true);
        assert!(!up.channels_quiet);
        assert!(!up.is_safe());
        assert!(up.refusal().unwrap().contains("messages in flight"));
    }

    #[test]
    fn quiescent_world_is_safe() {
        let (mut w, mut tm) = setup();
        tm.run(&mut w, 10_000);
        let up = update_point(&w, &tm, Pid(1), |_| true);
        assert!(up.is_safe());
        assert_eq!(up.refusal(), None);
    }

    #[test]
    fn speculation_blocks_update() {
        let (mut w, mut tm) = setup();
        tm.run(&mut w, 10_000);
        tm.speculate(&mut w, Pid(1), "risky assumption");
        let up = update_point(&w, &tm, Pid(1), |_| true);
        assert!(!up.not_speculative);
        assert!(up.refusal().unwrap().contains("speculation"));
    }

    #[test]
    fn invariant_failure_blocks_update() {
        let (mut w, mut tm) = setup();
        tm.run(&mut w, 10_000);
        let up = update_point(&w, &tm, Pid(0), |_| false);
        assert!(!up.invariants_hold);
        assert!(!up.is_safe());
    }
}
