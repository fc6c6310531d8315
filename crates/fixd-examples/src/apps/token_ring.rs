//! Token-ring mutual exclusion.
//!
//! One token circulates; holding the token = being in the critical
//! section (held until a local timer models the CS duration). The buggy
//! variant duplicates the token on a configurable round — after that, two
//! processes can be in the CS simultaneously, violating mutual exclusion.
//! This is the classic scheduling-dependent distributed bug the paper's
//! Investigator is designed to corner (Fig. 3).

use fixd_core::Monitor;
use fixd_runtime::{Context, Message, Pid, Program, TimerId, World, WorldConfig};

/// Message tag for the token.
pub const TOKEN: u16 = 1;
/// Critical-section duration in virtual time.
pub const CS_TIME: u64 = 5;

/// A ring node.
#[derive(Clone)]
pub struct RingNode {
    /// Currently inside the critical section (holding the token).
    pub holding: bool,
    /// Times this node entered the CS.
    pub entries: u64,
    /// Rounds remaining when we next forward.
    rounds_left: u8,
    /// BUG KNOB: on this remaining-rounds value, forward the token twice.
    dup_at: Option<u8>,
}

impl RingNode {
    /// A correct node.
    pub fn correct() -> Self {
        Self {
            holding: false,
            entries: 0,
            rounds_left: 0,
            dup_at: None,
        }
    }

    /// A node that duplicates (and misroutes) the token when forwarding
    /// with `rounds == dup_at` remaining.
    pub fn buggy(dup_at: u8) -> Self {
        Self {
            dup_at: Some(dup_at),
            ..Self::correct()
        }
    }

    fn forward(&self, ctx: &mut Context, rounds: u8) {
        let n = ctx.world_size();
        let next = Pid(((ctx.pid().0 as usize + 1) % n) as u32);
        let token = fixd_runtime::Payload::from([rounds]);
        ctx.send(next, TOKEN, token.clone());
        if self.dup_at == Some(rounds) {
            // BUG: a misdirected "retransmission" skips a hop — now two
            // tokens circulate out of phase (sharing one payload buffer).
            let skip = Pid(((ctx.pid().0 as usize + 2) % n) as u32);
            ctx.send(skip, TOKEN, token);
        }
    }

    fn enter_cs(&mut self, ctx: &mut Context, rounds: u8) {
        self.holding = true;
        self.entries += 1;
        self.rounds_left = rounds;
        ctx.output(vec![b'C', ctx.pid().0 as u8]);
        ctx.set_timer(CS_TIME);
    }
}

impl Program for RingNode {
    fn on_start(&mut self, ctx: &mut Context) {
        if ctx.pid() == Pid(0) {
            // Mint the token and immediately take the CS.
            let rounds = 3 * ctx.world_size() as u8;
            self.enter_cs(ctx, rounds);
        }
    }

    fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
        if msg.tag == TOKEN {
            let rounds = msg.payload[0];
            self.enter_cs(ctx, rounds);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context, _t: TimerId) {
        // CS over: release and forward.
        if self.holding {
            self.holding = false;
            if self.rounds_left > 0 {
                self.forward(ctx, self.rounds_left - 1);
            }
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        super::snapshot_vec(self)
    }

    fn snapshot_to(&self, b: &mut Vec<u8>) {
        b.extend_from_slice(&[
            u8::from(self.holding),
            self.rounds_left,
            self.dup_at.map_or(255, |d| d),
        ]);
        b.extend_from_slice(&self.entries.to_le_bytes());
    }

    fn restore(&mut self, b: &[u8]) {
        self.holding = b[0] != 0;
        self.rounds_left = b[1];
        self.dup_at = if b[2] == 255 { None } else { Some(b[2]) };
        self.entries = u64::from_le_bytes(b[3..11].try_into().unwrap());
    }

    fn name(&self) -> &'static str {
        "ring-node"
    }
}

/// Build a ring world of `n` nodes over an explicit [`WorldConfig`]
/// (campaign matrices inject network pathologies through the config);
/// node `buggy_node` (if any) duplicates the token when `dup_at` rounds
/// remain.
pub fn ring_world_cfg(cfg: WorldConfig, n: usize, buggy_node: Option<(usize, u8)>) -> World {
    let mut w = World::new(cfg);
    for i in 0..n {
        w.add_process(Box::new(match buggy_node {
            Some((b, dup_at)) if b == i => RingNode::buggy(dup_at),
            _ => RingNode::correct(),
        }));
    }
    w
}

/// Build a ring world of `n` nodes; node `buggy_node` (if any) duplicates
/// the token when `dup_at` rounds remain.
pub fn ring_world(n: usize, seed: u64, buggy_node: Option<(usize, u8)>) -> World {
    ring_world_cfg(WorldConfig::seeded(seed), n, buggy_node)
}

/// The mutual-exclusion monitor: at most one node holds the token.
pub fn mutex_monitor() -> Monitor {
    Monitor::global(
        "mutual-exclusion",
        |w| {
            (0..w.num_procs())
                .filter(|&i| {
                    w.program::<RingNode>(Pid(i as u32))
                        .is_some_and(|p| p.holding)
                })
                .count()
                <= 1
        },
        |s| {
            (0..s.width())
                .filter(|&i| {
                    s.program::<RingNode>(Pid(i as u32))
                        .is_some_and(|p| p.holding)
                })
                .count()
                <= 1
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correct_ring_preserves_mutex() {
        let mut w = ring_world(4, 1, None);
        let monitor = mutex_monitor();
        loop {
            if w.step().is_none() {
                break;
            }
            assert!(
                monitor.violated_in(&w).is_none(),
                "mutex broken in correct ring"
            );
        }
        let total: u64 = (0..4)
            .map(|i| w.program::<RingNode>(Pid(i)).unwrap().entries)
            .sum();
        assert_eq!(total, 13, "initial CS + 12 forwarded rounds");
    }

    #[test]
    fn buggy_ring_violates_mutex() {
        let mut w = ring_world(4, 1, Some((2, 5)));
        let monitor = mutex_monitor();
        let mut violated = false;
        while w.step().is_some() {
            if monitor.violated_in(&w).is_some() {
                violated = true;
                break;
            }
        }
        assert!(violated, "duplicated token must break mutual exclusion");
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut a = RingNode::buggy(3);
        a.holding = true;
        a.entries = 7;
        a.rounds_left = 2;
        let mut b = RingNode::correct();
        b.restore(&a.snapshot());
        assert_eq!(b.snapshot(), a.snapshot());
    }
}
