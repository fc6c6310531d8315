//! Property-based tests for the runtime substrate: determinism,
//! codec laws, checkpoint identity.

use proptest::prelude::*;

use fixd_runtime::wire;
use fixd_runtime::{
    Context, EventKind, FaultPlan, Message, NetworkConfig, Pid, Program, SoloHarness, World,
    WorldConfig,
};

/// A gossip-ish program whose behavior depends on payload and RNG, used
/// to generate varied executions.
#[derive(Clone)]
struct Noisy {
    acc: u64,
    fanout: u8,
}

impl Program for Noisy {
    fn on_start(&mut self, ctx: &mut Context) {
        if ctx.pid() == Pid(0) {
            for i in 0..self.fanout {
                let dst = Pid(1 + (u32::from(i) % (ctx.world_size() as u32 - 1)));
                ctx.send(dst, 1, vec![i, 3]);
            }
        }
    }
    fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
        self.acc = self
            .acc
            .wrapping_add(ctx.random())
            .wrapping_add(u64::from(msg.payload[0]));
        let ttl = msg.payload[1];
        if ttl > 0 {
            let dst = Pid((ctx.random_below(ctx.world_size() as u64)) as u32);
            if dst != ctx.pid() {
                ctx.send(dst, 1, vec![msg.payload[0], ttl - 1]);
            }
        }
    }
    fn snapshot(&self) -> Vec<u8> {
        let mut b = self.acc.to_le_bytes().to_vec();
        b.push(self.fanout);
        b
    }
    fn restore(&mut self, b: &[u8]) {
        self.acc = u64::from_le_bytes(b[0..8].try_into().unwrap());
        self.fanout = b[8];
    }
}

fn noisy_world(n: usize, seed: u64, fanout: u8, jitter: bool, drop: f64) -> World {
    let mut cfg = WorldConfig::seeded(seed);
    if jitter {
        cfg.net = NetworkConfig::jittery(1, 40);
    }
    cfg.net.drop_prob = drop;
    let mut w = World::new(cfg);
    for _ in 0..n {
        w.add_process(Box::new(Noisy { acc: 0, fanout }));
    }
    w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Same seed ⇒ bit-identical execution, regardless of network mode.
    #[test]
    fn determinism(seed in 0u64..1000, n in 2usize..6, fanout in 1u8..6,
                   jitter in any::<bool>(), drop in 0.0f64..0.3) {
        let run = || {
            let mut w = noisy_world(n, seed, fanout, jitter, drop);
            let r = w.run_to_quiescence(5_000);
            (w.global_snapshot().fingerprint(), r.delivered, r.dropped, w.now())
        };
        prop_assert_eq!(run(), run());
    }

    /// Different seeds almost surely diverge somewhere observable.
    #[test]
    fn seed_sensitivity(seed in 0u64..500, n in 3usize..5) {
        let go = |s| {
            let mut w = noisy_world(n, s, 4, true, 0.0);
            w.run_to_quiescence(5_000);
            w.global_snapshot().fingerprint()
        };
        // Not a hard guarantee per pair, but over the sampled space the
        // two runs use different RNG streams; just assert both complete.
        let a = go(seed);
        let b = go(seed + 1);
        // (a == b) is possible but astronomically unlikely for all cases;
        // tolerate equality, require validity.
        prop_assert!(a != 0 || b != 0);
    }

    /// A harness resumed from the acting pid's checkpoint runs the next
    /// event exactly as the world then does: the same effects (ids
    /// and meta included), and after the step the harness's
    /// context and program bytes are the world's post-step checkpoint.
    /// Dormant lazy pids resume from the fresh context they would
    /// materialize with; meta templates are stamped as a Time Machine
    /// stamps them.
    #[test]
    fn harness_resumed_from_checkpoint_runs_in_lock_step(
        seed in 0u64..500, n in 2usize..5, lazy in 0usize..3, fanout in 1u8..6,
        jitter in any::<bool>(), drop in 0.0f64..0.3) {
        let mut w = noisy_world(n, seed, fanout, jitter, drop);
        w.add_lazy_processes(lazy, move |_| Box::new(Noisy { acc: 0, fanout }));
        let width = w.num_procs();
        let mut steps = 0u64;
        while let Some(ev) = w.peek() {
            steps += 1;
            let Some(pid) = ev.kind.pid().filter(|_| ev.kind.runs_handler()) else {
                w.step();
                continue;
            };
            if steps.is_multiple_of(3) && w.is_materialized(pid) {
                w.set_ckpt_index(pid, steps);
            }
            let ck = w.checkpoint_process(pid);
            let mut program = w.with_program(pid, |p| p.clone_program());
            program.restore(&ck.state.to_bytes());
            let mut h = SoloHarness::resume(&ck, width);
            h.set_now(w.now().max(ev.at));
            let effects = match &ev.kind {
                EventKind::Start { .. } => h.start(program.as_mut()),
                EventKind::Deliver { msg } => h.deliver(program.as_mut(), msg),
                EventKind::TimerFire { timer, .. } => h.timer(program.as_mut(), *timer),
                other => unreachable!("{other:?} runs no handler"),
            };
            let rec = w.step().expect("the peeked event steps");
            prop_assert_eq!(&effects, &rec.effects, "effects at step {}", steps);
            let post = w.checkpoint_process(pid);
            prop_assert_eq!(
                format!("{:?}", h.context()),
                format!("{:?}", post.ctx),
                "context of {} after step {}", pid, steps
            );
            prop_assert_eq!(program.snapshot(), post.state.to_bytes());
        }
    }

    /// Checkpoint → run → restore returns the process to the exact state.
    #[test]
    fn checkpoint_restore_identity(seed in 0u64..500, steps in 1u64..30) {
        let mut w = noisy_world(4, seed, 4, false, 0.0);
        w.run_steps(steps);
        let cks: Vec<_> = (0..4).map(|i| w.checkpoint_process(Pid(i))).collect();
        let fps: Vec<_> = cks.iter().map(|c| (c.fingerprint(), format!("{:?}", c.ctx))).collect();
        w.run_to_quiescence(5_000);
        for ck in &cks {
            w.restore_checkpoint(ck);
        }
        let fps2: Vec<_> = (0..4)
            .map(|i| w.checkpoint_process(Pid(i)))
            .map(|c| (c.fingerprint(), format!("{:?}", c.ctx)))
            .collect();
        prop_assert_eq!(fps, fps2);
    }

    /// Varint encoding is a bijection on u64 (and i64 via zigzag).
    #[test]
    fn varint_bijection(v in any::<u64>(), s in any::<i64>()) {
        let mut buf = Vec::new();
        wire::put_varint(&mut buf, v);
        let mut pos = 0;
        prop_assert_eq!(wire::get_varint(&buf, &mut pos), Some(v));
        prop_assert_eq!(pos, buf.len());
        let mut buf2 = Vec::new();
        wire::put_varint_i64(&mut buf2, s);
        let mut pos2 = 0;
        prop_assert_eq!(wire::get_varint_i64(&buf2, &mut pos2), Some(s));
    }

    /// Length-prefixed byte framing round-trips arbitrary chunk lists.
    #[test]
    fn byte_framing(chunks in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..64), 0..8)) {
        let mut buf = Vec::new();
        for c in &chunks {
            wire::put_bytes(&mut buf, c);
        }
        let mut pos = 0;
        for c in &chunks {
            prop_assert_eq!(wire::get_bytes(&buf, &mut pos), Some(c.as_slice()));
        }
        prop_assert_eq!(pos, buf.len());
    }

    /// Crash faults never increase deliveries, and the run still
    /// terminates deterministically.
    #[test]
    fn crash_monotonicity(seed in 0u64..300, crash_at in 1u64..200) {
        let base = {
            let mut w = noisy_world(3, seed, 3, false, 0.0);
            w.run_to_quiescence(5_000).delivered
        };
        let crashed = {
            let mut w = noisy_world(3, seed, 3, false, 0.0);
            w.set_fault_plan(FaultPlan::none().crash(Pid(1), crash_at));
            w.run_to_quiescence(5_000).delivered
        };
        prop_assert!(crashed <= base);
    }
}
