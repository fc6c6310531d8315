//! A sharded run's Scroll is the serial run's Scroll, byte for byte, on
//! the path the campaign driver takes: the world runs its handlers on
//! shards ([`World::shard`]) and [`Fixd::supervise`] records the Scroll
//! on that world as it steps. The Scroll is the paper's ground truth, so
//! parallel execution may not perturb a single encoded byte of it.

use fixd::prelude::*;
use fixd::runtime::NetworkConfig;

/// Gossip program with RNG draws and payload-dependent fan-out, so the
/// Scroll records deliveries *and* randoms on every process.
#[derive(Clone)]
struct Gossip {
    acc: u64,
}

impl Program for Gossip {
    fn on_start(&mut self, ctx: &mut Context) {
        if ctx.pid() == Pid(0) {
            for d in 1..ctx.world_size() as u32 {
                ctx.send(Pid(d), 1, vec![3]);
            }
        }
    }
    fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
        self.acc = self.acc.wrapping_add(ctx.random());
        if msg.payload[0] > 0 {
            let dst = Pid((ctx.random_below(ctx.world_size() as u64)) as u32);
            if dst != ctx.pid() {
                ctx.send(dst, 1, vec![msg.payload[0] - 1]);
            }
        }
    }
    fn snapshot(&self) -> Vec<u8> {
        self.acc.to_le_bytes().to_vec()
    }
    fn restore(&mut self, b: &[u8]) {
        self.acc = u64::from_le_bytes(b.try_into().unwrap());
    }
}

const N: usize = 6;
const SEED: u64 = 0x5C80;
const MAX_STEPS: u64 = 50_000;

/// The faulty network over `base`'s delivery policy.
fn cfg(base: &NetworkConfig) -> WorldConfig {
    let mut cfg = WorldConfig::seeded(SEED);
    cfg.net = NetworkConfig {
        drop_prob: 0.05,
        dup_prob: 0.10,
        corrupt_prob: 0.05,
        ..base.clone()
    };
    cfg
}

fn world(net: &NetworkConfig, shards: usize) -> World {
    let mut w = World::new(cfg(net));
    for _ in 0..N {
        w.add_process(Box::new(Gossip { acc: 0 }));
    }
    w.set_fault_plan(FaultPlan::none().crash(Pid(2), 90));
    w.shard(shards);
    w
}

/// Supervise `world` to quiescence with no monitor and return the Scroll.
fn supervised_scroll(world: &mut World, record_drops: bool) -> ScrollStore {
    let mut fixd = Fixd::new(
        N,
        FixdConfig {
            record_drops,
            ..FixdConfig::seeded(SEED)
        },
    );
    let out = fixd.supervise(world, MAX_STEPS);
    assert!(out.quiescent && out.fault.is_none(), "{out:?}");
    fixd.scroll().clone()
}

#[test]
fn sealed_scroll_bytes_identical_across_shard_counts() {
    // FIFO latency 10 keeps every shard busy in a handful of wide
    // windows; one-tick jittery windows are the other regime, where
    // most windows find some shard with nothing to do.
    for net in [NetworkConfig::default(), NetworkConfig::jittery(1, 30)] {
        for record_drops in [false, true] {
            let want = supervised_scroll(&mut world(&net, 1), record_drops);
            assert!(want.total_entries() > 0, "the run must record something");
            for shards in [1usize, 2, 4, 8] {
                let at = format!("{shards} shards (drops={record_drops}, {:?})", net.policy);
                let got = supervised_scroll(&mut world(&net, shards), record_drops);
                assert_eq!(
                    got.total_entries(),
                    want.total_entries(),
                    "entry count drifted at {at}"
                );
                for p in (0..N as u32).map(Pid) {
                    assert_eq!(
                        got.encode_segment(p),
                        want.encode_segment(p),
                        "scroll bytes for {p:?} drifted at {at}"
                    );
                }
            }
        }
    }
}
