//! Sharded scroll recording: one recorder per shard, reassembled with
//! [`ScrollStore::merge_disjoint`], must yield **byte-identical** sealed
//! scroll segments to serial recording — the Scroll is the paper's
//! ground truth, so parallel execution is not allowed to perturb a
//! single encoded byte of it.

use fixd_scroll::{record_run, record_run_sharded, RecordConfig, ScrollStore};

use fixd_runtime::{
    Context, FaultPlan, Message, NetworkConfig, Pid, Program, ShardedWorld, World, WorldConfig,
};

/// Gossip program with RNG draws and payload-dependent fan-out, so the
/// scroll records deliveries *and* randoms on every process.
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
    fn clone_program(&self) -> Box<dyn Program> {
        Box::new(Gossip { acc: self.acc })
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

const N: usize = 6;

/// The faulty network over `base`'s delivery policy.
fn cfg(seed: u64, base: NetworkConfig) -> WorldConfig {
    let mut cfg = WorldConfig::seeded(seed);
    cfg.net = NetworkConfig {
        drop_prob: 0.05,
        dup_prob: 0.10,
        corrupt_prob: 0.05,
        ..base
    };
    cfg
}

fn serial_store(seed: u64, rec_cfg: RecordConfig, net: NetworkConfig) -> ScrollStore {
    let mut w = World::new(cfg(seed, net));
    for _ in 0..N {
        w.add_process(Box::new(Gossip { acc: 0 }));
    }
    w.set_fault_plan(FaultPlan::none().crash(Pid(2), 90));
    let (store, report) = record_run(&mut w, rec_cfg, 50_000);
    assert!(report.quiescent);
    store
}

fn sharded_store(
    seed: u64,
    rec_cfg: RecordConfig,
    net: NetworkConfig,
    shards: usize,
) -> ScrollStore {
    let mut w = ShardedWorld::new(cfg(seed, net), shards);
    for _ in 0..N {
        w.add_process(Box::new(Gossip { acc: 0 }));
    }
    w.set_fault_plan(FaultPlan::none().crash(Pid(2), 90));
    let (store, report) = record_run_sharded(&mut w, rec_cfg, 50_000);
    assert!(report.quiescent);
    store
}

#[test]
fn sealed_scroll_bytes_identical_across_shard_counts() {
    // FIFO latency 10 keeps every shard busy in a handful of wide
    // windows. One-tick windows are the other regime: most windows find
    // some shard with neither an event nor an undrained record, that
    // shard sits the window out, and the drop records the barrier files
    // under it meanwhile reach its recorder at a later window or at the
    // end of the run — in the same per-pid order.
    for net in [NetworkConfig::default(), NetworkConfig::jittery(1, 30)] {
        for rec_cfg in [RecordConfig::default(), RecordConfig { record_drops: true }] {
            let serial = serial_store(0x5C80, rec_cfg, net.clone());
            let want: Vec<Vec<u8>> = (0..N as u32)
                .map(|p| serial.encode_segment(Pid(p)))
                .collect();
            assert!(serial.total_entries() > 0, "the run must record something");

            for shards in [1usize, 2, 4, 8] {
                let at = format!(
                    "{shards} shards (drops={}, {:?})",
                    rec_cfg.record_drops, net.policy
                );
                let merged = sharded_store(0x5C80, rec_cfg, net.clone(), shards);
                assert_eq!(
                    merged.total_entries(),
                    serial.total_entries(),
                    "entry count drifted at {at}"
                );
                for p in 0..N as u32 {
                    assert_eq!(
                        merged.encode_segment(Pid(p)),
                        want[p as usize],
                        "scroll bytes for P{p} drifted at {at}"
                    );
                }
            }
        }
    }
}

#[test]
fn merge_disjoint_rejects_overlapping_stores() {
    let a = serial_store(7, RecordConfig::default(), NetworkConfig::default());
    let b = serial_store(7, RecordConfig::default(), NetworkConfig::default());
    let res = std::panic::catch_unwind(move || ScrollStore::merge_disjoint([a, b]));
    assert!(res.is_err(), "overlapping pid columns must be refused");
}
