//! Chord distributed hash table (Stoica et al., SIGCOMM '01) — the
//! scale scenario for wide worlds.
//!
//! Each member hashes to a 64-bit identifier on a ring and owns the
//! keys in `(pred, self]`. Lookups route greedily through finger
//! tables (successors of `id + 2^k`), so resolution takes O(log n)
//! hops. Nodes run bounded stabilize/notify rounds (ask your successor
//! who its predecessor is; adopt a closer successor; notify it of
//! yourself) and issue random lookups, verifying each answer against
//! the membership oracle.
//!
//! Two properties matter for the scale benchmark
//! (`fixd-bench/src/bin/scale_demo.rs`):
//!
//! * **Width invariance** — a node's behaviour depends only on the
//!   [`ChordRing`] membership it is built with, never on
//!   `world_size()`. A 768-member ring embedded in a 10^3-process
//!   world and in a 10^6-process world produces byte-identical event
//!   sequences, which is what lets the benchmark compare steps/sec
//!   across widths on the *same* workload.
//! * **Bounded execution** — stabilize rounds and lookups are budgets,
//!   not periodic forever, so the world quiesces and `step()` drains.
//!
//! Churn is driven from outside: the harness calls
//! [`fixd_runtime::World::crash_now`], then
//! [`fixd_runtime::World::revive`] + `schedule_start`; `on_start`
//! re-seeds pointers from the ring oracle (a rejoin), and surviving
//! nodes' stabilize rounds absorb the transient.

use std::collections::BTreeMap;
use std::sync::Arc;

use fixd_core::Monitor;
use fixd_healer::{migrate, MigrateError, Patch};
use fixd_runtime::wire::fnv_mix;
use fixd_runtime::{Context, Message, Pid, Program, TimerId, World, WorldConfig};

/// Route this lookup: `[key u64, origin u32, hops u8]`.
pub const LOOKUP_REQ: u16 = 1;
/// Lookup answer to the origin: `[key u64, owner u32, hops u8]`.
pub const LOOKUP_DONE: u16 = 2;
/// "Who is your predecessor?" (sent to our successor).
pub const STABILIZE: u16 = 3;
/// Stabilize answer: `[pred u32]`.
pub const STAB_REPLY: u16 = 4;
/// "I might be your predecessor" (src is the candidate).
pub const NOTIFY: u16 = 5;
/// Route a keyed write to its owner: `[key u64, val u64, origin u32, hops u8]`.
pub const PUT_REQ: u16 = 6;
/// Owner's write ack to the origin: `[key u64, val u64]`.
pub const PUT_ACK: u16 = 7;
/// Route a keyed read to its owner: `[key u64, origin u32, hops u8]`.
pub const GET_REQ: u16 = 8;
/// Owner's read answer to the origin: `[key u64, val u64, found u8]`.
pub const GET_REPLY: u16 = 9;
/// Owner → successor replica write: `[key u64, val u64]`.
pub const REPLICATE: u16 = 10;

/// First byte of a keyed-read output record (`[KV_READ_MARK, ok]`),
/// distinct from lookup outputs (`[ok, hops]`, ok ∈ {0, 1}) so model
/// invariants can pattern-match read outcomes.
pub const KV_READ_MARK: u8 = 2;

/// Virtual-time gap between a node's protocol rounds.
pub const ROUND_TIME: u64 = 8;
/// Routing safety valve: drop lookups that somehow exceed this many
/// hops (cannot happen on a stable oracle-seeded ring).
pub const MAX_HOPS: u8 = 64;

/// SplitMix64 — the ring's identifier hash.
fn ring_hash(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Is `x` in the half-open ring interval `(a, b]`?
fn in_open_closed(a: u64, b: u64, x: u64) -> bool {
    if a < b {
        a < x && x <= b
    } else {
        // Wrapped interval (or a == b: the full circle).
        x > a || x <= b
    }
}

/// Is `x` in the open ring interval `(a, b)`?
fn in_open_open(a: u64, b: u64, x: u64) -> bool {
    if a < b {
        a < x && x < b
    } else if a == b {
        x != a
    } else {
        x > a || x < b
    }
}

/// The membership oracle: which processes participate in the ring and
/// where they sit. Shared (`Arc`) by every member — it is the *only*
/// world knowledge a node has, which is what makes behaviour
/// independent of world width.
#[derive(Debug)]
pub struct ChordRing {
    /// Members sorted by ring id.
    members: Vec<(u64, Pid)>,
}

impl ChordRing {
    /// Build the ring over `member_pids` (any order; ids are hashed
    /// from the pid, with the rare collision broken deterministically).
    pub fn new(member_pids: &[Pid]) -> Self {
        let mut members: Vec<(u64, Pid)> = member_pids
            .iter()
            .map(|&p| (ring_hash(u64::from(p.0) << 1 | 1), p))
            .collect();
        members.sort_unstable();
        members.dedup_by_key(|m| m.0);
        Self { members }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The ring identifier of `pid`.
    pub fn id_of(&self, pid: Pid) -> u64 {
        ring_hash(u64::from(pid.0) << 1 | 1)
    }

    /// The member that owns `key`: the first member at or clockwise
    /// after `key` on the ring.
    pub fn successor_of(&self, key: u64) -> (u64, Pid) {
        let i = self.members.partition_point(|&(id, _)| id < key);
        self.members[i % self.members.len()]
    }

    /// The member strictly clockwise-before `id`.
    pub fn predecessor_of(&self, id: u64) -> (u64, Pid) {
        let i = self.members.partition_point(|&(mid, _)| mid < id);
        self.members[(i + self.members.len() - 1) % self.members.len()]
    }

    /// The finger table for the node at `id`: `successor_of(id + 2^k)`
    /// for each bit, deduplicated (oracle-seeded, as after a full
    /// fix-fingers pass).
    pub fn fingers_for(&self, id: u64) -> Vec<(u64, Pid)> {
        let mut out: Vec<(u64, Pid)> = Vec::with_capacity(16);
        for k in 0..64 {
            let f = self.successor_of(id.wrapping_add(1u64 << k));
            if out.last() != Some(&f) && f.0 != id {
                out.push(f);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Per-node lookup statistics, checked by tests and the benchmark.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LookupStats {
    /// Lookups whose answer matched the oracle.
    pub ok: u64,
    /// Lookups whose answer disagreed with the oracle (possible only
    /// under churn, while pointers are stale).
    pub bad: u64,
    /// Total routing hops across answered lookups.
    pub hops: u64,
}

/// Per-node keyed-storage statistics (the put/get workload).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KvStats {
    /// Writes this origin issued that the owner acknowledged.
    pub put_acked: u64,
    /// Read-after-write checks that returned this origin's value.
    pub get_ok: u64,
    /// Reads that missed or returned a wrong value (possible only under
    /// loss or churn — never on a lossless stable ring).
    pub get_bad: u64,
    /// Replica writes this node applied on behalf of its predecessor.
    pub replicas: u64,
}

/// One Chord member.
#[derive(Clone)]
pub struct ChordNode {
    ring: Arc<ChordRing>,
    /// Our ring identifier (derived from our pid on start).
    id: u64,
    /// Current successor (first node clockwise).
    succ: Pid,
    /// Current predecessor, if known.
    pred: Option<Pid>,
    /// Finger targets, sorted by ring id.
    fingers: Vec<(u64, Pid)>,
    /// Stabilize rounds left to run.
    stabilize_left: u32,
    /// Lookups left to issue.
    lookups_left: u32,
    /// Deterministic compute iterations burned per delivered message
    /// (models per-hop application work: hash checks, verification).
    /// Zero by default; the sharded campaign bench turns this up to
    /// make wide cells handler-heavy.
    work: u64,
    /// Accumulator the burned work folds into (part of the snapshot, so
    /// the work is real state the compiler cannot elide).
    work_acc: u64,
    /// Completed-lookup stats.
    pub stats: LookupStats,
    /// Keyed store: the keys this node owns (plus replicas of its
    /// predecessor's keys).
    pub kv: BTreeMap<u64, u64>,
    /// Writes the keyed workload still has to issue (one per round).
    puts_left: u32,
    /// Total writes the workload was configured with (`> 0` enables the
    /// keyed snapshot block).
    puts_total: u32,
    /// Monotonic write counter — keys are derived from `(pid, seq)`, so
    /// origins never race on the same key.
    put_seq: u32,
    /// What this origin wrote (key → value), for read-after-write checks.
    expected: BTreeMap<u64, u64>,
    /// Keyed-workload stats.
    pub kv_stats: KvStats,
}

/// The per-delivery compute burn: `iters` FNV rounds over the payload.
fn burn(iters: u64, payload: &[u8], acc: u64) -> u64 {
    let mut h = acc ^ 0x9E37_79B9_7F4A_7C15;
    for i in 0..iters {
        h = fnv_mix(h, i);
        for &b in payload {
            h = fnv_mix(h, u64::from(b));
        }
    }
    h
}

impl ChordNode {
    /// A fresh member with the given protocol budgets.
    pub fn new(ring: Arc<ChordRing>, stabilize_rounds: u32, lookups: u32) -> Self {
        Self {
            ring,
            id: 0,
            succ: Pid(0),
            pred: None,
            fingers: Vec::new(),
            stabilize_left: stabilize_rounds,
            lookups_left: lookups,
            work: 0,
            work_acc: 0,
            stats: LookupStats::default(),
            kv: BTreeMap::new(),
            puts_left: 0,
            puts_total: 0,
            put_seq: 0,
            expected: BTreeMap::new(),
            kv_stats: KvStats::default(),
        }
    }

    /// Burn `iters` deterministic compute iterations per delivered
    /// message (builder style).
    pub fn with_work(mut self, iters: u64) -> Self {
        self.work = iters;
        self
    }

    /// Enable the keyed-storage workload: issue `puts` writes (one per
    /// protocol round), each followed — on ack — by a read-after-write
    /// check against the value this origin wrote (builder style).
    pub fn with_kv_workload(mut self, puts: u32) -> Self {
        self.puts_left = puts;
        self.puts_total = puts;
        self
    }

    /// Route `key`: the next hop and whether that hop is the owner.
    fn next_hop(&self, key: u64) -> (Pid, bool) {
        let succ_id = self.ring.id_of(self.succ);
        if in_open_closed(self.id, succ_id, key) {
            return (self.succ, true);
        }
        // Closest preceding finger: the highest finger in (self, key).
        let mut best: Option<(u64, Pid)> = None;
        for &(fid, fpid) in &self.fingers {
            if in_open_open(self.id, key, fid) {
                best = match best {
                    Some((bid, _)) if in_open_open(bid, key, fid) => Some((fid, fpid)),
                    Some(b) => Some(b),
                    None => Some((fid, fpid)),
                };
            }
        }
        (best.map_or(self.succ, |(_, p)| p), false)
    }

    /// Does this node own `key` on the oracle ring?
    fn owns(&self, key: u64) -> bool {
        self.ring.successor_of(key).0 == self.id
    }

    /// Store a write locally and replicate it to our successor (the
    /// next member clockwise — the node that inherits our keys).
    fn store_and_replicate(&mut self, ctx: &mut Context, key: u64, val: u64) {
        self.kv.insert(key, val);
        if self.succ != ctx.pid() {
            let mut buf = [0u8; 16];
            buf[..8].copy_from_slice(&key.to_le_bytes());
            buf[8..].copy_from_slice(&val.to_le_bytes());
            ctx.send(self.succ, REPLICATE, buf);
        }
    }

    /// Route a write toward its owner; the owner stores, replicates,
    /// and acks the origin. Self-owned keys are handled locally (no
    /// self-send).
    fn route_put(&mut self, ctx: &mut Context, key: u64, val: u64, origin: Pid, hops: u8) {
        if hops >= MAX_HOPS {
            return;
        }
        if self.owns(key) {
            self.store_and_replicate(ctx, key, val);
            if origin == ctx.pid() {
                self.put_acked(ctx, key);
            } else {
                let mut buf = [0u8; 16];
                buf[..8].copy_from_slice(&key.to_le_bytes());
                buf[8..].copy_from_slice(&val.to_le_bytes());
                ctx.send(origin, PUT_ACK, buf);
            }
        } else {
            let (hop, _) = self.next_hop(key);
            let mut buf = [0u8; 21];
            buf[..8].copy_from_slice(&key.to_le_bytes());
            buf[8..16].copy_from_slice(&val.to_le_bytes());
            buf[16..20].copy_from_slice(&origin.0.to_le_bytes());
            buf[20] = hops + 1;
            ctx.send(hop, PUT_REQ, buf);
        }
    }

    /// The origin saw its write acknowledged: immediately issue the
    /// read-after-write check for that key.
    fn put_acked(&mut self, ctx: &mut Context, key: u64) {
        self.kv_stats.put_acked += 1;
        self.route_get(ctx, key, ctx.pid(), 0);
    }

    /// Route a read toward its owner; the owner answers the origin.
    fn route_get(&mut self, ctx: &mut Context, key: u64, origin: Pid, hops: u8) {
        if hops >= MAX_HOPS {
            return;
        }
        if self.owns(key) {
            let (val, found) = match self.kv.get(&key) {
                Some(&v) => (v, 1u8),
                None => (0, 0),
            };
            if origin == ctx.pid() {
                self.got_reply(ctx, key, val, found);
            } else {
                let mut buf = [0u8; 17];
                buf[..8].copy_from_slice(&key.to_le_bytes());
                buf[8..16].copy_from_slice(&val.to_le_bytes());
                buf[16] = found;
                ctx.send(origin, GET_REPLY, buf);
            }
        } else {
            let (hop, _) = self.next_hop(key);
            let mut buf = [0u8; 13];
            buf[..8].copy_from_slice(&key.to_le_bytes());
            buf[8..12].copy_from_slice(&origin.0.to_le_bytes());
            buf[12] = hops + 1;
            ctx.send(hop, GET_REQ, buf);
        }
    }

    /// Issue the workload's next write: remember its value for the
    /// read-after-write check and route it to its owner.
    fn issue_put(&mut self, ctx: &mut Context) {
        self.puts_left -= 1;
        let seq = self.put_seq;
        self.put_seq += 1;
        // Keys are derived from (pid, seq) so origins never write the
        // same key; the value binds both so a wrong answer cannot
        // masquerade as right.
        let key = ring_hash((u64::from(ctx.pid().0) + 1) << 20 | u64::from(seq));
        let val = ring_hash(key ^ 0xBEE5_u64);
        self.expected.insert(key, val);
        self.route_put(ctx, key, val, ctx.pid(), 0);
    }

    /// Judge a read answer against what this origin wrote.
    fn got_reply(&mut self, ctx: &mut Context, key: u64, val: u64, found: u8) {
        let ok = found == 1 && self.expected.get(&key) == Some(&val);
        if ok {
            self.kv_stats.get_ok += 1;
        } else {
            self.kv_stats.get_bad += 1;
        }
        ctx.output(vec![KV_READ_MARK, u8::from(ok)]);
    }

    fn forward_lookup(&mut self, ctx: &mut Context, key: u64, origin: Pid, hops: u8) {
        if hops >= MAX_HOPS {
            return; // routing loop safety valve; unreachable when stable
        }
        let (hop, is_owner) = self.next_hop(key);
        let mut buf = [0u8; 13];
        buf[..8].copy_from_slice(&key.to_le_bytes());
        buf[12] = hops + 1;
        if is_owner {
            buf[8..12].copy_from_slice(&hop.0.to_le_bytes());
            ctx.send(origin, LOOKUP_DONE, buf);
        } else {
            buf[8..12].copy_from_slice(&origin.0.to_le_bytes());
            ctx.send(hop, LOOKUP_REQ, buf);
        }
    }
}

fn decode_lookup(payload: &[u8]) -> (u64, Pid, u8) {
    let key = u64::from_le_bytes(payload[..8].try_into().unwrap());
    let pid = Pid(u32::from_le_bytes(payload[8..12].try_into().unwrap()));
    (key, pid, payload[12])
}

impl Program for ChordNode {
    fn on_start(&mut self, ctx: &mut Context) {
        // (Re)join: seed pointers from the oracle, as a node that has
        // completed its join protocol. A revived node passes through
        // here again, which models rejoin-after-crash.
        self.id = self.ring.id_of(ctx.pid());
        self.succ = self.ring.successor_of(self.id.wrapping_add(1)).1;
        self.pred = Some(self.ring.predecessor_of(self.id).1);
        self.fingers = self.ring.fingers_for(self.id);
        // Jittered first round so the ring's rounds interleave.
        let jitter = ctx.random_below(ROUND_TIME);
        ctx.set_timer(1 + jitter);
    }

    fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
        if self.work > 0 {
            self.work_acc = burn(self.work, &msg.payload, self.work_acc);
        }
        match msg.tag {
            LOOKUP_REQ => {
                let (key, origin, hops) = decode_lookup(&msg.payload);
                self.forward_lookup(ctx, key, origin, hops);
            }
            LOOKUP_DONE => {
                let (key, owner, hops) = decode_lookup(&msg.payload);
                let oracle = self.ring.successor_of(key).1;
                if owner == oracle {
                    self.stats.ok += 1;
                } else {
                    self.stats.bad += 1;
                }
                self.stats.hops += u64::from(hops);
                ctx.output(vec![u8::from(owner == oracle), hops]);
            }
            STABILIZE => {
                let pred = self.pred.unwrap_or(Pid(ctx.pid().0));
                ctx.send(msg.src, STAB_REPLY, pred.0.to_le_bytes());
            }
            STAB_REPLY => {
                let cand = Pid(u32::from_le_bytes(msg.payload[..4].try_into().unwrap()));
                let cand_id = self.ring.id_of(cand);
                let succ_id = self.ring.id_of(self.succ);
                if cand != Pid(ctx.pid().0) && in_open_open(self.id, succ_id, cand_id) {
                    self.succ = cand;
                }
                ctx.send(self.succ, NOTIFY, Vec::new());
            }
            NOTIFY => {
                let cand_id = self.ring.id_of(msg.src);
                let adopt = match self.pred {
                    None => true,
                    Some(p) => in_open_open(self.ring.id_of(p), self.id, cand_id),
                };
                if adopt {
                    self.pred = Some(msg.src);
                }
            }
            PUT_REQ => {
                let key = u64::from_le_bytes(msg.payload[..8].try_into().unwrap());
                let val = u64::from_le_bytes(msg.payload[8..16].try_into().unwrap());
                let origin = Pid(u32::from_le_bytes(msg.payload[16..20].try_into().unwrap()));
                self.route_put(ctx, key, val, origin, msg.payload[20]);
            }
            PUT_ACK => {
                let key = u64::from_le_bytes(msg.payload[..8].try_into().unwrap());
                self.put_acked(ctx, key);
            }
            GET_REQ => {
                let (key, origin, hops) = decode_lookup(&msg.payload);
                self.route_get(ctx, key, origin, hops);
            }
            GET_REPLY => {
                let key = u64::from_le_bytes(msg.payload[..8].try_into().unwrap());
                let val = u64::from_le_bytes(msg.payload[8..16].try_into().unwrap());
                self.got_reply(ctx, key, val, msg.payload[16]);
            }
            REPLICATE => {
                let key = u64::from_le_bytes(msg.payload[..8].try_into().unwrap());
                let val = u64::from_le_bytes(msg.payload[8..16].try_into().unwrap());
                self.kv.insert(key, val);
                self.kv_stats.replicas += 1;
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context, _t: TimerId) {
        let mut more = false;
        if self.stabilize_left > 0 {
            self.stabilize_left -= 1;
            ctx.send(self.succ, STABILIZE, Vec::new());
            more |= self.stabilize_left > 0;
        }
        if self.lookups_left > 0 {
            self.lookups_left -= 1;
            let key = ctx.random();
            self.forward_lookup(ctx, key, ctx.pid(), 0);
            more |= self.lookups_left > 0;
        }
        if self.puts_left > 0 {
            self.issue_put(ctx);
            more |= self.puts_left > 0;
        }
        if more {
            ctx.set_timer(ROUND_TIME);
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        super::snapshot_vec(self)
    }

    fn snapshot_to(&self, b: &mut Vec<u8>) {
        // Sized once (the Investigator snapshots on every explored
        // transition): 56 bytes, plus a 52-byte block and 16 bytes per
        // stored pair when the keyed workload is on.
        let keyed = match self.puts_total {
            0 => 0,
            _ => 52 + 16 * (self.expected.len() + self.kv.len()),
        };
        let start = b.len();
        b.reserve(56 + keyed);
        b.extend_from_slice(&self.id.to_le_bytes());
        b.extend_from_slice(&self.succ.0.to_le_bytes());
        b.extend_from_slice(&self.pred.map_or(u32::MAX, |p| p.0).to_le_bytes());
        b.extend_from_slice(&self.stabilize_left.to_le_bytes());
        b.extend_from_slice(&self.lookups_left.to_le_bytes());
        b.extend_from_slice(&self.stats.ok.to_le_bytes());
        b.extend_from_slice(&self.stats.bad.to_le_bytes());
        b.extend_from_slice(&self.stats.hops.to_le_bytes());
        b.extend_from_slice(&self.work_acc.to_le_bytes());
        // The keyed-storage block is appended only when the workload is
        // enabled, so pure-lookup nodes keep the legacy 56-byte layout
        // (scale benches and goldens fingerprint these snapshots).
        if self.puts_total > 0 {
            b.extend_from_slice(&self.puts_total.to_le_bytes());
            b.extend_from_slice(&self.puts_left.to_le_bytes());
            b.extend_from_slice(&self.put_seq.to_le_bytes());
            b.extend_from_slice(&self.kv_stats.put_acked.to_le_bytes());
            b.extend_from_slice(&self.kv_stats.get_ok.to_le_bytes());
            b.extend_from_slice(&self.kv_stats.get_bad.to_le_bytes());
            b.extend_from_slice(&self.kv_stats.replicas.to_le_bytes());
            for map in [&self.expected, &self.kv] {
                b.extend_from_slice(&(map.len() as u32).to_le_bytes());
                for (&k, &v) in map {
                    b.extend_from_slice(&k.to_le_bytes());
                    b.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        debug_assert_eq!(b.len() - start, 56 + keyed);
    }

    fn restore(&mut self, b: &[u8]) {
        self.id = u64::from_le_bytes(b[..8].try_into().unwrap());
        self.succ = Pid(u32::from_le_bytes(b[8..12].try_into().unwrap()));
        let pred = u32::from_le_bytes(b[12..16].try_into().unwrap());
        self.pred = (pred != u32::MAX).then_some(Pid(pred));
        self.stabilize_left = u32::from_le_bytes(b[16..20].try_into().unwrap());
        self.lookups_left = u32::from_le_bytes(b[20..24].try_into().unwrap());
        self.stats.ok = u64::from_le_bytes(b[24..32].try_into().unwrap());
        self.stats.bad = u64::from_le_bytes(b[32..40].try_into().unwrap());
        self.stats.hops = u64::from_le_bytes(b[40..48].try_into().unwrap());
        self.work_acc = u64::from_le_bytes(b[48..56].try_into().unwrap());
        if b.len() > 56 {
            let mut at = 56;
            let u32_at = |at: &mut usize| {
                let v = u32::from_le_bytes(b[*at..*at + 4].try_into().unwrap());
                *at += 4;
                v
            };
            let u64_at = |at: &mut usize| {
                let v = u64::from_le_bytes(b[*at..*at + 8].try_into().unwrap());
                *at += 8;
                v
            };
            self.puts_total = u32_at(&mut at);
            self.puts_left = u32_at(&mut at);
            self.put_seq = u32_at(&mut at);
            self.kv_stats.put_acked = u64_at(&mut at);
            self.kv_stats.get_ok = u64_at(&mut at);
            self.kv_stats.get_bad = u64_at(&mut at);
            self.kv_stats.replicas = u64_at(&mut at);
            self.expected.clear();
            self.kv.clear();
            for map in [&mut self.expected, &mut self.kv] {
                let len = u32_at(&mut at);
                for _ in 0..len {
                    let k = u64_at(&mut at);
                    let v = u64_at(&mut at);
                    map.insert(k, v);
                }
            }
        } else {
            self.puts_total = 0;
            self.puts_left = 0;
            self.put_seq = 0;
            self.kv_stats = KvStats::default();
            self.expected.clear();
            self.kv.clear();
        }
        // Fingers are derived state: rebuild from the oracle.
        self.fingers = self.ring.fingers_for(self.id);
    }

    fn name(&self) -> &'static str {
        "chord-node"
    }
}

/// A process factory for Chord members over a shared ring oracle —
/// pass to [`World::add_lazy_processes`] so only the members that
/// actually run ever materialize.
pub fn chord_factory(
    ring: Arc<ChordRing>,
    stabilize_rounds: u32,
    lookups: u32,
) -> impl Fn(Pid) -> Box<dyn Program> + Send + Sync {
    move |_pid| Box::new(ChordNode::new(Arc::clone(&ring), stabilize_rounds, lookups))
}

/// A dense world of `n` Chord members (pids `0..n`), for tests: every
/// node runs `stabilize_rounds` rounds and issues `lookups` lookups.
pub fn chord_world(n: usize, seed: u64, stabilize_rounds: u32, lookups: u32) -> World {
    chord_world_cfg(WorldConfig::seeded(seed), n, stabilize_rounds, lookups, 0)
}

/// [`chord_world`] over an explicit [`WorldConfig`] (campaign matrices
/// inject network pathologies through the config), with a per-delivery
/// compute burn (see [`ChordNode::with_work`]) — the handler-heavy
/// regime the sharded campaign bench measures. Members are added
/// eagerly.
pub fn chord_world_cfg(
    cfg: WorldConfig,
    n: usize,
    stabilize_rounds: u32,
    lookups: u32,
    work: u64,
) -> World {
    let ring = members_ring(n);
    let mut w = World::new(cfg);
    for _ in 0..n {
        w.add_process(Box::new(
            ChordNode::new(Arc::clone(&ring), stabilize_rounds, lookups).with_work(work),
        ));
    }
    w
}

/// A dense keyed-storage world of `n` members, for tests and the model
/// checker.
pub fn chord_kv_world(n: usize, seed: u64, stabilize_rounds: u32, puts: u32) -> World {
    chord_kv_world_cfg(WorldConfig::seeded(seed), n, stabilize_rounds, puts)
}

/// [`chord_kv_world`] over an explicit [`WorldConfig`]: every member
/// issues `puts` writes (routed to their ring owners, replicated to the
/// owner's successor) and — on each ack — a read-after-write check
/// against the value it wrote.
pub fn chord_kv_world_cfg(cfg: WorldConfig, n: usize, stabilize_rounds: u32, puts: u32) -> World {
    let ring = members_ring(n);
    let mut w = World::new(cfg);
    for _ in 0..n {
        w.add_process(Box::new(
            ChordNode::new(Arc::clone(&ring), stabilize_rounds, 0).with_kv_workload(puts),
        ));
    }
    w
}

/// A keyed-storage member with a lost-write bug knob: the late-symptom
/// case of the heal catalogue. The buggy member acknowledges one put it
/// owns (the `forget_at`-th one another origin routed to it, from 0)
/// without storing or replicating it. No state looks wrong until the
/// origin's read-after-write check comes back: the ack at the origin,
/// the read at the owner and its answer at the origin are three handler
/// events after the fault, and only the last shows it
/// ([`KvStats::get_bad`], [`read_monitor`]).
#[derive(Clone)]
pub struct KvMember {
    /// The member's protocol state.
    pub node: ChordNode,
    /// Puts other origins routed to this member that it owns.
    owned_puts: u32,
    /// BUG KNOB: forget the owned put with this index.
    forget_at: Option<u32>,
}

impl KvMember {
    /// A correct member.
    pub fn correct(node: ChordNode) -> Self {
        Self {
            node,
            owned_puts: 0,
            forget_at: None,
        }
    }

    /// A member that forgets its `forget_at`-th owned put.
    pub fn buggy(node: ChordNode, forget_at: u32) -> Self {
        Self {
            forget_at: Some(forget_at),
            ..Self::correct(node)
        }
    }

    /// The bug knob's image bytes at the end of a snapshot: (owned puts,
    /// forget index or `u32::MAX`).
    fn knob(b: &[u8]) -> Option<(u32, u32)> {
        let tail: &[u8; 8] = b.last_chunk()?;
        let word = |i: usize| u32::from_le_bytes([tail[i], tail[i + 1], tail[i + 2], tail[i + 3]]);
        Some((word(0), word(4)))
    }
}

impl Program for KvMember {
    fn on_start(&mut self, ctx: &mut Context) {
        self.node.on_start(ctx);
        // Every write at once, not one a round: a rollback restores no
        // timer, so a workload that timers carry would lose the writes
        // of the rounds it undid.
        while self.node.puts_left > 0 {
            self.node.issue_put(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
        if msg.tag == PUT_REQ {
            let key = u64::from_le_bytes(msg.payload[..8].try_into().unwrap());
            if self.node.owns(key) {
                self.owned_puts += 1;
                if self.forget_at == Some(self.owned_puts - 1) {
                    // BUG: acknowledge the write, never store it.
                    let origin = Pid(u32::from_le_bytes(msg.payload[16..20].try_into().unwrap()));
                    ctx.send(origin, PUT_ACK, msg.payload[..16].to_vec());
                    return;
                }
            }
        }
        self.node.on_message(ctx, msg);
    }

    fn on_timer(&mut self, ctx: &mut Context, t: TimerId) {
        self.node.on_timer(ctx, t);
    }

    fn snapshot(&self) -> Vec<u8> {
        super::snapshot_vec(self)
    }

    fn snapshot_to(&self, b: &mut Vec<u8>) {
        self.node.snapshot_to(b);
        b.extend_from_slice(&self.owned_puts.to_le_bytes());
        b.extend_from_slice(&self.forget_at.unwrap_or(u32::MAX).to_le_bytes());
    }

    fn restore(&mut self, b: &[u8]) {
        let (node, _) = b.split_at(b.len() - 8);
        self.node.restore(node);
        let (owned, forget) = Self::knob(b).unwrap();
        self.owned_puts = owned;
        self.forget_at = (forget != u32::MAX).then_some(forget);
    }

    fn name(&self) -> &'static str {
        "chord-kv-member"
    }
}

/// A keyed-storage world of `n` [`KvMember`]s, each issuing `puts` writes
/// (see [`chord_kv_world_cfg`]; no stabilize rounds: the ring is seeded
/// from the oracle). Member `forgetful` (if any) forgets its `forget_at`-th
/// owned put.
pub fn kv_members_world_cfg(
    cfg: WorldConfig,
    n: usize,
    puts: u32,
    forgetful: Option<(usize, u32)>,
) -> World {
    let ring = members_ring(n);
    let mut w = World::new(cfg);
    for i in 0..n {
        let node = ChordNode::new(Arc::clone(&ring), 0, 0).with_kv_workload(puts);
        w.add_process(Box::new(match forgetful {
            Some((f, at)) if f == i => KvMember::buggy(node, at),
            _ => KvMember::correct(node),
        }));
    }
    w
}

/// The ring over pids `0..n`.
fn members_ring(n: usize) -> Arc<ChordRing> {
    let members: Vec<Pid> = (0..n as u32).map(Pid).collect();
    Arc::new(ChordRing::new(&members))
}

/// No member has seen a read-after-write check fail.
pub fn read_monitor() -> Monitor {
    Monitor::local::<KvMember>("no-bad-read", |_, m| m.node.kv_stats.get_bad == 0)
}

/// The fix for an `n`-member world: clear the knob, keep all other
/// state. A forgotten write is gone, and no migration brings it back, so
/// the patch applies only to a member that has not forgotten one yet;
/// the Healer rolls the member back to before the loss.
pub fn forget_patch(n: usize) -> Patch {
    let ring = members_ring(n);
    let factory = move || -> Box<dyn Program> {
        Box::new(KvMember::correct(ChordNode::new(Arc::clone(&ring), 0, 0)))
    };
    Patch::code_only("kv-no-forget", 1, 2, factory)
        .with_migration(migrate::from_fn(|old| {
            let mut b = old.to_vec();
            let Some(at) = b.len().checked_sub(4) else {
                return Err(MigrateError::Malformed("kv member state".into()));
            };
            b[at..].copy_from_slice(&u32::MAX.to_le_bytes()); // forget_at = None
            Ok(b)
        }))
        .with_precondition(|old| KvMember::knob(old).is_some_and(|(owned, at)| owned <= at))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut World) -> u64 {
        let mut steps = 0;
        while w.step().is_some() {
            steps += 1;
        }
        steps
    }

    fn total_stats(w: &World, n: usize) -> LookupStats {
        let mut t = LookupStats::default();
        for i in 0..n {
            let s = w.program::<ChordNode>(Pid(i as u32)).unwrap().stats;
            t.ok += s.ok;
            t.bad += s.bad;
            t.hops += s.hops;
        }
        t
    }

    #[test]
    fn ring_oracle_is_consistent() {
        let members: Vec<Pid> = (0..32).map(Pid).collect();
        let ring = ChordRing::new(&members);
        assert_eq!(ring.len(), 32);
        for &p in &members {
            let id = ring.id_of(p);
            // A member owns its own id.
            assert_eq!(ring.successor_of(id).1, p);
            // successor(pred(x)) round-trips.
            let (pid_id, _) = ring.predecessor_of(id);
            assert_eq!(ring.successor_of(pid_id.wrapping_add(1)).1, p);
        }
    }

    #[test]
    fn stable_ring_resolves_all_lookups_in_log_hops() {
        let n = 32;
        let lookups_per_node = 4;
        let mut w = chord_world(n, 0xC0DE, 2, lookups_per_node);
        drain(&mut w);
        let t = total_stats(&w, n);
        assert_eq!(t.bad, 0, "oracle-seeded ring must answer correctly");
        assert_eq!(t.ok, n as u64 * u64::from(lookups_per_node));
        let avg_hops = t.hops as f64 / t.ok as f64;
        assert!(
            avg_hops <= 2.0 * (n as f64).log2(),
            "finger routing must stay logarithmic: avg {avg_hops:.2} hops"
        );
    }

    #[test]
    fn same_seed_same_execution() {
        let run = |seed| {
            let mut w = chord_world(16, seed, 2, 3);
            let steps = drain(&mut w);
            (steps, total_stats(&w, 16))
        };
        assert_eq!(run(7), run(7), "chord worlds must be deterministic");
        assert_ne!(
            run(7).1.hops,
            run(8).1.hops,
            "different seeds should route different keys"
        );
    }

    #[test]
    fn survives_churn_and_keeps_resolving() {
        let n = 24;
        let mut w = chord_world(n, 0xFEED, 6, 6);
        let victim = Pid(5);
        let mut steps = 0u64;
        loop {
            if w.step().is_none() {
                break;
            }
            steps += 1;
            if steps == 200 {
                w.crash_now(victim);
            }
            if steps == 600 {
                w.revive(victim);
                w.schedule_start(victim);
            }
        }
        let t = total_stats(&w, n);
        // The ring keeps answering through the crash window; answers
        // for keys owned by the victim may be stale while it is down.
        assert!(t.ok > 0, "lookups must keep resolving under churn");
        assert!(
            t.ok >= 10 * t.bad.max(1),
            "stale answers must be rare: {} ok vs {} bad",
            t.ok,
            t.bad
        );
    }

    fn total_kv_stats(w: &World, n: usize) -> KvStats {
        let mut t = KvStats::default();
        for i in 0..n {
            let s = w.program::<ChordNode>(Pid(i as u32)).unwrap().kv_stats;
            t.put_acked += s.put_acked;
            t.get_ok += s.get_ok;
            t.get_bad += s.get_bad;
            t.replicas += s.replicas;
        }
        t
    }

    #[test]
    fn kv_puts_gets_and_replication_check_out() {
        let n = 16;
        let puts = 3u32;
        let mut w = chord_kv_world(n, 0xD0_17, 2, puts);
        drain(&mut w);
        let t = total_kv_stats(&w, n);
        let want = n as u64 * u64::from(puts);
        assert_eq!(t.put_acked, want, "every write must be acked");
        assert_eq!(t.get_ok, want, "every read-after-write must succeed");
        assert_eq!(t.get_bad, 0, "no bad reads on a stable lossless ring");
        assert!(t.replicas > 0, "owners must replicate to successors");

        // Replication oracle: every key an owner holds must also sit on
        // its successor, byte-for-byte.
        let members: Vec<Pid> = (0..n as u32).map(Pid).collect();
        let ring = ChordRing::new(&members);
        for &p in &members {
            let node = w.program::<ChordNode>(p).unwrap();
            let id = ring.id_of(p);
            let succ = ring.successor_of(id.wrapping_add(1)).1;
            let succ_kv = &w.program::<ChordNode>(succ).unwrap().kv;
            for (&k, &v) in &node.kv {
                if ring.successor_of(k).1 == p {
                    assert_eq!(
                        succ_kv.get(&k),
                        Some(&v),
                        "key {k:#x} owned by {p:?} missing on successor {succ:?}"
                    );
                }
            }
        }
        // Store oracle: every written key lives at its ring owner with
        // the origin's value.
        for &p in &members {
            let node = w.program::<ChordNode>(p).unwrap();
            for (&k, &v) in &node.expected {
                let owner = ring.successor_of(k).1;
                assert_eq!(
                    w.program::<ChordNode>(owner).unwrap().kv.get(&k),
                    Some(&v),
                    "write {k:#x} from {p:?} not at owner {owner:?}"
                );
            }
        }
    }

    #[test]
    fn kv_workload_is_deterministic() {
        let run = |seed| {
            let mut w = chord_kv_world(8, seed, 1, 2);
            let steps = drain(&mut w);
            (steps, total_kv_stats(&w, 8))
        };
        assert_eq!(run(11), run(11), "kv worlds must be deterministic");
    }

    #[test]
    fn legacy_snapshot_layout_unchanged_without_kv() {
        let ring = Arc::new(ChordRing::new(&[Pid(0), Pid(1), Pid(2)]));
        let plain = ChordNode::new(Arc::clone(&ring), 3, 4);
        assert_eq!(
            plain.snapshot().len(),
            56,
            "pure-lookup snapshot must keep the legacy layout"
        );
        let keyed = ChordNode::new(ring, 3, 0).with_kv_workload(2);
        assert!(keyed.snapshot().len() > 56);
    }

    #[test]
    fn kv_snapshot_roundtrip() {
        let ring = Arc::new(ChordRing::new(&[Pid(0), Pid(1), Pid(2)]));
        let mut a = ChordNode::new(Arc::clone(&ring), 1, 0).with_kv_workload(4);
        a.id = ring.id_of(Pid(1));
        a.succ = Pid(2);
        a.puts_left = 1;
        a.put_seq = 3;
        a.kv.insert(7, 70);
        a.kv.insert(9, 90);
        a.expected.insert(7, 70);
        a.kv_stats = KvStats {
            put_acked: 3,
            get_ok: 2,
            get_bad: 1,
            replicas: 5,
        };
        let mut b = ChordNode::new(ring, 0, 0);
        b.restore(&a.snapshot());
        assert_eq!(b.snapshot(), a.snapshot());
        assert_eq!(b.kv_stats, a.kv_stats);
        assert_eq!(b.kv, a.kv);
        assert_eq!(b.expected, a.expected);
    }

    #[test]
    fn snapshot_roundtrip() {
        let ring = Arc::new(ChordRing::new(&[Pid(0), Pid(1), Pid(2)]));
        let mut a = ChordNode::new(Arc::clone(&ring), 3, 4);
        a.id = ring.id_of(Pid(1));
        a.succ = Pid(2);
        a.pred = Some(Pid(0));
        a.stats = LookupStats {
            ok: 5,
            bad: 1,
            hops: 9,
        };
        let mut b = ChordNode::new(ring, 0, 0);
        b.restore(&a.snapshot());
        assert_eq!(b.snapshot(), a.snapshot());
        assert_eq!(b.stats, a.stats);
    }

    /// The knob rides at the end of the member's image; the patch clears
    /// it and applies only before the loss.
    #[test]
    fn kv_member_knob_roundtrips_and_the_patch_clears_it() {
        let node = |puts| ChordNode::new(members_ring(3), 0, 0).with_kv_workload(puts);
        let mut a = KvMember::buggy(node(2), 1);
        a.owned_puts = 1;
        let mut b = KvMember::correct(node(0));
        b.restore(&a.snapshot());
        assert_eq!(b.snapshot(), a.snapshot());
        assert_eq!((b.owned_puts, b.forget_at), (1, Some(1)));

        let patch = forget_patch(3);
        assert!(patch.applicable_to(&a.snapshot()));
        a.owned_puts = 2; // the put with index 1 is forgotten
        assert!(!patch.applicable_to(&a.snapshot()));
        let healed = patch.instantiate(&a.snapshot()).unwrap();
        let healed = healed.downcast_ref::<KvMember>().unwrap();
        assert_eq!((healed.owned_puts, healed.forget_at), (2, None));
    }
}
