//! Primary/backup replicated key-value store.
//!
//! A client streams PUTs to the primary; the primary applies them,
//! assigns sequence numbers, and replicates to the backup. The **buggy**
//! backup applies replication messages in arrival order — under a
//! reordering network this leaves sequence gaps and stale values (the
//! lost-update family). The **fixed** backup holds out-of-order messages
//! and applies in sequence order. The patch between them migrates the
//! backup's state (adds the hold-back buffer).

use std::collections::BTreeMap;

use fixd_core::Monitor;
use fixd_healer::{migrate, Patch};
use fixd_runtime::wire::{get_varint, put_varint};
use fixd_runtime::{Context, Message, NetworkConfig, Pid, Program, World, WorldConfig};

/// Client → primary: PUT key value.
pub const PUT: u16 = 10;
/// Primary → backup: REPLICATE seq key value.
pub const REPL: u16 = 11;

/// Scripted client: sends `(key, value)` PUTs to the primary (P1).
#[derive(Clone)]
pub struct Client {
    pub script: Vec<(u8, u8)>,
}

impl Program for Client {
    fn on_start(&mut self, ctx: &mut Context) {
        for &(k, v) in &self.script {
            ctx.send(Pid(1), PUT, [k, v]);
        }
    }
    fn snapshot(&self) -> Vec<u8> {
        super::snapshot_vec(self)
    }
    fn snapshot_to(&self, b: &mut Vec<u8>) {
        b.extend(self.script.iter().flat_map(|&(k, v)| [k, v]));
    }
    fn restore(&mut self, b: &[u8]) {
        self.script = b.chunks(2).map(|c| (c[0], c[1])).collect();
    }
    fn name(&self) -> &'static str {
        "kv-client"
    }
}

/// The primary replica (P1). Applies PUTs, replicates to the backup (P2).
#[derive(Clone, Default)]
pub struct Primary {
    pub store: BTreeMap<u8, u8>,
    pub seq: u64,
}

impl Program for Primary {
    fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
        if msg.tag == PUT {
            let (k, v) = (msg.payload[0], msg.payload[1]);
            self.store.insert(k, v);
            self.seq += 1;
            let mut p = vec![k, v];
            put_varint(&mut p, self.seq);
            ctx.send(Pid(2), REPL, p);
        }
    }
    fn snapshot(&self) -> Vec<u8> {
        super::snapshot_vec(self)
    }
    fn snapshot_to(&self, b: &mut Vec<u8>) {
        encode_store(b, &self.store, self.seq);
    }
    fn restore(&mut self, b: &[u8]) {
        let (store, seq, _) = decode_store(b);
        self.store = store;
        self.seq = seq;
    }
    fn name(&self) -> &'static str {
        "kv-primary"
    }
}

/// The backup replica (P2), **buggy**: applies in arrival order.
#[derive(Clone, Default)]
pub struct BackupV1 {
    pub store: BTreeMap<u8, u8>,
    /// Highest sequence number applied.
    pub applied: u64,
    /// Count of messages applied (== applied iff no gaps).
    pub applied_count: u64,
}

impl Program for BackupV1 {
    fn on_message(&mut self, _ctx: &mut Context, msg: &Message) {
        if msg.tag == REPL {
            let (k, v) = (msg.payload[0], msg.payload[1]);
            let mut pos = 2;
            let seq = get_varint(&msg.payload, &mut pos).unwrap_or(0);
            // BUG: no ordering check — a stale (reordered) REPL
            // overwrites a newer value, and gaps go unnoticed.
            self.store.insert(k, v);
            self.applied = self.applied.max(seq);
            self.applied_count += 1;
        }
    }
    fn snapshot(&self) -> Vec<u8> {
        super::snapshot_vec(self)
    }
    fn snapshot_to(&self, b: &mut Vec<u8>) {
        encode_store(b, &self.store, self.applied);
        put_varint(b, self.applied_count);
    }
    fn restore(&mut self, b: &[u8]) {
        let (store, applied, rest) = decode_store(b);
        self.store = store;
        self.applied = applied;
        let mut pos = 0;
        self.applied_count = get_varint(&rest, &mut pos).unwrap_or(0);
    }
    fn name(&self) -> &'static str {
        "kv-backup-v1"
    }
}

/// The backup replica, **fixed**: holds back out-of-order messages and
/// applies strictly in sequence order.
#[derive(Clone, Default)]
pub struct BackupV2 {
    pub store: BTreeMap<u8, u8>,
    pub applied: u64,
    pub applied_count: u64,
    /// Held-back out-of-order messages: seq → (key, value).
    pub pending: BTreeMap<u64, (u8, u8)>,
}

impl Program for BackupV2 {
    fn on_message(&mut self, _ctx: &mut Context, msg: &Message) {
        if msg.tag == REPL {
            let (k, v) = (msg.payload[0], msg.payload[1]);
            let mut pos = 2;
            let seq = get_varint(&msg.payload, &mut pos).unwrap_or(0);
            if seq <= self.applied {
                return; // duplicate of an already-applied REPL
            }
            self.pending.insert(seq, (k, v));
            // Drain in order.
            while let Some(&(pk, pv)) = self.pending.get(&(self.applied + 1)) {
                self.pending.remove(&(self.applied + 1));
                self.store.insert(pk, pv);
                self.applied += 1;
                self.applied_count += 1;
            }
        }
    }
    fn snapshot(&self) -> Vec<u8> {
        super::snapshot_vec(self)
    }
    fn snapshot_to(&self, b: &mut Vec<u8>) {
        encode_store(b, &self.store, self.applied);
        put_varint(b, self.applied_count);
        put_varint(b, self.pending.len() as u64);
        for (&s, &(k, v)) in &self.pending {
            put_varint(b, s);
            b.push(k);
            b.push(v);
        }
    }
    fn restore(&mut self, b: &[u8]) {
        let (store, applied, rest) = decode_store(b);
        self.store = store;
        self.applied = applied;
        let mut pos = 0;
        self.applied_count = get_varint(&rest, &mut pos).unwrap_or(0);
        let n = get_varint(&rest, &mut pos).unwrap_or(0);
        self.pending.clear();
        for _ in 0..n {
            let s = get_varint(&rest, &mut pos).unwrap_or(0);
            let k = rest[pos];
            let v = rest[pos + 1];
            pos += 2;
            self.pending.insert(s, (k, v));
        }
    }
    fn name(&self) -> &'static str {
        "kv-backup-v2"
    }
}

/// 16-bit FNV checksum over a REPL payload prefix (everything except the
/// trailing checksum bytes). [`PrimaryV2`] stamps it; [`BackupV3`]
/// verifies it and rejects mismatches instead of applying garbage.
pub fn repl_checksum(prefix: &[u8]) -> u16 {
    (fixd_runtime::wire::fnv1a(prefix) & 0xFFFF) as u16
}

/// The primary replica, **checksummed**: identical to [`Primary`] except
/// every REPL payload carries a trailing [`repl_checksum`] so the backup
/// can detect in-flight corruption.
#[derive(Clone, Default)]
pub struct PrimaryV2 {
    pub store: BTreeMap<u8, u8>,
    pub seq: u64,
}

impl Program for PrimaryV2 {
    fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
        if msg.tag == PUT {
            let (k, v) = (msg.payload[0], msg.payload[1]);
            self.store.insert(k, v);
            self.seq += 1;
            let mut p = vec![k, v];
            put_varint(&mut p, self.seq);
            let ck = repl_checksum(&p);
            p.extend_from_slice(&ck.to_le_bytes());
            ctx.send(Pid(2), REPL, p);
        }
    }
    fn snapshot(&self) -> Vec<u8> {
        super::snapshot_vec(self)
    }
    fn snapshot_to(&self, b: &mut Vec<u8>) {
        encode_store(b, &self.store, self.seq);
    }
    fn restore(&mut self, b: &[u8]) {
        let (store, seq, _) = decode_store(b);
        self.store = store;
        self.seq = seq;
    }
    fn name(&self) -> &'static str {
        "kv-primary-v2"
    }
}

/// The backup replica, **checksummed**: ordering fix of [`BackupV2`] plus
/// checksum verification — a corrupted REPL is counted in `rejected` and
/// dropped rather than applied, so corruption degrades to loss.
#[derive(Clone, Default)]
pub struct BackupV3 {
    pub store: BTreeMap<u8, u8>,
    pub applied: u64,
    pub applied_count: u64,
    /// Held-back out-of-order messages: seq → (key, value).
    pub pending: BTreeMap<u64, (u8, u8)>,
    /// REPL messages rejected because their checksum did not verify.
    pub rejected: u64,
}

impl Program for BackupV3 {
    fn on_message(&mut self, _ctx: &mut Context, msg: &Message) {
        if msg.tag != REPL {
            return;
        }
        if msg.payload.len() < 5 {
            self.rejected += 1;
            return;
        }
        let (prefix, ck_bytes) = msg.payload.split_at(msg.payload.len() - 2);
        let ck = u16::from_le_bytes([ck_bytes[0], ck_bytes[1]]);
        if repl_checksum(prefix) != ck {
            self.rejected += 1;
            return;
        }
        let (k, v) = (prefix[0], prefix[1]);
        let mut pos = 2;
        let seq = get_varint(prefix, &mut pos).unwrap_or(0);
        if seq <= self.applied {
            return; // duplicate of an already-applied REPL
        }
        self.pending.insert(seq, (k, v));
        while let Some(&(pk, pv)) = self.pending.get(&(self.applied + 1)) {
            self.pending.remove(&(self.applied + 1));
            self.store.insert(pk, pv);
            self.applied += 1;
            self.applied_count += 1;
        }
    }
    fn snapshot(&self) -> Vec<u8> {
        super::snapshot_vec(self)
    }
    fn snapshot_to(&self, b: &mut Vec<u8>) {
        encode_store(b, &self.store, self.applied);
        put_varint(b, self.applied_count);
        put_varint(b, self.pending.len() as u64);
        for (&s, &(k, v)) in &self.pending {
            put_varint(b, s);
            b.push(k);
            b.push(v);
        }
        put_varint(b, self.rejected);
    }
    fn restore(&mut self, b: &[u8]) {
        let (store, applied, rest) = decode_store(b);
        self.store = store;
        self.applied = applied;
        let mut pos = 0;
        self.applied_count = get_varint(&rest, &mut pos).unwrap_or(0);
        let n = get_varint(&rest, &mut pos).unwrap_or(0);
        self.pending.clear();
        for _ in 0..n {
            let s = get_varint(&rest, &mut pos).unwrap_or(0);
            let k = rest[pos];
            let v = rest[pos + 1];
            pos += 2;
            self.pending.insert(s, (k, v));
        }
        self.rejected = get_varint(&rest, &mut pos).unwrap_or(0);
    }
    fn name(&self) -> &'static str {
        "kv-backup-v3"
    }
}

fn encode_store(b: &mut Vec<u8>, store: &BTreeMap<u8, u8>, seq: u64) {
    b.reserve(store.len() * 2 + 16);
    put_varint(b, seq);
    put_varint(b, store.len() as u64);
    for (&k, &v) in store {
        b.push(k);
        b.push(v);
    }
}

fn decode_store(b: &[u8]) -> (BTreeMap<u8, u8>, u64, Vec<u8>) {
    let mut pos = 0;
    let seq = get_varint(b, &mut pos).unwrap_or(0);
    let n = get_varint(b, &mut pos).unwrap_or(0);
    let mut store = BTreeMap::new();
    for _ in 0..n {
        store.insert(b[pos], b[pos + 1]);
        pos += 2;
    }
    (store, seq, b[pos..].to_vec())
}

/// The consistency monitor: the backup must never have applied more
/// messages than its highest sequence (a gap means a message was applied
/// out of order). Works for both backup versions.
pub fn gap_monitor() -> Monitor {
    Monitor::global_implicating(
        "backup-no-gaps",
        |w| {
            let v1_ok = w
                .program::<BackupV1>(Pid(2))
                .is_none_or(|b| b.applied == b.applied_count);
            let v2_ok = w
                .program::<BackupV2>(Pid(2))
                .is_none_or(|b| b.applied == b.applied_count);
            let v3_ok = w
                .program::<BackupV3>(Pid(2))
                .is_none_or(|b| b.applied == b.applied_count);
            v1_ok && v2_ok && v3_ok
        },
        |_w| Pid(2), // the backup is where the gap materializes
        |s| {
            let v1_ok = s
                .program::<BackupV1>(Pid(2))
                .is_none_or(|b| b.applied == b.applied_count);
            let v2_ok = s
                .program::<BackupV2>(Pid(2))
                .is_none_or(|b| b.applied == b.applied_count);
            let v3_ok = s
                .program::<BackupV3>(Pid(2))
                .is_none_or(|b| b.applied == b.applied_count);
            v1_ok && v2_ok && v3_ok
        },
    )
}

/// Build the 3-process world (client, primary, buggy backup) over a
/// reordering network.
pub fn kv_world(seed: u64, script: Vec<(u8, u8)>, jitter: (u64, u64)) -> World {
    let mut cfg = WorldConfig::seeded(seed);
    cfg.net = NetworkConfig::jittery(jitter.0, jitter.1);
    let mut w = World::new(cfg);
    w.add_process(Box::new(Client { script }));
    w.add_process(Box::new(Primary::default()));
    w.add_process(Box::new(BackupV1::default()));
    w
}

/// Build a client/primary/**buggy**-backup world ([`BackupV1`]) over an
/// explicit [`WorldConfig`]. This is the detection-power column of the
/// campaign matrix: under reordering the arrival-order bug *must* be
/// caught by [`gap_monitor`] in a healthy fraction of cells.
pub fn kv_world_v1_cfg(cfg: WorldConfig, script: Vec<(u8, u8)>) -> World {
    let mut w = World::new(cfg);
    w.add_process(Box::new(Client { script }));
    w.add_process(Box::new(Primary::default()));
    w.add_process(Box::new(BackupV1::default()));
    w
}

/// Build a client/primary/fixed-backup world over an explicit
/// [`WorldConfig`] (campaign matrices inject network pathologies through
/// the config).
pub fn kv_world_v2_cfg(cfg: WorldConfig, script: Vec<(u8, u8)>) -> World {
    let mut w = World::new(cfg);
    w.add_process(Box::new(Client { script }));
    w.add_process(Box::new(Primary::default()));
    w.add_process(Box::new(BackupV2::default()));
    w
}

/// Build the checksummed pair ([`PrimaryV2`] + [`BackupV3`]) over an
/// explicit [`WorldConfig`]: the variant that survives payload
/// corruption by rejecting bad REPLs.
pub fn kv_world_ck_cfg(cfg: WorldConfig, script: Vec<(u8, u8)>) -> World {
    let mut w = World::new(cfg);
    w.add_process(Box::new(Client { script }));
    w.add_process(Box::new(PrimaryV2::default()));
    w.add_process(Box::new(BackupV3::default()));
    w
}

/// The v1 → v2 patch: same store/applied state, empty hold-back buffer.
pub fn backup_patch() -> Patch {
    Patch::code_only("kv-backup-ordering-fix", 1, 2, || {
        Box::new(BackupV2::default())
    })
    .with_migration(migrate::from_fn(|old| {
        // v1 layout: [store..., applied_count]; v2 appends pending=0.
        let mut b = old.to_vec();
        put_varint(&mut b, 0); // empty pending map
        Ok(b)
    }))
}

/// A deterministic client script of `n` puts.
pub fn script(n: usize, seed: u64) -> Vec<(u8, u8)> {
    let mut rng = fixd_runtime::DetRng::derive(seed, 0x4B);
    (0..n)
        .map(|_| (rng.below(16) as u8, rng.below(256) as u8))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_network_hides_the_bug() {
        let mut w = kv_world(1, vec![(1, 10), (2, 20), (1, 11)], (10, 10));
        w.run_to_quiescence(10_000);
        let monitor = gap_monitor();
        assert!(monitor.violated_in(&w).is_none());
        let b = w.program::<BackupV1>(Pid(2)).unwrap();
        assert_eq!(b.store.get(&1), Some(&11));
    }

    #[test]
    fn reordering_network_exposes_the_gap() {
        // Find a seed where jitter reorders the replication stream.
        let monitor = gap_monitor();
        let mut found = false;
        for seed in 0..50 {
            let mut w = kv_world(
                seed,
                (0..12).map(|i| (i as u8 % 4, i as u8)).collect(),
                (1, 80),
            );
            loop {
                if w.step().is_none() {
                    break;
                }
                if monitor.violated_in(&w).is_some() {
                    found = true;
                    break;
                }
            }
            if found {
                break;
            }
        }
        assert!(found, "some seed must reorder REPL messages");
    }

    #[test]
    fn fixed_backup_tolerates_reordering() {
        for seed in 0..20 {
            let mut cfg = WorldConfig::seeded(seed);
            cfg.net = NetworkConfig::jittery(1, 80);
            let mut w = World::new(cfg);
            w.add_process(Box::new(Client {
                script: (0..12).map(|i| (i as u8 % 4, i as u8)).collect(),
            }));
            w.add_process(Box::new(Primary::default()));
            w.add_process(Box::new(BackupV2::default()));
            w.run_to_quiescence(10_000);
            let p = w.program::<Primary>(Pid(1)).unwrap().store.clone();
            let b = w.program::<BackupV2>(Pid(2)).unwrap();
            assert_eq!(b.store, p, "seed {seed}: fixed backup converges");
            assert_eq!(b.applied, b.applied_count);
        }
    }

    #[test]
    fn patch_migrates_v1_state() {
        let mut v1 = BackupV1::default();
        v1.store.insert(3, 7);
        v1.applied = 2;
        v1.applied_count = 2;
        let patch = backup_patch();
        let new_prog = patch.instantiate(&v1.snapshot()).unwrap();
        let v2 = new_prog.downcast_ref::<BackupV2>().unwrap();
        assert_eq!(v2.store.get(&3), Some(&7));
        assert_eq!(v2.applied, 2);
        assert!(v2.pending.is_empty());
    }

    #[test]
    fn checksummed_backup_rejects_corrupted_repl() {
        // Corrupt every primary→backup REPL via the fault plan: the
        // checksummed backup must reject all of them and apply none.
        let mut w = World::new(WorldConfig::seeded(1));
        w.add_process(Box::new(Client {
            script: vec![(1, 10), (2, 20), (3, 30)],
        }));
        w.add_process(Box::new(PrimaryV2::default()));
        w.add_process(Box::new(BackupV3::default()));
        w.set_fault_plan(fixd_runtime::FaultPlan::none().corrupt_link(Pid(1), Pid(2), 0, u64::MAX));
        w.run_to_quiescence(10_000);
        let b = w.program::<BackupV3>(Pid(2)).unwrap();
        assert_eq!(b.rejected, 3, "every corrupted REPL is rejected");
        assert_eq!(b.applied, 0, "corrupted REPLs must not apply");
        assert!(b.store.is_empty());
        // Same world without the fault plan applies everything.
        let mut w = World::new(WorldConfig::seeded(1));
        w.add_process(Box::new(Client {
            script: vec![(1, 10), (2, 20), (3, 30)],
        }));
        w.add_process(Box::new(PrimaryV2::default()));
        w.add_process(Box::new(BackupV3::default()));
        w.run_to_quiescence(10_000);
        let b = w.program::<BackupV3>(Pid(2)).unwrap();
        assert_eq!(b.rejected, 0);
        assert_eq!(b.applied, 3);
        assert_eq!(b.store.get(&3), Some(&30));
    }

    #[test]
    fn checksummed_pair_converges_like_v2() {
        for seed in 0..10u64 {
            let mut cfg = WorldConfig::seeded(seed);
            cfg.net = NetworkConfig::jittery(1, 80);
            let mut w = World::new(cfg);
            w.add_process(Box::new(Client {
                script: script(12, seed),
            }));
            w.add_process(Box::new(PrimaryV2::default()));
            w.add_process(Box::new(BackupV3::default()));
            w.run_to_quiescence(10_000);
            let p = w.program::<PrimaryV2>(Pid(1)).unwrap().store.clone();
            let b = w.program::<BackupV3>(Pid(2)).unwrap();
            assert_eq!(b.store, p, "seed {seed}: checksummed backup converges");
            assert_eq!(b.applied, b.applied_count);
            assert_eq!(b.rejected, 0, "clean network rejects nothing");
        }
    }

    #[test]
    fn duplicated_repls_do_not_accumulate_in_pending() {
        // Every message delivered twice: after the stream drains, both
        // ordered backups must have applied everything with an *empty*
        // hold-back buffer — dups of applied seqs are dropped, not held.
        for seed in 0..5u64 {
            let mut cfg = WorldConfig::seeded(seed);
            cfg.net = NetworkConfig {
                dup_prob: 1.0,
                ..NetworkConfig::default()
            };
            let mut w = kv_world_v2_cfg(cfg.clone(), script(8, seed));
            w.run_to_quiescence(10_000);
            let b = w.program::<BackupV2>(Pid(2)).unwrap();
            assert_eq!(b.applied, b.applied_count);
            assert!(b.pending.is_empty(), "seed {seed}: v2 pending leaked");

            let mut w = kv_world_ck_cfg(cfg, script(8, seed));
            w.run_to_quiescence(10_000);
            let b = w.program::<BackupV3>(Pid(2)).unwrap();
            assert_eq!(b.applied, b.applied_count);
            assert!(b.pending.is_empty(), "seed {seed}: v3 pending leaked");
            assert_eq!(b.rejected, 0, "dups are not checksum rejects");
        }
    }

    #[test]
    fn backup_v3_snapshot_roundtrip() {
        let mut v3 = BackupV3::default();
        v3.store.insert(1, 2);
        v3.applied = 3;
        v3.applied_count = 3;
        v3.pending.insert(5, (9, 9));
        v3.rejected = 4;
        let mut w = BackupV3::default();
        w.restore(&v3.snapshot());
        assert_eq!(w.snapshot(), v3.snapshot());
        assert_eq!(w.rejected, 4);
    }

    #[test]
    fn snapshots_roundtrip() {
        let mut v2 = BackupV2::default();
        v2.store.insert(1, 2);
        v2.applied = 3;
        v2.applied_count = 3;
        v2.pending.insert(5, (9, 9));
        let mut w = BackupV2::default();
        w.restore(&v2.snapshot());
        assert_eq!(w.snapshot(), v2.snapshot());
        assert_eq!(w.pending.get(&5), Some(&(9, 9)));
    }
}
