//! A write-ahead-logged counter: crash-recovery over the disk model.
//!
//! The counter applies increments streamed by a driver and write-ahead
//! logs its value to a [`SharedDisk`], syncing every `sync_every`
//! operations. On a crash, unsynced progress is lost — but a restart
//! (the Healer's restart strategy with a factory capturing the same
//! disk) **recovers from the durable log**, losing at most
//! `sync_every − 1` operations instead of everything. This is the
//! classic durability/throughput trade-off, built on the paper's §4.5
//! "models of disk access".

use fixd_healer::Patch;
use fixd_runtime::{Context, Message, Pid, Program, SharedDisk, World, WorldConfig};

/// Driver → counter: one increment (payload: amount).
pub const INC: u16 = 40;

/// Streams `n_ops` increments of 1 to the counter (P1).
pub struct Driver {
    pub n_ops: u64,
}

impl Program for Driver {
    fn on_start(&mut self, ctx: &mut Context) {
        // One shared buffer for the whole increment stream: every INC
        // aliases the same allocation.
        let inc = fixd_runtime::Payload::from([1u8]);
        for _ in 0..self.n_ops {
            ctx.send(Pid(1), INC, inc.clone());
        }
    }
    fn snapshot(&self) -> Vec<u8> {
        super::snapshot_vec(self)
    }
    fn snapshot_to(&self, b: &mut Vec<u8>) {
        b.extend_from_slice(&self.n_ops.to_le_bytes());
    }
    fn restore(&mut self, b: &[u8]) {
        self.n_ops = u64::from_le_bytes(b.try_into().unwrap());
    }
    fn clone_program(&self) -> Box<dyn Program> {
        Box::new(Driver { n_ops: self.n_ops })
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn name(&self) -> &'static str {
        "wal-driver"
    }
}

/// The durable counter (P1).
pub struct WalCounter {
    /// In-memory value (authoritative between syncs).
    pub value: u64,
    /// Sync the WAL every this many applied operations.
    pub sync_every: u64,
    ops_since_sync: u64,
    disk: SharedDisk,
}

/// Decode the counter value currently recoverable from `disk`.
pub fn durable_value(disk: &SharedDisk) -> u64 {
    disk.read(b"counter")
        .map(|v| u64::from_le_bytes(v.try_into().unwrap_or_default()))
        .unwrap_or(0)
}

impl WalCounter {
    /// Boot (or re-boot) from the durable log: recovers the last synced
    /// value.
    pub fn recover(disk: SharedDisk, sync_every: u64) -> Self {
        Self {
            value: durable_value(&disk),
            sync_every,
            ops_since_sync: 0,
            disk,
        }
    }

    /// The counter value currently recoverable from this counter's log.
    pub fn durable_value(&self) -> u64 {
        durable_value(&self.disk)
    }

    /// The disk handle (shared with the environment).
    pub fn disk(&self) -> &SharedDisk {
        &self.disk
    }
}

impl Program for WalCounter {
    fn on_message(&mut self, _ctx: &mut Context, msg: &Message) {
        if msg.tag != INC {
            return;
        }
        self.value += u64::from(msg.payload[0]);
        // Write-ahead: log the new value, sync on the configured cadence.
        self.disk.write(b"counter", &self.value.to_le_bytes());
        self.ops_since_sync += 1;
        if self.ops_since_sync >= self.sync_every {
            self.disk.sync();
            self.ops_since_sync = 0;
        }
    }
    fn snapshot(&self) -> Vec<u8> {
        super::snapshot_vec(self)
    }
    fn snapshot_to(&self, b: &mut Vec<u8>) {
        b.extend_from_slice(&self.value.to_le_bytes());
        b.extend_from_slice(&self.sync_every.to_le_bytes());
        b.extend_from_slice(&self.ops_since_sync.to_le_bytes());
    }
    fn restore(&mut self, b: &[u8]) {
        self.value = u64::from_le_bytes(b[0..8].try_into().unwrap());
        self.sync_every = u64::from_le_bytes(b[8..16].try_into().unwrap());
        self.ops_since_sync = u64::from_le_bytes(b[16..24].try_into().unwrap());
    }
    fn clone_program(&self) -> Box<dyn Program> {
        Box::new(WalCounter {
            value: self.value,
            sync_every: self.sync_every,
            ops_since_sync: self.ops_since_sync,
            disk: self.disk.clone(),
        })
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn name(&self) -> &'static str {
        "wal-counter"
    }
}

/// Build the world over an explicit [`WorldConfig`]: driver + counter
/// over `disk`, no implicit network override or fault plan (campaign
/// matrices inject both themselves).
pub fn wal_world_cfg(cfg: WorldConfig, n_ops: u64, sync_every: u64, disk: SharedDisk) -> World {
    let mut w = World::new(cfg);
    w.add_process(Box::new(Driver { n_ops }));
    w.add_process(Box::new(WalCounter::recover(disk, sync_every)));
    w
}

/// Build the world: driver + counter over `disk`, with an optional crash
/// of the counter at virtual time `crash_at`.
pub fn wal_world(
    seed: u64,
    n_ops: u64,
    sync_every: u64,
    disk: SharedDisk,
    crash_at: Option<u64>,
) -> World {
    let mut cfg = WorldConfig::seeded(seed);
    // Spread deliveries over virtual time so crashes land mid-stream.
    cfg.net = fixd_runtime::NetworkConfig::jittery(1, 100);
    let mut w = wal_world_cfg(cfg, n_ops, sync_every, disk);
    if let Some(at) = crash_at {
        w.set_fault_plan(fixd_runtime::FaultPlan::none().crash(Pid(1), at));
    }
    w
}

/// The "patch" used for crash recovery: same code, rebooted from the WAL
/// (restart-from-scratch with the factory capturing the shared disk).
pub fn recovery_patch(disk: SharedDisk, sync_every: u64) -> Patch {
    Patch::code_only("wal-recover", 1, 1, move || {
        Box::new(WalCounter::recover(disk.clone(), sync_every))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixd_core::{Fixd, FixdConfig};
    use fixd_healer::Healer;
    use fixd_timemachine::{TimeMachine, TimeMachineConfig};

    #[test]
    fn no_crash_counts_everything() {
        let disk = SharedDisk::new();
        let mut w = wal_world(1, 20, 4, disk.clone(), None);
        w.run_to_quiescence(10_000);
        assert_eq!(w.program::<WalCounter>(Pid(1)).unwrap().value, 20);
        // Durable value trails by < sync_every.
        let durable = u64::from_le_bytes(disk.read(b"counter").unwrap().try_into().unwrap());
        assert!(20 - durable < 4);
    }

    #[test]
    fn crash_loses_at_most_one_sync_window() {
        let disk = SharedDisk::new();
        let mut w = wal_world(1, 20, 4, disk.clone(), Some(15));
        w.run_to_quiescence(100_000);
        // Counter crashed mid-stream; disk crash semantics apply.
        disk.crash();
        let recovered = WalCounter::recover(disk.clone(), 4);
        let applied_before_crash = w.delivered_count(Pid(1));
        assert!(recovered.value <= applied_before_crash);
        assert!(
            applied_before_crash - recovered.value < 4,
            "lost {} ops, window is 4",
            applied_before_crash - recovered.value
        );
    }

    #[test]
    fn healer_restart_recovers_from_wal() {
        let disk = SharedDisk::new();
        let mut w = wal_world(1, 30, 5, disk.clone(), Some(60));
        let mut fixd = Fixd::new(2, FixdConfig::seeded(1));
        let out = fixd.supervise(&mut w, 100_000);
        assert!(out.quiescent, "crash leaves the world quiescent");
        // The counter is dead; some increments were dropped.
        assert_eq!(w.status(Pid(1)), fixd_runtime::ProcStatus::Crashed);
        disk.crash(); // its unsynced buffer dies with it
        let durable_at_crash =
            u64::from_le_bytes(disk.read(b"counter").unwrap().try_into().unwrap());
        // Heal by restart: the factory recovers from the WAL.
        let patch = recovery_patch(disk.clone(), 5);
        fixd.heal_restart(&mut w, &patch, &[Pid(1)]);
        let rebooted = w.program::<WalCounter>(Pid(1)).unwrap();
        assert_eq!(rebooted.value, durable_at_crash, "recovered from the log");
        assert!(rebooted.value > 0, "durable progress survived the crash");
    }

    #[test]
    fn tighter_sync_cadence_loses_less() {
        let loss_with = |sync_every: u64| {
            let disk = SharedDisk::new();
            let mut w = wal_world(1, 40, sync_every, disk.clone(), Some(50));
            w.run_to_quiescence(100_000);
            disk.crash();
            let applied = w.delivered_count(Pid(1));
            let durable = disk
                .read(b"counter")
                .map(|v| u64::from_le_bytes(v.try_into().unwrap()))
                .unwrap_or(0);
            applied - durable
        };
        assert!(loss_with(1) == 0, "sync-every-op loses nothing");
        assert!(loss_with(8) >= loss_with(1));
        assert!(loss_with(8) < 8);
    }

    #[test]
    fn time_machine_rollback_composes_with_wal() {
        // Rollback rewinds the in-memory value; the WAL (environment
        // state) is ahead — recovery semantics still hold: durable value
        // never exceeds what was actually applied *somewhere*.
        let disk = SharedDisk::new();
        let mut w = wal_world(1, 12, 3, disk.clone(), None);
        let mut tm = TimeMachine::new(2, TimeMachineConfig::default());
        tm.run(&mut w, 8);
        let target = tm.interval(Pid(1)).saturating_sub(2);
        tm.rollback(&mut w, Pid(1), target).unwrap();
        tm.run(&mut w, 100_000);
        // Re-execution re-applies the increments; final value correct.
        assert_eq!(w.program::<WalCounter>(Pid(1)).unwrap().value, 12);
        let _ = Healer::new(); // silence unused-import lint paths
    }
}
