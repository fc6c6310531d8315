//! The process table: per-pid state slots of a [`crate::World`] and of
//! each of its shards (see [`crate::shard`]).
//!
//! A table covers the whole pid space `0..n` but *owns* only the pids of
//! one residue class `{p | p % stride == offset}` — the world's own
//! table is the degenerate `stride = 1` table, a shard owns every
//! `stride`-th pid. Slots are lazy exactly as before the extraction: a
//! dormant pid costs 8 bytes (the null niche of `Option<Box<_>>`) until
//! the first event touches it.
//!
//! Fault status of dormant pids is tracked **out of line** in
//! [`ProcTable::set_status`]: crashing a never-materialized process must
//! not build its program and RNG state just to flip a status bit
//! (and previously did — the spurious-materialization fault-injection
//! bug). A dormant crashed pid is a set entry, not a slot.

use std::collections::HashSet;
use std::sync::Arc;

use crate::arena::StepArena;
use crate::event::{Effects, EventKind, Message, TimerId};
use crate::payload;
use crate::program::{Context, Program};
use crate::rng::DetRng;
use crate::world::ProcStatus;
use crate::{Pid, VTime};

/// Builds the program for a lazily materialized process the first time an
/// event actually touches it.
pub type ProcFactory = Arc<dyn Fn(Pid) -> Box<dyn Program> + Send + Sync>;

/// A contiguous pid range whose processes materialize on demand.
#[derive(Clone)]
pub(crate) struct LazyRange {
    pub(crate) start: u32,
    pub(crate) end: u32,
    pub(crate) factory: ProcFactory,
}

/// A process's runtime context: everything a handler run reads and
/// advances besides the program itself. The world's process table, a
/// shard's copy of it, a [`crate::ProcCheckpoint`] and a
/// [`crate::SoloHarness`] each hold one, and `run_handler` is the one
/// function that runs a handler against it — so a process resumed from
/// a checkpoint outside the world continues exactly where the world
/// left it.
#[derive(Clone, Debug)]
pub struct ProcContext {
    pub rng: DetRng,
    /// Messages delivered to this process.
    pub delivered: u64,
    /// The Time Machine's checkpoint index, stamped on this process's
    /// sends.
    pub ckpt_index: u64,
    /// Id counters: they roll back with the state, so re-execution and
    /// replay mint identical ids. `next_msg_id` is the send reference
    /// the next send carries ([`crate::Message::id`]).
    pub next_msg_id: u64,
    pub next_timer_id: u64,
}

/// The handler a step runs, borrowed from its event.
#[derive(Clone, Copy)]
pub(crate) enum Handler<'a> {
    Start,
    Deliver(&'a Message),
    Timer(TimerId),
}

impl ProcContext {
    /// The context process `pid` starts with: ids from 1,
    /// and the RNG stream derived from the world's `seed`.
    pub fn new(seed: u64, pid: Pid) -> Self {
        Self {
            rng: DetRng::derive(seed, u64::from(pid.0)),
            delivered: 0,
            ckpt_index: 0,
            next_msg_id: 1,
            next_timer_id: 1,
        }
    }

    /// Run `pid`'s handler `h` on `program` at virtual time `now` in a
    /// world `width` pids wide, and return its effects. A delivery
    /// counts the receipt. The handler's sends carry the checkpoint
    /// index as it is on entry.
    pub(crate) fn run_handler(
        &mut self,
        pid: Pid,
        program: &mut dyn Program,
        h: Handler,
        now: VTime,
        width: usize,
        arena: &mut StepArena,
    ) -> Effects {
        if let Handler::Deliver(_) = h {
            self.delivered += 1;
        }
        let mut ctx = Context::new(pid, now, width, self, arena);
        match h {
            Handler::Start => program.on_start(&mut ctx),
            Handler::Deliver(msg) => program.on_message(&mut ctx, msg),
            Handler::Timer(t) => program.on_timer(&mut ctx, t),
        }
        ctx.into_effects()
    }
}

#[derive(Clone)]
pub(crate) struct ProcEntry {
    pub(crate) program: Box<dyn Program>,
    pub(crate) status: ProcStatus,
    pub(crate) ctx: ProcContext,
    /// Times the program was replaced, restored or handed out for
    /// writing outside a handler ([`crate::World::program_generation`]).
    pub(crate) generation: u64,
}

/// Per-pid state slots for the pids of one residue class (see module
/// docs). All materialization flows through here, so a lazy process is
/// bit-identical whether it boots in a serial world or on a shard.
#[derive(Clone)]
pub(crate) struct ProcTable {
    seed: u64,
    stride: u32,
    offset: u32,
    /// Global world width (pids `0..n` exist; this table owns a subset).
    n: usize,
    /// One slot per **owned** pid: `slots[(pid - offset) / stride]`.
    slots: Vec<Option<Box<ProcEntry>>>,
    lazy: Vec<LazyRange>,
    /// Crashed-while-dormant pids (owned ones only): status without state.
    dormant_crashed: HashSet<u32>,
}

impl ProcTable {
    pub(crate) fn new(seed: u64, stride: u32, offset: u32) -> Self {
        assert!(stride >= 1 && offset < stride);
        Self {
            seed,
            stride,
            offset,
            n: 0,
            slots: Vec::new(),
            lazy: Vec::new(),
            dormant_crashed: HashSet::new(),
        }
    }

    /// Global world width covered (owned or not).
    #[inline]
    pub(crate) fn width(&self) -> usize {
        self.n
    }

    /// Does this table own `pid`'s slot?
    #[inline]
    pub(crate) fn owns(&self, pid: Pid) -> bool {
        pid.idx() < self.n && pid.0 % self.stride == self.offset
    }

    #[inline]
    fn slot_index(&self, pid: Pid) -> usize {
        debug_assert!(self.owns(pid), "pid {pid} not owned by this table");
        ((pid.0 - self.offset) / self.stride) as usize
    }

    /// Extend the covered pid space to `n`, adding dormant slots for the
    /// newly owned pids.
    pub(crate) fn grow_to(&mut self, n: usize) {
        assert!(n >= self.n, "pid space never shrinks");
        self.n = n;
        let owned = (n as u32).saturating_sub(self.offset).div_ceil(self.stride) as usize;
        if owned > self.slots.len() {
            self.slots.resize_with(owned, || None);
        }
    }

    /// The table of shard `offset` of `stride`, cut from this
    /// `stride = 1` table: [`crate::CloneProgram::clone_program`]
    /// copies of the entries it owns, the lazy factories, and its pids'
    /// dormant crash marks.
    pub(crate) fn shard(&self, stride: u32, offset: u32) -> ProcTable {
        assert_eq!(self.stride, 1, "shards are cut from a world's own table");
        let mut t = ProcTable::new(self.seed, stride, offset);
        t.n = self.n;
        t.lazy = self.lazy.clone();
        t.slots = self
            .slots
            .iter()
            .skip(offset as usize)
            .step_by(stride as usize)
            .cloned()
            .collect();
        t.dormant_crashed = self
            .dormant_crashed
            .iter()
            .copied()
            .filter(|p| p % stride == offset)
            .collect();
        t
    }

    /// Install an eagerly constructed entry for an owned pid.
    pub(crate) fn install(&mut self, pid: Pid, program: Box<dyn Program>) {
        let entry = Self::entry_for(self.seed, pid, program);
        let i = self.slot_index(pid);
        debug_assert!(self.slots[i].is_none(), "pid {pid} installed twice");
        self.slots[i] = Some(entry);
    }

    /// Register a lazy pid range (slots must already be grown).
    pub(crate) fn add_lazy(&mut self, start: u32, end: u32, factory: ProcFactory) {
        self.lazy.push(LazyRange {
            start,
            end,
            factory,
        });
    }

    /// The entry any pid would materialize with: the same fresh context
    /// as `add_process` builds eagerly.
    fn entry_for(seed: u64, pid: Pid, program: Box<dyn Program>) -> Box<ProcEntry> {
        Box::new(ProcEntry {
            program,
            status: ProcStatus::Running,
            ctx: ProcContext::new(seed, pid),
            generation: 0,
        })
    }

    /// The context a dormant pid materializes with.
    pub(crate) fn fresh_context(&self, pid: Pid) -> ProcContext {
        ProcContext::new(self.seed, pid)
    }

    /// Build a fresh entry for a dormant pid without installing it.
    pub(crate) fn fresh_entry(&self, pid: Pid) -> Box<ProcEntry> {
        Self::materialize(&self.lazy, self.seed, pid)
    }

    /// The entry dormant `pid` boots with, from its lazy range's factory.
    // INVARIANT: the table grows only through `World::add_process`,
    // which installs the new pid, and `World::add_lazy_processes`, which
    // registers a range over every pid it adds — so an owned slot that
    // is still empty lies in a lazy range.
    #[allow(clippy::expect_used)]
    fn materialize(lazy: &[LazyRange], seed: u64, pid: Pid) -> Box<ProcEntry> {
        let range = lazy
            .iter()
            .find(|r| r.start <= pid.0 && pid.0 < r.end)
            .expect("dormant pid must belong to a lazy range");
        Self::entry_for(seed, pid, (range.factory)(pid))
    }

    #[inline]
    pub(crate) fn is_materialized(&self, pid: Pid) -> bool {
        self.slots[self.slot_index(pid)].is_some()
    }

    pub(crate) fn materialized_count(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Owned, materialized pids in ascending order.
    pub(crate) fn materialized_pids(&self) -> impl Iterator<Item = Pid> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_some())
            .map(|(i, _)| Pid(i as u32 * self.stride + self.offset))
    }

    /// Shared access to a materialized entry (`None` while dormant).
    #[inline]
    pub(crate) fn ent(&self, pid: Pid) -> Option<&ProcEntry> {
        self.slots[self.slot_index(pid)].as_deref()
    }

    /// Mutable access, materializing a dormant slot on first touch. A
    /// crashed-while-dormant status carries over onto the fresh entry.
    pub(crate) fn ent_mut(&mut self, pid: Pid) -> &mut ProcEntry {
        let i = self.slot_index(pid);
        let Self {
            seed,
            slots,
            lazy,
            dormant_crashed,
            ..
        } = self;
        slots[i].get_or_insert_with(|| {
            let mut e = Self::materialize(lazy, *seed, pid);
            if dormant_crashed.remove(&pid.0) {
                e.status = ProcStatus::Crashed;
            }
            e
        })
    }

    /// Liveness without materializing: dormant pids are `Running` unless
    /// a fault crashed them while dormant.
    #[inline]
    pub(crate) fn status_of(&self, pid: Pid) -> ProcStatus {
        match self.ent(pid) {
            Some(e) => e.status,
            None if self.dormant_crashed.contains(&pid.0) => ProcStatus::Crashed,
            None => ProcStatus::Running,
        }
    }

    /// Set liveness **without materializing**: a dormant target stays an
    /// 8-byte slot; only its status is tracked (the fault-injection path
    /// for never-touched lazy pids).
    pub(crate) fn set_status(&mut self, pid: Pid, status: ProcStatus) {
        let i = self.slot_index(pid);
        match &mut self.slots[i] {
            Some(e) => e.status = status,
            None => match status {
                ProcStatus::Crashed => {
                    self.dormant_crashed.insert(pid.0);
                }
                ProcStatus::Running => {
                    self.dormant_crashed.remove(&pid.0);
                }
            },
        }
    }

    /// Whether a queued event runs, and as what. A cancelled timer is
    /// skipped (and its cancel mark consumed); so are a crashed pid's
    /// timers, starts and second crashes. A delivery to a crashed pid
    /// runs as a [`EventKind::Drop`]: the handle moves into it, and its
    /// bytes count as aliased, as a clone of the handle would count
    /// them. Every other kind runs as queued.
    pub(crate) fn admit(
        &self,
        kind: EventKind,
        cancelled: &mut HashSet<(u32, u64)>,
    ) -> Option<EventKind> {
        let crashed = |pid| self.status_of(pid) == ProcStatus::Crashed;
        match kind {
            EventKind::TimerFire { pid, timer } => {
                (!cancelled.remove(&(pid.0, timer.0)) && !crashed(pid)).then_some(kind)
            }
            EventKind::Start { pid } | EventKind::Crash { pid } => (!crashed(pid)).then_some(kind),
            EventKind::Deliver { msg } if crashed(msg.dst) => {
                payload::note_aliased(msg.payload.len());
                Some(EventKind::Drop { msg })
            }
            kind => Some(kind),
        }
    }
}
