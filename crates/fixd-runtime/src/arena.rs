//! Step arena: per-world recycling pools for the hot-path allocations
//! the step loop would otherwise hand to the global allocator once per
//! event — `Message` boxes (`Context::send`), `StepRecord` shells (one
//! per committed step), `Effects` bodies (send/output/timer vectors),
//! and `randoms` draw buffers. Outside a world, every `SoloHarness`
//! handler run on a thread draws from that thread's one arena.
//!
//! Ownership of a hot-path box is an `Arc` shared by the queue, the
//! trace, the scroll, checkpoints, and Time-Machine branches. The arena
//! therefore recycles at the points where the *world* releases its
//! reference and can observe it was the last one (`Arc::strong_count ==
//! 1`): trace eviction (`Trace::push` returning the displaced record),
//! TM rollback discarding an orphaned send, and explicit driver calls.
//! If some other holder (a scroll entry, a sealed checkpoint, a cloned
//! Time-Machine branch) still aliases the box, the arena leaves it alone
//! and the allocator frees it whenever that holder drops — recycling is
//! an optimization, never a transfer of liveness.
//!
//! Every world's trace keeps only a fixed tail
//! ([`TRACE_TAIL`](crate::TRACE_TAIL) records) and evicts one record per
//! record it takes, so in every world a steady-state step draws every
//! box it needs from the pool and the eviction at the end of the step
//! returns the same number: the loop touches the allocator zero times
//! (`fixd-bench/tests/step_allocs.rs` pins this with a counting
//! `#[global_allocator]`).

use std::sync::Arc;

use crate::event::{Effects, Event, EventKind, Message, SharedMessage};
use crate::payload::Payload;
use crate::trace::{SharedStepRecord, StepRecord};
use crate::{Pid, VTime};

/// Pool caps: bound worst-case arena footprint (a burst that queues
/// thousands of in-flight messages must not pin them all forever).
/// Public so benchmarks can report resident bytes against the caps.
pub const MSG_POOL_CAP: usize = 4096;
pub const REC_POOL_CAP: usize = 1024;
pub const EFF_POOL_CAP: usize = 1024;
pub const RAND_POOL_CAP: usize = 1024;

/// Counters for the arena's effectiveness — the `arena_recycling` suite
/// pins exactly-once recycling with them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Messages drawn from the pool (vs freshly allocated).
    pub msgs_recycled: u64,
    /// Messages allocated because the pool was empty.
    pub msgs_allocated: u64,
    /// Step records drawn from the pool.
    pub records_recycled: u64,
    /// Step records freshly allocated.
    pub records_allocated: u64,
    /// Message shells currently resting in the pool.
    pub msgs_pooled: usize,
    /// Record shells currently resting in the pool.
    pub records_pooled: usize,
    /// Effects bodies currently resting in the pool.
    pub effects_pooled: usize,
    /// Randoms draw buffers currently resting in the pool.
    pub randoms_pooled: usize,
    /// Estimated heap bytes pinned by pooled message shells (`Arc`
    /// header + shell; payloads are released on recycle).
    pub msg_bytes: usize,
    /// Estimated heap bytes pinned by pooled record shells (effects are
    /// stripped out on recycle, so this is header + shell).
    pub record_bytes: usize,
    /// Estimated heap bytes pinned by pooled effects bodies (the
    /// retained vector capacities — the whole point of pooling them).
    pub effect_bytes: usize,
    /// Estimated heap bytes pinned by pooled randoms buffers.
    pub random_bytes: usize,
}

impl ArenaStats {
    /// Total estimated resident footprint of the pools, in bytes — the
    /// price this arena pays for its allocation-free steady state. The
    /// per-pool fields say which cap (message/record/effects/randoms)
    /// the bytes sit under.
    pub fn resident_bytes(&self) -> usize {
        self.msg_bytes + self.record_bytes + self.effect_bytes + self.random_bytes
    }
}

/// The per-world (and per-shard) recycling pool. See module docs.
pub(crate) struct StepArena {
    msgs: Vec<Arc<Message>>,
    records: Vec<Arc<StepRecord>>,
    effects: Vec<Effects>,
    randoms: Vec<Arc<Vec<u64>>>,
    msgs_recycled: u64,
    msgs_allocated: u64,
    records_recycled: u64,
    records_allocated: u64,
}

impl StepArena {
    pub(crate) const fn new() -> Self {
        Self {
            msgs: Vec::new(),
            records: Vec::new(),
            effects: Vec::new(),
            randoms: Vec::new(),
            msgs_recycled: 0,
            msgs_allocated: 0,
            records_recycled: 0,
            records_allocated: 0,
        }
    }

    pub(crate) fn stats(&self) -> ArenaStats {
        // `Arc<T>`'s heap block: strong + weak counts ahead of the value.
        const ARC_HEADER: usize = 2 * std::mem::size_of::<usize>();
        let msg_bytes = self.msgs.len() * (ARC_HEADER + std::mem::size_of::<Message>())
            + self.msgs.capacity() * std::mem::size_of::<Arc<Message>>();
        let record_bytes = self.records.len() * (ARC_HEADER + std::mem::size_of::<StepRecord>())
            + self.records.capacity() * std::mem::size_of::<Arc<StepRecord>>();
        let effect_bytes = self
            .effects
            .iter()
            .map(|e| {
                // The body itself sits inline in the pool vector (counted
                // under its capacity below); only retained vector
                // capacities are extra.
                e.sends.capacity() * std::mem::size_of::<SharedMessage>()
                    + e.timers_set.capacity() * std::mem::size_of::<(crate::TimerId, VTime)>()
                    + e.timers_cancelled.capacity() * std::mem::size_of::<crate::TimerId>()
                    + e.outputs.capacity() * std::mem::size_of::<Payload>()
            })
            .sum::<usize>()
            + self.effects.capacity() * std::mem::size_of::<Effects>();
        let random_bytes = self
            .randoms
            .iter()
            .map(|r| {
                ARC_HEADER
                    + std::mem::size_of::<Vec<u64>>()
                    + r.capacity() * std::mem::size_of::<u64>()
            })
            .sum::<usize>()
            + self.randoms.capacity() * std::mem::size_of::<Arc<Vec<u64>>>();
        ArenaStats {
            msgs_recycled: self.msgs_recycled,
            msgs_allocated: self.msgs_allocated,
            records_recycled: self.records_recycled,
            records_allocated: self.records_allocated,
            msgs_pooled: self.msgs.len(),
            records_pooled: self.records.len(),
            effects_pooled: self.effects.len(),
            randoms_pooled: self.randoms.len(),
            msg_bytes,
            record_bytes,
            effect_bytes,
            random_bytes,
        }
    }

    // -- messages ------------------------------------------------------

    /// Build a stamped message, reusing a pooled shell when one exists.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn make_message(
        &mut self,
        id: u64,
        src: Pid,
        dst: Pid,
        tag: u16,
        payload: Payload,
        sent_at: VTime,
        ckpt_index: u64,
    ) -> SharedMessage {
        if let Some(mut shell) = self.msgs.pop() {
            // Pooled shells are unique: no copy here.
            let m = Arc::make_mut(&mut shell);
            m.id = id;
            m.src = src;
            m.dst = dst;
            m.tag = tag;
            m.payload = payload;
            m.sent_at = sent_at;
            m.ckpt_index = ckpt_index;
            self.msgs_recycled += 1;
            return SharedMessage::from_arc(shell);
        }
        self.msgs_allocated += 1;
        SharedMessage::new(Message {
            id,
            src,
            dst,
            tag,
            payload,
            sent_at,
            ckpt_index,
        })
    }

    /// Return a message box to the pool if this handle is the last one.
    /// Returns whether the box was actually pooled.
    pub(crate) fn recycle_message(&mut self, msg: SharedMessage) -> bool {
        let mut arc = msg.into_arc();
        let Some(m) = Arc::get_mut(&mut arc) else {
            return false; // still aliased by a scroll/TM/checkpoint holder
        };
        if self.msgs.len() >= MSG_POOL_CAP {
            return false;
        }
        // Release the payload bytes now (they may alias a large shared
        // buffer).
        m.payload = Payload::empty();
        self.msgs.push(arc);
        true
    }

    // -- step records --------------------------------------------------

    /// Seal one step into a shared record, reusing a pooled shell.
    pub(crate) fn make_record(&mut self, event: Event, effects: Effects) -> SharedStepRecord {
        if let Some(mut shell) = self.records.pop() {
            // Pooled shells are unique: no copy here.
            let r = Arc::make_mut(&mut shell);
            r.event = event;
            r.effects = effects;
            self.records_recycled += 1;
            return shell;
        }
        self.records_allocated += 1;
        Arc::new(StepRecord { event, effects })
    }

    /// Dismantle an evicted record if the world holds the last
    /// reference: its message goes back to the message pool, its
    /// effects body to the effects pool, its shell to the record pool.
    /// Returns whether the shell was pooled.
    pub(crate) fn recycle_record(&mut self, rec: SharedStepRecord) -> bool {
        let mut arc = rec;
        let Some(r) = Arc::get_mut(&mut arc) else {
            return false;
        };
        let effects = std::mem::take(&mut r.effects);
        let kind = std::mem::replace(&mut r.event.kind, EventKind::Crash { pid: Pid(0) });
        if let EventKind::Deliver { msg } | EventKind::Drop { msg } = kind {
            self.recycle_message(msg);
        }
        self.recycle_effects(effects);
        if self.records.len() >= REC_POOL_CAP {
            return false;
        }
        self.records.push(arc);
        true
    }

    // -- effects bodies ------------------------------------------------

    /// A cleared effects body (vectors keep their capacities).
    pub(crate) fn make_effects(&mut self) -> Effects {
        self.effects.pop().unwrap_or_default()
    }

    /// Strip an effects body for reuse: recycle each send the world
    /// still solely holds, drop payload refs, pool the vectors.
    pub(crate) fn recycle_effects(&mut self, mut effects: Effects) {
        for msg in effects.sends.drain(..) {
            self.recycle_message(msg);
        }
        effects.outputs.clear();
        effects.timers_set.clear();
        effects.timers_cancelled.clear();
        effects.crashed = false;
        if let Some(shell) = std::mem::take(&mut effects.randoms).into_shell() {
            self.recycle_randoms(shell);
        }
        if self.effects.len() < EFF_POOL_CAP {
            self.effects.push(effects);
        }
    }

    // -- randoms draw buffers ------------------------------------------

    /// A unique, cleared draw buffer for one handler run.
    pub(crate) fn make_randoms(&mut self) -> Arc<Vec<u64>> {
        self.randoms.pop().unwrap_or_default()
    }

    /// Return a draw buffer whose last reference this is.
    pub(crate) fn recycle_randoms(&mut self, mut shell: Arc<Vec<u64>>) {
        let Some(v) = Arc::get_mut(&mut shell) else {
            return;
        };
        if self.randoms.len() >= RAND_POOL_CAP {
            return;
        }
        v.clear();
        self.randoms.push(shell);
    }

    // -- sharded redistribution ----------------------------------------

    /// Move up to `max` pooled message shells from `donor` into this
    /// arena. The sharded coordinator recycles at the barrier but the
    /// shards allocate inside their windows; donating between windows
    /// closes that loop.
    pub(crate) fn take_messages_from(&mut self, donor: &mut StepArena, max: usize) {
        let room = MSG_POOL_CAP.saturating_sub(self.msgs.len()).min(max);
        let give = donor.msgs.len().min(room);
        let at = donor.msgs.len() - give;
        self.msgs.extend(donor.msgs.drain(at..));
    }
}
