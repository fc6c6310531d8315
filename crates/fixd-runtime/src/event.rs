//! Events, messages, and the effects a program handler produces.
//!
//! Every observable thing that happens in a [`crate::World`] is an
//! [`Event`]; every consequence of running a handler is captured in an
//! [`Effects`] record. Together they are the vocabulary shared by the
//! Scroll (which records them), the Time Machine (which checkpoints around
//! them), and the Investigator (which enumerates them).

use crate::clock::VectorClock;
use crate::payload::Payload;
use crate::wire;
use crate::{Pid, VTime};

/// Identifier for a timer set by a program. Unique within a world run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerId(pub u64);

/// Metadata piggybacked on every message, used by the FixD components:
///
/// * `ckpt_index` — the sender's current checkpoint index, used by the
///   Time Machine's communication-induced checkpointing (paper §4.2,
///   Fig. 6) to track rollback dependencies;
/// * `spec_id` — the speculation the sender was executing inside when it
///   sent the message (`0` = none); receivers of speculative data are
///   *absorbed* into the speculation;
/// * `lamport` — sender's Lamport timestamp, used by the Scroll to impose
///   a total order on messages (paper §2.2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct MsgMeta {
    pub ckpt_index: u64,
    pub spec_id: u64,
    pub lamport: u64,
}

/// A message in flight between two processes.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Message {
    /// Unique id within the world run (also unique across duplicates:
    /// a duplicated delivery reuses the id so tooling can spot it).
    pub id: u64,
    pub src: Pid,
    pub dst: Pid,
    /// Application-level message kind.
    pub tag: u16,
    /// The payload bytes, in one allocation shared by every observer of
    /// this message (runtime queue, Scroll entries, Time Machine
    /// checkpoints). Cloning a `Message` aliases the buffer; only the
    /// corruption fault path materializes a private copy.
    pub payload: Payload,
    /// Virtual time at which the send happened.
    pub sent_at: VTime,
    /// Sender's vector clock at send time (after the send tick). The
    /// receive rule merges all of it. A Scroll keeps only the sender's
    /// own component, `vc.get(src)` (what its send-before-receive check
    /// reads), so a message decoded from a Scroll carries the
    /// one-component clock `{src: vc[src]}`; replay restores the
    /// receiver's clock from the entry instead of this merge.
    pub vc: VectorClock,
    pub meta: MsgMeta,
}

impl Message {
    /// Stable content fingerprint (ignores `id` and timing, so replayed or
    /// re-executed sends of the same logical message match).
    ///
    /// The value is FNV-1a over `varint(src) varint(dst) varint(tag)
    /// varint(len) payload`, streamed rather than staged in a buffer.
    pub fn content_fingerprint(&self) -> u64 {
        let header = [
            u64::from(self.src.0),
            u64::from(self.dst.0),
            u64::from(self.tag),
            self.payload.len() as u64,
        ];
        let h = header
            .into_iter()
            .fold(wire::fnv1a(&[]), wire::fnv1a_varint);
        fixd_store::fnv1a_extend(h, &self.payload)
    }
}

/// One message, shared by every observer — the runtime's delivery queue,
/// the sender's recorded [`Effects`], the trace's [`crate::StepRecord`],
/// the Scroll entry, and the Time Machine's delivery log all hold the
/// *same* `SharedMessage` (a newtype over `Arc<Message>`, mirroring
/// [`Payload`]). Stamping a send materializes the message once;
/// everything downstream is a reference-count bump. Cloning never copies
/// the vector clock or payload; the single sanctioned mutation point is
/// [`SharedMessage::to_mut`], used by the corruption fault path (which
/// copy-on-writes the one private copy it is allowed).
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct SharedMessage(std::sync::Arc<Message>);

// Cloning shares the whole message — and with it the payload bytes a
// deep-copying representation would have duplicated. Counting them as
// aliased keeps the payload copy/alias metric meaningful now that the
// hot path no longer touches the `Payload` refcount at all.
#[allow(clippy::non_canonical_clone_impl)] // counts aliased bytes
impl Clone for SharedMessage {
    fn clone(&self) -> Self {
        crate::payload::note_aliased(self.0.payload.len());
        SharedMessage(std::sync::Arc::clone(&self.0))
    }
}

impl SharedMessage {
    /// Seal a freshly stamped message into its shared form.
    pub fn new(msg: Message) -> Self {
        SharedMessage(std::sync::Arc::new(msg))
    }

    /// Do two handles share one allocation? (The aliasing regression
    /// tests pin the one-record property with this.)
    pub fn ptr_eq(&self, other: &SharedMessage) -> bool {
        std::sync::Arc::ptr_eq(&self.0, &other.0)
    }

    /// How many handles currently share this message.
    pub fn strong_count(&self) -> usize {
        std::sync::Arc::strong_count(&self.0)
    }

    /// Copy-on-write mutable access (splits off a private `Message` when
    /// shared). Only the corruption fault path should need this.
    pub fn to_mut(&mut self) -> &mut Message {
        std::sync::Arc::make_mut(&mut self.0)
    }

    /// Wrap a recycled arena shell without touching the alias counters
    /// (this is a fresh message being born, not a handle being copied).
    pub(crate) fn from_arc(arc: std::sync::Arc<Message>) -> Self {
        SharedMessage(arc)
    }

    /// Unwrap for the arena's uniqueness check and pool, bypassing the
    /// counting `Clone`.
    pub(crate) fn into_arc(self) -> std::sync::Arc<Message> {
        self.0
    }
}

impl std::ops::Deref for SharedMessage {
    type Target = Message;
    #[inline]
    fn deref(&self) -> &Message {
        &self.0
    }
}

impl From<Message> for SharedMessage {
    fn from(m: Message) -> Self {
        SharedMessage::new(m)
    }
}

impl From<&SharedMessage> for SharedMessage {
    fn from(m: &SharedMessage) -> Self {
        m.clone()
    }
}

/// The random draws one handler run made, in order, shared by every
/// observer (the step record, the trace, and the Scroll entry all hold
/// the *same* allocation — recording the draws is a reference-count
/// bump, not a `Vec` clone). The common case of a handler that draws
/// nothing is represented as `None`, so an empty `Randoms` costs no
/// allocation at all and the hot step loop stays allocation-free.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Randoms(Option<std::sync::Arc<Vec<u64>>>);

impl Randoms {
    /// The draw-free value (`const`, allocation-free).
    pub const EMPTY: Randoms = Randoms(None);

    /// The draws as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[u64] {
        self.0.as_deref().map_or(&[], |v| v.as_slice())
    }

    /// Seal a draw buffer the arena handed to a [`crate::Context`]
    /// (unique at this point; shared from here on). Empty buffers are
    /// not sealed — the caller recycles them instead.
    pub(crate) fn from_shell(shell: std::sync::Arc<Vec<u64>>) -> Self {
        debug_assert!(!shell.is_empty());
        Randoms(Some(shell))
    }

    /// Surrender the backing buffer to the arena's recycling check.
    pub(crate) fn into_shell(self) -> Option<std::sync::Arc<Vec<u64>>> {
        self.0
    }

    /// Do two handles share one allocation? (Both being empty counts:
    /// neither owns anything to duplicate.)
    pub fn ptr_eq(&self, other: &Randoms) -> bool {
        match (&self.0, &other.0) {
            (Some(a), Some(b)) => std::sync::Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        }
    }
}

impl std::ops::Deref for Randoms {
    type Target = [u64];
    #[inline]
    fn deref(&self) -> &[u64] {
        self.as_slice()
    }
}

impl From<Vec<u64>> for Randoms {
    fn from(v: Vec<u64>) -> Self {
        if v.is_empty() {
            Randoms(None)
        } else {
            Randoms(Some(v.into()))
        }
    }
}

impl<'a> IntoIterator for &'a Randoms {
    type Item = &'a u64;
    type IntoIter = std::slice::Iter<'a, u64>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// What kind of thing happened.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// A process's `on_start` handler ran.
    Start { pid: Pid },
    /// A message was delivered to its destination's `on_message` handler.
    Deliver { msg: SharedMessage },
    /// A message was dropped by the network or a fault (never delivered).
    Drop { msg: SharedMessage },
    /// A timer fired.
    TimerFire { pid: Pid, timer: TimerId },
    /// A process crashed (fault injection or self-crash).
    Crash { pid: Pid },
    /// A process was restarted by an external driver (e.g. the Healer).
    Restart { pid: Pid },
    /// A network partition changed.
    PartitionChange {
        partition: crate::network::Partition,
    },
}

impl EventKind {
    /// The process this event primarily concerns (destination for
    /// deliveries/drops).
    pub fn pid(&self) -> Option<Pid> {
        match self {
            EventKind::Start { pid }
            | EventKind::TimerFire { pid, .. }
            | EventKind::Crash { pid }
            | EventKind::Restart { pid } => Some(*pid),
            EventKind::Deliver { msg } | EventKind::Drop { msg } => Some(msg.dst),
            EventKind::PartitionChange { .. } => None,
        }
    }

    /// Whether executing this event runs application code (a handler).
    pub fn runs_handler(&self) -> bool {
        matches!(
            self,
            EventKind::Start { .. } | EventKind::Deliver { .. } | EventKind::TimerFire { .. }
        )
    }
}

/// A fully scheduled event: what happened, when, and in which global order.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Global sequence number (total order of execution in this run).
    pub seq: u64,
    /// Virtual time of execution.
    pub at: VTime,
    pub kind: EventKind,
}

/// Everything a single handler invocation did. Collected by
/// [`crate::Context`], applied by the world after the handler returns, and
/// recorded verbatim by the Scroll (these are exactly the "actions ... and
/// their outcome" of paper §3.1).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Effects {
    /// Messages sent (already stamped with id/vc/meta), in shared form:
    /// routing, the trace record, and the Scroll alias these handles.
    pub sends: Vec<SharedMessage>,
    /// Timers set: (id, fire-at absolute virtual time).
    pub timers_set: Vec<(TimerId, VTime)>,
    /// Timers cancelled.
    pub timers_cancelled: Vec<TimerId>,
    /// Random draws made by the handler, in order (shared; see
    /// [`Randoms`]).
    pub randoms: Randoms,
    /// Observable outputs emitted (shared buffers: the trace's output
    /// index aliases these instead of copying them).
    pub outputs: Vec<Payload>,
    /// The handler asked to crash its own process.
    pub crashed: bool,
}

impl Effects {
    /// True if the handler did nothing observable.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty()
            && self.timers_set.is_empty()
            && self.timers_cancelled.is_empty()
            && self.randoms.is_empty()
            && self.outputs.is_empty()
            && !self.crashed
    }

    /// Stable fingerprint of the effects, used to validate replay fidelity:
    /// a faithful replay must reproduce byte-identical effects.
    ///
    /// FNV-1a over the encoding `put_varint`/`put_u64s`/`put_bytes`
    /// would stage (send count and content fingerprints, timers set,
    /// randoms, outputs, crashed flag), hashed as it is produced — the
    /// Scroll calls this on every observed step, so nothing is staged.
    pub fn fingerprint(&self) -> u64 {
        use wire::fnv1a_varint as varint;
        let mut h = varint(wire::fnv1a(&[]), self.sends.len() as u64);
        for m in &self.sends {
            h = varint(h, m.content_fingerprint());
        }
        h = varint(h, self.timers_set.len() as u64);
        for (t, at) in &self.timers_set {
            h = varint(varint(h, t.0), *at);
        }
        let randoms = self.randoms.as_slice();
        h = randoms
            .iter()
            .fold(varint(h, randoms.len() as u64), |h, &r| varint(h, r));
        h = varint(h, self.outputs.len() as u64);
        for o in &self.outputs {
            h = fixd_store::fnv1a_extend(varint(h, o.len() as u64), o);
        }
        fixd_store::fnv1a_extend(h, &[u8::from(self.crashed)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(src: u32, dst: u32, tag: u16, payload: &[u8]) -> Message {
        Message {
            id: 1,
            src: Pid(src),
            dst: Pid(dst),
            tag,
            payload: payload.into(),
            sent_at: 0,
            vc: VectorClock::new(2),
            meta: MsgMeta::default(),
        }
    }

    #[test]
    fn content_fingerprint_ignores_id_and_time() {
        let a = msg(0, 1, 3, b"x");
        let mut b = a.clone();
        b.id = 99;
        b.sent_at = 123;
        assert_eq!(a.content_fingerprint(), b.content_fingerprint());
        let mut c = a.clone();
        c.payload = b"y".into();
        assert_ne!(a.content_fingerprint(), c.content_fingerprint());
    }

    /// The streamed fingerprint is the hash of the staged encoding —
    /// multi-byte varints (pid, tag, and a length over 127) included.
    #[test]
    fn content_fingerprint_matches_buffered_encoding() {
        let mut rng = crate::rng::DetRng::derive(0xF1D, 0);
        let lens = [0usize, 1, 127, 128, 300, 20_000];
        for case in 0..200 {
            let len = match lens.get(case) {
                Some(&l) => l,
                None => rng.below(400) as usize,
            };
            let payload: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let m = msg(
                (rng.next_u64() >> rng.below(64)) as u32,
                (rng.next_u64() >> rng.below(64)) as u32,
                (rng.next_u64() >> rng.below(64)) as u16,
                &payload,
            );
            let mut buf = Vec::new();
            wire::put_varint(&mut buf, u64::from(m.src.0));
            wire::put_varint(&mut buf, u64::from(m.dst.0));
            wire::put_varint(&mut buf, u64::from(m.tag));
            wire::put_bytes(&mut buf, &m.payload);
            assert_eq!(m.content_fingerprint(), wire::fnv1a(&buf), "case {case}");
        }
    }

    /// Same for a whole effects body: the streamed fingerprint equals
    /// the hash of the encoding it used to stage in a `Vec`.
    #[test]
    fn effects_fingerprint_matches_buffered_encoding() {
        let mut rng = crate::rng::DetRng::derive(0xEFF, 0);
        let bytes = |rng: &mut crate::rng::DetRng, len: usize| -> Vec<u8> {
            (0..len).map(|_| rng.next_u64() as u8).collect()
        };
        for case in 0..240 {
            // Cases 0..4 pin the corners; the rest draw 0/1/many of each.
            let many = |rng: &mut crate::rng::DetRng| match rng.below(3) {
                0 => 0,
                1 => 1,
                _ => 2 + rng.below(6) as usize,
            };
            let mut e = Effects::default();
            if case != 0 {
                for _ in 0..many(&mut rng) {
                    let len = rng.below(200) as usize;
                    let payload = bytes(&mut rng, len);
                    let (src, dst) = (rng.next_u64() as u32, rng.below(1 << 20) as u32);
                    e.sends.push(SharedMessage::new(msg(
                        src,
                        dst,
                        rng.next_u64() as u16,
                        &payload,
                    )));
                }
                for _ in 0..many(&mut rng) {
                    let at = rng.next_u64() >> rng.below(64);
                    e.timers_set.push((TimerId(rng.below(500)), at));
                }
                let draws: Vec<u64> = (0..many(&mut rng))
                    .map(|_| rng.next_u64() >> rng.below(64))
                    .collect();
                if !draws.is_empty() {
                    e.randoms = Randoms::from_shell(std::sync::Arc::new(draws));
                }
                for _ in 0..many(&mut rng) {
                    let len = match case {
                        1 => 0,
                        2 => 20_000,
                        _ => rng.below(300) as usize,
                    };
                    e.outputs.push(bytes(&mut rng, len).into());
                }
                e.crashed = case == 3 || rng.below(4) == 0;
            }
            let mut buf = Vec::new();
            wire::put_varint(&mut buf, e.sends.len() as u64);
            for m in &e.sends {
                wire::put_varint(&mut buf, m.content_fingerprint());
            }
            wire::put_varint(&mut buf, e.timers_set.len() as u64);
            for (t, at) in &e.timers_set {
                wire::put_varint(&mut buf, t.0);
                wire::put_varint(&mut buf, *at);
            }
            wire::put_u64s(&mut buf, e.randoms.as_slice());
            wire::put_varint(&mut buf, e.outputs.len() as u64);
            for o in &e.outputs {
                wire::put_bytes(&mut buf, o);
            }
            buf.push(u8::from(e.crashed));
            assert_eq!(e.fingerprint(), wire::fnv1a(&buf), "case {case}");
        }
    }

    #[test]
    fn message_clone_aliases_payload() {
        let a = msg(0, 1, 3, b"shared once, observed many times");
        let b = a.clone();
        assert!(
            a.payload.ptr_eq(&b.payload),
            "cloning a message must share the payload allocation"
        );
    }

    #[test]
    fn shared_message_clone_is_one_allocation() {
        let a = SharedMessage::new(msg(0, 1, 3, b"stamped once"));
        let b = a.clone();
        assert!(a.ptr_eq(&b), "clone bumps a refcount, nothing more");
        assert_eq!(a.strong_count(), 2);
        assert!(
            a.payload.ptr_eq(&b.payload),
            "one message, one payload buffer"
        );
        assert_eq!(a, b);
    }

    #[test]
    fn shared_message_to_mut_splits_when_shared() {
        let mut a = SharedMessage::new(msg(0, 1, 3, b"corrupt me"));
        let b = a.clone();
        a.to_mut().payload.to_mut()[0] ^= 0xFF;
        assert!(!a.ptr_eq(&b), "mutation split off a private message");
        assert_eq!(b.payload[0], b'c', "the shared original is untouched");
        assert_ne!(a.payload[0], b'c');
    }

    #[test]
    fn event_kind_pid_extraction() {
        let e = EventKind::Deliver {
            msg: msg(0, 1, 0, b"").into(),
        };
        assert_eq!(e.pid(), Some(Pid(1)));
        assert!(e.runs_handler());
        let c = EventKind::Crash { pid: Pid(2) };
        assert_eq!(c.pid(), Some(Pid(2)));
        assert!(!c.runs_handler());
    }

    #[test]
    fn effects_fingerprint_sensitive_to_all_fields() {
        let mut e = Effects::default();
        let base = e.fingerprint();
        assert!(e.is_empty());
        e.randoms = vec![7].into();
        assert_ne!(e.fingerprint(), base);
        assert!(!e.is_empty());
        let with_rand = e.fingerprint();
        e.crashed = true;
        assert_ne!(e.fingerprint(), with_rand);
    }

    #[test]
    fn effects_fingerprint_order_sensitive() {
        let m1 = msg(0, 1, 1, b"a");
        let m2 = msg(0, 1, 2, b"b");
        let e1 = Effects {
            sends: vec![m1.clone().into(), m2.clone().into()],
            ..Default::default()
        };
        let e2 = Effects {
            sends: vec![m2.into(), m1.into()],
            ..Default::default()
        };
        assert_ne!(e1.fingerprint(), e2.fingerprint());
    }
}
