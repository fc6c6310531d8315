//! Scroll entries: the recorded nondeterministic actions and their
//! outcomes (paper §3.1).

use fixd_runtime::{Message, Payload, Pid, Randoms, SharedMessage, TimerId, VTime, VectorClock};

/// What kind of nondeterministic action an entry records.
///
/// Equality is over what the Scroll writes ([`crate::codec`]): two
/// messages are equal when every field is, except that their clocks need
/// only agree on the sender's component — the one part of a message's
/// clock the Scroll keeps. So an entry equals its decoded copy.
#[derive(Clone, Debug)]
pub enum EntryKind {
    /// The process's `on_start` ran.
    Start,
    /// A message arrived and `on_message` ran. The message is the
    /// recorded *outcome* needed for black-box replay: payload, ids,
    /// times and checkpoint index, and of its clock the sender's own component
    /// (the rest is not needed: replay restores the receiver's clock
    /// from the entry's [`ScrollEntry::vc`]). A recorded entry holds
    /// the *same* shared handle the runtime delivered — recording is a
    /// reference-count bump — so the sender's whole clock stays in it
    /// until the entry is sealed; a decoded entry holds the one
    /// component.
    Deliver { msg: SharedMessage },
    /// A timer fired and `on_timer` ran.
    TimerFire { timer: TimerId },
    /// The process crashed.
    Crash,
    /// The process was rolled back / restarted by a driver.
    Restart,
    /// A message destined to this process was dropped (recorded only when
    /// [`crate::RecordConfig::record_drops`] is set; diagnostic, not
    /// needed for replay).
    DroppedMail { msg: SharedMessage },
}

impl PartialEq for EntryKind {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (EntryKind::Start, EntryKind::Start)
            | (EntryKind::Crash, EntryKind::Crash)
            | (EntryKind::Restart, EntryKind::Restart) => true,
            (EntryKind::TimerFire { timer: a }, EntryKind::TimerFire { timer: b }) => a == b,
            (EntryKind::Deliver { msg: a }, EntryKind::Deliver { msg: b })
            | (EntryKind::DroppedMail { msg: a }, EntryKind::DroppedMail { msg: b }) => {
                written_eq(a, b)
            }
            _ => false,
        }
    }
}

/// `a` and `b` agree on every field the Scroll writes: all of them, the
/// clock on the sender's component only.
fn written_eq(a: &Message, b: &Message) -> bool {
    // Destructured whole, so a new message field must be placed here.
    let Message {
        id,
        src,
        dst,
        tag,
        payload,
        sent_at,
        vc,
        ckpt_index,
    } = a;
    (*id, *src, *dst, *tag, *sent_at, *ckpt_index)
        == (b.id, b.src, b.dst, b.tag, b.sent_at, b.ckpt_index)
        && *payload == b.payload
        && vc.get(*src) == b.vc.get(b.src)
}

impl EntryKind {
    /// Entries that drive a handler during replay.
    pub fn is_replayable(&self) -> bool {
        matches!(
            self,
            EntryKind::Start | EntryKind::Deliver { .. } | EntryKind::TimerFire { .. }
        )
    }

    /// The recorded message's payload, if this entry carries one. The
    /// returned handle aliases the buffer the runtime delivered — the
    /// Scroll records messages without copying their bytes.
    pub fn payload(&self) -> Option<&Payload> {
        match self {
            EntryKind::Deliver { msg } | EntryKind::DroppedMail { msg } => Some(&msg.payload),
            _ => None,
        }
    }

    /// Numeric tag for the codec.
    pub(crate) fn tag(&self) -> u8 {
        match self {
            EntryKind::Start => 0,
            EntryKind::Deliver { .. } => 1,
            EntryKind::TimerFire { .. } => 2,
            EntryKind::Crash => 3,
            EntryKind::Restart => 4,
            EntryKind::DroppedMail { .. } => 5,
        }
    }
}

/// One recorded nondeterministic action of one process.
#[derive(Clone, Debug, PartialEq)]
pub struct ScrollEntry {
    /// Which process this entry belongs to.
    pub pid: Pid,
    /// Position in that process's scroll (0-based, dense).
    pub local_seq: u64,
    /// Virtual time of the action.
    pub at: VTime,
    /// The process's vector clock *after* the action — the causality key
    /// the merge orders by and is validated against, and consistent cuts
    /// read.
    pub vc: VectorClock,
    /// The action itself.
    pub kind: EntryKind,
    /// Random draws the handler made, in order (recorded outcomes of the
    /// process's internal nondeterminism). Shared with the runtime's
    /// step record — recording them is a reference-count bump.
    pub randoms: Randoms,
    /// Fingerprint of the handler's full [`fixd_runtime::Effects`];
    /// replay must reproduce it exactly.
    pub effects_fp: u64,
    /// Number of messages the handler sent (cheap stat used by F1).
    pub sends: u64,
}

impl ScrollEntry {
    /// Is this entry's action causally no later than `other`'s?
    pub fn causally_leq(&self, other: &ScrollEntry) -> bool {
        self.vc.leq(&other.vc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(kind: EntryKind) -> ScrollEntry {
        ScrollEntry {
            pid: Pid(0),
            local_seq: 0,
            at: 0,
            vc: VectorClock::new(2),
            kind,
            randoms: Randoms::EMPTY,
            effects_fp: 0,
            sends: 0,
        }
    }

    #[test]
    fn replayable_classification() {
        assert!(entry(EntryKind::Start).kind.is_replayable());
        assert!(entry(EntryKind::TimerFire { timer: TimerId(1) })
            .kind
            .is_replayable());
        assert!(!entry(EntryKind::Crash).kind.is_replayable());
        assert!(!entry(EntryKind::Restart).kind.is_replayable());
    }

    #[test]
    fn tags_are_distinct() {
        let kinds = [
            EntryKind::Start,
            EntryKind::Crash,
            EntryKind::Restart,
            EntryKind::TimerFire { timer: TimerId(0) },
        ];
        let mut tags: Vec<u8> = kinds.iter().map(|k| k.tag()).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), kinds.len());
    }

    fn message() -> Message {
        Message {
            id: 7,
            src: Pid(1),
            dst: Pid(0),
            tag: 3,
            payload: b"abc".into(),
            sent_at: 40,
            vc: VectorClock::from_vec(vec![2, 5, 0, 9]),
            ckpt_index: 1,
        }
    }

    fn deliver(m: Message) -> EntryKind {
        EntryKind::Deliver { msg: m.into() }
    }

    /// A resident entry, its sender's whole clock in its message, equals
    /// its decoded copy, which keeps one component of that clock.
    #[test]
    fn an_entry_equals_its_decoded_copy() {
        let zero = VectorClock::ZERO;
        for kind in [
            deliver(message()),
            EntryKind::DroppedMail {
                msg: message().into(),
            },
        ] {
            let e = ScrollEntry {
                vc: VectorClock::from_vec(vec![2, 5, 1, 9]),
                ..entry(kind)
            };
            let mut buf = Vec::new();
            crate::codec::encode_entry(&mut buf, &e, &zero);
            let back = crate::codec::decode_entry(&buf, &mut 0, &zero).unwrap();
            let (EntryKind::Deliver { msg } | EntryKind::DroppedMail { msg }) = &back.kind else {
                panic!("{:?} decoded as another kind", e.kind);
            };
            assert_eq!(msg.vc, VectorClock::single(Pid(1), 5), "one component");
            assert_eq!(back, e);
        }
    }

    /// Every field the Scroll writes tells two messages apart; the
    /// clock's other components do not.
    #[test]
    fn message_equality_is_over_the_written_fields() {
        let base = message();
        let written: [fn(&mut Message); 8] = [
            |m| m.id += 1,
            |m| m.src = Pid(3),
            |m| m.dst = Pid(2),
            |m| m.tag += 1,
            |m| m.payload = b"abd".into(),
            |m| m.sent_at += 1,
            |m| {
                m.vc.tick(Pid(1));
            },
            |m| m.ckpt_index += 1,
        ];
        for (i, change) in written.iter().enumerate() {
            let mut m = base.clone();
            change(&mut m);
            assert_ne!(deliver(m.clone()), deliver(base.clone()), "field {i}");
            let dropped = |m: Message| EntryKind::DroppedMail { msg: m.into() };
            assert_ne!(dropped(m), dropped(base.clone()), "field {i}");
        }
        let unwritten: [fn(&mut Message); 3] = [
            |m| {
                m.vc.tick(Pid(0));
            },
            |m| {
                m.vc.tick(Pid(70));
            },
            |m| m.vc = VectorClock::single(Pid(1), 5),
        ];
        for (i, change) in unwritten.iter().enumerate() {
            let mut m = base.clone();
            change(&mut m);
            assert_eq!(deliver(m), deliver(base.clone()), "clock change {i}");
        }
        // The kind and the timer id are written too.
        let dropped = EntryKind::DroppedMail {
            msg: base.clone().into(),
        };
        assert_ne!(deliver(base), dropped);
        assert_ne!(
            EntryKind::TimerFire { timer: TimerId(1) },
            EntryKind::TimerFire { timer: TimerId(2) }
        );
        assert_ne!(EntryKind::Crash, EntryKind::Restart);
    }

    /// What every message, process context and Scroll entry carries, in
    /// bytes on a 64-bit target: a field added to one of them fails here
    /// rather than showing up as unexplained resident memory.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn carried_structs_keep_their_sizes() {
        use std::mem::size_of;
        assert_eq!(size_of::<Message>(), 112);
        assert_eq!(size_of::<fixd_runtime::ProcContext>(), 112);
        assert_eq!(size_of::<ScrollEntry>(), 104);
    }

    #[test]
    fn causal_ordering_via_vc() {
        let mut a = entry(EntryKind::Start);
        let mut b = entry(EntryKind::Start);
        a.vc = VectorClock::from_vec(vec![1, 0]);
        b.vc = VectorClock::from_vec(vec![1, 1]);
        assert!(a.causally_leq(&b));
        assert!(!b.causally_leq(&a));
    }
}
