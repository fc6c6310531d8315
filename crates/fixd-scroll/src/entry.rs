//! Scroll entries: the recorded nondeterministic actions and their
//! outcomes (paper §3.1).

use fixd_runtime::{Payload, Pid, Randoms, SharedMessage, TimerId, VTime};

/// What kind of nondeterministic action an entry records.
#[derive(Clone, Debug, PartialEq)]
pub enum EntryKind {
    /// The process's `on_start` ran.
    Start,
    /// A message arrived and `on_message` ran. The message is the
    /// recorded *outcome* needed for black-box replay: payload, ids,
    /// times and checkpoint index. Its `(src, id)` is its send reference
    /// ([`crate::sendref`]). A recorded entry holds the *same* shared
    /// handle the runtime delivered — recording is a reference-count
    /// bump.
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
    /// The action itself.
    pub kind: EntryKind,
    /// Random draws the handler made, in order (recorded outcomes of the
    /// process's internal nondeterminism). Shared with the runtime's
    /// step record — recording them is a reference-count bump.
    pub randoms: Randoms,
    /// Fingerprint of the handler's full [`fixd_runtime::Effects`];
    /// replay must reproduce it exactly.
    pub effects_fp: u64,
    /// Number of messages the handler sent. Load-bearing: the running
    /// total of a process's `sends` is what a message's send reference
    /// resolves against ([`crate::sendref`]), so causality — the merge,
    /// its checks, consistent cuts — is read from it.
    pub sends: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixd_runtime::Message;

    fn entry(kind: EntryKind) -> ScrollEntry {
        ScrollEntry {
            pid: Pid(0),
            local_seq: 0,
            at: 0,
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
            ckpt_index: 1,
        }
    }

    fn deliver(m: Message) -> EntryKind {
        EntryKind::Deliver { msg: m.into() }
    }

    /// A resident entry equals its decoded copy: the Scroll writes every
    /// field of it.
    #[test]
    fn an_entry_equals_its_decoded_copy() {
        for kind in [
            deliver(message()),
            EntryKind::DroppedMail {
                msg: message().into(),
            },
        ] {
            let e = ScrollEntry {
                sends: 2,
                ..entry(kind)
            };
            let mut buf = Vec::new();
            crate::codec::encode_entry(&mut buf, &e);
            let back = crate::codec::decode_entry(&buf, &mut 0).unwrap();
            assert_eq!(back, e);
        }
    }

    /// Every field the Scroll writes tells two messages apart.
    #[test]
    fn message_equality_is_over_the_written_fields() {
        let base = message();
        let written: [fn(&mut Message); 7] = [
            |m| m.id += 1,
            |m| m.src = Pid(3),
            |m| m.dst = Pid(2),
            |m| m.tag += 1,
            |m| m.payload = b"abd".into(),
            |m| m.sent_at += 1,
            |m| m.ckpt_index += 1,
        ];
        for (i, change) in written.iter().enumerate() {
            let mut m = base.clone();
            change(&mut m);
            assert_ne!(deliver(m.clone()), deliver(base.clone()), "field {i}");
            let dropped = |m: Message| EntryKind::DroppedMail { msg: m.into() };
            assert_ne!(dropped(m), dropped(base.clone()), "field {i}");
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
        assert_eq!(size_of::<Message>(), 72);
        assert_eq!(size_of::<fixd_runtime::ProcContext>(), 72);
        assert_eq!(size_of::<ScrollEntry>(), 64);
    }
}
