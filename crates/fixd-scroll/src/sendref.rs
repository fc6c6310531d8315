//! Send references: which recorded entry sent a delivered message.
//!
//! [`fixd_runtime::Context::send`] is the only place message ids are
//! minted. It mints them per sender, from 1, in send order, so a
//! message's `(src, id)` names its send: the sending entry is the first
//! entry of `src`'s scroll whose running total of
//! [`ScrollEntry::sends`] reaches `id`. A duplicated delivery reuses its
//! original's id and so names the same send. This needs the sender's
//! scroll recorded from its start, and nothing else: happens-before is
//! generated by per-process order plus send → receive, so every causal
//! question over a Scroll (the merge, its checks, consistent cuts, a
//! message-ancestry walk) is answered from these two relations.
//!
//! A message no recorded entry sent is exempt: the lookup returns
//! `None` for it. That is a message from a sender whose scroll records
//! fewer sends than its id, or one that no send minted — code that
//! builds a [`fixd_runtime::Message`] by hand (a test injecting mail)
//! marks it with [`UNMINTED`], an id no send ever carries.

use fixd_runtime::{Message, Pid};

use crate::entry::ScrollEntry;

/// The id of a message no [`fixd_runtime::Context::send`] minted (ids
/// start at 1): it has no sending entry.
pub const UNMINTED: u64 = 0;

/// Index of the entry whose running total of sends first reaches `id`,
/// given the running totals of one process's entries in order (`totals[k]`
/// is the sends of entries `0..=k`); `None` for [`UNMINTED`] or an id
/// beyond the last total.
fn sending_index(totals: &[u64], id: u64) -> Option<usize> {
    if id == UNMINTED {
        return None;
    }
    let k = totals.partition_point(|&t| t < id);
    (k < totals.len()).then_some(k)
}

/// The send references of a set of scrolls: per process, the running
/// total of sends after each of its entries.
#[derive(Debug)]
pub struct SendRefs {
    totals: Vec<Vec<u64>>,
}

impl SendRefs {
    /// Index `scrolls`, the scroll of pid `i` at position `i`, each in
    /// local order.
    pub fn new<'a>(scrolls: impl IntoIterator<Item = &'a [ScrollEntry]>) -> Self {
        let totals = scrolls
            .into_iter()
            .map(|scroll| {
                let mut sum = 0u64;
                scroll
                    .iter()
                    .map(|e| {
                        sum = sum.saturating_add(e.sends);
                        sum
                    })
                    .collect()
            })
            .collect();
        Self { totals }
    }

    /// The `(pid, local_seq)` of the entry that sent `msg`, if a
    /// recorded entry did.
    pub fn sender(&self, msg: &Message) -> Option<(Pid, u64)> {
        let totals = self.totals.get(msg.src.idx())?;
        sending_index(totals, msg.id).map(|k| (msg.src, k as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::EntryKind;

    fn entry(pid: u32, local_seq: u64, sends: u64, kind: EntryKind) -> ScrollEntry {
        ScrollEntry {
            pid: Pid(pid),
            local_seq,
            at: local_seq,
            kind,
            randoms: Default::default(),
            effects_fp: 0,
            sends,
        }
    }

    fn msg(src: u32, dst: u32, id: u64) -> Message {
        Message {
            id,
            src: Pid(src),
            dst: Pid(dst),
            tag: 0,
            payload: Default::default(),
            sent_at: 0,
            ckpt_index: 0,
        }
    }

    /// A hand-built Scroll: P0 starts without sending, sends three, sends
    /// nothing, then broadcasts to P1 and P2 (ids 4 and 5). P1 receives
    /// the first send twice (a duplicate), one broadcast copy, has the
    /// third send dropped, and receives mail from an unrecorded sender
    /// and an injected message.
    #[test]
    fn each_delivery_names_the_entry_that_sent_it() {
        let p0 = [
            entry(0, 0, 0, EntryKind::Start),
            entry(0, 1, 3, EntryKind::Start),
            entry(0, 2, 0, EntryKind::Start),
            entry(0, 3, 2, EntryKind::Start),
        ];
        let refs = SendRefs::new([&p0[..], &[], &[]]);
        let cases = [
            ("the first of three", msg(0, 1, 1), Some((Pid(0), 1))),
            ("a duplicate reuses its id", msg(0, 1, 1), Some((Pid(0), 1))),
            (
                "the last of three, dropped",
                msg(0, 1, 3),
                Some((Pid(0), 1)),
            ),
            ("a broadcast copy", msg(0, 2, 4), Some((Pid(0), 3))),
            ("the other broadcast copy", msg(0, 1, 5), Some((Pid(0), 3))),
            ("more sends than recorded", msg(0, 1, 6), None),
            ("an unrecorded sender", msg(1, 2, 1), None),
            ("a sender beyond the store", msg(7, 1, 1), None),
            ("an injected message", msg(0, 1, UNMINTED), None),
        ];
        for (what, m, want) in cases {
            assert_eq!(refs.sender(&m), want, "{what}");
        }
        // The recorded kinds that carry a message resolve alike.
        let dropped = EntryKind::DroppedMail {
            msg: msg(0, 1, 3).into(),
        };
        let EntryKind::DroppedMail { msg: m } = &dropped else {
            unreachable!()
        };
        assert_eq!(refs.sender(m), Some((Pid(0), 1)));
        // Running totals 0, 3, 3, 5: an id is sent by the first entry
        // whose total reaches it.
        let totals = [0, 3, 3, 5];
        let got: Vec<_> = (0..7).map(|id| sending_index(&totals, id)).collect();
        assert_eq!(
            got,
            [None, Some(1), Some(1), Some(1), Some(3), Some(3), None]
        );
    }
}
