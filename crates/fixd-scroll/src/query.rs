//! Trace queries over merged scrolls — the "execution path
//! investigation" interface of Fig. 1.

use fixd_runtime::{Pid, VTime};

use crate::entry::{EntryKind, ScrollEntry};

/// A fluent filter over a merged (or per-process) entry slice.
///
/// ```
/// # use fixd_runtime::Pid;
/// # use fixd_scroll::{EntryKind, ScrollEntry, ScrollQuery};
/// # let entry = |pid: u32, at: u64| ScrollEntry {
/// #     pid: Pid(pid), local_seq: 0, at,
/// #     kind: EntryKind::Start, randoms: Default::default(), effects_fp: 0, sends: 0,
/// # };
/// # let merged = vec![entry(1, 50), entry(2, 120), entry(2, 700)];
/// let p2_early = ScrollQuery::new(&merged)
///     .pid(Pid(2))
///     .between(100, 500)
///     .collect();
/// assert_eq!(p2_early.len(), 1);
/// ```
#[derive(Clone)]
pub struct ScrollQuery<'a> {
    entries: Vec<&'a ScrollEntry>,
}

impl<'a> ScrollQuery<'a> {
    /// Start a query over `entries`.
    pub fn new(entries: &'a [ScrollEntry]) -> Self {
        Self {
            entries: entries.iter().collect(),
        }
    }

    /// Keep only entries of process `p`.
    pub fn pid(mut self, p: Pid) -> Self {
        self.entries.retain(|e| e.pid == p);
        self
    }

    /// Keep only deliveries.
    pub fn deliveries(mut self) -> Self {
        self.entries
            .retain(|e| matches!(e.kind, EntryKind::Deliver { .. }));
        self
    }

    /// Keep only deliveries whose message carries `tag`.
    pub fn tag(mut self, tag: u16) -> Self {
        self.entries.retain(|e| match &e.kind {
            EntryKind::Deliver { msg } | EntryKind::DroppedMail { msg } => msg.tag == tag,
            _ => false,
        });
        self
    }

    /// Keep only deliveries sent by `src`.
    pub fn from(mut self, src: Pid) -> Self {
        self.entries.retain(|e| match &e.kind {
            EntryKind::Deliver { msg } | EntryKind::DroppedMail { msg } => msg.src == src,
            _ => false,
        });
        self
    }

    /// Keep only entries in the virtual-time window `[start, end)`.
    pub fn between(mut self, start: VTime, end: VTime) -> Self {
        self.entries.retain(|e| (start..end).contains(&e.at));
        self
    }

    /// Keep only entries whose handler crashed the process or that record
    /// a crash.
    pub fn crashes(mut self) -> Self {
        self.entries.retain(|e| matches!(e.kind, EntryKind::Crash));
        self
    }

    /// Keep entries matching an arbitrary predicate.
    pub fn filter(mut self, pred: impl Fn(&ScrollEntry) -> bool) -> Self {
        self.entries.retain(|e| pred(e));
        self
    }

    /// Materialize the result.
    pub fn collect(self) -> Vec<&'a ScrollEntry> {
        self.entries
    }

    /// Count without materializing.
    pub fn count(self) -> usize {
        self.entries.len()
    }

    /// First match.
    pub fn first(self) -> Option<&'a ScrollEntry> {
        self.entries.into_iter().next()
    }

    /// Render the result as a human-readable listing (for bug reports).
    pub fn render(self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for e in self.entries {
            let desc = match &e.kind {
                EntryKind::Start => "start".to_string(),
                EntryKind::Deliver { msg } => format!(
                    "recv {}→{} tag={} {}B",
                    msg.src,
                    msg.dst,
                    msg.tag,
                    msg.payload.len()
                ),
                EntryKind::TimerFire { timer } => format!("timer {}", timer.0),
                EntryKind::Crash => "CRASH".to_string(),
                EntryKind::Restart => "restart".to_string(),
                EntryKind::DroppedMail { msg } => {
                    format!("DROPPED {}→{} tag={}", msg.src, msg.dst, msg.tag)
                }
            };
            let _ = writeln!(s, "[{} #{:<4} t={:<6}] {desc}", e.pid, e.local_seq, e.at);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixd_runtime::{Message, TimerId};

    fn mk(pid: u32, seq: u64, at: VTime, kind: EntryKind) -> ScrollEntry {
        ScrollEntry {
            pid: Pid(pid),
            local_seq: seq,
            at,
            kind,
            randoms: vec![].into(),
            effects_fp: 0,
            sends: 0,
        }
    }

    fn msg(src: u32, dst: u32, tag: u16) -> Message {
        Message {
            id: 0,
            src: Pid(src),
            dst: Pid(dst),
            tag,
            payload: vec![].into(),
            sent_at: 0,
            ckpt_index: 0,
        }
    }

    fn sample() -> Vec<ScrollEntry> {
        vec![
            mk(0, 0, 0, EntryKind::Start),
            mk(1, 0, 0, EntryKind::Start),
            mk(
                1,
                1,
                10,
                EntryKind::Deliver {
                    msg: msg(0, 1, 7).into(),
                },
            ),
            mk(
                1,
                2,
                20,
                EntryKind::Deliver {
                    msg: msg(2, 1, 8).into(),
                },
            ),
            mk(0, 1, 25, EntryKind::TimerFire { timer: TimerId(1) }),
            mk(1, 3, 30, EntryKind::Crash),
        ]
    }

    #[test]
    fn pid_and_kind_filters() {
        let s = sample();
        assert_eq!(ScrollQuery::new(&s).pid(Pid(1)).count(), 4);
        assert_eq!(ScrollQuery::new(&s).deliveries().count(), 2);
        assert_eq!(ScrollQuery::new(&s).crashes().count(), 1);
    }

    #[test]
    fn tag_and_src_filters() {
        let s = sample();
        assert_eq!(ScrollQuery::new(&s).tag(7).count(), 1);
        assert_eq!(ScrollQuery::new(&s).from(Pid(2)).count(), 1);
        assert_eq!(ScrollQuery::new(&s).from(Pid(2)).tag(7).count(), 0);
    }

    #[test]
    fn time_window_half_open() {
        let s = sample();
        assert_eq!(ScrollQuery::new(&s).between(10, 30).count(), 3);
        assert_eq!(ScrollQuery::new(&s).between(0, 1).count(), 2);
    }

    #[test]
    fn first_and_custom_filter() {
        let s = sample();
        let first_deliver = ScrollQuery::new(&s).deliveries().first().unwrap();
        assert_eq!(first_deliver.local_seq, 1);
        let heavy = ScrollQuery::new(&s).filter(|e| e.local_seq >= 2).count();
        assert_eq!(heavy, 2);
    }

    #[test]
    fn render_lists_each_entry() {
        let s = sample();
        let text = ScrollQuery::new(&s).render();
        assert_eq!(text.lines().count(), 6);
        assert!(text.contains("CRASH"));
        assert!(text.contains("recv P0→P1 tag=7"));
    }
}
