//! `printf` debugging, faithfully inefficient.
//!
//! The paper's introduction positions FixD as "a substitute for the
//! traditional printf logging and debugging mechanisms used extensively
//! during the final stages of development". This comparator is that
//! mechanism: format a human-readable line for *every* event and keep
//! them all. Experiment F1 compares its cost and size against the
//! Scroll's record-only-nondeterminism discipline.

use fixd_runtime::{EventKind, StepRecord};

/// Collects formatted log lines for every event.
#[derive(Clone, Debug, Default)]
pub struct PrintfLogger {
    lines: Vec<String>,
    bytes: usize,
}

impl PrintfLogger {
    /// An empty logger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Log one step, the way an `eprintln!` in every handler would.
    pub fn observe(&mut self, step: &StepRecord) {
        let line = match &step.event.kind {
            EventKind::Start { pid } => {
                format!(
                    "[t={} seq={}] {pid}: started",
                    step.event.at, step.event.seq
                )
            }
            EventKind::Deliver { msg } => format!(
                "[t={} seq={}] {}: received tag={} ({} bytes) from {} (msg {}, sent t={})",
                step.event.at,
                step.event.seq,
                msg.dst,
                msg.tag,
                msg.payload.len(),
                msg.src,
                msg.id,
                msg.sent_at,
            ),
            EventKind::Drop { msg } => format!(
                "[t={} seq={}] network: DROPPED {}→{} tag={}",
                step.event.at, step.event.seq, msg.src, msg.dst, msg.tag
            ),
            EventKind::TimerFire { pid, timer } => format!(
                "[t={} seq={}] {pid}: timer {} fired",
                step.event.at, step.event.seq, timer.0
            ),
            EventKind::Crash { pid } => {
                format!(
                    "[t={} seq={}] {pid}: CRASHED",
                    step.event.at, step.event.seq
                )
            }
            EventKind::Restart { pid } => {
                format!(
                    "[t={} seq={}] {pid}: restarted",
                    step.event.at, step.event.seq
                )
            }
            EventKind::PartitionChange { .. } => {
                format!(
                    "[t={} seq={}] network: partition changed",
                    step.event.at, step.event.seq
                )
            }
        };
        // Also "print" every effect, as chatty handlers do.
        self.push(line);
        for m in &step.effects.sends {
            self.push(format!(
                "[t={}] {}: sending tag={} ({} bytes) to {}",
                step.event.at,
                m.src,
                m.tag,
                m.payload.len(),
                m.dst
            ));
        }
        for r in &step.effects.randoms {
            self.push(format!("[t={}] rng -> {r}", step.event.at));
        }
    }

    fn push(&mut self, line: String) {
        self.bytes += line.len() + 1;
        self.lines.push(line);
    }

    /// Number of log lines.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// True if nothing was logged.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Total log size in bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The raw lines.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// Naive grep — the only query tool printf debugging has.
    pub fn grep(&self, needle: &str) -> Vec<&String> {
        self.lines.iter().filter(|l| l.contains(needle)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixd_runtime::{Context, Pid, Program, World, WorldConfig};

    #[derive(Clone)]
    struct Chat;
    impl Program for Chat {
        fn on_start(&mut self, ctx: &mut Context) {
            if ctx.pid() == Pid(0) {
                ctx.send(Pid(1), 1, vec![2]);
            }
        }
        fn on_message(&mut self, ctx: &mut Context, msg: &fixd_runtime::Message) {
            let _ = ctx.random();
            if msg.payload[0] > 0 {
                ctx.send(msg.src, 1, vec![msg.payload[0] - 1]);
            }
        }
        fn snapshot(&self) -> Vec<u8> {
            vec![]
        }
        fn restore(&mut self, _b: &[u8]) {}
    }

    #[test]
    fn logs_every_event_and_effect() {
        let mut w = World::new(WorldConfig::seeded(1));
        w.add_process(Box::new(Chat));
        w.add_process(Box::new(Chat));
        let mut log = PrintfLogger::new();
        while let Some(step) = w.step() {
            log.observe(&step);
        }
        // 2 starts + 3 deliveries, plus send lines and rng lines.
        assert!(log.len() > 5);
        assert!(log.bytes() > 100);
        assert_eq!(log.grep("started").len(), 2);
        assert_eq!(log.grep("received").len(), 3);
        assert_eq!(log.grep("rng ->").len(), 3);
        assert!(!log.is_empty());
    }

    #[test]
    fn printf_is_bulkier_than_the_scroll() {
        // Same run, both mechanisms: printf must cost more bytes.
        let build = || {
            let mut w = World::new(WorldConfig::seeded(1));
            w.add_process(Box::new(Chat));
            w.add_process(Box::new(Chat));
            w
        };
        let mut w1 = build();
        let mut log = PrintfLogger::new();
        while let Some(step) = w1.step() {
            log.observe(&step);
        }
        let mut w2 = build();
        let (store, _) =
            fixd_scroll::record::record_run(&mut w2, fixd_scroll::RecordConfig::default(), 1_000);
        assert!(
            log.bytes() > store.encoded_size(),
            "printf {}B vs scroll {}B",
            log.bytes(),
            store.encoded_size()
        );
    }
}
