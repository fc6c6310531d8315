//! Bug reports — the "bug reporting" of the paper's title.
//!
//! A report is what FixD hands the programmer after a fault: what fired,
//! where the system was rolled back to, what the Investigator found, the
//! relevant Scroll excerpt, and the trails that reproduce the violation.
//! It replaces "the traditional printf logging and debugging mechanisms"
//! (§1) with a structured artifact.

use fixd_investigator::{ExploreReport, ModelAction, Trail};
use fixd_runtime::VTime;

use crate::detector::DetectedFault;

/// A structured bug report.
#[derive(Clone, Debug)]
pub struct BugReport {
    /// The detected fault.
    pub fault: DetectedFault,
    /// Recovery line applied before investigation (checkpoint index per
    /// process; `u64::MAX` = not rolled back).
    pub recovery_line: Vec<u64>,
    /// Virtual time at which the report was produced.
    pub produced_at: VTime,
    /// Investigator statistics.
    pub states_explored: usize,
    pub transitions: u64,
    pub truncated: bool,
    /// Trails that lead to invariant violations (stringified actions, so
    /// the report is self-contained).
    pub trails: Vec<Trail<String>>,
    /// Deadlock trails, if any.
    pub deadlocks: Vec<Trail<String>>,
    /// Last ten records of the runtime trace: the steps up to detection,
    /// then any restart marks of the rollback run before it was rendered.
    pub trace_tail: String,
    /// Scroll excerpt for the implicated process.
    pub scroll_excerpt: String,
    /// Fingerprint of the assembled global checkpoint investigated.
    pub checkpoint_fingerprint: u64,
}

impl BugReport {
    /// Build from the pieces the session gathered.
    pub fn assemble(
        fault: DetectedFault,
        recovery_line: Vec<u64>,
        produced_at: VTime,
        explore: &ExploreReport<ModelAction>,
        trace_tail: String,
        scroll_excerpt: String,
        checkpoint_fingerprint: u64,
    ) -> Self {
        let stringify = |t: &Trail<ModelAction>| t.clone().map_labels(|l| l.describe());
        Self {
            fault,
            recovery_line,
            produced_at,
            states_explored: explore.states,
            transitions: explore.transitions,
            truncated: explore.truncated,
            trails: explore.violations.iter().map(stringify).collect(),
            deadlocks: explore.deadlocks.iter().map(stringify).collect(),
            trace_tail,
            scroll_excerpt,
            checkpoint_fingerprint,
        }
    }

    /// Did the investigation confirm the fault is reachable from the
    /// restored checkpoint?
    pub fn reproduced(&self) -> bool {
        !self.trails.is_empty()
    }

    /// Render the report as human-readable text.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "==================== FixD BUG REPORT ===================="
        );
        let _ = writeln!(
            s,
            "fault     : invariant `{}` violated{} at t={} (after {} events)",
            self.fault.monitor,
            self.fault
                .pid
                .map(|p| format!(" at {p}"))
                .unwrap_or_else(|| " (global)".to_string()),
            self.fault.at,
            self.fault.after_steps
        );
        let line: Vec<String> = self
            .recovery_line
            .iter()
            .map(|&l| {
                if l == u64::MAX {
                    "-".into()
                } else {
                    l.to_string()
                }
            })
            .collect();
        let _ = writeln!(s, "rollback  : recovery line [{}]", line.join(" "));
        let _ = writeln!(
            s,
            "invest.   : {} states, {} transitions{} from checkpoint {:016x}",
            self.states_explored,
            self.transitions,
            if self.truncated { " (truncated)" } else { "" },
            self.checkpoint_fingerprint
        );
        let _ = writeln!(
            s,
            "verdict   : {} violating trail(s), {} deadlock(s){}",
            self.trails.len(),
            self.deadlocks.len(),
            if self.reproduced() {
                " — fault REPRODUCED from checkpoint"
            } else {
                ""
            }
        );
        for (i, t) in self.trails.iter().enumerate() {
            let _ = writeln!(s, "---- trail #{} ----", i + 1);
            let _ = write!(s, "{}", t.render(|l| l.clone()));
        }
        if !self.scroll_excerpt.is_empty() {
            let _ = writeln!(s, "---- scroll (implicated process) ----");
            let _ = write!(s, "{}", self.scroll_excerpt);
        }
        if !self.trace_tail.is_empty() {
            let _ = writeln!(s, "---- trace tail ----");
            let _ = write!(s, "{}", self.trace_tail);
        }
        let _ = writeln!(
            s,
            "========================================================="
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixd_runtime::Pid;

    fn fault() -> DetectedFault {
        DetectedFault {
            monitor: "inv".into(),
            pid: Some(Pid(1)),
            at: 42,
            after_steps: 10,
        }
    }

    fn sample_report(trails: Vec<Trail<String>>) -> BugReport {
        BugReport {
            fault: fault(),
            recovery_line: vec![u64::MAX, 3],
            produced_at: 50,
            states_explored: 100,
            transitions: 250,
            truncated: false,
            trails,
            deadlocks: vec![],
            trace_tail: "#1 t=1 ...\n".into(),
            scroll_excerpt: "[P1 #0 t=0] start\n".into(),
            checkpoint_fingerprint: 0xabcd,
        }
    }

    #[test]
    fn render_contains_key_facts() {
        let t = Trail {
            labels: vec!["deliver P0→P1".to_string()],
            violation: "inv".into(),
            end_fingerprint: 1,
            depth: 1,
        };
        let r = sample_report(vec![t]);
        assert!(r.reproduced());
        let text = r.render();
        assert!(text.contains("invariant `inv` violated at P1"));
        assert!(text.contains("recovery line [- 3]"));
        assert!(text.contains("100 states"));
        assert!(text.contains("REPRODUCED"));
        assert!(text.contains("deliver P0→P1"));
        assert!(text.contains("scroll"));
    }

    #[test]
    fn unreproduced_report_says_so() {
        let r = sample_report(vec![]);
        assert!(!r.reproduced());
        assert!(!r.render().contains("REPRODUCED"));
    }
}
