//! The metric tables — the code-side twin of `BENCHMARK.json` (a test
//! keeps the two identical) — and the per-run value set.

use std::collections::BTreeMap;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// "higher" or "lower".
    pub better: &'static str,
    /// End-to-end only: share of the parent's median the metric may
    /// worsen by before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    e2e(name, unit, better, 0.0)
}

/// What a user of FixD sees, on every workload, measured with tracing
/// off through the real entry points. The unit of work behind
/// `ops_per_s` and the operation behind `op_us_*` are per workload; see
/// the README table.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("op_us_p50", "us", "lower", 0.25),
    e2e("op_us_p90", "us", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.15),
];

/// One layer each (layer = crate, named by the prefix), reported by a
/// `--trace 1` run. A metric a workload does not exercise reads 0: the
/// workload bypasses that layer.
pub const PER_LAYER: &[MetricDef] = &[
    layer("bench.cores", "count", "higher"),
    layer("bench.threads", "count", "higher"),
    layer("bench.shards", "count", "higher"),
    layer("bench.rounds", "count", "higher"),
    layer("bench.traced_rounds", "count", "higher"),
    layer("bench.ops_per_round", "count", "higher"),
    layer("bench.rate_samples", "count", "higher"),
    layer("bench.latency_samples", "count", "higher"),
    layer("runtime.step_ns", "ns", "lower"),
    layer("runtime.peek_ns", "ns", "lower"),
    layer("runtime.bare_step_ns", "ns", "lower"),
    layer("runtime.world_build_us", "us", "lower"),
    layer("runtime.snapshot_us", "us", "lower"),
    layer("runtime.allocs_per_step", "count", "lower"),
    layer("runtime.payload_copied_b_per_step", "B", "lower"),
    layer("runtime.payload_aliased_b_per_step", "B", "higher"),
    layer("runtime.queue_ring_push_frac", "ratio", "higher"),
    layer("runtime.delivered_per_step", "ratio", "higher"),
    layer("scroll.observe_ns", "ns", "lower"),
    layer("scroll.encode_mb_per_s", "MB/s", "higher"),
    layer("scroll.replay_steps_per_s", "1/s", "higher"),
    layer("scroll.replay_exact_frac", "ratio", "higher"),
    layer("scroll.readback_mb_per_s", "MB/s", "higher"),
    layer("scroll.entries", "count", "lower"),
    layer("scroll.resident_b_per_entry", "B", "lower"),
    layer("scroll.encoded_b_per_entry", "B", "lower"),
    layer("scroll.spilled_segments", "count", "lower"),
    layer("scroll.spilled_b", "B", "lower"),
    layer("timemachine.before_step_ns", "ns", "lower"),
    layer("timemachine.after_step_ns", "ns", "lower"),
    layer("timemachine.gc_us", "us", "lower"),
    layer("timemachine.gc_dropped_per_pass", "count", "higher"),
    layer("timemachine.gc_freed_b", "B", "higher"),
    layer("timemachine.choose_target_us", "us", "lower"),
    layer("timemachine.rollback_us", "us", "lower"),
    layer("timemachine.checkpoints", "count", "lower"),
    layer("timemachine.checkpoint_b_per_step", "B", "lower"),
    layer("timemachine.events_undone_per_rollback", "count", "lower"),
    layer("timemachine.msgs_replayed_per_rollback", "count", "lower"),
    layer("timemachine.line_breadth", "count", "lower"),
    layer("store.intern_hit_frac", "ratio", "higher"),
    layer("store.live_b", "B", "lower"),
    layer("store.deduped_b", "B", "higher"),
    layer("store.freed_b", "B", "higher"),
    layer("core.supervised_steps_per_s", "1/s", "higher"),
    layer("core.supervise_overhead_x", "ratio", "lower"),
    layer("core.resident_b_per_step", "B", "lower"),
    layer("core.monitor_ns", "ns", "lower"),
    layer("core.fixd_new_us", "us", "lower"),
    layer("core.detect_us_p50", "us", "lower"),
    layer("core.resume_us_p50", "us", "lower"),
    layer("core.assemble_us", "us", "lower"),
    layer("core.report_render_us", "us", "lower"),
    layer("core.report_us_p50", "us", "lower"),
    layer("core.report_us_p90", "us", "lower"),
    layer("core.report_us_p99", "us", "lower"),
    layer("core.heal_us_p50", "us", "lower"),
    layer("core.heal_us_p90", "us", "lower"),
    layer("core.detected_frac", "ratio", "higher"),
    layer("core.glue_ns", "ns", "lower"),
    layer("core.allocs_per_op", "count", "lower"),
    layer("investigator.investigate_us_p50", "us", "lower"),
    layer("investigator.investigate_us_p90", "us", "lower"),
    layer("investigator.states_per_diagnosis", "count", "lower"),
    layer("investigator.reproduced_frac", "ratio", "higher"),
    layer("investigator.serial_states_per_s", "1/s", "higher"),
    layer("investigator.frontier_w1_states_per_s", "1/s", "higher"),
    layer("investigator.frontier_w2_states_per_s", "1/s", "higher"),
    layer("investigator.transitions_per_state", "ratio", "lower"),
    layer("investigator.revisit_frac", "ratio", "lower"),
    layer("healer.update_us_p50", "us", "lower"),
    layer("healer.update_us_p90", "us", "lower"),
    layer("healer.salvaged_events_per_heal", "count", "higher"),
    layer("healer.discarded_events_per_heal", "count", "lower"),
    layer("healer.refused_frac", "ratio", "lower"),
    layer("campaign.cell_us_p50", "us", "lower"),
    layer("campaign.cell_us_p90", "us", "lower"),
    layer("campaign.steps_per_cell", "count", "lower"),
    layer("campaign.check_us", "us", "lower"),
    layer("campaign.driver_efficiency", "ratio", "higher"),
    layer("campaign.sharded_exec_ms", "ms", "lower"),
    layer("campaign.sharded_replay_ms", "ms", "lower"),
    layer("campaign.sharded_other_ms", "ms", "lower"),
    layer("campaign.serial_fallback_frac", "ratio", "lower"),
    layer("trace.coverage_frac", "ratio", "higher"),
    layer("trace.overhead_frac", "ratio", "lower"),
    layer("trace.spans", "count", "lower"),
];

pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// The values one run measured, keyed by metric name.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Record a value. Setting an unknown name, a name twice, or a
    /// non-finite value is a bug in the benchmark, so it panics.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(def(name).is_some(), "metric `{name}` is not in the tables");
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        let prev = self.values.insert(name, value);
        assert!(prev.is_none(), "metric `{name}` set twice");
    }

    /// `num / den`, or 0 when the layer saw no work.
    pub fn set_ratio(&mut self, name: &'static str, num: f64, den: f64) {
        self.set(name, if den == 0.0 { 0.0 } else { num / den });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` over `defs`, in table
    /// order. End-to-end metrics must all be present and non-zero;
    /// per-layer metrics default to 0 (layer bypassed).
    pub fn to_json(&self, defs: &[MetricDef], end_to_end: bool) -> String {
        let fields: Vec<String> = defs
            .iter()
            .map(|d| {
                let v = match self.get(d.name) {
                    Some(v) => v,
                    None if end_to_end => panic!("end-to-end metric `{}` was not measured", d.name),
                    None => 0.0,
                };
                assert!(
                    !end_to_end || v > 0.0,
                    "end-to-end metric `{}` is {v}",
                    d.name
                );
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}
