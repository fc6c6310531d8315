//! In-memory span tracing around the calls into each layer, plus the
//! counting allocator behind the `allocs_*` figures.
//!
//! A span is (name, start, end, parent, op id); the op is one world,
//! one heal loop or one campaign cell. Spans are kept in memory,
//! aggregated per name, and written out — aggregates first, then the
//! first [`RAW_CAP`] raw spans — when the traced run ends. A span's
//! self time is its duration minus the time its children cover.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Raw spans kept per traced run; later spans only feed the aggregates.
pub const RAW_CAP: usize = 100_000;

/// Forwards to the system allocator, counting allocations per thread
/// while armed (traced runs only — untraced runs pay one relaxed load).
pub struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);

thread_local! {
    // `const` initialisation: no lazy-init allocation and no destructor,
    // so the allocator can touch it at any point of a thread's life.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a plain
// thread-local integer that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn count() {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.with(|c| c.set(c.get() + 1));
    }
}

/// Start counting allocations (process-wide switch, per-thread counts).
pub fn arm_alloc_counter() {
    ARMED.store(true, Ordering::Relaxed);
}

/// Allocations this thread made while the counter was armed.
pub fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

macro_rules! span_names {
    ($($variant:ident => $text:literal, $kind:ident;)*) => {
        /// Every span the benchmark records. `Phase` spans group other
        /// spans (op, detect, resume); `Call` spans wrap exactly one
        /// call into a layer; `Sampled` calls also keep every duration
        /// for percentiles (they happen once per op, not once per step).
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(u8)]
        pub enum Name { $($variant,)* }

        impl Name {
            pub const ALL: &'static [Name] = &[$(Name::$variant,)*];
            pub fn text(self) -> &'static str {
                match self { $(Name::$variant => $text,)* }
            }
            fn kind(self) -> Kind {
                match self { $(Name::$variant => Kind::$kind,)* }
            }
        }
    };
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Phase,
    Call,
    Sampled,
}

span_names! {
    Op => "op", Phase;
    Detect => "core.detect", Phase;
    Resume => "core.resume", Phase;
    WorldBuild => "runtime.world_build", Sampled;
    Peek => "runtime.peek", Call;
    Step => "runtime.step", Call;
    Snapshot => "runtime.snapshot", Sampled;
    Observe => "scroll.observe", Call;
    Encode => "scroll.encode_segment", Call;
    Replay => "scroll.replay_process", Call;
    Excerpt => "scroll.excerpt", Sampled;
    TmBefore => "timemachine.before_step", Call;
    TmAfter => "timemachine.after_step", Call;
    Gc => "timemachine.gc", Sampled;
    ChooseTarget => "timemachine.choose_target", Sampled;
    Rollback => "timemachine.rollback", Sampled;
    FixdNew => "core.fixd_new", Sampled;
    Monitor => "core.monitor", Call;
    Assemble => "core.assemble_worldstate", Sampled;
    ReportAssemble => "core.report_assemble", Sampled;
    ReportRender => "core.report_render", Sampled;
    Investigate => "investigator.investigate", Sampled;
    ExploreSerial => "investigator.run", Sampled;
    ExploreW1 => "investigator.run_parallel_1", Sampled;
    ExploreW2 => "investigator.run_parallel_2", Sampled;
    HealUpdate => "healer.heal_update", Sampled;
    Check => "campaign.check", Sampled;
    CellSharded => "campaign.run_cell_sharded", Sampled;
}

/// One recorded span. `parent` is the index of the enclosing span in
/// the raw list (`u32::MAX` = none, or the parent fell past the cap).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: Name,
    pub op: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals over every span of a traced run.
#[derive(Clone, Debug, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    /// `total_ns` minus the time covered by child spans.
    pub self_ns: u64,
    /// Allocations made inside the spans (children included).
    pub allocs: u64,
    /// Every duration in µs, for `Sampled` names and phases.
    pub samples_us: Vec<f64>,
}

struct Open {
    name: Name,
    start_ns: u64,
    child_ns: u64,
    allocs_at_start: u64,
    raw: u32,
}

pub struct Tracer {
    origin: Instant,
    raw: Vec<Span>,
    open: Vec<Open>,
    agg: Vec<Agg>,
    /// Time inside, and number of, calls made while an op was open.
    covered_ns: u64,
    covered_calls: u64,
    /// Bookkeeping time one `call` adds to the enclosing span, outside
    /// its own — calibrated once per tracer.
    call_overhead_ns: f64,
    next_op: u32,
}

impl Tracer {
    /// A tracer with the raw buffer reserved up front, so recording a
    /// span never allocates inside a measured call, and with its own
    /// per-call cost measured: on ops of a few dozen sub-microsecond
    /// steps that bookkeeping is a tenth of the op, and it is the
    /// tracer's time, not the loop's.
    pub fn new() -> Self {
        const PROBES: u64 = 4096;
        let mut probe = Self::uncalibrated(0);
        probe.enter_op(0);
        for _ in 0..PROBES {
            probe.call(Name::Peek, || ());
        }
        probe.exit(Name::Op);
        let outside = probe.agg(Name::Op).self_ns as f64 / PROBES as f64;
        let mut t = Self::uncalibrated(RAW_CAP);
        t.call_overhead_ns = outside;
        t
    }

    fn uncalibrated(raw_cap: usize) -> Self {
        Self {
            origin: Instant::now(),
            raw: Vec::with_capacity(raw_cap),
            open: Vec::with_capacity(8),
            agg: Name::ALL.iter().map(|_| Agg::default()).collect(),
            covered_ns: 0,
            covered_calls: 0,
            call_overhead_ns: 0.0,
            next_op: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push_raw(&mut self, name: Name, start_ns: u64, end_ns: u64) -> u32 {
        if self.raw.len() >= self.raw.capacity() {
            return u32::MAX;
        }
        self.raw.push(Span {
            name,
            op: self.next_op,
            parent: self.open.last().map_or(u32::MAX, |o| o.raw),
            start_ns,
            end_ns,
        });
        (self.raw.len() - 1) as u32
    }

    /// Open the span of op `id` — one world, loop or cell (closed by
    /// `exit(Name::Op)`).
    pub fn enter_op(&mut self, id: u32) {
        self.next_op = id;
        self.enter(Name::Op);
    }

    /// Open a phase span (closed by [`Tracer::exit`]).
    pub fn enter(&mut self, name: Name) {
        let start_ns = self.now();
        let raw = self.push_raw(name, start_ns, start_ns);
        self.open.push(Open {
            name,
            start_ns,
            child_ns: 0,
            allocs_at_start: thread_allocs(),
            raw,
        });
    }

    /// Close the innermost open phase span; returns its duration in ns.
    pub fn exit(&mut self, name: Name) -> u64 {
        let end_ns = self.now();
        let o = self.open.pop().expect("exit without a matching enter");
        assert!(o.name == name, "span nesting broken at {}", name.text());
        if let Some(s) = self.raw.get_mut(o.raw as usize) {
            s.end_ns = end_ns;
        }
        let dur = end_ns - o.start_ns;
        let allocs = thread_allocs() - o.allocs_at_start;
        self.account(name, dur, dur.saturating_sub(o.child_ns), allocs);
        dur
    }

    /// Record one call into a layer.
    pub fn call<R>(&mut self, name: Name, f: impl FnOnce() -> R) -> R {
        let allocs0 = thread_allocs();
        let start_ns = self.now();
        let r = f();
        let end_ns = self.now();
        self.push_raw(name, start_ns, end_ns);
        let dur = end_ns - start_ns;
        if !self.open.is_empty() {
            self.covered_ns += dur;
            self.covered_calls += 1;
        }
        self.account(name, dur, dur, thread_allocs() - allocs0);
        r
    }

    fn account(&mut self, name: Name, dur: u64, self_ns: u64, allocs: u64) {
        let a = &mut self.agg[name as usize];
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += self_ns;
        a.allocs += allocs;
        if name.kind() != Kind::Call {
            a.samples_us.push(dur as f64 / 1e3);
        }
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
    }

    /// Fold another thread's tracer into this one.
    pub fn merge(&mut self, other: Tracer) {
        for (a, b) in self.agg.iter_mut().zip(other.agg) {
            a.count += b.count;
            a.total_ns += b.total_ns;
            a.self_ns += b.self_ns;
            a.allocs += b.allocs;
            a.samples_us.extend(b.samples_us);
        }
        self.covered_ns += other.covered_ns;
        self.covered_calls += other.covered_calls;
        let room = self.raw.capacity() - self.raw.len();
        // Parent indices are per-tracer; rebase the ones that survive.
        let base = self.raw.len() as u32;
        self.raw
            .extend(other.raw.into_iter().take(room).map(|mut s| {
                if s.parent != u32::MAX {
                    s.parent += base;
                }
                s
            }));
    }

    pub fn agg(&self, name: Name) -> &Agg {
        &self.agg[name as usize]
    }

    /// Mean duration of `name` in ns (0.0 when it never ran).
    pub fn mean_ns(&self, name: Name) -> f64 {
        let a = self.agg(name);
        if a.count == 0 {
            0.0
        } else {
            a.total_ns as f64 / a.count as f64
        }
    }

    /// Spans recorded, raw or aggregated.
    pub fn spans(&self) -> u64 {
        self.agg.iter().map(|a| a.count).sum()
    }

    /// Op time outside every call into a layer (phase self times), net
    /// of the tracer's own calibrated bookkeeping.
    pub fn glue_ns(&self) -> f64 {
        let phases: u64 = Name::ALL
            .iter()
            .filter(|n| n.kind() == Kind::Phase)
            .map(|&n| self.agg(n).self_ns)
            .sum();
        (phases as f64 - self.covered_calls as f64 * self.call_overhead_ns).max(0.0)
    }

    /// Share of op time — again net of the tracer's bookkeeping — spent
    /// inside calls into a layer. Calls made outside any op, e.g. while
    /// building a round, do not count.
    pub fn coverage(&self) -> f64 {
        match self.covered_ns as f64 {
            0.0 => 0.0,
            covered => covered / (covered + self.glue_ns()),
        }
    }

    /// Write the aggregates and the raw spans as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for &n in Name::ALL {
            let a = self.agg(n);
            if a.count > 0 {
                writeln!(
                    out,
                    "{{\"agg\":\"{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{},\"allocs\":{}}}",
                    n.text(),
                    a.count,
                    a.total_ns,
                    a.self_ns,
                    a.allocs
                )?;
            }
        }
        for (i, s) in self.raw.iter().enumerate() {
            let parent = if s.parent == u32::MAX {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name.text(),
                s.op,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_coverage_and_parents() {
        let mut t = Tracer::new();
        t.enter_op(1);
        t.enter(Name::Detect);
        t.call(Name::Step, || std::hint::black_box(1 + 1));
        t.call(Name::Observe, || std::hint::black_box(2 + 2));
        t.exit(Name::Detect);
        t.call(Name::Check, || ());
        let op = t.exit(Name::Op);

        assert_eq!(t.spans(), 5);
        assert_eq!(t.agg(Name::Op).total_ns, op);
        let calls = t.agg(Name::Step).total_ns
            + t.agg(Name::Observe).total_ns
            + t.agg(Name::Check).total_ns;
        let phase_self = t.agg(Name::Op).self_ns + t.agg(Name::Detect).self_ns;
        assert_eq!(
            phase_self + calls,
            op,
            "phase self times + calls partition the op"
        );
        assert!(t.call_overhead_ns > 0.0 && t.glue_ns() <= phase_self as f64);
        assert!(t.coverage() >= calls as f64 / op as f64 && t.coverage() <= 1.0);
        // Raw spans: op(0) > detect(1) > step(2), observe(3); check(4) under op.
        let parents: Vec<u32> = t.raw.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [u32::MAX, 0, 1, 1, 0]);
        assert!(t.raw.iter().all(|s| s.op == 1 && s.end_ns >= s.start_ns));
        assert_eq!(t.agg(Name::Check).samples_us.len(), 1);
        assert!(t.agg(Name::Step).samples_us.is_empty());
    }

    #[test]
    fn merge_sums_and_rebases() {
        let mut a = Tracer::new();
        a.enter_op(1);
        a.call(Name::Step, || ());
        a.exit(Name::Op);
        let mut b = Tracer::new();
        b.enter_op(2);
        b.call(Name::Step, || ());
        b.exit(Name::Op);
        a.merge(b);
        assert_eq!(a.agg(Name::Step).count, 2);
        assert_eq!(a.raw[3].parent, 2);
    }
}
