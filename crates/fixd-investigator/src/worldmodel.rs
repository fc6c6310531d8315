//! Model-checking *real programs*: the distributed application as a
//! transition system.
//!
//! This is the heart of the ModelD design (§4.3): "the events in the
//! system are mapped to actions \[...\] each event is a state transition
//! within the model checker", executed against the **actual
//! [`Program`] implementations** — not abstract models. The network is
//! the one environment component FixD does not control, so it is replaced
//! by a [`NetModel`] (swap real communication actions for modeled ones,
//! exactly the action-swap §4.3 describes).
//!
//! State = every process's real state + FIFO channel contents + pending
//! timers. Actions = start a process, deliver the head of a channel, fire
//! a timer, plus whatever fault branches the [`NetModel`] enables.
//!
//! The Investigator runs the real handler once per explored transition.
//! The successor shares every untouched process and message with its
//! parent (see [`WorldState`]), the handler draws its context from its
//! thread's arena ([`SoloHarness`]), and the state fingerprint is a sum
//! of per-component terms that a transition updates by difference, for
//! the components it touched. Two costs do not follow the change:
//! cloning a state copies all width² channel slots (handles, not
//! messages), and a transition that emits output rebuilds the whole
//! output list, O(outputs on the branch).

use std::collections::VecDeque;
use std::sync::Arc;

use fixd_runtime::wire::{content_hash, fnv_mix};
use fixd_runtime::{
    Effects, GlobalSnapshot, Payload, Pid, Program, SharedMessage, SoloHarness, TimerId,
};

use crate::envmodel::NetModel;
use crate::system::TransitionSystem;

/// A transition of the distributed application under investigation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModelAction {
    /// Run a process's `on_start`.
    Start { pid: Pid },
    /// Deliver the head of channel `src → dst`.
    Deliver { src: Pid, dst: Pid },
    /// Fire the oldest pending timer of `pid`.
    FireTimer { pid: Pid },
    /// Environment model: lose the head of channel `src → dst`.
    DropHead { src: Pid, dst: Pid },
    /// Environment model: duplicate the head of channel `src → dst`.
    DupHead { src: Pid, dst: Pid },
    /// Environment model: crash-stop `pid`.
    Crash { pid: Pid },
}

impl ModelAction {
    /// Short human-readable rendering.
    pub fn describe(&self) -> String {
        match self {
            ModelAction::Start { pid } => format!("start {pid}"),
            ModelAction::Deliver { src, dst } => format!("deliver {src}→{dst}"),
            ModelAction::FireTimer { pid } => format!("timer {pid}"),
            ModelAction::DropHead { src, dst } => format!("LOSE {src}→{dst}"),
            ModelAction::DupHead { src, dst } => format!("DUP {src}→{dst}"),
            ModelAction::Crash { pid } => format!("CRASH {pid}"),
        }
    }
}

/// One process of the application under investigation: everything a
/// transition *at this pid* can change, behind one shared handle.
#[derive(Clone)]
struct Proc {
    program: Box<dyn Program>,
    harness: SoloHarness,
    /// Pending timers, oldest first.
    timers: VecDeque<TimerId>,
    started: bool,
    crashed: bool,
    /// `content_hash(program.snapshot())`: an in-memory key, so XXH64
    /// rather than the pinned FNV-1a. Only a handler changes a program,
    /// so [`WorldState::run_handler`] is the one place that refreshes it.
    snapshot_hash: u64,
}

thread_local! {
    /// What [`snapshot_hash`] snapshots into: one buffer per exploring
    /// thread, reused for every transition that thread applies.
    static SNAPSHOT_SCRATCH: std::cell::RefCell<Vec<u8>> = const {
        std::cell::RefCell::new(Vec::new())
    };
}

/// `content_hash` of `program`'s snapshot bytes.
fn snapshot_hash(program: &dyn Program) -> u64 {
    SNAPSHOT_SCRATCH.with_borrow_mut(|scratch| {
        scratch.clear();
        program.snapshot_to(scratch);
        content_hash(scratch)
    })
}

impl Proc {
    fn new(program: Box<dyn Program>, harness: SoloHarness, started: bool) -> Self {
        Self {
            snapshot_hash: snapshot_hash(program.as_ref()),
            program,
            harness,
            timers: VecDeque::new(),
            started,
            crashed: false,
        }
    }
}

/// A queued message beside its `content_fingerprint()`, computed once,
/// when the message was sent.
type Queued = (SharedMessage, u64);

/// One non-empty FIFO channel: the messages still queued are
/// `run[head..]`. A run is never written once built, so states share
/// it: a pop only moves `head`, and a push builds one new run of the
/// live messages plus the new ones.
#[derive(Clone)]
struct Chan {
    run: Arc<[Queued]>,
    head: usize,
    /// This channel's term of the state's fingerprint sum
    /// ([`chan_term`] of the live messages).
    term: u64,
}

impl Chan {
    fn live(&self) -> &[Queued] {
        &self.run[self.head..]
    }
}

/// The messages queued on one channel, oldest first (what
/// [`WorldState::channel`] returns): a view into the state.
#[derive(Clone, Copy)]
pub struct ChannelView<'a>(&'a [Queued]);

impl<'a> ChannelView<'a> {
    /// Messages queued.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Is nothing queued?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The queued messages, oldest first.
    pub fn iter(&self) -> <Self as IntoIterator>::IntoIter {
        self.into_iter()
    }
}

impl<'a> IntoIterator for ChannelView<'a> {
    type Item = &'a SharedMessage;
    type IntoIter = std::iter::Map<std::slice::Iter<'a, Queued>, fn(&Queued) -> &SharedMessage>;

    fn into_iter(self) -> Self::IntoIter {
        fn message(q: &Queued) -> &SharedMessage {
            &q.0
        }
        self.0.iter().map(message as fn(&Queued) -> &SharedMessage)
    }
}

impl std::fmt::Debug for ChannelView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Process `i`'s term of the fingerprint sum.
fn proc_term(i: usize, p: &Proc) -> u64 {
    let h = fnv_mix(PROC_TERM_SEED, i as u64);
    let h = fnv_mix(h, p.snapshot_hash);
    let h = fnv_mix(h, u64::from(p.started) | (u64::from(p.crashed) << 1));
    fnv_mix(h, p.timers.len() as u64)
}

/// The term of channel `slot` holding `live` (a non-empty channel; an
/// empty one adds nothing to the sum).
fn chan_term(slot: usize, live: &[Queued]) -> u64 {
    let h = fnv_mix(fnv_mix(CHAN_TERM_SEED, slot as u64), live.len() as u64);
    live.iter().fold(h, |h, &(_, fp)| fnv_mix(h, fp))
}

#[cfg(test)]
thread_local! {
    /// Mutation hook for the tests: while set, emptying a channel leaves
    /// its term in the sum. The walk tests must then fail.
    static SKIP_CHAN_TERM_REMOVAL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Global state of the application under investigation.
///
/// A state is a set of handles: cloning one copies no process and no
/// message, but it does copy the handle tables, one slot per process and
/// all width² channel slots. A transition then copies what it changes,
/// and a successor shares every other part with its parent:
///
/// * the acting process (`Arc::make_mut`: one `clone_program`);
/// * a channel it sends into: one new run of the live messages plus the
///   sent ones (a handler's sends to one channel make one run); a
///   channel it pops from copies nothing, it only moves its head;
/// * the output list when the handler emits: one new list of every
///   output on the branch so far, not only the new ones.
///
/// The state also carries its fingerprint sum: the wrapping sum of one
/// term per process (index, cached snapshot hash, flags, timer count)
/// and one per non-empty channel (slot, length, the messages' cached
/// fingerprints). Whatever changes a
/// component subtracts its old term and adds its new one, so
/// [`TransitionSystem::fingerprint`] re-hashes nothing.
#[derive(Clone)]
pub struct WorldState {
    procs: Vec<Arc<Proc>>,
    /// FIFO channels, indexed `src * width + dst`; an empty channel is
    /// `None` and owns nothing.
    channels: Vec<Option<Chan>>,
    crashes_used: usize,
    /// Collected outputs (flat, for invariants over observable behavior).
    /// Shared handles aliasing the producing handlers' effects.
    outputs: Arc<[(Pid, Payload)]>,
    /// Wrapping sum of every process's and non-empty channel's term.
    fp_sum: u64,
}

impl std::fmt::Debug for WorldState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "WorldState(n={}, mail={}, timers={})",
            self.procs.len(),
            self.mail_count(),
            self.procs.iter().map(|p| p.timers.len()).sum::<usize>()
        )
    }
}

impl WorldState {
    fn new(procs: Vec<Proc>) -> Self {
        let n = procs.len();
        let fp_sum = (procs.iter().enumerate())
            .fold(0, |sum: u64, (i, p)| sum.wrapping_add(proc_term(i, p)));
        Self {
            procs: procs.into_iter().map(Arc::new).collect(),
            channels: vec![None; n * n],
            crashes_used: 0,
            outputs: Arc::new([]),
            fp_sum,
        }
    }

    /// The state at a captured cut (the assembly step of the Fig. 4
    /// protocol): `programs[i]`, holding process i's captured state,
    /// runs on a harness resumed from its checkpoint; the captured mail
    /// fills the channels and the pending timers the timer queues. A
    /// crashed pid stays crashed, and its timers never fire.
    pub fn from_snapshot(programs: Vec<Box<dyn Program>>, snap: &GlobalSnapshot) -> Self {
        let n = snap.procs.len();
        assert_eq!(programs.len(), n);
        let mut procs: Vec<Proc> = (programs.into_iter().zip(&snap.procs))
            .map(|(p, ck)| Proc::new(p, SoloHarness::resume(ck, n), true)) // mid-run
            .collect();
        for &pid in &snap.crashed {
            procs[pid.idx()].crashed = true;
        }
        for &(pid, t, _) in &snap.timers {
            let p = &mut procs[pid.idx()];
            if !p.crashed {
                p.timers.push_back(t);
            }
        }
        let mut state = WorldState::new(procs);
        state.send_all(&mut snap.inflight.clone());
        state
    }

    /// Number of processes.
    pub fn width(&self) -> usize {
        self.procs.len()
    }

    /// Typed view of a process's program (for invariants).
    pub fn program<P: 'static>(&self, pid: Pid) -> Option<&P> {
        self.procs.get(pid.idx())?.program.downcast_ref::<P>()
    }

    /// Messages queued on channel `src → dst`.
    pub fn channel(&self, src: Pid, dst: Pid) -> ChannelView<'_> {
        match &self.channels[self.slot(src, dst)] {
            Some(ch) => ChannelView(ch.live()),
            None => ChannelView(&[]),
        }
    }

    /// Total undelivered messages.
    pub fn mail_count(&self) -> usize {
        self.channels.iter().flatten().map(|c| c.live().len()).sum()
    }

    /// Has `pid` crashed (in this explored branch)?
    pub fn is_crashed(&self, pid: Pid) -> bool {
        self.procs[pid.idx()].crashed
    }

    /// Has `pid` started?
    pub fn is_started(&self, pid: Pid) -> bool {
        self.procs[pid.idx()].started
    }

    /// Outputs emitted along this branch, in order.
    pub fn outputs(&self) -> &[(Pid, Payload)] {
        &self.outputs
    }

    /// Pending timer count of `pid`.
    pub fn timer_count(&self, pid: Pid) -> usize {
        self.procs[pid.idx()].timers.len()
    }

    fn slot(&self, src: Pid, dst: Pid) -> usize {
        src.idx() * self.procs.len() + dst.idx()
    }

    /// Empty channel `slot`, taking its term out of the sum.
    fn take_chan(&mut self, slot: usize) -> Option<Chan> {
        let ch = self.channels[slot].take()?;
        #[cfg(test)]
        if SKIP_CHAN_TERM_REMOVAL.get() {
            return Some(ch);
        }
        self.fp_sum = self.fp_sum.wrapping_sub(ch.term);
        Some(ch)
    }

    /// Fill the empty channel `slot` with `run[head..]` (leave it empty
    /// if that is), adding its term to the sum.
    fn put_chan(&mut self, slot: usize, run: Arc<[Queued]>, head: usize) {
        debug_assert!(self.channels[slot].is_none());
        if head < run.len() {
            let term = chan_term(slot, &run[head..]);
            self.fp_sum = self.fp_sum.wrapping_add(term);
            self.channels[slot] = Some(Chan { run, head, term });
        }
    }

    /// Enqueue `sent`, in order, on the channel `slot`: one new run.
    fn push_mail(&mut self, slot: usize, sent: &[SharedMessage]) {
        let old = self.take_chan(slot);
        let live = old.as_ref().map_or(&[][..], Chan::live);
        let run = (live.iter().cloned())
            .chain(sent.iter().map(|m| (m.clone(), m.content_fingerprint())))
            .collect();
        self.put_chan(slot, run, 0);
    }

    /// Enqueue every message of `sent` addressed inside this state, one
    /// run per channel, each channel in `sent`'s order. Reorders `sent`.
    fn send_all(&mut self, sent: &mut [SharedMessage]) {
        let n = self.procs.len();
        sent.sort_by_key(|m| (m.src, m.dst)); // stable: FIFO per channel
        for to_one in sent.chunk_by(|a, b| (a.src, a.dst) == (b.src, b.dst)) {
            let (src, dst) = (to_one[0].src, to_one[0].dst);
            if dst.idx() < n {
                self.push_mail(self.slot(src, dst), to_one);
            }
        }
    }

    /// Dequeue the head of `src → dst`: the run stays shared, only the
    /// head moves (and taking the last message empties the slot).
    fn pop_mail(&mut self, src: Pid, dst: Pid) -> Option<SharedMessage> {
        let slot = self.slot(src, dst);
        let Chan { run, head, .. } = self.take_chan(slot)?;
        let msg = run[head].0.clone();
        self.put_chan(slot, run, head + 1);
        Some(msg)
    }

    fn duplicate_head(&mut self, src: Pid, dst: Pid) {
        let slot = self.slot(src, dst);
        if let Some(ch) = self.take_chan(slot) {
            let live = ch.live();
            let run = live.iter().chain(live.first()).cloned().collect();
            self.put_chan(slot, run, 0);
        }
    }

    /// Change process `pid` through `change` on a private copy (shared
    /// with no other state), moving its term of the sum along.
    fn change_proc<R>(&mut self, pid: Pid, change: impl FnOnce(&mut Proc) -> R) -> R {
        let i = pid.idx();
        let proc = Arc::make_mut(&mut self.procs[i]);
        let before = proc_term(i, proc);
        let out = change(proc);
        self.fp_sum = (self.fp_sum.wrapping_sub(before)).wrapping_add(proc_term(i, proc));
        out
    }

    /// Run one handler of `pid` on a private copy of the process and
    /// route what it did into this state; the effects body goes back to
    /// the thread's handler arena.
    fn run_handler(&mut self, pid: Pid, handler: impl FnOnce(&mut Proc) -> Effects) {
        let mut effects = self.change_proc(pid, |proc| {
            let effects = handler(proc);
            proc.snapshot_hash = snapshot_hash(proc.program.as_ref());
            for &(t, _fire_at) in &effects.timers_set {
                proc.timers.push_back(t);
            }
            for t in &effects.timers_cancelled {
                proc.timers.retain(|x| x != t);
            }
            if effects.crashed {
                proc.crashed = true;
                proc.timers.clear();
            }
            effects
        });
        self.send_all(&mut effects.sends);
        if !effects.outputs.is_empty() {
            self.outputs = (self.outputs.iter().cloned())
                .chain(effects.outputs.drain(..).map(|o| (pid, o)))
                .collect();
        }
        SoloHarness::recycle(effects);
    }
}

/// The application + environment model as a [`TransitionSystem`].
pub struct WorldModel {
    width: usize,
    seed: u64,
    net: NetModel,
    factory: Arc<dyn Fn() -> Vec<Box<dyn Program>> + Send + Sync>,
    init_from: Option<WorldState>,
    /// Include clocks/RNG positions in fingerprints. Off by default:
    /// states that differ only in clock values merge, which is what you
    /// want unless programs branch on `ctx.random()`.
    pub strict_fingerprint: bool,
}

impl WorldModel {
    /// A model whose initial state is `factory()` (fresh programs,
    /// nothing started). `seed` must match the production world if
    /// trails are to be re-executed there.
    pub fn new(
        seed: u64,
        net: NetModel,
        factory: impl Fn() -> Vec<Box<dyn Program>> + Send + Sync + 'static,
    ) -> Self {
        let width = factory().len();
        Self {
            width,
            seed,
            net,
            factory: Arc::new(factory),
            init_from: None,
            strict_fingerprint: false,
        }
    }

    /// Investigate **from a restored global state** rather than from
    /// scratch — FixD's key advantage over CMC-style checking (Fig. 4:
    /// the checkpoints the peer processes provide are assembled into this
    /// state).
    pub fn from_state(seed: u64, net: NetModel, state: WorldState) -> Self {
        Self {
            width: state.width(),
            seed,
            net,
            factory: Arc::new(Vec::new),
            init_from: Some(state),
            strict_fingerprint: false,
        }
    }

    /// **Swap the environment model** mid-investigation (§4.3: "swap out
    /// the real communication actions, replace those with models").
    pub fn set_net(&mut self, net: NetModel) {
        self.net = net;
    }

    /// Current environment model.
    pub fn net(&self) -> NetModel {
        self.net
    }

    /// Number of processes.
    pub fn width(&self) -> usize {
        self.width
    }
}

impl TransitionSystem for WorldModel {
    type State = WorldState;
    type Label = ModelAction;

    fn initial(&self) -> WorldState {
        if let Some(s) = &self.init_from {
            return s.clone();
        }
        let programs = (self.factory)();
        let n = programs.len();
        WorldState::new(
            programs
                .into_iter()
                .enumerate()
                .map(|(i, p)| Proc::new(p, SoloHarness::new(Pid(i as u32), n, self.seed), false))
                .collect(),
        )
    }

    /// One mix of the state's cached sum; the strict extras (off by
    /// default) are folded in from scratch.
    fn fingerprint(&self, s: &WorldState) -> u64 {
        let mut h = fnv_mix(FINGERPRINT_SEED, s.fp_sum);
        if self.strict_fingerprint {
            for p in &s.procs {
                for (pid, c) in p.harness.context().vc.entries() {
                    h = fnv_mix(h, u64::from(pid.0));
                    h = fnv_mix(h, c);
                }
            }
            for p in &s.procs {
                for t in &p.timers {
                    h = fnv_mix(h, t.0);
                }
            }
        }
        h
    }

    fn enabled(&self, s: &WorldState) -> Vec<ModelAction> {
        let n = s.procs.len();
        let live = |i: usize| s.procs[i].started && !s.procs[i].crashed;
        let mut out = Vec::new();
        for (i, p) in s.procs.iter().enumerate() {
            if !p.started && !p.crashed {
                out.push(ModelAction::Start { pid: Pid(i as u32) });
            }
        }
        for src in 0..n {
            for dst in 0..n {
                if s.channels[src * n + dst].is_none() || !live(dst) {
                    continue;
                }
                let (src, dst) = (Pid(src as u32), Pid(dst as u32));
                out.push(ModelAction::Deliver { src, dst });
                if self.net.allow_loss {
                    out.push(ModelAction::DropHead { src, dst });
                }
                if self.net.allow_dup {
                    out.push(ModelAction::DupHead { src, dst });
                }
            }
        }
        for i in 0..n {
            if live(i) && !s.procs[i].timers.is_empty() {
                out.push(ModelAction::FireTimer { pid: Pid(i as u32) });
            }
        }
        if s.crashes_used < self.net.crash_budget {
            for i in 0..n {
                if live(i) {
                    out.push(ModelAction::Crash { pid: Pid(i as u32) });
                }
            }
        }
        out
    }

    // INVARIANT: the explorer applies only what `enabled` offered, so a
    // `Deliver` finds its channel nonempty and a `FireTimer` a pending
    // timer. Applied anyway, either one is a no-op.
    fn apply(&self, s: &WorldState, l: &ModelAction) -> WorldState {
        let mut next = s.clone();
        match *l {
            ModelAction::Start { pid } => next.run_handler(pid, |p| {
                p.started = true;
                p.harness.start(p.program.as_mut())
            }),
            ModelAction::Deliver { src, dst } => {
                if let Some(msg) = next.pop_mail(src, dst) {
                    next.run_handler(dst, |p| p.harness.deliver(p.program.as_mut(), &msg));
                }
            }
            ModelAction::FireTimer { pid } => {
                if let Some(&t) = next.procs[pid.idx()].timers.front() {
                    next.run_handler(pid, |p| {
                        p.timers.pop_front();
                        p.harness.timer(p.program.as_mut(), t)
                    });
                }
            }
            ModelAction::DropHead { src, dst } => {
                next.pop_mail(src, dst);
            }
            ModelAction::DupHead { src, dst } => next.duplicate_head(src, dst),
            ModelAction::Crash { pid } => {
                next.change_proc(pid, |p| {
                    p.crashed = true;
                    p.timers.clear();
                });
                next.crashes_used += 1;
            }
        }
        next
    }

    fn label_name(&self, l: &ModelAction) -> String {
        l.describe()
    }
}

/// Stable basis for [`WorldModel`] fingerprints (distinct from other
/// fingerprint domains in the workspace).
const FINGERPRINT_SEED: u64 = 0x1995_0604_F1BD_0001;
/// Domain of a process's term of the fingerprint sum.
const PROC_TERM_SEED: u64 = 0x1995_0604_F1BD_0002;
/// Domain of a channel's term of the fingerprint sum.
const CHAN_TERM_SEED: u64 = 0x1995_0604_F1BD_0003;

#[cfg(test)]
mod tests {
    use super::*;
    use fixd_runtime::Context;
    use fixd_runtime::Message;

    /// Two-process increment protocol with a deliberate race: both update
    /// a "replicated register" and echo; the register must converge.
    #[derive(Clone)]
    struct Reg {
        val: u8,
        echoes: u8,
    }
    impl Program for Reg {
        fn on_start(&mut self, ctx: &mut Context) {
            // Both processes propose pid+1 as the value.
            let proposal = ctx.pid().0 as u8 + 1;
            self.val = proposal;
            let other = Pid(1 - ctx.pid().0);
            ctx.send(other, 1, vec![proposal]);
        }
        fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
            if msg.tag == 1 {
                // last-writer-wins: the race makes final values diverge
                // depending on interleaving.
                self.val = msg.payload[0];
                ctx.send(msg.src, 2, vec![self.val]);
            } else {
                self.echoes += 1;
            }
        }
        fn snapshot(&self) -> Vec<u8> {
            vec![self.val, self.echoes]
        }
        fn restore(&mut self, b: &[u8]) {
            self.val = b[0];
            self.echoes = b[1];
        }
    }

    fn model(net: NetModel) -> WorldModel {
        WorldModel::new(7, net, || {
            vec![
                Box::new(Reg { val: 0, echoes: 0 }) as Box<dyn Program>,
                Box::new(Reg { val: 0, echoes: 0 }),
            ]
        })
    }

    #[test]
    fn initial_state_nothing_started() {
        let m = model(NetModel::reliable());
        let s = m.initial();
        assert_eq!(s.width(), 2);
        assert!(!s.is_started(Pid(0)));
        assert_eq!(s.mail_count(), 0);
        let enabled = m.enabled(&s);
        assert_eq!(enabled.len(), 2, "only the two Start actions");
    }

    #[test]
    fn apply_start_enqueues_mail() {
        let m = model(NetModel::reliable());
        let s0 = m.initial();
        let s1 = m.apply(&s0, &ModelAction::Start { pid: Pid(0) });
        assert!(s1.is_started(Pid(0)));
        assert_eq!(s1.mail_count(), 1);
        assert_eq!(s1.channel(Pid(0), Pid(1)).len(), 1);
        // Source state untouched.
        assert_eq!(s0.mail_count(), 0);
    }

    #[test]
    fn deliver_requires_started_destination() {
        let m = model(NetModel::reliable());
        let s0 = m.initial();
        let s1 = m.apply(&s0, &ModelAction::Start { pid: Pid(0) });
        // P1 not started: no deliver to P1 enabled.
        assert!(!m
            .enabled(&s1)
            .iter()
            .any(|a| matches!(a, ModelAction::Deliver { dst, .. } if *dst == Pid(1))));
        let s2 = m.apply(&s1, &ModelAction::Start { pid: Pid(1) });
        assert!(m
            .enabled(&s2)
            .iter()
            .any(|a| matches!(a, ModelAction::Deliver { dst, .. } if *dst == Pid(1))));
    }

    #[test]
    fn fingerprint_merges_equal_states() {
        let m = model(NetModel::reliable());
        let s0 = m.initial();
        // Start P0 then P1 vs P1 then P0: both yield "both started, two
        // proposals in flight" — but program states differ? No: each
        // start only writes its own val. Same fingerprint expected.
        let a = m.apply(
            &m.apply(&s0, &ModelAction::Start { pid: Pid(0) }),
            &ModelAction::Start { pid: Pid(1) },
        );
        let b = m.apply(
            &m.apply(&s0, &ModelAction::Start { pid: Pid(1) }),
            &ModelAction::Start { pid: Pid(0) },
        );
        assert_eq!(m.fingerprint(&a), m.fingerprint(&b));
        assert_ne!(m.fingerprint(&a), m.fingerprint(&s0));
    }

    #[test]
    fn lossy_model_adds_drop_actions() {
        let m = model(NetModel::lossy());
        let s = m.apply(&m.initial(), &ModelAction::Start { pid: Pid(0) });
        let s = m.apply(&s, &ModelAction::Start { pid: Pid(1) });
        let acts = m.enabled(&s);
        assert!(acts
            .iter()
            .any(|a| matches!(a, ModelAction::DropHead { .. })));
        // Dropping removes the message.
        let dropped = m.apply(
            &s,
            &ModelAction::DropHead {
                src: Pid(0),
                dst: Pid(1),
            },
        );
        assert_eq!(dropped.channel(Pid(0), Pid(1)).len(), 0);
    }

    #[test]
    fn crash_budget_limits_crash_actions() {
        let m = model(NetModel::crashy(1));
        let s = m.apply(&m.initial(), &ModelAction::Start { pid: Pid(0) });
        assert!(m
            .enabled(&s)
            .iter()
            .any(|a| matches!(a, ModelAction::Crash { .. })));
        let s2 = m.apply(&s, &ModelAction::Crash { pid: Pid(0) });
        assert!(s2.is_crashed(Pid(0)));
        assert!(!m
            .enabled(&s2)
            .iter()
            .any(|a| matches!(a, ModelAction::Crash { .. })));
    }

    #[test]
    fn assemble_state_places_mail_and_timers() {
        let procs: Vec<Box<dyn Program>> = vec![
            Box::new(Reg { val: 3, echoes: 0 }),
            Box::new(Reg { val: 3, echoes: 0 }),
        ];
        // Both fresh: what `SoloHarness::new(pid, 2, 7)` starts from.
        let ckpt = |p: &dyn Program, pid| fixd_runtime::ProcCheckpoint {
            pid,
            state: p.snapshot().into(),
            ctx: fixd_runtime::ProcContext::new(7, pid),
            taken_at: 0,
        };
        let msg = Message {
            id: 1,
            src: Pid(0),
            dst: Pid(1),
            tag: 1,
            payload: vec![9].into(),
            sent_at: 0,
            vc: fixd_runtime::VectorClock::new(2),
            meta: fixd_runtime::MsgMeta::default(),
        };
        let snap = GlobalSnapshot {
            at: 0,
            procs: vec![ckpt(&*procs[0], Pid(0)), ckpt(&*procs[1], Pid(1))],
            inflight: vec![msg.into()],
            timers: vec![(Pid(0), TimerId(4), 50)],
            crashed: vec![],
        };
        let s = WorldState::from_snapshot(procs, &snap);
        assert!(s.is_started(Pid(0)), "restored processes are mid-run");
        assert_eq!(s.channel(Pid(0), Pid(1)).len(), 1);
        assert_eq!(s.timer_count(Pid(0)), 1);

        // The explorer's fingerprints are in-memory keys, so they may
        // change value with their definition. They did twice: when the
        // per-process snapshot hash moved from FNV-1a to `content_hash`
        // (XXH64), and when the fingerprint became a sum of
        // per-component terms updated by difference, instead of one
        // chain over every process and channel.
        let mut m = WorldModel::from_state(7, NetModel::reliable(), s.clone());
        assert_eq!(m.fingerprint(&s), 0x143c_4a13_56fa_01ed);
        m.strict_fingerprint = true;
        assert_eq!(m.fingerprint(&s), 0x80fc_699c_331e_a39e);
        let deliver = ModelAction::Deliver {
            src: Pid(0),
            dst: Pid(1),
        };
        assert_eq!(m.fingerprint(&m.apply(&s, &deliver)), 0x31ff_e494_a917_7a37);
    }

    /// [`TransitionSystem::fingerprint`] by its definition, with nothing
    /// cached: every program snapshotted again, every queued message
    /// hashed again, and the sum of the per-component terms formed anew.
    fn fingerprint_from_scratch(m: &WorldModel, s: &WorldState) -> u64 {
        let n = s.width();
        let mut sum = 0u64;
        for (i, p) in s.procs.iter().enumerate() {
            let mut h = fnv_mix(PROC_TERM_SEED, i as u64);
            h = fnv_mix(h, content_hash(&p.program.snapshot()));
            h = fnv_mix(h, u64::from(p.started) | (u64::from(p.crashed) << 1));
            sum = sum.wrapping_add(fnv_mix(h, p.timers.len() as u64));
        }
        for slot in 0..n * n {
            let queue = s.channel(Pid((slot / n) as u32), Pid((slot % n) as u32));
            if queue.is_empty() {
                continue;
            }
            let mut h = fnv_mix(fnv_mix(CHAN_TERM_SEED, slot as u64), queue.len() as u64);
            for msg in queue {
                h = fnv_mix(h, msg.content_fingerprint());
            }
            sum = sum.wrapping_add(h);
        }
        let mut h = fnv_mix(FINGERPRINT_SEED, sum);
        if m.strict_fingerprint {
            for p in &s.procs {
                for (pid, c) in p.harness.context().vc.entries() {
                    h = fnv_mix(h, u64::from(pid.0));
                    h = fnv_mix(h, c);
                }
            }
            for t in s.procs.iter().flat_map(|p| &p.timers) {
                h = fnv_mix(h, t.0);
            }
        }
        h
    }

    /// The example applications as models: a token ring whose node 1
    /// duplicates the token (timers, outputs, two tokens in flight), the
    /// buggy two-phase commit, the Chord keyed store of the
    /// `explore-chordkv` benchmark workload, and the four apps of the
    /// `heal-loop` workload in its shapes (kvstore v1, the pipeline with
    /// a poisoned item, a four-node ring duplicating on its first lap,
    /// 2PC with four participants).
    fn example_models(net: NetModel) -> [WorldModel; 7] {
        use fixd_examples::chord::{ChordNode, ChordRing};
        use fixd_examples::kvstore::{BackupV1, Client, Primary};
        use fixd_examples::pipeline::{Cruncher, Source};
        use fixd_examples::token_ring::RingNode;
        use fixd_examples::two_phase_commit::tpc_factory;
        let ring = WorldModel::new(11, net, || {
            vec![
                Box::new(RingNode::correct()) as Box<dyn Program>,
                Box::new(RingNode::buggy(7)),
                Box::new(RingNode::correct()),
            ]
        });
        let tpc = WorldModel::new(12, net, tpc_factory(vec![true, false, true], true));
        let chord = WorldModel::new(13, net, || {
            let ring = Arc::new(ChordRing::new(&[Pid(0), Pid(1), Pid(2)]));
            (0..3)
                .map(|_| {
                    Box::new(ChordNode::new(Arc::clone(&ring), 0, 0).with_kv_workload(2))
                        as Box<dyn Program>
                })
                .collect()
        });
        let kv = WorldModel::new(14, net, || {
            vec![
                Box::new(Client {
                    script: fixd_examples::kvstore::script(4, 14),
                }) as Box<dyn Program>,
                Box::new(Primary::default()),
                Box::new(BackupV1::default()),
            ]
        });
        let pipeline = WorldModel::new(15, net, || {
            vec![
                Box::new(Source { n_items: 6 }) as Box<dyn Program>,
                Box::new(Cruncher::buggy(50, 4)),
            ]
        });
        let heal_ring = WorldModel::new(16, net, || {
            (0..4)
                .map(|i| {
                    Box::new(if i == 1 {
                        RingNode::buggy(10)
                    } else {
                        RingNode::correct()
                    }) as Box<dyn Program>
                })
                .collect()
        });
        let heal_tpc = WorldModel::new(17, net, tpc_factory(vec![true, true, false, true], true));
        [ring, tpc, chord, kv, pipeline, heal_ring, heal_tpc]
    }

    /// Seeded random walks over every example model under every
    /// environment model, loose and strict: at each state on a walk,
    /// `check(model, parent, action, child)` sees every enabled action
    /// applied, then the walk follows one of them.
    fn for_each_walked_transition(
        mut check: impl FnMut(&WorldModel, &WorldState, &ModelAction, &WorldState),
    ) {
        let nets = [
            NetModel::reliable(),
            NetModel::lossy(),
            NetModel::duplicating(),
            NetModel::crashy(1),
        ];
        let mut transitions = 0;
        for (net, strict) in nets.into_iter().flat_map(|n| [(n, false), (n, true)]) {
            for mut model in example_models(net) {
                model.strict_fingerprint = strict;
                for seed in 0..4 {
                    let mut rng = fixd_runtime::DetRng::derive(seed, 0x3A1C);
                    let mut state = model.initial();
                    for _ in 0..48 {
                        let enabled = model.enabled(&state);
                        if enabled.is_empty() {
                            break;
                        }
                        let mut children: Vec<WorldState> = enabled
                            .iter()
                            .map(|l| {
                                let child = model.apply(&state, l);
                                check(&model, &state, l, &child);
                                child
                            })
                            .collect();
                        transitions += children.len();
                        state = children.swap_remove(rng.below(children.len() as u64) as usize);
                    }
                }
            }
        }
        assert!(transitions > 10_000, "walks too short: {transitions}");
    }

    #[test]
    fn cached_fingerprint_equals_recomputation_after_every_apply() {
        for_each_walked_transition(|model, _parent, l, child| {
            assert_eq!(
                model.fingerprint(child),
                fingerprint_from_scratch(model, child),
                "after {l:?}"
            );
        });
    }

    /// The check above can fail: with one term update skipped (an
    /// emptied channel's term left in the sum), the walks find cached
    /// fingerprints that disagree with the definition.
    #[test]
    fn a_skipped_term_update_is_caught_by_the_walks() {
        SKIP_CHAN_TERM_REMOVAL.set(true);
        let mut wrong = 0;
        for_each_walked_transition(|model, _parent, _l, child| {
            wrong +=
                usize::from(model.fingerprint(child) != fingerprint_from_scratch(model, child));
        });
        SKIP_CHAN_TERM_REMOVAL.set(false);
        assert!(wrong > 1_000, "{wrong} transitions disagree");
    }

    /// Everything observable about a state, copied out.
    fn observe(m: &WorldModel, s: &WorldState) -> impl PartialEq + std::fmt::Debug {
        let pids = || (0..s.width() as u32).map(Pid);
        (
            (m.fingerprint(s), fingerprint_from_scratch(m, s)),
            s.outputs().to_vec(),
            pids()
                .flat_map(|src| {
                    pids().map(move |dst| s.channel(src, dst).iter().cloned().collect::<Vec<_>>())
                })
                .collect::<Vec<_>>(),
            pids()
                .map(|p| (s.is_started(p), s.is_crashed(p), s.timer_count(p)))
                .collect::<Vec<_>>(),
            s.procs
                .iter()
                .map(|p| (p.program.snapshot(), p.harness.context().vc.clone()))
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn apply_leaves_its_input_unchanged_and_shares_what_it_does_not_touch() {
        for_each_walked_transition(|model, parent, l, child| {
            // (The walk applies every enabled action to `parent` in
            // turn, so each call also re-checks it after the previous
            // siblings.)
            let before = observe(model, parent);
            let again = model.apply(parent, l);
            assert_eq!(observe(model, parent), before, "{l:?} changed its input");
            assert_eq!(model.fingerprint(&again), model.fingerprint(child));

            let n = parent.width();
            let (acting, popped) = match *l {
                ModelAction::Start { pid }
                | ModelAction::FireTimer { pid }
                | ModelAction::Crash { pid } => (Some(pid), None),
                ModelAction::Deliver { src, dst } => (Some(dst), Some((src, dst))),
                ModelAction::DropHead { src, dst } | ModelAction::DupHead { src, dst } => {
                    (None, Some((src, dst)))
                }
            };
            for i in 0..n {
                let shared = Arc::ptr_eq(&parent.procs[i], &child.procs[i]);
                assert_eq!(
                    shared,
                    acting != Some(Pid(i as u32)),
                    "proc {i} after {l:?}"
                );
            }
            for (i, (a, b)) in parent.channels.iter().zip(&child.channels).enumerate() {
                let (src, dst) = (Pid((i / n) as u32), Pid((i % n) as u32));
                let shared = match (a, b) {
                    (Some(a), Some(b)) => Arc::ptr_eq(&a.run, &b.run) && a.head == b.head,
                    (None, None) => true,
                    _ => false,
                };
                if popped == Some((src, dst)) {
                    assert!(!shared, "channel {src}→{dst} after {l:?}");
                    if let (ModelAction::DropHead { .. }, Some(a), Some(b)) = (l, a, b) {
                        // A pop copies nothing: the run stays shared.
                        assert!(Arc::ptr_eq(&a.run, &b.run), "{l:?} copied its run");
                    }
                } else if acting != Some(src) {
                    // Only the acting process sends.
                    assert!(shared, "channel {src}→{dst} after {l:?}");
                }
            }
            let emitted = child.outputs().len() > parent.outputs().len();
            assert_eq!(Arc::ptr_eq(&parent.outputs, &child.outputs), !emitted);
        });
    }
}
