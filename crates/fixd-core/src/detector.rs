//! Fault detection: invariant monitors over the running application.
//!
//! A [`Monitor`] is one user-specified invariant, usable in *both* FixD
//! contexts: online, against the live [`World`] (detection); and offline,
//! against the Investigator's [`WorldState`] (the same property drives
//! the state-space search). Declaring it once keeps the two in sync —
//! part of the "glue" this crate contributes.
//!
//! A **global** monitor reads the whole world at every check and a
//! **local** one every process's program; an **item-wise** local one
//! ([`Monitor::local_items`]) lets the supervisor ([`crate::Fixd`]) verify
//! only the evidence items it has not verified before. What detection
//! verified also serves the rest of the loop: the rollback and heal
//! walks over the checkpoints and the check of a healed world trust it,
//! and the Investigator's invariant starts from it and grows it state by
//! state. Every verdict is the full check's.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use fixd_investigator::{Invariant, WorldState};
use fixd_runtime::{Pid, Program, VTime, World};

/// A detected invariant violation in the live system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DetectedFault {
    /// Which monitor fired.
    pub monitor: String,
    /// The process it implicates (local monitors; `None` for global).
    pub pid: Option<Pid>,
    /// Virtual time of detection.
    pub at: VTime,
    /// Executed events before detection.
    pub after_steps: u64,
}

/// Whole-world invariant check: `Some(culprit)` on violation.
type WorldCheck = Arc<dyn Fn(&World) -> Option<Option<Pid>> + Send + Sync>;
/// Per-process invariant check: `false` on violation.
type ProgramCheck = Arc<dyn Fn(Pid, &dyn Program) -> bool + Send + Sync>;

/// What a monitor's verdict depends on.
#[derive(Clone)]
enum Check {
    /// The whole world.
    Global(WorldCheck),
    /// Each process's program on its own. `memo` makes the per-supervisor
    /// memory of an item-wise monitor.
    Local {
        holds: ProgramCheck,
        memo: Option<NewMemo>,
    },
}

/// Makes one supervisor's memory of an item-wise monitor.
type NewMemo = Arc<dyn Fn() -> Box<dyn ItemMemo> + Send + Sync>;

/// One invariant, with all the views FixD needs of it.
#[derive(Clone)]
pub struct Monitor {
    pub name: String,
    check: Check,
    model_invariant: Invariant<WorldState>,
}

impl Monitor {
    /// A **local** invariant over every process of program type `P`:
    /// `f(pid, program)` must hold everywhere. Violations implicate the
    /// first failing process.
    pub fn local<P: 'static>(
        name: &str,
        f: impl Fn(Pid, &P) -> bool + Send + Sync + 'static,
    ) -> Self {
        Self::local_with(name, f, None)
    }

    fn local_with<P: 'static>(
        name: &str,
        f: impl Fn(Pid, &P) -> bool + Send + Sync + 'static,
        memo: Option<NewMemo>,
    ) -> Self {
        let f = Arc::new(f);
        let fm = Arc::clone(&f);
        Self {
            name: name.to_string(),
            check: Check::Local {
                holds: Arc::new(move |pid, p: &dyn Program| {
                    p.downcast_ref::<P>().is_none_or(|t| f(pid, t))
                }),
                memo,
            },
            model_invariant: Invariant::for_program(name, move |pid, p: &P| fm(pid, p)),
        }
    }

    /// A local invariant that is a conjunction over **items**: `project`
    /// names a process's context `K` and its evidence `&[I]`, and
    /// `item_ok(pid, context, item)` must hold for every item. `item_ok`
    /// sees nothing else, so an item's verdict is a function of its
    /// value — which lets a supervisor remember the items it has
    /// verified and, at the next check, verify only the ones that are
    /// not equal to a remembered one (see [`crate::Fixd::supervise`]).
    /// The same memory spares re-verification in the supervisor's rollback
    /// ([`crate::Fixd::respond`]), exploration
    /// ([`crate::Fixd::investigate`]) and dynamic update
    /// ([`crate::Fixd::heal_update`]). The stateless views
    /// ([`Self::violated_in`], [`Self::holds_for_program`],
    /// [`Self::invariant`]) check every item, like [`Self::local`].
    ///
    /// Not every local invariant has this shape: one that relates items
    /// to each other (sortedness, uniqueness, a running total) has no
    /// per-item verdict and belongs in [`Self::local`].
    pub fn local_items<P: 'static, K, I>(
        name: &str,
        project: impl for<'a> Fn(&'a P) -> (K, &'a [I]) + Send + Sync + 'static,
        item_ok: impl Fn(Pid, &K, &I) -> bool + Send + Sync + 'static,
    ) -> Self
    where
        K: Clone + PartialEq + Send + Sync + 'static,
        I: Clone + PartialEq + Send + Sync + 'static,
    {
        let items = ItemCheck {
            project: Arc::new(project),
            item_ok: Arc::new(item_ok),
        };
        let full = items.clone();
        Self::local_with(
            name,
            move |pid, p: &P| full.holds(pid, p, None),
            Some(Arc::new(move || {
                Box::new(Verified {
                    items: items.clone(),
                    seen: Vec::new(),
                })
            })),
        )
    }

    /// A **global** invariant: `fw` over the live world, `fm` over the
    /// Investigator's model state. The two closures must express the same
    /// property; keeping them adjacent here is the API's nudge.
    pub fn global(
        name: &str,
        fw: impl Fn(&World) -> bool + Send + Sync + 'static,
        fm: impl Fn(&WorldState) -> bool + Send + Sync + 'static,
    ) -> Self {
        Self {
            name: name.to_string(),
            check: Check::Global(Arc::new(move |w| if fw(w) { None } else { Some(None) })),
            model_invariant: Invariant::new(name, fm),
        }
    }

    /// A global invariant that also names the process to roll back when
    /// it fires (the "process that detected the fault" of Fig. 4 — for a
    /// global property, the process whose local anomaly triggered it).
    pub fn global_implicating(
        name: &str,
        fw: impl Fn(&World) -> bool + Send + Sync + 'static,
        implicate: impl Fn(&World) -> Pid + Send + Sync + 'static,
        fm: impl Fn(&WorldState) -> bool + Send + Sync + 'static,
    ) -> Self {
        Self {
            name: name.to_string(),
            check: Check::Global(Arc::new(move |w| {
                if fw(w) {
                    None
                } else {
                    Some(Some(implicate(w)))
                }
            })),
            model_invariant: Invariant::new(name, fm),
        }
    }

    /// Evaluate against the live world. `Some(pid)` = violated (with the
    /// implicated process, if local).
    pub fn violated_in(&self, world: &World) -> Option<Option<Pid>> {
        match &self.check {
            Check::Global(f) => f(world),
            Check::Local { holds, .. } => all_pids(world)
                .find(|&pid| !world.with_program(pid, |p| holds(pid, p)))
                .map(Some),
        }
    }

    /// Evaluate against a single restored program (used when choosing a
    /// rollback target; global monitors vacuously pass).
    pub fn holds_for_program(&self, pid: Pid, p: &dyn Program) -> bool {
        match &self.check {
            Check::Global(_) => true,
            Check::Local { holds, .. } => holds(pid, p),
        }
    }

    /// The Investigator-side invariant.
    pub fn invariant(&self) -> Invariant<WorldState> {
        self.model_invariant.clone()
    }
}

impl std::fmt::Debug for Monitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Monitor({})", self.name)
    }
}

fn all_pids(world: &World) -> impl Iterator<Item = Pid> {
    (0..world.num_procs()).map(|i| Pid(i as u32))
}

/// A process's context and evidence items.
type Project<P, K, I> = Arc<dyn for<'a> Fn(&'a P) -> (K, &'a [I]) + Send + Sync>;
/// One item's verdict: `false` on violation.
type ItemOk<K, I> = Arc<dyn Fn(Pid, &K, &I) -> bool + Send + Sync>;

/// The two closures of [`Monitor::local_items`].
struct ItemCheck<P, K, I> {
    project: Project<P, K, I>,
    item_ok: ItemOk<K, I>,
}

impl<P, K, I> Clone for ItemCheck<P, K, I> {
    fn clone(&self) -> Self {
        Self {
            project: Arc::clone(&self.project),
            item_ok: Arc::clone(&self.item_ok),
        }
    }
}

/// What has been verified for one process: a context, and the items
/// that passed `item_ok` under it.
type Seen<K, I> = Option<(K, Vec<I>)>;

/// How many leading `items` equal ones `seen` verified under context `k`.
fn trusted<K: PartialEq, I: PartialEq>(seen: Option<&(K, Vec<I>)>, k: &K, items: &[I]) -> usize {
    match seen {
        Some((ctx, done)) if ctx == k => done.iter().zip(items).take_while(|(x, y)| x == y).count(),
        _ => 0,
    }
}

impl<P, K: PartialEq, I: PartialEq> ItemCheck<P, K, I> {
    /// How many of `items` pass `item_ok` under `k`, up to the first that
    /// does not.
    fn passing(&self, pid: Pid, k: &K, items: &[I]) -> usize {
        items
            .iter()
            .take_while(|it| (self.item_ok)(pid, k, it))
            .count()
    }

    /// The item-wise check, stateless (`seen` = `None`) or not: trusts the
    /// leading items of `p` that equal ones `seen` verified under an
    /// equal context and runs `item_ok` on the rest.
    fn holds(&self, pid: Pid, p: &P, seen: Option<&(K, Vec<I>)>) -> bool {
        let (k, items) = (self.project)(p);
        let from = trusted(seen, &k, items);
        from + self.passing(pid, &k, &items[from..]) == items.len()
    }
}

/// One supervisor's memory of one item-wise monitor. It lives in the
/// supervisor, never in the [`Monitor`] (which is cloned across worlds).
trait ItemMemo: Send {
    /// [`Monitor::holds_for_program`], verifying only the items past the
    /// common prefix with what is remembered, and remembering those.
    fn holds(&mut self, pid: Pid, p: &dyn Program) -> bool;
    /// [`Monitor::holds_for_program`], trusting what is remembered and
    /// remembering nothing.
    fn holds_seen(&self, pid: Pid, p: &dyn Program) -> bool;
    /// [`Monitor::invariant`] over a memory of its own that starts as a
    /// copy of this one and grows with every explored state.
    fn growing_invariant(&self, name: &str) -> Invariant<WorldState>;
}

struct Verified<P, K, I> {
    items: ItemCheck<P, K, I>,
    /// Indexed by pid. Everything in here passed `item_ok`; nothing ever
    /// has to be taken back, because a check compares values and not
    /// positions in time: a rollback, restore or patch that changes an
    /// item, shortens the list or swaps the context just shortens the
    /// common prefix.
    seen: Vec<Seen<K, I>>,
}

impl<P, K, I> ItemMemo for Verified<P, K, I>
where
    P: 'static,
    K: Clone + PartialEq + Send + Sync + 'static,
    I: Clone + PartialEq + Send + Sync + 'static,
{
    fn holds(&mut self, pid: Pid, p: &dyn Program) -> bool {
        let Some(p) = p.downcast_ref::<P>() else {
            return true;
        };
        if self.seen.len() <= pid.idx() {
            self.seen.resize_with(pid.idx() + 1, || None);
        }
        let slot = &mut self.seen[pid.idx()];
        let (k, items) = (self.items.project)(p);
        // `from` is 0 when the context changed.
        let from = trusted(slot.as_ref(), &k, items);
        let passed = self.items.passing(pid, &k, &items[from..]);
        let mut done = slot.take().map_or_else(Vec::new, |(_, done)| done);
        done.truncate(from);
        done.extend_from_slice(&items[from..from + passed]);
        *slot = Some((k, done));
        from + passed == items.len()
    }

    fn holds_seen(&self, pid: Pid, p: &dyn Program) -> bool {
        p.downcast_ref::<P>().is_none_or(|p| {
            let seen = self.seen.get(pid.idx()).and_then(Option::as_ref);
            self.items.holds(pid, p, seen)
        })
    }

    fn growing_invariant(&self, name: &str) -> Invariant<WorldState> {
        let grown: Vec<Paths<K, I>> = self
            .seen
            .iter()
            .map(|seen| {
                let mut paths = Paths::default();
                if let Some((k, done)) = seen {
                    paths.grow(k, done);
                }
                paths
            })
            .collect();
        let (items, grown) = (self.items.clone(), Mutex::new(grown));
        Invariant::for_program(name, move |pid, p: &P| {
            let (k, list) = (items.project)(p);
            let from = lock(&grown)
                .get(pid.idx())
                .map_or(0, |paths| paths.walk(&k, list));
            // `item_ok` runs outside the lock: exploring threads verify
            // in parallel, and the memory only ever gains paths.
            let passed = items.passing(pid, &k, &list[from..]);
            if passed > 0 {
                let mut grown = lock(&grown);
                if grown.len() <= pid.idx() {
                    grown.resize_with(pid.idx() + 1, Paths::default);
                }
                grown[pid.idx()].grow(&k, &list[..from + passed]);
            }
            from + passed == list.len()
        })
    }
}

/// [`Monitor::holds_for_program`] of `m`, trusting what `memo` verified.
fn program_holds(m: &Monitor, memo: &Option<Box<dyn ItemMemo>>, pid: Pid, p: &dyn Program) -> bool {
    match memo {
        Some(memo) => memo.holds_seen(pid, p),
        None => m.holds_for_program(pid, p),
    }
}

/// [`Paths::grow`] links a node only once it is complete, so a memory
/// whose holder panicked mid-update is still valid, at worst with an
/// unreachable node: a poisoned lock is taken as it is.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What an exploration has verified for one process: every item list
/// that passed `item_ok`, as one prefix tree per context. A state's
/// items are trusted as far as they spell a path from their context's
/// root — each item on it equal, under an equal context, to one that
/// passed — whichever branch of the exploration the path was verified
/// on. Paths are only ever added, which suits a search that holds many
/// branches for one run; the supervisor follows one execution for as
/// long as it runs, so its memory ([`Seen`]) is one list, replaced.
struct Paths<K, I> {
    /// Each context, and its root in `nodes`.
    roots: Vec<(K, usize)>,
    nodes: Vec<PathNode<I>>,
}

/// One item of a verified list (`None` at a root), its first follower
/// and its next sibling.
struct PathNode<I> {
    item: Option<I>,
    first: Option<usize>,
    next: Option<usize>,
}

impl<K, I> Default for Paths<K, I> {
    fn default() -> Self {
        Self {
            roots: Vec::new(),
            nodes: Vec::new(),
        }
    }
}

impl<K: Clone + PartialEq, I: Clone + PartialEq> Paths<K, I> {
    /// How many leading `items` spell a verified path under `k`.
    fn walk(&self, k: &K, items: &[I]) -> usize {
        let Some(&(_, mut at)) = self.roots.iter().find(|(c, _)| c == k) else {
            return 0;
        };
        let mut n = 0;
        while let Some(next) = items.get(n).and_then(|it| self.child(at, it)) {
            at = next;
            n += 1;
        }
        n
    }

    /// Remember that every one of `items` passed under `k`.
    fn grow(&mut self, k: &K, items: &[I]) {
        let mut at = match self.roots.iter().find(|(c, _)| c == k) {
            Some(&(_, root)) => root,
            None => {
                let root = self.push(None, None);
                self.roots.push((k.clone(), root));
                root
            }
        };
        for it in items {
            at = match self.child(at, it) {
                Some(next) => next,
                None => {
                    let sibling = self.nodes[at].first;
                    let next = self.push(Some(it.clone()), sibling);
                    self.nodes[at].first = Some(next);
                    next
                }
            };
        }
    }

    fn child(&self, at: usize, it: &I) -> Option<usize> {
        let mut c = self.nodes[at].first;
        while let Some(i) = c {
            if self.nodes[i].item.as_ref() == Some(it) {
                return Some(i);
            }
            c = self.nodes[i].next;
        }
        None
    }

    fn push(&mut self, item: Option<I>, next: Option<usize>) -> usize {
        self.nodes.push(PathNode {
            item,
            first: None,
            next,
        });
        self.nodes.len() - 1
    }
}

/// A supervisor's monitors, each with what this supervisor remembers
/// for it. [`Watch::check`] returns what evaluating
/// [`Monitor::violated_in`] monitor by monitor would — same monitor,
/// same pid — for less work, and remembers what it verified; the
/// rollback and heal walks ([`Watch::holds_for_program`],
/// [`Watch::holds_in`]) and the Investigator ([`Watch::invariants`]) read
/// that memory without writing it.
#[derive(Default)]
pub(crate) struct Watch {
    monitors: Vec<Monitor>,
    /// Parallel to `monitors`; `Some` for the item-wise ones.
    memos: Vec<Option<Box<dyn ItemMemo>>>,
}

impl Watch {
    pub(crate) fn push(&mut self, m: Monitor) {
        self.memos.push(match &m.check {
            Check::Local {
                memo: Some(new), ..
            } => Some(new()),
            _ => None,
        });
        self.monitors.push(m);
    }

    pub(crate) fn monitors(&self) -> &[Monitor] {
        &self.monitors
    }

    /// Evaluate all monitors; first violation wins.
    pub(crate) fn check(&mut self, world: &World, after_steps: u64) -> Option<DetectedFault> {
        for (m, memo) in self.monitors.iter().zip(&mut self.memos) {
            let violated = match &m.check {
                Check::Global(f) => f(world),
                Check::Local { holds, .. } => all_pids(world)
                    .find(|&pid| {
                        !world.with_program(pid, |p| match memo {
                            Some(memo) => memo.holds(pid, p),
                            None => holds(pid, p),
                        })
                    })
                    .map(Some),
            };
            if let Some(pid) = violated {
                return Some(DetectedFault {
                    monitor: m.name.clone(),
                    pid,
                    at: world.now(),
                    after_steps,
                });
            }
        }
        None
    }

    /// Does every monitor hold for `pid`'s program `p`? What
    /// [`Monitor::holds_for_program`] says of each, trusting what this
    /// supervisor has verified.
    pub(crate) fn holds_for_program(&self, pid: Pid, p: &dyn Program) -> bool {
        self.monitors
            .iter()
            .zip(&self.memos)
            .all(|(m, memo)| program_holds(m, memo, pid, p))
    }

    /// Does every monitor hold in `world`? What [`Monitor::violated_in`]
    /// says of each, trusting what this supervisor has verified.
    pub(crate) fn holds_in(&self, world: &World) -> bool {
        self.monitors
            .iter()
            .zip(&self.memos)
            .all(|(m, memo)| match &m.check {
                Check::Global(f) => f(world).is_none(),
                Check::Local { .. } => all_pids(world)
                    .all(|pid| world.with_program(pid, |p| program_holds(m, memo, pid, p))),
            })
    }

    /// The Investigator-side invariants. An item-wise monitor's starts
    /// from what detection already verified and remembers what each
    /// explored state adds, so a state pays only for the items its
    /// parent did not have.
    pub(crate) fn invariants(&self) -> impl Iterator<Item = Invariant<WorldState>> + '_ {
        self.monitors
            .iter()
            .zip(&self.memos)
            .map(|(m, memo)| match memo {
                Some(memo) => memo.growing_invariant(&m.name),
                None => m.invariant(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixd_runtime::{Context, WorldConfig};

    #[derive(Clone)]
    pub(crate) struct Counter {
        pub n: u64,
    }
    impl Program for Counter {
        fn on_start(&mut self, ctx: &mut Context) {
            if ctx.pid() == Pid(0) {
                for _ in 0..5 {
                    ctx.send(Pid(1), 1, vec![1]);
                }
            }
        }
        fn on_message(&mut self, _ctx: &mut Context, _msg: &fixd_runtime::Message) {
            self.n += 1;
        }
        fn snapshot(&self) -> Vec<u8> {
            self.n.to_le_bytes().to_vec()
        }
        fn restore(&mut self, b: &[u8]) {
            self.n = u64::from_le_bytes(b.try_into().unwrap());
        }
    }

    fn world() -> World {
        let mut w = World::new(WorldConfig::seeded(1));
        w.add_process(Box::new(Counter { n: 0 }));
        w.add_process(Box::new(Counter { n: 0 }));
        w
    }

    fn watch(monitors: Vec<Monitor>) -> Watch {
        let mut watch = Watch::default();
        monitors.into_iter().for_each(|m| watch.push(m));
        watch
    }

    #[test]
    fn local_monitor_fires_and_implicates() {
        let m = Monitor::local::<Counter>("n<3", |_, c| c.n < 3);
        let mut w = world();
        assert_eq!(m.violated_in(&w), None);
        w.run_to_quiescence(100);
        assert_eq!(m.violated_in(&w), Some(Some(Pid(1))));
    }

    #[test]
    fn global_monitor_fires_without_pid() {
        let m = Monitor::global(
            "total<4",
            |w: &World| {
                (0..w.num_procs())
                    .map(|i| w.program::<Counter>(Pid(i as u32)).unwrap().n)
                    .sum::<u64>()
                    < 4
            },
            |s| {
                (0..s.width())
                    .map(|i| s.program::<Counter>(Pid(i as u32)).unwrap().n)
                    .sum::<u64>()
                    < 4
            },
        );
        let mut w = world();
        w.run_to_quiescence(100);
        assert_eq!(m.violated_in(&w), Some(None));
    }

    #[test]
    fn program_check_is_local_only() {
        let local = Monitor::local::<Counter>("n<3", |_, c| c.n < 3);
        let global = Monitor::global("x", |_| false, |_| false);
        let good = Counter { n: 0 };
        let bad = Counter { n: 10 };
        assert!(local.holds_for_program(Pid(0), &good));
        assert!(!local.holds_for_program(Pid(0), &bad));
        assert!(global.holds_for_program(Pid(0), &bad), "global vacuous");
    }

    #[test]
    fn check_all_reports_first_violation() {
        let monitors = vec![
            Monitor::local::<Counter>("n<100", |_, c| c.n < 100),
            Monitor::local::<Counter>("n<3", |_, c| c.n < 3),
        ];
        let mut w = world();
        w.run_to_quiescence(100);
        let fault = watch(monitors).check(&w, 7).unwrap();
        assert_eq!(fault.monitor, "n<3");
        assert_eq!(fault.after_steps, 7);
    }

    /// Evidence items that must each stay under `limit`.
    #[derive(Clone)]
    struct Upto {
        items: Vec<u64>,
        limit: u64,
    }
    impl Program for Upto {
        fn snapshot(&self) -> Vec<u8> {
            Vec::new()
        }
        fn restore(&mut self, _: &[u8]) {}
    }
    fn upto(items: &[u64], limit: u64) -> Upto {
        Upto {
            items: items.to_vec(),
            limit,
        }
    }

    #[test]
    fn item_wise_monitor_is_a_local_monitor_with_a_memo() {
        let m = Monitor::local_items(
            "items<limit",
            |u: &Upto| (u.limit, u.items.as_slice()),
            |_, limit, x| x < limit,
        );
        assert!(m.holds_for_program(Pid(0), &upto(&[1, 2, 3], 4)));
        assert!(!m.holds_for_program(Pid(0), &upto(&[1, 9, 3], 4)));
        assert!(!m.holds_for_program(Pid(0), &upto(&[1, 2, 3], 3)));
        // Other program types pass vacuously, as with `Monitor::local`.
        assert!(m.holds_for_program(Pid(0), &Counter { n: 9 }));
        assert_eq!(m.invariant().name, "items<limit");

        // A supervisor's memo changes what is verified, never the verdict.
        let mut w = watch(vec![m.clone(), Monitor::local::<Upto>("t", |_, _| true)]);
        assert!(w.memos[1].is_none());
        let memo = w.memos[0].as_mut().expect("item-wise monitors get a memo");
        assert!(memo.holds(Pid(1), &upto(&[1, 2, 3], 4)));
        assert!(memo.holds(Pid(1), &upto(&[1, 2], 4)));
        assert!(!memo.holds(Pid(1), &upto(&[1, 2, 3], 3)));
        assert!(!memo.holds(Pid(1), &upto(&[5, 2, 3], 4)));
        assert!(memo.holds(Pid(1), &upto(&[1, 2, 3], 4)));
        assert!(memo.holds(Pid(1), &Counter { n: 9 }));
    }

    #[test]
    fn verified_paths_follow_every_branch_by_value() {
        let mut paths: Paths<u64, u64> = Paths::default();
        paths.grow(&4, &[1, 2, 3]);
        paths.grow(&4, &[1, 5]);
        paths.grow(&4, &[1, 2]);
        assert_eq!(paths.walk(&4, &[1, 2, 3, 9]), 3);
        assert_eq!(paths.walk(&4, &[1, 5, 3]), 2);
        assert_eq!(paths.walk(&4, &[2, 2, 3]), 0, "values, not positions");
        assert_eq!(paths.walk(&5, &[1, 2, 3]), 0, "another context");
        // Growing along a known path adds nothing.
        assert_eq!(paths.nodes.len(), 5);
    }

    #[test]
    fn monitor_invariant_mirrors_world_check() {
        let m = Monitor::local::<Counter>("n<3", |_, c| c.n < 3);
        let inv = m.invariant();
        assert_eq!(inv.name, "n<3");
    }
}
