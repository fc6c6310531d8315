//! Is sleep-set reduction (`ExploreConfig::use_reduction`) sound here?
//! Sleep sets prune transitions, not states: a reduced run must reach
//! every state a textbook BFS reaches, report the same violations at
//! the same BFS depths, and the same deadlocks. Sleep sets combined with
//! a visited set are a known trap — a state first reached with a large
//! sleep set and later with a smaller one must have the difference
//! expanded, and the loop drops the second arrival — so this checks it,
//! in both orders a one-worker run takes (BFS, DFS):
//!
//! * on random guarded systems over three small counters, under a random
//!   independence relation from which every pair that does not commute
//!   in some reachable state (in both orders, neither disabling the
//!   other) has been struck;
//! * on the `WorldModel`s of the four `heal-loop` apps and of Chord-KV,
//!   under `WorldModel::independent`, on a reliable network.

mod common;

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

use proptest::prelude::*;

use common::naive_bfs;
use fixd_investigator::system::TransitionSystem;
use fixd_investigator::{
    ExploreConfig, Explorer, GuardedSystem, GuardedSystemBuilder, Invariant, NetModel, SearchOrder,
    WorldModel, WorldState,
};
use fixd_runtime::{Pid, Program};

/// What a reduced run must agree with the reference on: reachable
/// states, `(BFS depth, fingerprint, invariant)` of every violation, and
/// deadlocks.
#[derive(Debug, PartialEq)]
struct Verdict {
    states: usize,
    violations: Vec<(usize, u64, String)>,
    deadlocks: usize,
}

fn reduced<T: TransitionSystem>(
    sys: &T,
    invariants: &[Invariant<T::State>],
    order: SearchOrder,
) -> Verdict {
    let cfg = ExploreConfig {
        order,
        use_reduction: true,
        max_states: usize::MAX,
        max_violations: usize::MAX,
        ..ExploreConfig::default()
    };
    let r = Explorer::new(sys, cfg)
        .invariants(invariants.iter().cloned())
        .run();
    assert!(!r.truncated);
    Verdict {
        states: r.states,
        violations: (r.violations.iter())
            .map(|t| (t.depth, t.end_fingerprint, t.violation.clone()))
            .collect(),
        deadlocks: r.deadlocks.len(),
    }
}

fn reference<T: TransitionSystem>(sys: &T, invariants: &[Invariant<T::State>]) -> Verdict {
    let r = naive_bfs(sys, invariants);
    Verdict {
        states: r.states,
        violations: r.violations,
        deadlocks: r.deadlocks,
    }
}

/// One guarded command over three counters: `(kind, i, j, cap)`.
type Command = (u8, usize, usize, u8);

/// Kind 0 increments counter `i` below `cap`; kind 1 copies `i` into a
/// different `j`; kind 2 resets `i` once it reaches `cap`; kind 3 moves
/// one unit from `i` to `j` while `j` is below `cap`.
fn guarded(commands: &[Command]) -> GuardedSystem<[u8; 3]> {
    let mut sys = GuardedSystemBuilder::new([0u8; 3]).build();
    for (a, &(kind, i, j, cap)) in commands.iter().enumerate() {
        let j = if i == j { (j + 1) % 3 } else { j };
        let name = format!("a{a}");
        let action = match kind {
            0 => fixd_investigator::Action::new(
                &name,
                move |s: &[u8; 3]| s[i] < cap,
                move |s| s[i] += 1,
            ),
            1 => fixd_investigator::Action::new(
                &name,
                move |s: &[u8; 3]| s[i] != s[j],
                move |s| s[j] = s[i],
            ),
            2 => fixd_investigator::Action::new(
                &name,
                move |s: &[u8; 3]| s[i] == cap,
                move |s| s[i] = 0,
            ),
            _ => fixd_investigator::Action::new(
                &name,
                move |s: &[u8; 3]| s[i] > 0 && s[j] < cap,
                move |s| {
                    s[i] -= 1;
                    s[j] += 1;
                },
            ),
        };
        sys.add_action(action);
    }
    sys
}

/// Every state reachable in `sys`.
fn reachable(sys: &GuardedSystem<[u8; 3]>) -> Vec<[u8; 3]> {
    let mut seen = HashSet::from([sys.initial()]);
    let mut queue = VecDeque::from([sys.initial()]);
    let mut all = Vec::new();
    while let Some(s) = queue.pop_front() {
        for l in sys.enabled(&s) {
            let next = sys.apply(&s, &l);
            if seen.insert(next) {
                queue.push_back(next);
            }
        }
        all.push(s);
    }
    all
}

/// The pairs of `wanted` (bit `a * n + b` asks for actions `a` and `b`)
/// that really are independent in `sys`: wherever both are enabled,
/// neither disables the other and both orders end in one state.
fn valid_independence(sys: &GuardedSystem<[u8; 3]>, wanted: u64) -> HashSet<(String, String)> {
    let actions = sys.actions();
    let n = actions.len();
    let states = reachable(sys);
    let mut pairs = HashSet::new();
    for a in 0..n {
        for b in a + 1..n {
            if wanted >> ((a * n + b) % 64) & 1 == 0 {
                continue;
            }
            let (x, y) = (&actions[a], &actions[b]);
            let commute = states.iter().all(|s| {
                if !(x.guard)(s) || !(y.guard)(s) {
                    return true;
                }
                let (mut xs, mut ys) = (*s, *s);
                (x.effect)(&mut xs);
                (y.effect)(&mut ys);
                if !(y.guard)(&xs) || !(x.guard)(&ys) {
                    return false;
                }
                (y.effect)(&mut xs);
                (x.effect)(&mut ys);
                xs == ys
            });
            if commute {
                pairs.insert((x.name.clone(), y.name.clone()));
                pairs.insert((y.name.clone(), x.name.clone()));
            }
        }
    }
    pairs
}

/// [`guarded`]`(commands)` under the valid part of the independence
/// `wanted` asks for, with the states whose counters sum to
/// `terminal_parity` modulo 2 as its acceptable end states, and the
/// independent pairs it kept.
fn with_independence(
    commands: &[Command],
    wanted: u64,
    terminal_parity: u8,
) -> (GuardedSystem<[u8; 3]>, Vec<(String, String)>) {
    let plain = guarded(commands);
    let independent = Arc::new(valid_independence(&plain, wanted));
    let mut pairs: Vec<_> = (independent.iter())
        .filter(|(a, b)| a < b)
        .cloned()
        .collect();
    pairs.sort();
    let mut sys = GuardedSystemBuilder::new([0u8; 3])
        .expected_terminal(move |s: &[u8; 3]| s.iter().sum::<u8>() % 2 == terminal_parity)
        .independence(move |a, b| independent.contains(&(a.to_string(), b.to_string())))
        .build();
    for action in plain.actions() {
        sys.add_action(action.clone());
    }
    (sys, pairs)
}

/// The commands of a random case: `(kind, i, j, cap)`, see [`guarded`].
fn commands() -> impl Strategy<Value = Vec<Command>> {
    proptest::collection::vec((0u8..4, 0usize..3, 0usize..3, 1u8..4), 2..7)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// **Fails, so it is ignored** (run it with `-- --ignored`). A
    /// violating state is never expanded, but its siblings' sleep sets
    /// count on its successors: a state whose only path from the root
    /// in a reduced run commutes through a violating state is lost.
    ///
    /// First counterexample (case 2 of 64, BFS): commands
    /// `[(2,1,0,3), (0,0,2,2), (0,2,1,3), (1,2,2,1), (1,2,1,3), (0,1,0,3)]`,
    /// independent pairs `a0–a2 a0–a3 a0–a5 a1–a2 a1–a4 a1–a5 a2–a5`,
    /// invariant "not `[2,0,3]`": the reference reaches 52 states, the
    /// reduced run 51, with the same violation. Minimised by hand: `a0`
    /// increments counter 2 below 3, `a1` copies counter 2 into counter
    /// 0, `a2` increments counter 1 below 1, `a0–a2` independent, the
    /// same invariant: 20 states against 19.
    #[test]
    #[ignore = "sleep sets lose the states past a violating state; see the doc"]
    fn reduction_reaches_what_bfs_reaches_on_guarded_systems(
        commands in commands(),
        wanted in any::<u64>(),
        target in (0u8..4, 0u8..4, 0u8..4),
        terminal_parity in 0u8..2,
    ) {
        let (sys, pairs) = with_independence(&commands, wanted, terminal_parity);
        let target = [target.0, target.1, target.2];
        let invariants = [Invariant::new("not-target", move |s: &[u8; 3]| *s != target)];
        let want = reference(&sys, &invariants);
        for order in [SearchOrder::Bfs, SearchOrder::Dfs] {
            prop_assert_eq!(
                &want,
                &reduced(&sys, &invariants, order.clone()),
                "{:?} commands {:?} independent {:?} target {:?} terminal parity {}",
                order, commands, pairs, target, terminal_parity
            );
        }
    }

    /// What does hold: with no invariant to stop at, the reduced run
    /// reaches every state and deadlock the reference reaches. The
    /// visited-set trap (a state first reached with a larger sleep set)
    /// did not show in these cases.
    #[test]
    fn without_violations_reduction_reaches_what_bfs_reaches(
        commands in commands(),
        wanted in any::<u64>(),
        terminal_parity in 0u8..2,
    ) {
        let (sys, pairs) = with_independence(&commands, wanted, terminal_parity);
        let want = reference(&sys, &[]);
        for order in [SearchOrder::Bfs, SearchOrder::Dfs] {
            prop_assert_eq!(
                &want,
                &reduced(&sys, &[], order.clone()),
                "{:?} commands {:?} independent {:?} terminal parity {}",
                order, commands, pairs, terminal_parity
            );
        }
    }
}

/// The `heal-loop` apps in its shapes, and the 1-put Chord-KV model.
fn app_models() -> Vec<(&'static str, WorldModel)> {
    use fixd_examples::chord::{ChordNode, ChordRing};
    use fixd_examples::kvstore::{self, BackupV1, Client, Primary};
    use fixd_examples::pipeline::{Cruncher, Source};
    use fixd_examples::token_ring::RingNode;
    use fixd_examples::two_phase_commit::tpc_factory;
    let net = NetModel::reliable();
    vec![
        (
            "kvstore v1",
            WorldModel::new(1, net, || {
                vec![
                    Box::new(Client {
                        script: kvstore::script(3, 1),
                    }) as Box<dyn Program>,
                    Box::new(Primary::default()),
                    Box::new(BackupV1::default()),
                ]
            }),
        ),
        (
            "pipeline",
            WorldModel::new(2, net, || {
                vec![
                    Box::new(Source { n_items: 6 }) as Box<dyn Program>,
                    Box::new(Cruncher::buggy(50, 4)),
                ]
            }),
        ),
        (
            "token ring",
            WorldModel::new(3, net, || {
                (0..4)
                    .map(|i| {
                        Box::new(if i == 1 {
                            RingNode::buggy(10)
                        } else {
                            RingNode::correct()
                        }) as Box<dyn Program>
                    })
                    .collect()
            }),
        ),
        (
            "2pc",
            WorldModel::new(4, net, tpc_factory(vec![true, true, false], true)),
        ),
        (
            "chord-kv",
            WorldModel::new(5, net, || {
                let ring = Arc::new(ChordRing::new(&[Pid(0), Pid(1), Pid(2)]));
                (0..3)
                    .map(|_| {
                        Box::new(ChordNode::new(Arc::clone(&ring), 0, 0).with_kv_workload(1))
                            as Box<dyn Program>
                    })
                    .collect()
            }),
        ),
    ]
}

/// Something each app can get wrong, so that violations are compared
/// too: a read answered wrong, a duplicated token held twice over.
fn app_invariants() -> [Invariant<WorldState>; 2] {
    [
        Invariant::new("no-bad-read", |s: &WorldState| {
            (s.outputs().iter()).all(|(_, p)| {
                p.first() != Some(&fixd_examples::chord::KV_READ_MARK) || p.get(1) == Some(&1)
            })
        }),
        Invariant::new("one-token", |s: &WorldState| {
            (0..s.width() as u32)
                .filter(|&i| {
                    s.program::<fixd_examples::token_ring::RingNode>(Pid(i))
                        .is_some_and(|r| r.holding)
                })
                .count()
                <= 1
        }),
    ]
}

fn apps_agree(invariants: &[Invariant<WorldState>]) {
    for (name, model) in app_models() {
        let want = reference(&model, invariants);
        for order in [SearchOrder::Bfs, SearchOrder::Dfs] {
            assert_eq!(
                want,
                reduced(&model, invariants, order.clone()),
                "{name} {order:?}"
            );
        }
    }
}

/// **Fails, so it is ignored**, for the reason the guarded property
/// gives. First counterexample: the token ring under BFS, where the
/// reference reaches 1,038 states and 67 states holding two tokens, the
/// reduced run 894 and 45; the other four apps agree.
#[test]
#[ignore = "sleep sets lose the states past a violating state; see the doc"]
fn reduction_reaches_what_bfs_reaches_on_the_apps() {
    apps_agree(&app_invariants());
}

/// With no invariant to stop at, every app agrees in both orders.
#[test]
fn without_violations_reduction_reaches_what_bfs_reaches_on_the_apps() {
    apps_agree(&[]);
}
