//! Behavioral state-equivalence checking.
//!
//! Paper §4.4 (ModelD as Healer): *"additional steps need to be taken in
//! order to ensure that a state in the original implementation is
//! equivalent to some resulting state in the updated implementation."*
//!
//! We check equivalence *behaviorally*: drive the old program (from the
//! old state) and the new program (from the migrated state) through the
//! same probe events under identical [`SoloHarness`] contexts and compare
//! the observable effects (sends, timers, outputs). If every probe
//! produces equivalent effects, the update point is declared safe for
//! this state. This is a bounded check — probes are the update author's
//! responsibility, like Ginseng's programmer-assisted safety arguments.

use fixd_runtime::{Effects, Message, Pid, Program, SoloHarness, TimerId};

/// One probe event to drive both versions through.
#[derive(Clone, Debug)]
pub enum EquivalenceProbe {
    /// Deliver this message.
    Deliver(Message),
    /// Fire this timer.
    Timer(TimerId),
}

/// Compare the observable parts of two effect sets. Timer ids may differ
/// between versions (fresh counters), so equivalence compares send
/// content, output bytes, timer *counts*, and crash flags — not raw
/// fingerprints.
fn effects_equivalent(a: &Effects, b: &Effects) -> bool {
    a.sends.len() == b.sends.len()
        && a.sends
            .iter()
            .zip(b.sends.iter())
            .all(|(x, y)| x.content_fingerprint() == y.content_fingerprint())
        && a.outputs == b.outputs
        && a.timers_set.len() == b.timers_set.len()
        && a.crashed == b.crashed
}

/// Drive `old` (from its current state) and `new` (from its migrated
/// state) through `probes`; true iff every probe yields equivalent
/// observable effects.
///
/// Both programs are driven under fresh harnesses with the same `pid`,
/// `width`, and `seed`, so RNG draws line up.
pub fn behavioral_equivalence(
    pid: Pid,
    width: usize,
    seed: u64,
    old: &mut dyn Program,
    new: &mut dyn Program,
    probes: &[EquivalenceProbe],
) -> bool {
    let mut ha = SoloHarness::new(pid, width, seed);
    let mut hb = SoloHarness::new(pid, width, seed);
    for probe in probes {
        let (ea, eb) = match probe {
            EquivalenceProbe::Deliver(m) => (ha.deliver(old, m), hb.deliver(new, m)),
            EquivalenceProbe::Timer(t) => (ha.timer(old, *t), hb.timer(new, *t)),
        };
        if !effects_equivalent(&ea, &eb) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixd_runtime::Context;

    /// v1: forwards doubled values. v2: same observable behavior, new
    /// internal bookkeeping field (behaviorally equivalent).
    #[derive(Clone)]
    struct A {
        total: u64,
    }
    impl Program for A {
        fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
            self.total += u64::from(msg.payload[0]);
            ctx.send(Pid(0), 9, vec![msg.payload[0] * 2]);
        }
        fn snapshot(&self) -> Vec<u8> {
            self.total.to_le_bytes().to_vec()
        }
        fn restore(&mut self, b: &[u8]) {
            self.total = u64::from_le_bytes(b.try_into().unwrap());
        }
    }

    #[derive(Clone)]
    struct B {
        total: u64,
        seen: u64, // new field, not observable
    }
    impl Program for B {
        fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
            self.total += u64::from(msg.payload[0]);
            self.seen += 1;
            ctx.send(Pid(0), 9, vec![msg.payload[0] * 2]);
        }
        fn snapshot(&self) -> Vec<u8> {
            let mut v = self.total.to_le_bytes().to_vec();
            v.extend_from_slice(&self.seen.to_le_bytes());
            v
        }
        fn restore(&mut self, b: &[u8]) {
            self.total = u64::from_le_bytes(b[0..8].try_into().unwrap());
            self.seen = u64::from_le_bytes(b[8..16].try_into().unwrap());
        }
    }

    /// v3: behavior change — triples instead of doubling (NOT equivalent).
    #[derive(Clone)]
    struct C;
    impl Program for C {
        fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
            ctx.send(Pid(0), 9, vec![msg.payload[0] * 3]);
        }
        fn snapshot(&self) -> Vec<u8> {
            vec![]
        }
        fn restore(&mut self, _b: &[u8]) {}
    }

    fn probe(v: u8) -> EquivalenceProbe {
        EquivalenceProbe::Deliver(Message {
            id: 0,
            src: Pid(0),
            dst: Pid(1),
            tag: 1,
            payload: vec![v].into(),
            sent_at: 0,
            ckpt_index: 0,
        })
    }

    #[test]
    fn equivalent_versions_pass() {
        let mut old = A { total: 5 };
        let mut new = B { total: 5, seen: 0 };
        assert!(behavioral_equivalence(
            Pid(1),
            2,
            3,
            &mut old,
            &mut new,
            &[probe(1), probe(2), probe(7)],
        ));
    }

    #[test]
    fn behavior_change_detected() {
        let mut old = A { total: 5 };
        let mut new = C;
        assert!(!behavioral_equivalence(
            Pid(1),
            2,
            3,
            &mut old,
            &mut new,
            &[probe(1)],
        ));
    }

    #[test]
    fn empty_probe_set_is_vacuously_equivalent() {
        let mut old = A { total: 0 };
        let mut new = C;
        assert!(behavioral_equivalence(
            Pid(1),
            2,
            3,
            &mut old,
            &mut new,
            &[]
        ));
    }
}
