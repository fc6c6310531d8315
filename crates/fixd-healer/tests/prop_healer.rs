//! Property-based tests for the Healer: migration combinator laws and
//! update/restart invariants.

use proptest::prelude::*;

use fixd_healer::{migrate, Patch};
use fixd_runtime::{Context, Message, Pid, Program};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// identity is a unit for compose.
    #[test]
    fn identity_unit(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let left = migrate::compose(migrate::identity(), migrate::identity());
        prop_assert_eq!(left(&bytes).unwrap(), bytes.clone());
    }

    /// compose associates.
    #[test]
    fn compose_associative(bytes in proptest::collection::vec(any::<u8>(), 0..64),
                           suffix_a in proptest::collection::vec(any::<u8>(), 0..8),
                           suffix_b in proptest::collection::vec(any::<u8>(), 0..8)) {
        let f = migrate::append(suffix_a);
        let g = migrate::append(suffix_b);
        let h = migrate::identity();
        let lhs = migrate::compose(migrate::compose(f.clone(), g.clone()), h.clone());
        let rhs = migrate::compose(f, migrate::compose(g, h));
        prop_assert_eq!(lhs(&bytes).unwrap(), rhs(&bytes).unwrap());
    }

    /// append then truncate to the original length is identity.
    #[test]
    fn append_truncate_inverse(bytes in proptest::collection::vec(any::<u8>(), 0..64),
                               suffix in proptest::collection::vec(any::<u8>(), 0..16)) {
        let n = bytes.len();
        let m = migrate::compose(migrate::append(suffix), migrate::truncate(n));
        prop_assert_eq!(m(&bytes).unwrap(), bytes.clone());
    }

    /// A guarded migration refuses exactly when the guard says so.
    #[test]
    fn guard_exactness(bytes in proptest::collection::vec(any::<u8>(), 0..32), limit in 0usize..32) {
        let m = migrate::guarded(move |b| b.len() <= limit, "too long", migrate::identity());
        let r = m(&bytes);
        if bytes.len() <= limit {
            prop_assert!(r.is_ok());
        } else {
            prop_assert!(r.is_err());
        }
    }
}

/// A parameterized accumulator for patch-roundtrip properties.
#[derive(Clone)]
struct Gen {
    acc: u64,
    mult: u64,
}
impl Program for Gen {
    fn on_message(&mut self, _ctx: &mut Context, msg: &Message) {
        self.acc = self
            .acc
            .wrapping_add(u64::from(msg.payload[0]).wrapping_mul(self.mult));
    }
    fn snapshot(&self) -> Vec<u8> {
        let mut b = self.acc.to_le_bytes().to_vec();
        b.extend_from_slice(&self.mult.to_le_bytes());
        b
    }
    fn restore(&mut self, b: &[u8]) {
        self.acc = u64::from_le_bytes(b[0..8].try_into().unwrap());
        self.mult = u64::from_le_bytes(b[8..16].try_into().unwrap());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Patch::instantiate` with an identity migration reproduces the
    /// old state bit-exactly in the new program.
    #[test]
    fn identity_patch_roundtrip(acc in any::<u64>(), mult in any::<u64>()) {
        let old = Gen { acc, mult };
        let patch = Patch::code_only("p", 1, 2, || Box::new(Gen { acc: 0, mult: 0 }));
        let new_prog = patch.instantiate(&old.snapshot()).unwrap();
        prop_assert_eq!(new_prog.snapshot(), old.snapshot());
    }

    /// Behavioral equivalence holds between a program and its identity
    /// patch, for arbitrary probe payloads.
    #[test]
    fn identity_patch_behaviorally_equivalent(
        acc in any::<u64>(), mult in 0u64..1000,
        probes in proptest::collection::vec(any::<u8>(), 1..6),
    ) {
        use fixd_healer::{behavioral_equivalence, EquivalenceProbe};
        let mut old = Gen { acc, mult };
        let patch = Patch::code_only("p", 1, 2, || Box::new(Gen { acc: 0, mult: 0 }));
        let mut new_prog = patch.instantiate(&old.snapshot()).unwrap();
        let probes: Vec<EquivalenceProbe> = probes
            .into_iter()
            .map(|v| {
                EquivalenceProbe::Deliver(fixd_runtime::Message {
                    id: 0,
                    src: Pid(0),
                    dst: Pid(1),
                    tag: 1,
                    payload: vec![v].into(),
                    sent_at: 0,
                    ckpt_index: 0,
                })
            })
            .collect();
        prop_assert!(behavioral_equivalence(
            Pid(1), 2, 9, &mut old, new_prog.as_mut(), &probes
        ));
    }
}
