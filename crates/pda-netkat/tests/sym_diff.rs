//! Differential testing of the symbolic engine against the enumerative
//! [`oracle`]: on random dup-free policies the two decision procedures must
//! agree on equivalence verdicts, counterexample witnesses must actually
//! distinguish the policies under `eval_packet`, reachability must
//! coincide, and the arena's structural invariants must hold after every
//! workload.

use pda_netkat::ast::{Field, Packet, Policy, Pred};
use pda_netkat::semantics::eval_packet;
use pda_netkat::sym::Arena;
use pda_netkat::{can_reach, counterexample, equivalent, oracle, witness_path};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn field() -> impl Strategy<Value = Field> {
    prop_oneof![
        Just(Field::Switch),
        Just(Field::Port),
        Just(Field::Src),
        Just(Field::Dst),
        Just(Field::Proto),
        Just(Field::Tag),
    ]
}

fn pred() -> impl Strategy<Value = Pred> {
    let leaf = prop_oneof![
        Just(Pred::True),
        Just(Pred::False),
        (field(), 0u32..4).prop_map(|(f, v)| Pred::Test(f, v)),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(|a| a.not()),
        ]
    })
}

/// Random dup-free policies over a small value domain (keeps the
/// enumerative oracle fast).
fn policy() -> impl Strategy<Value = Policy> {
    let leaf = prop_oneof![
        pred().prop_map(Policy::Filter),
        (field(), 0u32..4).prop_map(|(f, v)| Policy::Mod(f, v)),
    ];
    leaf.prop_recursive(3, 20, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(p, q)| p.union(q)),
            (inner.clone(), inner.clone()).prop_map(|(p, q)| p.seq(q)),
            inner.prop_map(|p| p.star()),
        ]
    })
}

fn pkt() -> impl Strategy<Value = Packet> {
    proptest::collection::vec(0u32..4, 6).prop_map(|v| {
        let mut p = Packet::zero();
        for (i, f) in Field::ALL.into_iter().enumerate() {
            p = p.with(f, v[i]);
        }
        p
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The engine and the oracle agree on the equivalence verdict, and
    /// whenever they report inequivalence the symbolic witness actually
    /// distinguishes the policies under the denotational semantics.
    #[test]
    fn backends_agree_on_equivalence(p in policy(), q in policy()) {
        let sym = equivalent(&p, &q);
        let enu = oracle::equivalent(&p, &q);
        prop_assert_eq!(sym, enu, "verdict split on p={}, q={}", p, q);
        if !sym {
            let w = counterexample(&p, &q)
                .expect("inequivalent policies must yield a witness");
            prop_assert_ne!(
                eval_packet(&p, w),
                eval_packet(&q, w),
                "witness {:?} does not distinguish p={}, q={}",
                w, p, q
            );
        }
    }

    /// Every policy is symbolically equivalent to itself post-roundtrip
    /// through the arena, and the symbolic evaluator agrees pointwise
    /// with the denotational one.
    #[test]
    fn symbolic_eval_matches_denotational(p in policy(), x in pkt()) {
        // `for_policies` picks a (generally non-identity) variable order,
        // so this also differentially tests the slot permutation logic.
        let mut ar = Arena::for_policies(&[&p]);
        let t = ar.spp_from_policy(&p).expect("dup-free");
        let sym: BTreeSet<Packet> = ar
            .spp_eval(t, &ar.values_of_packet(&x))
            .iter()
            .map(|v| ar.packet_of_values(v))
            .collect();
        prop_assert_eq!(sym, eval_packet(&p, x), "policy {}", p);
        prop_assert!(ar.check_invariants().is_ok());
    }

    /// Symbolic and enumerative reachability coincide, and so do the
    /// lengths of the shortest witness paths.
    #[test]
    fn backends_agree_on_reachability(p in policy(), x in pkt(), g in pred()) {
        let init = BTreeSet::from([x]);
        let sym = can_reach(&p, &init, &g);
        let enu = oracle::can_reach(&p, &init, &g);
        prop_assert_eq!(sym, enu, "reachability split on step={}", p);
        let sym_path = witness_path(&p, &init, &g);
        let enu_path = oracle::witness_path(&p, &init, &g);
        prop_assert_eq!(
            sym_path.as_ref().map(Vec::len),
            enu_path.as_ref().map(Vec::len),
            "witness length split on step={}", p
        );
    }

    /// Interning gives id equality for structurally equal conversions:
    /// converting the same policy twice into one arena yields the same
    /// node, and the arena invariants (canonical ordering, pruning,
    /// intern-table consistency) hold after arbitrary op mixes.
    #[test]
    fn arena_interning_and_invariants(p in policy(), q in policy()) {
        let mut ar = Arena::for_policies(&[&p, &q]);
        let a1 = ar.spp_from_policy(&p).expect("dup-free");
        let a2 = ar.spp_from_policy(&p).expect("dup-free");
        prop_assert_eq!(a1, a2, "same policy must intern to the same id");
        let b = ar.spp_from_policy(&q).expect("dup-free");
        let u1 = ar.spp_union(a1, b);
        let u2 = ar.spp_union(b, a1);
        prop_assert_eq!(u1, u2, "union must be order-insensitive");
        let s = ar.spp_seq(a1, b);
        let _ = ar.spp_star(s);
        prop_assert!(ar.check_invariants().is_ok(), "invariants: {:?}", ar.check_invariants());
    }
}
