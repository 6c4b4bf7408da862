//! Differential testing of the symbolic engine against the enumerative
//! [`oracle`]: on random dup-free policies the two decision procedures must
//! agree on equivalence verdicts, counterexample witnesses must actually
//! distinguish the policies under `eval_packet`, reachability must
//! coincide, and the arena's structural invariants must hold after every
//! workload. The queries share a per-thread compiled workspace; their
//! answers must equal a fresh arena's for every call.

use pda_netkat::ast::{Field, Packet, Policy, Pred};
use pda_netkat::semantics::eval_packet;
use pda_netkat::sym::{Arena, Sp, Spp};
use pda_netkat::{can_reach, counterexample, equivalent, oracle, witness_path};
use pda_netkat::{slice_equivalent, slice_for_switch, slice_is_dead};
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

/// The queries answered in a fresh [`Arena::for_policies`] per call, as
/// they were before the compiled workspace: the reference the shared
/// workspace must match exactly.
mod fresh {
    use super::*;

    fn compiled(ps: &[&Policy]) -> (Arena, Vec<Spp>) {
        let mut ar = Arena::for_policies(ps);
        let ts = ps
            .iter()
            .map(|p| ar.spp_from_policy(p).expect("dup-free"))
            .collect();
        (ar, ts)
    }

    pub(super) fn counterexample(p: &Policy, q: &Policy) -> Option<Packet> {
        let (ar, ts) = compiled(&[p, q]);
        ar.distinguishing_input(ts[0], ts[1])
            .map(|w| ar.packet_of_values(&w))
    }

    pub(super) fn witness_path(
        step: &Policy,
        init: &BTreeSet<Packet>,
        goal: &Pred,
    ) -> Option<Vec<Packet>> {
        let (mut ar, ts) = compiled(&[step]);
        let t = ts[0];
        let goal = ar.sp_from_pred(goal);
        let mut acc = Sp::EMPTY;
        for pkt in init {
            let s = ar.sp_singleton(&ar.values_of_packet(pkt));
            acc = ar.sp_union(acc, s);
        }
        let mut layers = vec![acc];
        let hit = loop {
            let frontier = *layers.last().expect("non-empty");
            let hit = ar.sp_intersect(frontier, goal);
            if hit != Sp::EMPTY {
                break hit;
            }
            let next = ar.push(frontier, t);
            let new = ar.sp_diff(next, acc);
            if new == Sp::EMPTY {
                return None;
            }
            acc = ar.sp_union(acc, new);
            layers.push(new);
        };
        let mut cur = ar.sp_witness(hit).expect("non-empty");
        let mut path = vec![ar.packet_of_values(&cur)];
        for &layer in layers.iter().rev().skip(1) {
            let s = ar.sp_singleton(&cur);
            let prev = ar.pre(t, s);
            let cand = ar.sp_intersect(prev, layer);
            cur = ar.sp_witness(cand).expect("a predecessor");
            path.push(ar.packet_of_values(&cur));
        }
        path.reverse();
        Some(path)
    }

    fn guarded(p: &Policy, sw: u32) -> Policy {
        Policy::filter(Pred::test(Field::Switch, sw)).seq(p.clone())
    }

    pub(super) fn slice_equivalent(network: &Policy, slice: &Policy, sw: u32) -> bool {
        counterexample(&guarded(network, sw), &guarded(slice, sw)).is_none()
    }

    pub(super) fn slice_is_dead(p: &Policy, sw: u32) -> bool {
        compiled(&[&guarded(p, sw)]).1[0] == Spp::ZERO
    }
}

/// Size of the policy pool the interleavings draw from.
const POOL: usize = 7;

/// A pool of policies sharing structure: two random bases and variants
/// of the first. The variants keep its assignments (so its variable
/// order), and the last two differ only in one constant, so that equal
/// sizes never imply equal policies.
fn pool() -> impl Strategy<Value = Vec<Policy>> {
    (policy(), policy(), pred()).prop_map(|(p, q, a)| {
        let at = |sw| Policy::filter(Pred::test(Field::Switch, sw));
        vec![
            p.clone(),
            q.clone(),
            p.clone().seq(Policy::filter(a.clone())),
            Policy::filter(a).seq(p.clone()),
            q.union(p.clone()),
            p.clone().seq(at(0)),
            p.seq(at(1)),
        ]
    })
}

/// One query of an interleaving over the pool.
#[derive(Clone, Debug)]
enum Query {
    Counterexample(usize, usize),
    CanReach(usize, Packet, Pred),
    Witness(usize, Packet, Pred),
    /// Network, policy sliced for the switch, switch.
    SliceEquivalent(usize, usize, u32),
    SliceIsDead(usize, u32),
}

fn query() -> impl Strategy<Value = Query> {
    ((0u8..5, 0..POOL, 0..POOL), pkt(), pred(), 0u32..3).prop_map(|((kind, i, j), x, g, sw)| {
        match kind {
            0 => Query::Counterexample(i, j),
            1 => Query::CanReach(i, x, g),
            2 => Query::Witness(i, x, g),
            3 => Query::SliceEquivalent(i, j, sw),
            _ => Query::SliceIsDead(i, sw),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random interleavings of every workspace query over a shared pool,
    /// so that hits, partial hits and rebuilds all occur: each answer
    /// (the counterexample packet and the witness path themselves, not
    /// just their existence or length) equals a fresh arena's.
    #[test]
    fn workspace_answers_match_fresh_arenas(
        pool in pool(),
        queries in proptest::collection::vec(query(), 8..32),
    ) {
        for q in &queries {
            match q {
                Query::Counterexample(i, j) => prop_assert_eq!(
                    counterexample(&pool[*i], &pool[*j]),
                    fresh::counterexample(&pool[*i], &pool[*j]),
                    "{:?} on {} / {}", q, pool[*i], pool[*j]
                ),
                Query::CanReach(i, x, g) => {
                    let init = BTreeSet::from([*x]);
                    prop_assert_eq!(
                        can_reach(&pool[*i], &init, g),
                        fresh::witness_path(&pool[*i], &init, g).is_some(),
                        "{:?} on {}", q, pool[*i]
                    );
                }
                Query::Witness(i, x, g) => {
                    let init = BTreeSet::from([*x]);
                    prop_assert_eq!(
                        witness_path(&pool[*i], &init, g),
                        fresh::witness_path(&pool[*i], &init, g),
                        "{:?} on {}", q, pool[*i]
                    );
                }
                Query::SliceEquivalent(i, j, sw) => {
                    let slice = slice_for_switch(&pool[*j], *sw);
                    prop_assert_eq!(
                        slice_equivalent(&pool[*i], &slice, Field::Switch, *sw),
                        fresh::slice_equivalent(&pool[*i], &slice, *sw),
                        "{:?} on {} / {}", q, pool[*i], slice
                    );
                }
                Query::SliceIsDead(i, sw) => prop_assert_eq!(
                    slice_is_dead(&pool[*i], *sw),
                    fresh::slice_is_dead(&pool[*i], *sw),
                    "{:?} on {}", q, pool[*i]
                ),
            }
        }
    }

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
