//! Equivalence checking for dup-free NetKAT policies.
//!
//! Both policies are converted to canonical hash-consed transformers in
//! one [`sym::Arena`], the thread's compiled workspace (a policy already
//! compiled there is not converted again); equivalence is then id
//! equality and counterexamples fall out of the first structural
//! difference ([`sym::Arena::distinguishing_input`]). Scales to thousand-switch
//! fabrics (experiment E19). The enumerative finite-model procedure in
//! [`crate::oracle`] is the independent reference the tests below and
//! `tests/sym_diff.rs` compare against.

use crate::ast::{Packet, Policy};
use crate::semantics::eval_set;
use crate::sym;
use std::collections::BTreeSet;

/// Decide `p ≡ q` for dup-free policies.
/// Panics on `dup` (histories are not compared by this routine).
pub fn equivalent(p: &Policy, q: &Policy) -> bool {
    counterexample(p, q).is_none()
}

/// Find a packet on which the two (dup-free) policies disagree.
pub fn counterexample(p: &Policy, q: &Policy) -> Option<Packet> {
    assert!(
        !p.has_dup() && !q.has_dup(),
        "equivalence checking is implemented for the dup-free fragment"
    );
    let pkt = sym::with_compiled(&[p, q], |ar, ts| {
        ar.distinguishing_input(ts[0], ts[1])
            .map(|w| ar.packet_of_values(&w))
    })
    .expect("dup-free policy converts to a transformer")?;
    debug_assert_ne!(
        eval_set(p, &BTreeSet::from([pkt])),
        eval_set(q, &BTreeSet::from([pkt])),
        "symbolic witness must distinguish the policies"
    );
    Some(pkt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Field, Pred};
    use crate::oracle;

    fn f(p: Pred) -> Policy {
        Policy::filter(p)
    }

    /// The symbolic procedure and the oracle both give `expect`.
    fn both(expect: bool, p: &Policy, q: &Policy) {
        assert_eq!(equivalent(p, q), expect, "symbolic");
        assert_eq!(oracle::equivalent(p, q), expect, "oracle");
    }

    // Kleene-algebra-with-tests axioms, checked semantically.
    #[test]
    fn union_commutative_and_idempotent() {
        let p = Policy::assign(Field::Port, 1);
        let q = f(Pred::test(Field::Switch, 2));
        both(
            true,
            &p.clone().union(q.clone()),
            &q.clone().union(p.clone()),
        );
        both(true, &p.clone().union(p.clone()), &p);
    }

    #[test]
    fn seq_associative_with_identities() {
        let p = Policy::assign(Field::Port, 1);
        let q = f(Pred::test(Field::Port, 1));
        let r = Policy::assign(Field::Tag, 3);
        both(
            true,
            &p.clone().seq(q.clone()).seq(r.clone()),
            &p.clone().seq(q.clone().seq(r.clone())),
        );
        both(true, &Policy::id().seq(p.clone()), &p);
        both(true, &p.clone().seq(Policy::id()), &p);
        both(true, &Policy::drop().seq(p.clone()), &Policy::drop());
    }

    #[test]
    fn distribution_left() {
        let p = Policy::assign(Field::Port, 1);
        let q = Policy::assign(Field::Port, 2);
        let r = f(Pred::test(Field::Port, 1));
        both(
            true,
            &p.clone().union(q.clone()).seq(r.clone()),
            &p.seq(r.clone()).union(q.seq(r)),
        );
    }

    #[test]
    fn star_unrolling() {
        let step = f(Pred::test(Field::Switch, 1)).seq(Policy::assign(Field::Switch, 2));
        let star = step.clone().star();
        // p* ≡ id + p ; p*
        both(
            true,
            &star,
            &Policy::id().union(step.clone().seq(star.clone())),
        );
    }

    #[test]
    fn mod_then_test_absorbs() {
        // f := n ; filter f = n ≡ f := n   (PA axiom)
        let lhs = Policy::assign(Field::Dst, 5).seq(f(Pred::test(Field::Dst, 5)));
        let rhs = Policy::assign(Field::Dst, 5);
        both(true, &lhs, &rhs);
    }

    #[test]
    fn test_then_mod_same_value_commutes() {
        // filter f = n ; f := n ≡ filter f = n
        let lhs = f(Pred::test(Field::Dst, 5)).seq(Policy::assign(Field::Dst, 5));
        let rhs = f(Pred::test(Field::Dst, 5));
        both(true, &lhs, &rhs);
    }

    #[test]
    fn inequivalent_policies_yield_counterexample() {
        let p = Policy::assign(Field::Port, 1);
        let q = Policy::assign(Field::Port, 2);
        for cx in [counterexample(&p, &q), oracle::counterexample(&p, &q)] {
            let cx = cx.expect("distinct mods must differ");
            let pin = BTreeSet::from([cx]);
            assert_ne!(eval_set(&p, &pin), eval_set(&q, &pin));
        }
    }

    #[test]
    fn filters_commute_with_each_other() {
        let a = f(Pred::test(Field::Src, 1));
        let b = f(Pred::test(Field::Dst, 2));
        both(true, &a.clone().seq(b.clone()), &b.clone().seq(a.clone()));
    }

    #[test]
    fn fresh_value_distinguishes_negation() {
        // filter !(src = 1) is NOT the same as filter src = 2 even though
        // both accept src=2: the fresh-value row catches it.
        let p = f(Pred::test(Field::Src, 1).not());
        let q = f(Pred::test(Field::Src, 2));
        both(false, &p, &q);
    }

    #[test]
    fn adjacent_mentioned_values_do_not_mask_differences() {
        // p accepts src ∉ {0,1}; q accepts src = 2 only. The mentioned set
        // for src is the contiguous run {0,1,2}: a buggy fresh choice
        // inside the run (e.g. reusing 2) would make the oracle see
        // identical rows and wrongly report equivalence. The pinned fresh
        // representative 3 distinguishes them.
        let p = f(Pred::test(Field::Src, 0)
            .or(Pred::test(Field::Src, 1))
            .not());
        let q = f(Pred::test(Field::Src, 2));
        for cx in [counterexample(&p, &q), oracle::counterexample(&p, &q)] {
            let cx = cx.expect("must differ");
            assert!(
                cx.get(Field::Src) > 2,
                "witness must use a value outside the mentioned run, got {cx:?}"
            );
        }
    }
}
