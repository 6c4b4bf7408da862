//! Enumerative reference procedures, the test oracle for the symbolic
//! engine: each crate-root query has an independent counterpart here
//! that works on concrete packets through [`eval_set`]. Only tests,
//! `tests/sym_diff.rs` and harness E19 call it, so it is not
//! re-exported at the crate root.
//!
//! # Completeness of the finite model
//!
//! Tests and modifications only ever compare or assign *constants*, so a
//! policy's behaviour on a field depends only on which of the mentioned
//! constants the field equals — or "none of them". Enumerating each field
//! over the constants mentioned in **either** policy plus exactly one
//! *fresh representative* is therefore a complete finite model: any two
//! unmentioned values are indistinguishable by both policies (no test can
//! separate them, and any assignment maps both to the same constant), so
//! one representative suffices, and it must be chosen **outside** the
//! mentioned set or it would alias a distinguishable value and mask
//! differences. [`fresh_for`] pins this choice to the smallest value not
//! mentioned for the field; its regression test below and
//! `equiv::tests::adjacent_mentioned_values_do_not_mask_differences`
//! cover the edge where mentioned values are adjacent to (or interleaved
//! around) the chosen representative.

use crate::ast::{Field, Packet, Policy, Pred};
use crate::semantics::eval_set;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Decide `p ≡ q` for dup-free policies by enumerating the finite model.
pub fn equivalent(p: &Policy, q: &Policy) -> bool {
    counterexample(p, q).is_none()
}

/// Find a packet on which the two (dup-free) policies disagree by
/// enumerating the finite model.
pub fn counterexample(p: &Policy, q: &Policy) -> Option<Packet> {
    assert!(
        !p.has_dup() && !q.has_dup(),
        "equivalence checking is implemented for the dup-free fragment"
    );
    let mut consts = Vec::new();
    p.constants(&mut consts);
    q.constants(&mut consts);

    // Per-field value domains: mentioned constants + one fresh value.
    let mut domains: Vec<Vec<u32>> = Vec::with_capacity(Field::ALL.len());
    for f in Field::ALL {
        let mut vals: Vec<u32> = consts
            .iter()
            .filter(|(g, _)| *g == f)
            .map(|(_, v)| *v)
            .collect();
        vals.sort_unstable();
        vals.dedup();
        vals.push(fresh_for(&vals));
        domains.push(vals);
    }

    // Enumerate the cross product.
    let mut pkt = Packet::zero();
    enumerate(&domains, 0, &mut pkt, &mut |candidate| {
        let pin = BTreeSet::from([*candidate]);
        if eval_set(p, &pin) != eval_set(q, &pin) {
            Some(*candidate)
        } else {
            None
        }
    })
}

/// The fresh representative for a field: the smallest value not among the
/// constants mentioned for it. Pinned (and tested) because oracle
/// completeness requires the representative to lie outside the mentioned
/// set — see the module docs.
fn fresh_for(mentioned: &[u32]) -> u32 {
    (0..)
        .find(|v| !mentioned.contains(v))
        .expect("u32 not exhausted")
}

fn enumerate<T>(
    domains: &[Vec<u32>],
    field_idx: usize,
    pkt: &mut Packet,
    visit: &mut impl FnMut(&Packet) -> Option<T>,
) -> Option<T> {
    if field_idx == domains.len() {
        return visit(pkt);
    }
    for &v in &domains[field_idx] {
        pkt.0[field_idx] = v;
        if let Some(t) = enumerate(domains, field_idx + 1, pkt, visit) {
            return Some(t);
        }
    }
    None
}

/// All packets reachable from `init` under zero or more applications of
/// `step` (materializes the concrete set).
pub fn reachable(step: &Policy, init: &BTreeSet<Packet>) -> BTreeSet<Packet> {
    eval_set(&step.clone().star(), init)
}

/// Does some packet in `init` eventually satisfy `goal` under `step*`?
pub fn can_reach(step: &Policy, init: &BTreeSet<Packet>, goal: &Pred) -> bool {
    reachable(step, init).iter().any(|p| goal.eval(p))
}

/// Shortest witness trace by explicit BFS with a predecessor map; same
/// contract as [`crate::witness_path`].
pub fn witness_path(step: &Policy, init: &BTreeSet<Packet>, goal: &Pred) -> Option<Vec<Packet>> {
    let mut pred: BTreeMap<Packet, Option<Packet>> = BTreeMap::new();
    let mut queue = VecDeque::new();
    for &p in init {
        pred.insert(p, None);
        queue.push_back(p);
        if goal.eval(&p) {
            return Some(vec![p]);
        }
    }
    while let Some(cur) = queue.pop_front() {
        let outs = eval_set(step, &BTreeSet::from([cur]));
        for nxt in outs {
            if pred.contains_key(&nxt) {
                continue;
            }
            pred.insert(nxt, Some(cur));
            if goal.eval(&nxt) {
                // Reconstruct.
                let mut path = vec![nxt];
                let mut at = nxt;
                while let Some(Some(prev)) = pred.get(&at) {
                    path.push(*prev);
                    at = *prev;
                }
                path.reverse();
                return Some(path);
            }
            queue.push_back(nxt);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_representative_is_pinned_outside_mentioned_values() {
        assert_eq!(fresh_for(&[]), 0);
        assert_eq!(fresh_for(&[0]), 1);
        assert_eq!(fresh_for(&[1, 2]), 0);
        // Adjacent/contiguous runs: the representative must skip them all.
        assert_eq!(fresh_for(&[0, 1, 2]), 3);
        // A gap between mentioned values is fine to use.
        assert_eq!(fresh_for(&[0, 2]), 1);
    }
}
