//! Reachability analysis over NetKAT step policies.
//!
//! The standard NetKAT encoding of a network is `in ; (p ; t)* ; p ; out`
//! where `p` is the union of switch policies and `t` the topology
//! relation. The hybrid Copland+NetKAT compiler (the paper's §5.1) needs
//! two queries over this encoding:
//!
//! * **Reachability** (`Prim3`): can traffic satisfying a predicate reach
//!   a node satisfying another predicate? Used to check that a collector
//!   of evidence is reachable by its producers before deploying a policy.
//! * **Path witnesses** (`Prim1`/`Prim2`): concrete hop sequences that
//!   realize `∗⇒`, used to resolve abstract places (`∀hop`) to the actual
//!   switches along a forwarding path.
//!
//! Both queries run on the symbolic engine: the step policy is compiled
//! to a canonical transformer in the thread's compiled workspace
//! ([`crate::sym`], *Workspace*), so repeated queries against one step
//! policy convert it once, and the star fixpoint runs on symbolic
//! packet-*set* frontiers (image under [`Arena::push`] per layer), so a
//! thousand-switch fabric converges in topology-diameter many pushes
//! instead of per-packet enumeration. Witness paths walk the BFS layers
//! backwards through the preimage operator ([`Arena::pre`]). The
//! concrete-packet reference procedures live in [`crate::oracle`].

use crate::ast::{Field, Packet, Policy, Pred};
use crate::sym::{self, Arena, Sp, Spp};
use std::collections::BTreeSet;

/// The layered BFS both queries share: push the frontier through the
/// step policy one layer at a time until a layer meets `goal` or no new
/// packet appears, then hand `answer` the arena, the step transformer
/// `t`, the layers (`layers[i]` holds the packets first reached at
/// distance `i`) and the goal packets of the last layer (`None` when
/// the fixpoint closed without meeting the goal).
fn search<R>(
    step: &Policy,
    init: &BTreeSet<Packet>,
    goal: &Pred,
    answer: impl FnOnce(&mut Arena, Spp, &[Sp], Option<Sp>) -> R,
) -> R {
    assert!(
        !step.has_dup(),
        "reachability is implemented for dup-free step policies"
    );
    sym::with_compiled(&[step], |ar, ts| {
        let t = ts[0];
        let goal_sp = ar.sp_from_pred(goal);
        let mut acc = Sp::EMPTY;
        for pkt in init {
            let vals = ar.values_of_packet(pkt);
            let s = ar.sp_singleton(&vals);
            acc = ar.sp_union(acc, s);
        }
        let mut layers = vec![acc];
        let hit = loop {
            let frontier = *layers.last().expect("non-empty");
            let hit = ar.sp_intersect(frontier, goal_sp);
            if !ar.sp_is_empty(hit) {
                break Some(hit);
            }
            let next = ar.push(frontier, t);
            let new = ar.sp_diff(next, acc);
            if ar.sp_is_empty(new) {
                break None;
            }
            acc = ar.sp_union(acc, new);
            layers.push(new);
        };
        answer(ar, t, &layers, hit)
    })
    .expect("dup-free policy converts to a transformer")
}

/// Does some packet in `init` eventually satisfy `goal` under `step*`?
pub fn can_reach(step: &Policy, init: &BTreeSet<Packet>, goal: &Pred) -> bool {
    search(step, init, goal, |_, _, _, hit| hit.is_some())
}

/// Shortest witness trace: a sequence of packets `π₀ … πₖ` with
/// `π₀ ∈ init`, each `πᵢ₊₁` an output of `step` on `πᵢ`, and `goal(πₖ)`.
/// Returns `None` when unreachable. The goal packet is picked from the
/// hit layer and predecessors are recovered backwards through the
/// preimage operator.
pub fn witness_path(step: &Policy, init: &BTreeSet<Packet>, goal: &Pred) -> Option<Vec<Packet>> {
    search(step, init, goal, |ar, t, layers, hit| {
        let mut cur = ar.sp_witness(hit?).expect("non-empty hit layer");
        let mut path = vec![ar.packet_of_values(&cur)];
        for &layer in layers.iter().rev().skip(1) {
            let cur_sp = ar.sp_singleton(&cur);
            let prev = ar.pre(t, cur_sp);
            let cand = ar.sp_intersect(prev, layer);
            cur = ar
                .sp_witness(cand)
                .expect("every BFS layer packet has a predecessor in the prior layer");
            path.push(ar.packet_of_values(&cur));
        }
        path.reverse();
        Some(path)
    })
}

/// The switch ids visited along a witness path (deduplicated consecutive
/// repeats — a switch applying only header rewrites stays one hop).
pub fn switches_along(path: &[Packet]) -> Vec<u32> {
    let mut out: Vec<u32> = Vec::new();
    for p in path {
        let sw = p.get(Field::Switch);
        if out.last() != Some(&sw) {
            out.push(sw);
        }
    }
    out
}

/// Convenience: encode a directed link `(sw_a, pt_a) → (sw_b, pt_b)` as a
/// NetKAT topology term.
pub fn link(sw_a: u32, pt_a: u32, sw_b: u32, pt_b: u32) -> Policy {
    Policy::filter(Pred::test(Field::Switch, sw_a).and(Pred::test(Field::Port, pt_a)))
        .seq(Policy::assign(Field::Switch, sw_b))
        .seq(Policy::assign(Field::Port, pt_b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use crate::semantics::eval_set;

    /// Linear topology 1 → 2 → 3: each switch forwards out port 1; links
    /// deliver to the next switch's port 0.
    fn linear3() -> (Policy, Policy) {
        let fwd = Policy::assign(Field::Port, 1); // every switch: send out pt 1
        let topo = link(1, 1, 2, 0).union(link(2, 1, 3, 0));
        (fwd, topo)
    }

    fn at_switch(sw: u32) -> Pred {
        Pred::test(Field::Switch, sw)
    }

    #[test]
    fn linear_reachability() {
        let (fwd, topo) = linear3();
        let step = fwd.seq(topo);
        let init = BTreeSet::from([Packet::of(&[(Field::Switch, 1), (Field::Port, 0)])]);
        assert!(can_reach(&step, &init, &at_switch(3)));
        assert!(!can_reach(&step, &init, &at_switch(4)));
        assert!(oracle::can_reach(&step, &init, &at_switch(3)));
        assert!(!oracle::can_reach(&step, &init, &at_switch(4)));
    }

    #[test]
    fn witness_path_is_shortest_and_valid() {
        let (fwd, topo) = linear3();
        let step = fwd.seq(topo);
        let init = BTreeSet::from([Packet::of(&[(Field::Switch, 1), (Field::Port, 0)])]);
        let path = witness_path(&step, &init, &at_switch(3)).unwrap();
        assert_eq!(switches_along(&path), vec![1, 2, 3]);
        // Each hop must actually be a step output of its predecessor.
        for w in path.windows(2) {
            let outs = eval_set(&step, &BTreeSet::from([w[0]]));
            assert!(outs.contains(&w[1]), "invalid hop {:?} → {:?}", w[0], w[1]);
        }
        // Same length as the enumerative BFS (both are shortest).
        let oracle = oracle::witness_path(&step, &init, &at_switch(3)).unwrap();
        assert_eq!(path.len(), oracle.len());
    }

    #[test]
    fn unreachable_returns_none() {
        let (fwd, topo) = linear3();
        let step = fwd.seq(topo);
        let init = BTreeSet::from([Packet::of(&[(Field::Switch, 3), (Field::Port, 0)])]);
        // Switch 3 has no outgoing link.
        assert_eq!(witness_path(&step, &init, &at_switch(1)), None);
        assert_eq!(oracle::witness_path(&step, &init, &at_switch(1)), None);
    }

    #[test]
    fn goal_in_initial_set() {
        let (fwd, topo) = linear3();
        let step = fwd.seq(topo);
        let p = Packet::of(&[(Field::Switch, 2), (Field::Port, 0)]);
        let path = witness_path(&step, &BTreeSet::from([p]), &at_switch(2)).unwrap();
        assert_eq!(path, vec![p]);
    }

    #[test]
    fn branching_topology_finds_either_branch() {
        // 1 → 2 and 1 → 3 (ports 1 and 2 respectively).
        let fwd = Policy::assign(Field::Port, 1).union(Policy::assign(Field::Port, 2));
        let topo = link(1, 1, 2, 0).union(link(1, 2, 3, 0));
        let step = fwd.seq(topo);
        let init = BTreeSet::from([Packet::of(&[(Field::Switch, 1), (Field::Port, 0)])]);
        assert!(can_reach(&step, &init, &at_switch(2)));
        assert!(can_reach(&step, &init, &at_switch(3)));
        let path = witness_path(&step, &init, &at_switch(3)).unwrap();
        assert_eq!(switches_along(&path), vec![1, 3]);
    }

    #[test]
    fn cycles_handled() {
        // 1 → 2 → 1 ring; 3 unreachable.
        let fwd = Policy::assign(Field::Port, 1);
        let topo = link(1, 1, 2, 0).union(link(2, 1, 1, 0));
        let step = fwd.seq(topo);
        let init = BTreeSet::from([Packet::of(&[(Field::Switch, 1), (Field::Port, 0)])]);
        let r = oracle::reachable(&step, &init);
        assert!(r.iter().any(|p| p.get(Field::Switch) == 2));
        assert!(!can_reach(&step, &init, &at_switch(3)));
    }

    #[test]
    fn filtering_step_blocks_traffic() {
        // Firewall at switch 2 drops proto 6.
        let fwd = Policy::assign(Field::Port, 1);
        let fw = Policy::filter(
            Pred::test(Field::Switch, 2)
                .and(Pred::test(Field::Proto, 6))
                .not(),
        );
        let topo = link(1, 1, 2, 0).union(link(2, 1, 3, 0));
        let step = fw.seq(fwd).seq(topo);
        let blocked = BTreeSet::from([Packet::of(&[
            (Field::Switch, 1),
            (Field::Port, 0),
            (Field::Proto, 6),
        ])]);
        let allowed = BTreeSet::from([Packet::of(&[
            (Field::Switch, 1),
            (Field::Port, 0),
            (Field::Proto, 17),
        ])]);
        assert!(!can_reach(&step, &blocked, &at_switch(3)));
        assert!(can_reach(&step, &allowed, &at_switch(3)));
    }

    #[test]
    fn symbolic_matches_oracle_on_fabric() {
        use crate::corpus::fabric_step;
        let step = fabric_step(6);
        let init = BTreeSet::from([Packet::of(&[
            (Field::Switch, 3),
            (Field::Port, 0),
            (Field::Dst, 5),
        ])]);
        for goal_sw in [0u32, 3, 5, 6] {
            let goal = at_switch(goal_sw);
            assert_eq!(
                can_reach(&step, &init, &goal),
                oracle::can_reach(&step, &init, &goal),
                "goal sw={goal_sw}"
            );
        }
        let p = witness_path(&step, &init, &at_switch(5)).unwrap();
        let o = oracle::witness_path(&step, &init, &at_switch(5)).unwrap();
        assert_eq!(p.len(), o.len());
    }
}
