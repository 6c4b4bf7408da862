//! `policy-verify`: the operator's admission check for a policy update
//! on a seeded spine-leaf fabric.
//!
//! One operation checks a candidate step policy against the current
//! fabric: an equivalence check (a redundant rewrite must be
//! equivalent; a broken one must yield a counterexample that
//! `eval_packet` shows distinguishes the two), several leaf-to-leaf
//! reachability queries with witness paths against the candidate, and
//! one verified per-switch slice. Fabric sizes are mixed from 16 to
//! 256 leaves. Only `pda-netkat` does work here.

use crate::metrics::Layers;
use crate::rng::Rng;
use crate::stats::median;
use crate::sys::thread_cpu_ns;
use crate::trace::{span_opt, Tracer};
use crate::{closed_loop, Outcome, RunSpec, Sample};
use pda_netkat::corpus::fabric_step;
use pda_netkat::specialize::{slice_for_switch, verified_slice_for_switch};
use pda_netkat::{can_reach, counterexample, equivalent, eval_packet, witness_path};
use pda_netkat::{Field, Packet, Policy, Pred};
use std::collections::{BTreeSet, HashSet};
use std::time::Instant;

/// Workload name.
pub const NAME: &str = "policy-verify";
/// Fabric sizes (leaves), spread log-uniformly over this range: a
/// check's cost grows about linearly with the fabric, so every size
/// band contributes a similar share of the run's time and small
/// fabrics keep the operation count high.
pub const LEAVES: (u32, u32) = (16, 256);
/// Reachability queries per admission check.
pub const REACH_QUERIES: usize = 3;
/// Wrong output ports a broken candidate may send its leaf to.
const BROKEN_PORTS: (u64, u64) = (3, 9);
/// Share of queries towards a leaf outside the fabric (unreachable).
const UNREACHABLE_PERCENT: u64 = 25;
/// Admission checks per second of `--seconds`.
const OPS_PER_SECOND: u64 = 50;
/// Fabric size of the set-up baseline check.
const SETUP_LEAVES: u32 = 64;

/// One admission check's input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Check {
    /// Leaves in the fabric.
    pub leaves: u32,
    /// The candidate update.
    pub candidate: Candidate,
    /// `(source leaf, destination)` reachability queries.
    pub queries: Vec<(u32, u32)>,
    /// Switch whose verified slice is computed (0 is the spine).
    pub slice_switch: u32,
}

/// A candidate update of `fabric_step(leaves)`. Both kinds generalise
/// the corpus variants (`fabric_step_broken`, `fabric_step_redundant`)
/// over which leaf they touch, so almost every check has inputs of its
/// own.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Candidate {
    /// Leaf `leaf`'s down-rule sends traffic out of `port` instead of 2:
    /// not equivalent.
    Broken {
        /// The misconfigured leaf.
        leaf: u32,
        /// Its wrong output port.
        port: u32,
    },
    /// The down-rules rotated to start at leaf `first`, a duplicate of
    /// leaf `dup`'s rule, a dead rule on leaf `dead`, and the up-path
    /// assignments swapped: equivalent.
    Redundant {
        /// Leaf whose rule comes first.
        first: u32,
        /// Leaf whose rule is duplicated.
        dup: u32,
        /// Leaf of the contradictory (dead) rule.
        dead: u32,
    },
}

impl Candidate {
    /// Must the candidate be rejected?
    pub fn broken(self) -> bool {
        matches!(self, Candidate::Broken { .. })
    }
}

fn down_rule(leaf: u32, port: u32) -> Policy {
    Policy::filter(Pred::test(Field::Dst, leaf))
        .seq(Policy::assign(Field::Switch, leaf))
        .seq(Policy::assign(Field::Port, port))
}

/// The candidate policy for a fabric of `leaves` leaves.
/// `Broken { leaf: n, port: 3 }` is `fabric_step_broken(n)`.
pub fn candidate_policy(leaves: u32, candidate: Candidate) -> Policy {
    let up_port = Policy::assign(Field::Port, 1);
    let up_switch = Policy::assign(Field::Switch, 0);
    let not_spine = Policy::filter(Pred::test(Field::Switch, 0).not());
    let (up, rules) = match candidate {
        Candidate::Broken { leaf, port } => (
            not_spine.seq(up_port).seq(up_switch),
            (1..=leaves)
                .map(|j| down_rule(j, if j == leaf { port } else { 2 }))
                .collect::<Vec<_>>(),
        ),
        Candidate::Redundant { first, dup, dead } => {
            let mut rules: Vec<Policy> = (0..leaves)
                .map(|k| down_rule((first - 1 + k) % leaves + 1, 2))
                .collect();
            rules.push(down_rule(dup, 2));
            rules.push(
                Policy::filter(
                    Pred::test(Field::Dst, dead).and(Pred::test(Field::Dst, dead).not()),
                )
                .seq(Policy::assign(Field::Port, 99)),
            );
            (not_spine.seq(up_switch).seq(up_port), rules)
        }
    };
    up.union(Policy::filter(Pred::test(Field::Switch, 0)).seq(Policy::any(rules)))
}

impl Check {
    /// The current fabric and the candidate update.
    pub fn policies(&self) -> (Policy, Policy) {
        (
            fabric_step(self.leaves),
            candidate_policy(self.leaves, self.candidate),
        )
    }
}

/// Admission checks a run of `seconds` performs.
pub fn checks_for(seconds: u64) -> u64 {
    (seconds * OPS_PER_SECOND).max(2)
}

/// The `index`-th admission check for `seed`.
pub fn gen_check(seed: u64, index: u64) -> Check {
    let mut rng = Rng::new(seed, 0x901C_0000 + index);
    // Sizes and kinds are spread evenly over the run rather than drawn
    // independently: a golden-ratio sequence from a seeded start places
    // the sizes, and broken and redundant candidates alternate in pairs
    // (so the odd checks a traced run traces see both kinds). Every run
    // then has the same size mix, and the median check does not move
    // with the seed's luck.
    let start = Rng::new(seed, 0x901C).below(1 << 32) as f64 / (1u64 << 32) as f64;
    let u = (start + index as f64 * 0.618_033_988_749_894_9).fract();
    let (lo, hi) = LEAVES;
    let leaves = (f64::from(lo) * (f64::from(hi) / f64::from(lo)).powf(u)).round() as u32;
    let leaf = |rng: &mut Rng| rng.range(1, u64::from(leaves)) as u32;
    let candidate = if (index / 2 + seed).is_multiple_of(2) {
        Candidate::Broken {
            leaf: leaf(&mut rng),
            port: rng.range(BROKEN_PORTS.0, BROKEN_PORTS.1) as u32,
        }
    } else {
        Candidate::Redundant {
            first: leaf(&mut rng),
            dup: leaf(&mut rng),
            dead: leaf(&mut rng),
        }
    };
    let queries = (0..REACH_QUERIES)
        .map(|_| {
            let src = rng.range(1, u64::from(leaves)) as u32;
            let dst = if rng.percent(UNREACHABLE_PERCENT) {
                leaves + 1 + rng.below(8) as u32
            } else {
                let d = rng.range(1, u64::from(leaves) - 1) as u32;
                if d >= src {
                    d + 1
                } else {
                    d
                }
            };
            (src, dst)
        })
        .collect();
    let slice_switch = rng.below(u64::from(leaves) + 1) as u32;
    Check {
        leaves,
        candidate,
        queries,
        slice_switch,
    }
}

fn query(src: u32, dst: u32) -> (BTreeSet<Packet>, Pred) {
    let pkt = Packet::of(&[(Field::Switch, src), (Field::Dst, dst), (Field::Port, 2)]);
    (BTreeSet::from([pkt]), Pred::test(Field::Switch, dst))
}

/// Answers of one admission check.
struct Answers {
    cex: Option<Packet>,
    reach: Vec<(bool, Option<Vec<Packet>>)>,
    slice: Policy,
}

/// Run one admission check; with a tracer, as span `op` with one child
/// span per NetKAT call.
fn admission_check(
    check: &Check,
    candidate: &Policy,
    current: &Policy,
    t: Option<&mut Tracer>,
    op: u64,
) -> Answers {
    span_opt(t, "op", op, |mut t| Answers {
        cex: span_opt(t.as_deref_mut(), "netkat.equiv", op, |_| {
            counterexample(current, candidate)
        }),
        reach: check
            .queries
            .iter()
            .map(|&(s, d)| {
                let (init, goal) = query(s, d);
                span_opt(t.as_deref_mut(), "netkat.reach", op, |_| {
                    (
                        can_reach(candidate, &init, &goal),
                        witness_path(candidate, &init, &goal),
                    )
                })
            })
            .collect(),
        slice: span_opt(t, "netkat.slice", op, |_| {
            verified_slice_for_switch(candidate, check.slice_switch)
        }),
    })
}

/// Check one admission check's answers; returns the first wrong one.
fn verify_answers(
    check: &Check,
    current: &Policy,
    candidate: &Policy,
    a: &Answers,
) -> Result<(), String> {
    match (&a.cex, check.candidate.broken()) {
        (None, false) => {}
        (Some(pkt), true) => {
            if eval_packet(current, *pkt) == eval_packet(candidate, *pkt) {
                return Err(format!(
                    "{} leaves: counterexample does not distinguish",
                    check.leaves
                ));
            }
        }
        (cex, broken) => {
            return Err(format!(
                "{} leaves: broken={broken} but counterexample={}",
                check.leaves,
                cex.is_some()
            ))
        }
    }
    for (&(src, dst), (reach, path)) in check.queries.iter().zip(&a.reach) {
        let expect = (1..=check.leaves).contains(&dst);
        if *reach != expect || path.is_some() != expect {
            return Err(format!(
                "{} leaves: {src}->{dst} reach={reach} witness={} expected {expect}",
                check.leaves,
                path.is_some()
            ));
        }
        if let Some(path) = path {
            let (init, goal) = query(src, dst);
            let linked = path
                .windows(2)
                .all(|w| eval_packet(candidate, w[0]).contains(&w[1]));
            let ends = path.first().is_some_and(|p| init.contains(p))
                && path.last().is_some_and(|p| goal.eval(p));
            if !linked || !ends {
                return Err(format!(
                    "{} leaves: {src}->{dst} witness is not a path",
                    check.leaves
                ));
            }
        }
    }
    if a.slice != slice_for_switch(candidate, check.slice_switch) {
        return Err(format!(
            "{} leaves: slice for switch {} did not verify",
            check.leaves, check.slice_switch
        ));
    }
    Ok(())
}

/// One admission check's outcome.
struct Done {
    /// Wall time, ns.
    ns: u64,
    /// Thread CPU time, ns.
    cpu_ns: u64,
    traced: bool,
    size: u64,
    verdict: Result<(), String>,
    /// The set-up run before the check: its thread CPU time, ns, and
    /// whether the baseline was equivalent to itself.
    setup: (u64, bool),
}

/// Run the workload.
pub fn run(spec: &RunSpec) -> Outcome {
    let mut out = Outcome::default();
    let n = checks_for(spec.seconds);

    // Set-up: the current fabric checked against itself, as an operator
    // does before admitting updates. It is timed before every check, so
    // that it runs at the same host speed as the checks around it.
    let baseline = fabric_step(SETUP_LEAVES);
    let warm_up = crate::warm_up(n as usize);

    // A traced run traces every odd check.
    let origin = Instant::now();
    let (results, tracer) = closed_loop(n as usize, origin, |i, t| {
        let c0 = thread_cpu_ns();
        let ok = equivalent(&baseline, &baseline);
        let setup = (thread_cpu_ns() - c0, ok);
        let i = i as u64;
        let check = gen_check(spec.seed, i);
        let (current, candidate) = check.policies();
        let traced = spec.trace && i % 2 == 1;
        let t0 = Instant::now();
        let c0 = thread_cpu_ns();
        let answers = admission_check(&check, &candidate, &current, traced.then_some(t), i);
        let cpu_ns = thread_cpu_ns() - c0;
        let ns = t0.elapsed().as_nanos() as u64;
        Done {
            ns,
            cpu_ns,
            traced,
            size: candidate.size() as u64,
            verdict: verify_answers(&check, &current, &candidate, &answers),
            setup,
        }
    });
    let wall = origin.elapsed();
    let mut traced_ns = Vec::new();
    let mut untraced_ns = Vec::new();
    let mut sizes = Vec::new();
    for (i, (probe_ns, d)) in results.into_iter().enumerate() {
        out.attempted += 1;
        if let Err(e) = d.verdict {
            out.fail(e);
        }
        if !d.setup.1 {
            out.fail("baseline fabric is not equivalent to itself");
        }
        if d.traced {
            sizes.push(d.size);
        }
        if i < warm_up {
            continue;
        }
        if d.traced {
            traced_ns.push(d.ns);
        } else {
            untraced_ns.push(d.ns);
            out.e2e.setups.push(Sample {
                lat_ns: d.setup.0,
                units: 1,
                probe_ns,
            });
            out.e2e.samples.push(Sample {
                lat_ns: d.cpu_ns,
                units: 1,
                probe_ns,
            });
        }
    }
    let distinct = (0..n)
        .map(|i| {
            let c = gen_check(spec.seed, i);
            (c.leaves, c.candidate)
        })
        .collect::<HashSet<_>>()
        .len();
    out.facts = vec![
        ("checks".into(), n.to_string()),
        ("warm_up_checks".into(), warm_up.to_string()),
        (
            "distinct_candidate_share".into(),
            format!("{}", distinct as f64 / n as f64),
        ),
        ("reach_queries_per_check".into(), REACH_QUERIES.to_string()),
        ("wall_s".into(), format!("{}", wall.as_secs_f64())),
    ];

    if spec.trace {
        let mut layers = Layers::default();
        let ms = |ns: u64| ns as f64 / 1e6;
        let equiv = median(&tracer.self_time_per_op("netkat.equiv"));
        let reach_op = median(&tracer.self_time_per_op("netkat.reach"));
        let slice = median(&tracer.self_time_per_op("netkat.slice"));
        layers.set("netkat.equiv_ms", ms(equiv));
        layers.set(
            "netkat.reach_ms",
            ms(median(&tracer.self_times("netkat.reach"))),
        );
        layers.set("netkat.slice_ms", ms(slice));
        layers.set("netkat.policy_size", median(&sizes) as f64);
        let e2e = median(&traced_ns);
        layers.set(
            "trace.overhead_us",
            (e2e as f64 - median(&untraced_ns) as f64) / 1e3,
        );
        layers.set(
            "trace.unattributed_us",
            (e2e as f64 - (equiv + reach_op + slice) as f64) / 1e3,
        );
        layers.set(
            "trace.op_self_us",
            median(&tracer.self_times("op")) as f64 / 1e3,
        );
        out.layers = layers.into_vec();
        out.facts
            .push(("spans".into(), tracer.spans().len().to_string()));
        crate::write_trace(NAME, spec.seed, &tracer);
    }
    out
}
