//! NetKAT analysis costs: reachability, witness paths, equivalence.
//!
//! The queries share a per-thread compiled workspace, so each is timed
//! twice: `_cold` on a fresh thread (the policy is converted first, and
//! one thread spawn is included), `_repeat` again on the bench thread,
//! where the policy is compiled already.

use bench::cold;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pda_netkat::ast::{Field, Packet, Policy, Pred};
use pda_netkat::equiv::equivalent;
use pda_netkat::reach::{can_reach, link, witness_path};
use std::collections::BTreeSet;
use std::hint::black_box;

fn line(n: u32) -> Policy {
    Policy::assign(Field::Port, 1).seq(Policy::any((1..n).map(|i| link(i, 1, i + 1, 0))))
}

fn bench_reach(c: &mut Criterion) {
    let mut g = c.benchmark_group("netkat_reachability");
    for n in [8u32, 32, 128] {
        let step = line(n);
        let init = BTreeSet::from([Packet::of(&[(Field::Switch, 1)])]);
        let goal = Pred::test(Field::Switch, n);
        let reach = || black_box(can_reach(&step, &init, &goal));
        let witness = || black_box(witness_path(&step, &init, &goal).is_some());
        g.bench_with_input(BenchmarkId::new("can_reach_cold", n), &(), |b, ()| {
            b.iter(|| cold(reach))
        });
        g.bench_with_input(BenchmarkId::new("can_reach_repeat", n), &(), |b, ()| {
            b.iter(reach)
        });
        g.bench_with_input(BenchmarkId::new("witness_cold", n), &(), |b, ()| {
            b.iter(|| cold(witness))
        });
        g.bench_with_input(BenchmarkId::new("witness_repeat", n), &(), |b, ()| {
            b.iter(witness)
        });
    }
    g.finish();
}

fn bench_equiv(c: &mut Criterion) {
    let p = line(6);
    let q = line(6).union(Policy::drop());
    c.bench_function("netkat_equivalence_line6_cold", |b| {
        b.iter(|| black_box(cold(|| equivalent(&p, &q))))
    });
    c.bench_function("netkat_equivalence_line6_repeat", |b| {
        b.iter(|| black_box(equivalent(&p, &q)))
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_millis(800))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_reach, bench_equiv
}
criterion_main!(benches);
