//! Symbolic vs enumerative NetKAT verification on fabrics (experiment
//! E19's criterion slice).
//!
//! Fabric sizes 4 / 64 / 1024: the enumerative oracle is exercised only
//! where feasible (its finite model is cubic in the switch count here);
//! the symbolic engine runs at every size — the thousand-switch case is
//! the acceptance bar for the decision procedure.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pda_netkat::corpus::{fabric_step, fabric_step_redundant};
use pda_netkat::{equivalent, oracle};
use std::hint::black_box;

/// Enumerative equivalence above this size takes minutes per iteration.
const ENUM_FEASIBLE: u32 = 64;

fn bench_fabric_equiv(c: &mut Criterion) {
    let mut g = c.benchmark_group("netkat_symbolic");
    for n in [4u32, 64, 1024] {
        let p = fabric_step(n);
        let q = fabric_step_redundant(n);
        g.bench_with_input(BenchmarkId::new("sym_equiv", n), &(), |b, ()| {
            b.iter(|| black_box(equivalent(&p, &q)))
        });
        if n <= ENUM_FEASIBLE {
            g.bench_with_input(BenchmarkId::new("enum_equiv", n), &(), |b, ()| {
                b.iter(|| black_box(oracle::equivalent(&p, &q)))
            });
        }
    }
    g.finish();
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
    targets = bench_fabric_equiv
}
criterion_main!(benches);
