//! Symbolic vs enumerative NetKAT verification on fabrics (experiment
//! E19's criterion slice).
//!
//! Fabric sizes 4 / 64 / 1024: the enumerative oracle is exercised only
//! where feasible (its finite model is cubic in the switch count here);
//! the symbolic engine runs at every size — the thousand-switch case is
//! the acceptance bar for the decision procedure.
//!
//! The `sym_compile` and `sym_reach_*` rows time the symbolic kernel
//! alone at 64 / 256 / 1024 leaves: policy-to-transformer conversion,
//! and a leaf-to-leaf reachability query with its witness path. The
//! queries share a per-thread compiled workspace, so each comes in two
//! rows: `_cold` runs it on a fresh thread (conversion included, plus
//! one thread spawn), `_repeat` repeats it on the bench thread, where
//! the policies are compiled already. Every row of the symbolic engine
//! matches the filter `sym_`:
//! `cargo bench -p bench --bench netkat_symbolic -- sym_`.

use bench::cold;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pda_netkat::corpus::{fabric_step, fabric_step_redundant};
use pda_netkat::sym::Arena;
use pda_netkat::{can_reach, equivalent, oracle, witness_path, Field, Packet, Pred};
use std::collections::BTreeSet;
use std::hint::black_box;

/// Enumerative equivalence above this size takes minutes per iteration.
const ENUM_FEASIBLE: u32 = 64;

fn bench_fabric_equiv(c: &mut Criterion) {
    let mut g = c.benchmark_group("netkat_symbolic");
    for n in [4u32, 64, 1024] {
        let p = fabric_step(n);
        let q = fabric_step_redundant(n);
        g.bench_with_input(BenchmarkId::new("sym_equiv_cold", n), &(), |b, ()| {
            b.iter(|| black_box(cold(|| equivalent(&p, &q))))
        });
        g.bench_with_input(BenchmarkId::new("sym_equiv_repeat", n), &(), |b, ()| {
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

fn bench_kernel(c: &mut Criterion) {
    let mut g = c.benchmark_group("netkat_symbolic");
    for n in [64u32, 256, 1024] {
        let p = fabric_step(n);
        g.bench_with_input(BenchmarkId::new("sym_compile", n), &(), |b, ()| {
            b.iter(|| {
                let mut ar = Arena::for_policies(&[&p]);
                black_box(ar.spp_from_policy(&p))
            })
        });
        // From the first leaf to the last: up to the spine and down.
        let init = BTreeSet::from([Packet::of(&[(Field::Switch, 1), (Field::Dst, n)])]);
        let goal = Pred::test(Field::Switch, n);
        let query = || {
            black_box(can_reach(&p, &init, &goal));
            black_box(witness_path(&p, &init, &goal))
        };
        g.bench_with_input(BenchmarkId::new("sym_reach_cold", n), &(), |b, ()| {
            b.iter(|| cold(query))
        });
        g.bench_with_input(BenchmarkId::new("sym_reach_repeat", n), &(), |b, ()| {
            b.iter(query)
        });
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
    targets = bench_fabric_equiv, bench_kernel
}
criterion_main!(benches);
