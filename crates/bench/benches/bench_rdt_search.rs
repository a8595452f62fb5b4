//! Benchmarks the RDT search strategies (linear sweep vs adaptive
//! gallop+bisect) and the device evaluation strategies (scalar
//! per-session programs vs batched u64-lane masks) over the same
//! stochastic model. Every variant measures the identical series; only
//! the hammer-session count (search) and wall time (eval) differ.

use criterion::{criterion_group, criterion_main, Criterion};
use vrd_bench::prepared_platform;
use vrd_core::algorithm::{measure_rdt_once_using, test_loop_using, EvalStrategy, SearchStrategy};
use vrd_dram::TestConditions;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("rdt_search");
    group.sample_size(20);
    let conditions = TestConditions::foundational();

    // The platform is stateful (trap states evolve), which is exactly the
    // workload: repeated measurements of the same row.
    for (name, search) in
        [("linear", SearchStrategy::Linear), ("adaptive", SearchStrategy::Adaptive)]
    {
        let (mut platform, row, sweep) = prepared_platform("M1", 1);
        group.bench_function(&format!("measure_rdt_once/{name}"), |b| {
            b.iter(|| {
                measure_rdt_once_using(
                    &mut platform,
                    0,
                    row,
                    &conditions,
                    &sweep,
                    search,
                    EvalStrategy::default(),
                )
            })
        });

        let (mut platform, row, sweep) = prepared_platform("M1", 2);
        group.bench_function(&format!("test_loop_20/{name}"), |b| {
            b.iter(|| {
                test_loop_using(
                    &mut platform,
                    0,
                    row,
                    &conditions,
                    20,
                    &sweep,
                    search,
                    EvalStrategy::default(),
                )
            })
        });
    }

    // The eval axis, on the adaptive search both strategies share: the
    // batch engine amortizes one threshold draw per (epoch, cell) over
    // every probe of the sweep.
    for (name, eval) in [("scalar", EvalStrategy::Scalar), ("batch", EvalStrategy::Batch)] {
        let (mut platform, row, sweep) = prepared_platform("M1", 2);
        group.bench_function(&format!("test_loop_20_eval/{name}"), |b| {
            b.iter(|| {
                test_loop_using(
                    &mut platform,
                    0,
                    row,
                    &conditions,
                    20,
                    &sweep,
                    SearchStrategy::Adaptive,
                    eval,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
