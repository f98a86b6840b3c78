//! Microbenchmark for the out-of-order batch path: `process_batch_columns`
//! on a stream with 20% disorder, lazy, eager, and finger-tree stores.
//!
//! Run: `cargo bench -p gss-bench --bench ooo`

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use gss_aggregates::Sum;
use gss_bench::{build_slicing, concurrent_tumbling_queries, run_columnar};
use gss_core::{StorePolicy, StreamOrder, Time};
use gss_data::{make_out_of_order, with_watermarks, FootballConfig, FootballGenerator, OooConfig};

const TUPLES: usize = 200_000;
const QUERIES: usize = 20;

fn bench_ooo(c: &mut Criterion) {
    let mut gen = FootballGenerator::new(FootballConfig::default());
    let tuples: Vec<(Time, i64)> = gen.take(TUPLES);
    let arrivals = make_out_of_order(
        &tuples,
        OooConfig { fraction_percent: 20, max_delay: 2_000, ..Default::default() },
    );
    let elements = with_watermarks(&arrivals, 500, 2_000);
    let queries = concurrent_tumbling_queries(QUERIES);

    for (policy, name) in [
        (StorePolicy::Lazy, "lazy"),
        (StorePolicy::Eager, "eager"),
        (StorePolicy::FingerTree, "finger"),
    ] {
        let mut group = c.benchmark_group(format!("ooo_ingestion/{name}"));
        group.throughput(Throughput::Elements(TUPLES as u64));
        group.sample_size(10);
        for batch_size in [64usize, 512] {
            group.bench_function(format!("batched_{batch_size}"), |b| {
                b.iter_batched(
                    || build_slicing(Sum, policy, &queries, StreamOrder::OutOfOrder, 2_000),
                    |mut agg| run_columnar(agg.as_mut(), &elements, batch_size),
                    BatchSize::LargeInput,
                )
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_ooo);
criterion_main!(benches);
