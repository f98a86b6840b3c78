//! End-to-end: data generators → disorder → bounded-out-of-orderness
//! watermarks → key-partitioned parallel pipeline → window results,
//! checked against a per-key oracle.

use general_stream_slicing::prelude::*;
use gss_core::operator::WindowOperator as Op;
use std::collections::BTreeMap;

fn factory(_p: usize) -> Box<dyn WindowAggregator<Sum>> {
    let mut op = Op::new(Sum, OperatorConfig::out_of_order(2_000));
    op.add_query(Box::new(TumblingWindow::new(1_000))).unwrap();
    Box::new(op)
}

#[test]
fn football_through_parallel_pipeline_matches_oracle() {
    // Generate, disorder, and key the stream.
    let tuples = FootballGenerator::new(FootballConfig {
        rate_hz: 1000,
        gaps_per_minute: 0,
        ..Default::default()
    })
    .take(30_000);
    let arrivals = make_out_of_order(
        &tuples,
        OooConfig { fraction_percent: 20, max_delay: 1_000, ..Default::default() },
    );
    let keyed =
        with_watermarks(&arrivals, 250, 1_000).into_iter().map(|e| e.map(|v| ((v % 8) as u64, v)));

    let report = run_keyed(keyed, PipelineConfig::with_parallelism(4), factory);
    assert_eq!(report.records, 30_000);

    // Oracle: per key, per tumbling window, sum of values.
    let mut oracle: BTreeMap<(u64, Time), i64> = BTreeMap::new();
    for &(ts, v) in &tuples {
        *oracle.entry(((v % 8) as u64, ts.div_euclid(1_000) * 1_000)).or_default() += v;
    }
    // The pipeline loses the key association (results are per-partition),
    // so compare per-partition sums: group oracle keys by partition.
    let mut oracle_by_partition: BTreeMap<(usize, Time), i64> = BTreeMap::new();
    for ((key, start), sum) in oracle {
        let p = gss_stream::partition_of(key, 4);
        *oracle_by_partition.entry((p, start)).or_default() += sum;
    }
    let mut got: BTreeMap<(usize, Time), i64> = BTreeMap::new();
    for (p, r) in &report.results {
        // Updates supersede earlier emissions of the same window.
        got.insert((*p, r.range.start), r.value);
    }
    // Every window the oracle knows and the pipeline emitted must agree
    // (windows at the stream tail may be unemitted only if beyond the
    // final flush — the flush watermark covers everything, so all match).
    for (k, expect) in &oracle_by_partition {
        assert_eq!(got.get(k), Some(expect), "partition/window {k:?}");
    }
}

#[test]
fn machine_data_session_statistics() {
    // In-order machine data with idle gaps: session count and totals via
    // the pipeline must match a direct scan.
    let mut tuples = Vec::new();
    let mut gen = MachineGenerator::new(MachineConfig::default());
    let mut base = 0i64;
    for _ in 0..5 {
        for (ts, v) in gen.take(500) {
            tuples.push((base + ts, v));
        }
        base = tuples.last().unwrap().0 + 10_000; // 10 s idle gap
    }

    let mut op = Op::new(CountAgg, OperatorConfig::in_order());
    op.add_query(Box::new(SessionWindow::new(5_000))).unwrap();
    let mut out = Vec::new();
    for &(ts, v) in &tuples {
        op.process_tuple(ts, v, &mut out);
    }
    // 5 bursts -> 4 closed sessions (the last stays open) of 500 each.
    assert_eq!(out.len(), 4);
    for r in &out {
        assert_eq!(r.value, 500);
    }
}

#[test]
fn dsl_to_pipeline_round_trip() {
    // Queries described in the DSL, executed over a generated stream.
    let queries = [
        QueryDsl::parse("SUM OVER TUMBLE 1s").unwrap(),
        QueryDsl::parse("MAX OVER TUMBLE 1s").unwrap(),
    ];
    let mut t = gss_query::translate(&queries, StreamOrder::InOrder, 0, StorePolicy::Lazy).unwrap();
    let tuples = FootballGenerator::new(FootballConfig {
        rate_hz: 500,
        gaps_per_minute: 0,
        ..Default::default()
    })
    .take(5_000);
    let mut out = Vec::new();
    for &(ts, v) in &tuples {
        t.process_tuple(ts, v, &mut out);
    }
    let sums: BTreeMap<Time, i64> = out
        .iter()
        .filter(|(k, _)| *k == AggKind::Sum)
        .map(|(_, r)| (r.range.start, r.value.as_i64()))
        .collect();
    let maxes: BTreeMap<Time, i64> = out
        .iter()
        .filter(|(k, _)| *k == AggKind::Max)
        .map(|(_, r)| (r.range.start, r.value.as_i64()))
        .collect();
    assert!(!sums.is_empty() && sums.len() == maxes.len());
    for (start, sum) in &sums {
        let window: Vec<i64> = tuples
            .iter()
            .filter(|(ts, _)| (*start..start + 1_000).contains(ts))
            .map(|(_, v)| *v)
            .collect();
        assert_eq!(*sum, window.iter().sum::<i64>(), "sum window {start}");
        assert_eq!(maxes[start], *window.iter().max().unwrap(), "max window {start}");
    }
}
