//! The names every later performance claim on this repo refers to: the
//! end-to-end metrics with their bounds, the per-layer metrics, and
//! `BENCHMARK.json` itself, which is printed from these tables
//! (`bench contract`) and checked against them by a unit test.

use crate::workload::{spec, NAMES};

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// The timing bounds are the widest the benchmark contract allows, because
/// a bound should be three times the spread seen between runs of unchanged
/// code: on the shared 2-core VM this was written on, ten runs of one
/// workload spread (interquartile range over median) by 0.01-0.06 while
/// the host is quiet and by 0.1-0.3 on its most sensitive workloads while
/// it is busy for longer than a run lasts, whatever the estimator (README,
/// "Noise on this host").
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "op_tuples_per_s", unit: "tuples/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "pipe_tuples_per_s", unit: "tuples/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "emit_p50_us", unit: "us", better: "lower", bound: 0.25 },
    EndToEnd { name: "emit_p95_us", unit: "us", better: "lower", bound: 0.25 },
    EndToEnd { name: "state_bytes_peak", unit: "bytes", better: "lower", bound: 0.01 },
];

/// `(name, unit, better)`; a value of 0 means "does not apply to this
/// workload" (keyed rows on unkeyed workloads and the reverse).
pub const PER_LAYER: [(&str, &str, &str); 40] = [
    ("aggregates.fold_ns_per_tuple", "ns", "lower"),
    ("aggregates.fold_kernel_hit_share", "share", "higher"),
    ("store.append_ns_per_tuple", "ns", "lower"),
    ("store.late_ns_per_tuple.lazy", "ns", "lower"),
    ("store.late_ns_per_tuple.eager", "ns", "lower"),
    ("store.late_ns_per_tuple.finger", "ns", "lower"),
    ("store.query_ns_per_result.lazy", "ns", "lower"),
    ("store.query_ns_per_result.eager", "ns", "lower"),
    ("store.query_ns_per_result.finger", "ns", "lower"),
    ("store.evict_ns_per_slice", "ns", "lower"),
    ("store.live_slices_peak", "count", "lower"),
    ("store.bytes_peak", "bytes", "lower"),
    ("operator.ingest_ns_per_tuple", "ns", "lower"),
    ("operator.emit_ns_per_result", "ns", "lower"),
    ("operator.emit_time_share", "share", "lower"),
    ("operator.over_store_ns_per_tuple", "ns", "lower"),
    ("operator.results_per_tuple", "1/tuple", "lower"),
    ("operator.late_tuple_share", "share", "lower"),
    ("operator.dropped_late", "count", "lower"),
    ("keyed.ingest_ns_per_tuple", "ns", "lower"),
    ("keyed.emit_ns_per_result", "ns", "lower"),
    ("keyed.run_len_mean", "tuples", "higher"),
    ("keyed.live_keys_peak", "count", "lower"),
    ("keyed.bytes_per_key", "bytes", "lower"),
    ("keyed.keys_created", "count", "lower"),
    ("keyed.keys_evicted", "count", "higher"),
    ("keyed.heap_wakeups_per_watermark", "count", "lower"),
    ("stream.chunk_ns_per_tuple", "ns", "lower"),
    ("stream.pipeline_ns_per_tuple", "ns", "lower"),
    ("stream.pipeline_over_op_ns_per_tuple", "ns", "lower"),
    ("stream.pipeline_cpu_ns_per_tuple", "ns", "lower"),
    ("stream.batch_size_p50", "tuples", "higher"),
    ("stream.parallel_ns_per_tuple", "ns", "lower"),
    ("stream.parallel_send_wait_p99_us", "us", "lower"),
    ("stream.sharded_ns_per_tuple", "ns", "lower"),
    ("query.translate_us", "us", "lower"),
    ("harness.gen_ns_per_tuple", "ns", "lower"),
    ("harness.contention", "ratio", "lower"),
    ("harness.passes", "count", "higher"),
    ("harness.trace_overhead_share", "share", "lower"),
];

pub fn unit_of(metric: &str) -> Option<&'static str> {
    let layer = PER_LAYER.iter().find(|m| m.0 == metric).map(|m| m.1);
    END_TO_END.iter().find(|m| m.name == metric).map(|m| m.unit).or(layer)
}

pub fn bound_of(metric: &str) -> Option<f64> {
    END_TO_END.iter().find(|m| m.name == metric).map(|m| m.bound)
}

/// `BENCHMARK.json`, from the tables above.
pub fn benchmark_json(run_seconds: u32) -> String {
    let mut s = String::from("{\n");
    s += "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--bin\", \"bench\", \"--\"],\n";
    s += "  \"paths\": [\"benchmark\"],\n";
    s += &format!("  \"run_seconds\": {run_seconds},\n");
    s += "  \"workloads\": [\n";
    let workloads: Vec<String> = NAMES
        .iter()
        .filter_map(|n| spec(n))
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    s += &workloads.join(",\n");
    s += "\n  ],\n  \"end_to_end\": [\n";
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    s += &e2e.join(",\n");
    s += "\n  ],\n  \"per_layer\": [\n";
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    s += &layers.join(",\n");
    s += "\n  ]\n}\n";
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_at_the_root_is_the_one_these_tables_print() {
        let path = crate::run::repo_root().join("BENCHMARK.json");
        let on_disk =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            on_disk,
            benchmark_json(crate::RUN_SECONDS as u32),
            "regenerate with `bench contract > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            s.len() <= 16 && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .chain(NAMES)
            .collect();
        assert!(names.iter().all(|n| ok_name(n)));
        assert!(END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.1))
            .all(ok_unit));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used once");
        assert!(benchmark_json(15).len() < 64 * 1024);
    }
}
