//! The query translator (paper Figure 3): takes user-level query
//! descriptions, derives the workload characteristics, and configures a
//! general slicing operator accordingly — one statically typed
//! `WindowOperator` per aggregation, whose results become [`Value`]s as
//! they leave.

use gss_aggregates::{Avg, CountAgg, Max, Median, Min, Percentile, Sum};
use gss_core::operator::{OperatorConfig, WindowOperator};
use gss_core::{QueryError, StorePolicy, StreamOrder, Time, WindowResult};

use crate::any::{AggKind, Value};
use crate::spec::{parse_agg, WindowDsl};

/// A user-level query: one aggregation over one window definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryDsl {
    pub window: WindowDsl,
    pub agg: AggKind,
}

impl QueryDsl {
    /// Parses `"<AGG> OVER <WINDOW>"`, e.g. `"SUM OVER SLIDE 10s 2s"` or
    /// `"P95 OVER SESSION 30s"`.
    pub fn parse(input: &str) -> Result<Self, String> {
        let upper = input.to_ascii_uppercase();
        let Some(split) = upper.find(" OVER ") else {
            return Err(format!("query '{input}': expected '<AGG> OVER <WINDOW>'"));
        };
        let agg = parse_agg(&input[..split])?;
        let window = WindowDsl::parse(&input[split + " OVER ".len()..])?;
        Ok(QueryDsl { window, agg })
    }
}

impl std::fmt::Display for QueryDsl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} OVER {}", self.agg.name(), self.window)
    }
}

/// A translated query set: one operator per aggregation kind (windows
/// share slices *within* an operator; different aggregations need
/// different partials, exactly like in the reference implementation where
/// an aggregate store is typed by its aggregation).
pub struct Translated {
    operators: Vec<(AggKind, TypedOperator)>,
}

/// The statically typed operator of one aggregation kind.
enum TypedOperator {
    Count(WindowOperator<CountAgg>),
    Sum(WindowOperator<Sum>),
    Avg(WindowOperator<Avg>),
    Min(WindowOperator<Min>),
    Max(WindowOperator<Max>),
    Median(WindowOperator<Median>),
    Percentile(WindowOperator<Percentile>),
}

/// Evaluates `$body` with `$op` bound to the operator inside `$typed`,
/// whatever its function type.
macro_rules! with_operator {
    ($typed:expr, $op:ident => $body:expr) => {
        match $typed {
            TypedOperator::Count($op) => $body,
            TypedOperator::Sum($op) => $body,
            TypedOperator::Avg($op) => $body,
            TypedOperator::Min($op) => $body,
            TypedOperator::Max($op) => $body,
            TypedOperator::Median($op) => $body,
            TypedOperator::Percentile($op) => $body,
        }
    };
}

impl TypedOperator {
    fn new(kind: AggKind, cfg: OperatorConfig) -> Self {
        match kind {
            AggKind::Count => TypedOperator::Count(WindowOperator::new(CountAgg, cfg)),
            AggKind::Sum => TypedOperator::Sum(WindowOperator::new(Sum, cfg)),
            AggKind::Avg => TypedOperator::Avg(WindowOperator::new(Avg, cfg)),
            AggKind::Min => TypedOperator::Min(WindowOperator::new(Min, cfg)),
            AggKind::Max => TypedOperator::Max(WindowOperator::new(Max, cfg)),
            AggKind::Median => TypedOperator::Median(WindowOperator::new(Median, cfg)),
            AggKind::Percentile(p) => {
                TypedOperator::Percentile(WindowOperator::new(Percentile::new(p), cfg))
            }
        }
    }
}

/// Converts typed results to [`Value`]s as they leave, tagged with `kind`.
fn tagged<O: Into<Value>>(
    kind: AggKind,
    results: Vec<WindowResult<O>>,
    out: &mut Vec<(AggKind, WindowResult<Value>)>,
) {
    out.extend(results.into_iter().map(|r| {
        let WindowResult { query, measure, range, value, is_update } = r;
        (kind, WindowResult { query, measure, range, value: value.into(), is_update })
    }));
}

/// Translates parsed queries into configured slicing operators.
///
/// Queries with the same aggregation kind share one operator — and thus
/// one slice store — which is the paper's multi-query sharing. Different
/// aggregation kinds get separate operators.
pub fn translate(
    queries: &[QueryDsl],
    order: StreamOrder,
    allowed_lateness: Time,
    policy: StorePolicy,
) -> Result<Translated, QueryError> {
    let cfg = OperatorConfig { order, policy, allowed_lateness, ..Default::default() };
    // At most one operator per query: reserved up front, a push never
    // moves the operators already built.
    let mut operators: Vec<(AggKind, TypedOperator)> = Vec::with_capacity(queries.len());
    for q in queries {
        let idx = match operators.iter().position(|(k, _)| *k == q.agg) {
            Some(i) => i,
            None => {
                operators.push((q.agg, TypedOperator::new(q.agg, cfg)));
                operators.len() - 1
            }
        };
        with_operator!(&mut operators[idx].1, op => op.add_query(q.window.build()))?;
    }
    Ok(Translated { operators })
}

impl Translated {
    /// Number of underlying operators (one per distinct aggregation kind).
    pub fn operator_count(&self) -> usize {
        self.operators.len()
    }

    /// Processes one tuple through every operator, collecting results
    /// tagged with their aggregation kind.
    pub fn process_tuple(
        &mut self,
        ts: Time,
        value: i64,
        out: &mut Vec<(AggKind, WindowResult<Value>)>,
    ) {
        for (kind, typed) in &mut self.operators {
            with_operator!(typed, op => {
                let mut results = Vec::new();
                op.process_tuple(ts, value, &mut results);
                tagged(*kind, results, out);
            });
        }
    }

    /// Processes a watermark through every operator.
    pub fn process_watermark(&mut self, wm: Time, out: &mut Vec<(AggKind, WindowResult<Value>)>) {
        for (kind, typed) in &mut self.operators {
            with_operator!(typed, op => {
                let mut results = Vec::new();
                op.process_watermark(wm, &mut results);
                tagged(*kind, results, out);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_core::AggregateFunction;

    #[test]
    fn parse_full_queries() {
        let q = QueryDsl::parse("SUM OVER SLIDE 10s 2s").unwrap();
        assert_eq!(q.agg, AggKind::Sum);
        assert_eq!(q.window, WindowDsl::Slide { length: 10_000, slide: 2_000 });
        assert_eq!(q.to_string(), "SUM OVER SLIDE 10s 2s");
        let q = QueryDsl::parse("p95 over session 30s").unwrap();
        assert_eq!(q.agg, AggKind::Percentile(0.95));
        assert!(QueryDsl::parse("SUM SLIDE 10s 2s").is_err());
        assert!(QueryDsl::parse("MODE OVER TUMBLE 5s").is_err());
    }

    #[test]
    fn same_agg_queries_share_one_operator() {
        let queries = [
            QueryDsl::parse("SUM OVER TUMBLE 1s").unwrap(),
            QueryDsl::parse("SUM OVER TUMBLE 2s").unwrap(),
            QueryDsl::parse("AVG OVER TUMBLE 1s").unwrap(),
        ];
        let t = translate(&queries, StreamOrder::InOrder, 0, StorePolicy::Lazy).unwrap();
        assert_eq!(t.operator_count(), 2);
    }

    #[test]
    fn end_to_end_dsl_execution() {
        let queries = [
            QueryDsl::parse("SUM OVER TUMBLE 1s").unwrap(),
            QueryDsl::parse("MEDIAN OVER TUMBLE 1s").unwrap(),
        ];
        let mut t = translate(&queries, StreamOrder::InOrder, 0, StorePolicy::Lazy).unwrap();
        let mut out = Vec::new();
        for i in 0..2_500i64 {
            t.process_tuple(i, i % 10, &mut out);
        }
        let sums: Vec<&(AggKind, _)> = out.iter().filter(|(k, _)| *k == AggKind::Sum).collect();
        assert_eq!(sums.len(), 2);
        assert_eq!(sums[0].1.value, Value::Int((0..1000).map(|i| i % 10).sum()));
        let medians: Vec<&(AggKind, _)> =
            out.iter().filter(|(k, _)| *k == AggKind::Median).collect();
        assert_eq!(medians.len(), 2);
        assert_eq!(medians[0].1.value, Value::Int(4));
    }

    /// The typed function of `kind`, folded over `vs` directly.
    fn fold(kind: AggKind, vs: &[i64]) -> Value {
        fn with<F: AggregateFunction<Input = i64>>(f: F, vs: &[i64]) -> Value
        where
            F::Output: Into<Value>,
        {
            f.lower(&f.lift_all(vs).expect("window holds tuples")).into()
        }
        match kind {
            AggKind::Count => with(CountAgg, vs),
            AggKind::Sum => with(Sum, vs),
            AggKind::Avg => with(Avg, vs),
            AggKind::Min => with(Min, vs),
            AggKind::Max => with(Max, vs),
            AggKind::Median => with(Median, vs),
            AggKind::Percentile(p) => with(Percentile::new(p), vs),
        }
    }

    #[test]
    fn every_kind_answers_its_typed_fold_out_of_order() {
        let kinds = [
            AggKind::Count,
            AggKind::Sum,
            AggKind::Avg,
            AggKind::Min,
            AggKind::Max,
            AggKind::Median,
            AggKind::Percentile(0.9),
        ];
        let window = WindowDsl::Tumble { length: 10 };
        let queries: Vec<QueryDsl> = kinds.iter().map(|&agg| QueryDsl { window, agg }).collect();
        let mut t = translate(&queries, StreamOrder::OutOfOrder, 100, StorePolicy::Lazy).unwrap();
        assert_eq!(t.operator_count(), kinds.len());
        // Timestamps jump back and forth; the second half revises windows
        // the watermark at 30 already emitted.
        let tuples: Vec<(Time, i64)> = (0..60).map(|i| ((i * 7) % 53, (i * 13) % 17 - 8)).collect();
        let mut out = Vec::new();
        for (i, &(ts, v)) in tuples.iter().enumerate() {
            if i == 30 {
                t.process_watermark(30, &mut out);
            }
            t.process_tuple(ts, v, &mut out);
        }
        t.process_watermark(100, &mut out);
        assert!(out.iter().any(|(_, r)| r.is_update));
        for kind in kinds {
            // The last result of each window is its answer.
            let mut last = std::collections::BTreeMap::new();
            for (_, r) in out.iter().filter(|(k, _)| *k == kind) {
                last.insert(r.range.start, r.value);
            }
            assert_eq!(last.len(), 6, "{}", kind.name());
            for (start, value) in last {
                let vs: Vec<i64> = tuples
                    .iter()
                    .filter(|(ts, _)| (start..start + 10).contains(ts))
                    .map(|&(_, v)| v)
                    .collect();
                assert_eq!(value, fold(kind, &vs), "{} [{start}, +10)", kind.name());
            }
        }
    }

    #[test]
    fn mixed_measures_rejected_on_ooo() {
        let queries = [
            QueryDsl::parse("SUM OVER TUMBLE 1s").unwrap(),
            QueryDsl::parse("SUM OVER COUNT_TUMBLE 10").unwrap(),
        ];
        let err = translate(&queries, StreamOrder::OutOfOrder, 1_000, StorePolicy::Lazy);
        assert!(err.is_err());
    }
}
