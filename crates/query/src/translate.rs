//! The query translator (paper Figure 3): takes user-level query
//! descriptions, derives the workload characteristics, and configures a
//! general slicing operator accordingly.

use gss_core::operator::{OperatorConfig, WindowOperator};
use gss_core::{QueryError, QueryId, StorePolicy, StreamOrder, Time};

use crate::any::{AggKind, AnyAggregate};
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
    operators: Vec<(AggKind, WindowOperator<AnyAggregate>, Vec<QueryId>)>,
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
    let mut operators: Vec<(AggKind, WindowOperator<AnyAggregate>, Vec<QueryId>)> = Vec::new();
    for q in queries {
        let idx = match operators.iter().position(|(k, _, _)| *k == q.agg) {
            Some(i) => i,
            None => {
                let cfg = OperatorConfig { order, policy, allowed_lateness, ..Default::default() };
                operators.push((
                    q.agg,
                    WindowOperator::new(AnyAggregate::new(q.agg), cfg),
                    Vec::new(),
                ));
                operators.len() - 1
            }
        };
        let (_, op, ids) = &mut operators[idx];
        let id = op.add_query(q.window.build())?;
        ids.push(id);
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
        out: &mut Vec<(AggKind, gss_core::WindowResult<crate::any::Value>)>,
    ) {
        let mut scratch = Vec::new();
        for (kind, op, _) in &mut self.operators {
            op.process_tuple(ts, value, &mut scratch);
            out.extend(scratch.drain(..).map(|r| (*kind, r)));
        }
    }

    /// Processes a watermark through every operator.
    pub fn process_watermark(
        &mut self,
        wm: Time,
        out: &mut Vec<(AggKind, gss_core::WindowResult<crate::any::Value>)>,
    ) {
        let mut scratch = Vec::new();
        for (kind, op, _) in &mut self.operators {
            op.process_watermark(wm, &mut scratch);
            out.extend(scratch.drain(..).map(|r| (*kind, r)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::any::Value;

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
