//! The aggregations a query can name, and the one result type they share.
//!
//! Translation is typed: each [`AggKind`] selects its statically typed
//! function of `gss-aggregates` (fold kernel included), and a result is
//! converted to a [`Value`] only as it leaves the operator.

/// Which aggregation a query performs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AggKind {
    Count,
    Sum,
    Avg,
    Min,
    Max,
    Median,
    /// Nearest-rank percentile, `0 < p <= 1`.
    Percentile(f64),
}

impl AggKind {
    pub fn name(&self) -> String {
        match self {
            AggKind::Count => "COUNT".into(),
            AggKind::Sum => "SUM".into(),
            AggKind::Avg => "AVG".into(),
            AggKind::Min => "MIN".into(),
            AggKind::Max => "MAX".into(),
            AggKind::Median => "MEDIAN".into(),
            AggKind::Percentile(p) => format!("P{:.0}", p * 100.0),
        }
    }
}

/// A final aggregate, whichever aggregation produced it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    Int(i64),
    Float(f64),
}

impl Value {
    pub fn as_i64(&self) -> i64 {
        match self {
            Value::Int(v) => *v,
            Value::Float(f) => *f as i64,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

/// A count, as the query layer reports it.
impl From<u64> for Value {
    fn from(c: u64) -> Self {
        Value::Int(c as i64)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(3u64), Value::Int(3));
        assert_eq!(Value::from(3.5), Value::Float(3.5));
        assert_eq!(Value::Float(3.9).as_i64(), 3);
    }
}
