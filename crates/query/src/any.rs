//! Runtime-chosen aggregation: one [`AggregateFunction`] dispatching over
//! the library's `i64`-input functions, so query layers (SQL frontends,
//! config files) can pick the aggregation at runtime and still share one
//! operator type.
//!
//! The cost of dynamism is an enum tag per partial — the statically-typed
//! functions in `gss-aggregates` stay the fast path for compiled-in
//! queries.

use gss_aggregates::{Avg, AvgPartial, Max, Median, Min, Percentile, SortedRle, Sum};
use gss_core::{AggregateFunction, FunctionKind, FunctionProperties, HeapSize};

/// Which aggregation an [`AnyAggregate`] performs.
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

/// Partial aggregate of an [`AnyAggregate`].
#[derive(Debug, Clone, PartialEq)]
pub enum AnyPartial {
    Count(u64),
    Sum(i64),
    Avg(AvgPartial),
    Min(i64),
    Max(i64),
    Holistic(SortedRle),
}

impl HeapSize for AnyPartial {
    fn heap_bytes(&self) -> usize {
        match self {
            AnyPartial::Holistic(rle) => rle.heap_bytes(),
            _ => 0,
        }
    }
}

/// Final aggregate of an [`AnyAggregate`].
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

    #[cfg(test)]
    fn as_f64(&self) -> f64 {
        match self {
            Value::Int(v) => *v as f64,
            Value::Float(f) => *f,
        }
    }
}

/// A runtime-selected aggregation over `i64` inputs.
#[derive(Debug, Clone, Copy)]
pub struct AnyAggregate {
    kind: AggKind,
}

impl AnyAggregate {
    pub fn new(kind: AggKind) -> Self {
        AnyAggregate { kind }
    }

    pub fn kind(&self) -> AggKind {
        self.kind
    }

    fn mismatch(&self) -> ! {
        panic!("AnyAggregate({:?}): mixed partial variants", self.kind)
    }
}

impl AggregateFunction for AnyAggregate {
    type Input = i64;
    type Partial = AnyPartial;
    type Output = Value;

    fn lift(&self, v: &i64) -> AnyPartial {
        match self.kind {
            AggKind::Count => AnyPartial::Count(1),
            AggKind::Sum => AnyPartial::Sum(*v),
            AggKind::Avg => AnyPartial::Avg(Avg.lift(v)),
            AggKind::Min => AnyPartial::Min(*v),
            AggKind::Max => AnyPartial::Max(*v),
            AggKind::Median | AggKind::Percentile(_) => {
                AnyPartial::Holistic(SortedRle::singleton(*v))
            }
        }
    }

    fn combine(&self, a: AnyPartial, b: &AnyPartial) -> AnyPartial {
        match (a, b) {
            (AnyPartial::Count(x), AnyPartial::Count(y)) => AnyPartial::Count(x + y),
            (AnyPartial::Sum(x), AnyPartial::Sum(y)) => AnyPartial::Sum(x + y),
            (AnyPartial::Avg(x), AnyPartial::Avg(y)) => AnyPartial::Avg(Avg.combine(x, y)),
            (AnyPartial::Min(x), AnyPartial::Min(y)) => AnyPartial::Min(x.min(*y)),
            (AnyPartial::Max(x), AnyPartial::Max(y)) => AnyPartial::Max(x.max(*y)),
            (AnyPartial::Holistic(x), AnyPartial::Holistic(y)) => AnyPartial::Holistic(x.merge(y)),
            _ => self.mismatch(),
        }
    }

    fn lower(&self, p: &AnyPartial) -> Value {
        match (self.kind, p) {
            (AggKind::Count, AnyPartial::Count(c)) => Value::Int(*c as i64),
            (AggKind::Sum, AnyPartial::Sum(s)) => Value::Int(*s),
            (AggKind::Avg, AnyPartial::Avg(a)) => Value::Float(Avg.lower(a)),
            (AggKind::Min, AnyPartial::Min(m)) => Value::Int(Min.lower(m)),
            (AggKind::Max, AnyPartial::Max(m)) => Value::Int(Max.lower(m)),
            (AggKind::Median, AnyPartial::Holistic(r)) => Value::Int(Median.lower(r)),
            (AggKind::Percentile(p100), AnyPartial::Holistic(r)) => {
                Value::Int(Percentile::new(p100).lower(r))
            }
            _ => self.mismatch(),
        }
    }

    fn invert(&self, a: AnyPartial, b: &AnyPartial) -> Option<AnyPartial> {
        match (a, b) {
            (AnyPartial::Count(x), AnyPartial::Count(y)) => Some(AnyPartial::Count(x - y)),
            (AnyPartial::Sum(x), AnyPartial::Sum(y)) => Sum.invert(x, y).map(AnyPartial::Sum),
            (AnyPartial::Avg(x), AnyPartial::Avg(y)) => Avg.invert(x, y).map(AnyPartial::Avg),
            (AnyPartial::Min(x), AnyPartial::Min(y)) => Min.invert(x, y).map(AnyPartial::Min),
            (AnyPartial::Max(x), AnyPartial::Max(y)) => Max.invert(x, y).map(AnyPartial::Max),
            _ => None,
        }
    }

    fn properties(&self) -> FunctionProperties {
        match self.kind {
            AggKind::Count | AggKind::Sum | AggKind::Avg => FunctionProperties {
                commutative: true,
                invertible: true,
                kind: FunctionKind::Algebraic,
            },
            AggKind::Min | AggKind::Max => FunctionProperties {
                commutative: true,
                invertible: false,
                kind: FunctionKind::Distributive,
            },
            AggKind::Median | AggKind::Percentile(_) => FunctionProperties {
                commutative: true,
                invertible: false,
                kind: FunctionKind::Holistic,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fold(kind: AggKind, vs: &[i64]) -> Value {
        let f = AnyAggregate::new(kind);
        f.lower(&f.lift_all(vs.iter()).unwrap())
    }

    #[test]
    fn every_kind_computes() {
        let vs = [5i64, 1, 9, 3, 3];
        assert_eq!(fold(AggKind::Count, &vs), Value::Int(5));
        assert_eq!(fold(AggKind::Sum, &vs), Value::Int(21));
        assert_eq!(fold(AggKind::Avg, &vs).as_f64(), 4.2);
        assert_eq!(fold(AggKind::Min, &vs), Value::Int(1));
        assert_eq!(fold(AggKind::Max, &vs), Value::Int(9));
        assert_eq!(fold(AggKind::Median, &vs), Value::Int(3));
        assert_eq!(fold(AggKind::Percentile(0.99), &vs), Value::Int(9));
    }

    #[test]
    fn invert_only_where_sound() {
        let f = AnyAggregate::new(AggKind::Sum);
        assert_eq!(f.invert(AnyPartial::Sum(5), &AnyPartial::Sum(3)), Some(AnyPartial::Sum(2)));
        let m = AnyAggregate::new(AggKind::Min);
        assert_eq!(m.invert(AnyPartial::Min(1), &AnyPartial::Min(1)), None);
        assert_eq!(m.invert(AnyPartial::Min(1), &AnyPartial::Min(7)), Some(AnyPartial::Min(1)));
    }

    #[test]
    fn holistic_partials_report_heap() {
        let f = AnyAggregate::new(AggKind::Median);
        let p = f.lift_all([&1, &2, &3]).unwrap();
        assert!(p.heap_bytes() > 0);
        assert_eq!(AnyPartial::Sum(5).heap_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "mixed partial variants")]
    fn mixed_variants_panic() {
        let f = AnyAggregate::new(AggKind::Sum);
        f.combine(AnyPartial::Sum(1), &AnyPartial::Count(1));
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::Int(3).as_f64(), 3.0);
        assert_eq!(Value::Float(3.9).as_i64(), 3);
    }
}
