//! Typed query specifications and the textual mini-DSL.
//!
//! The paper's architecture (Figure 3) places a *query translator* above
//! the aggregator: users write stream SQL or a functional API, the
//! translator derives the workload characteristics and forwards them. This
//! module is that layer: a [`WindowDsl`] spec with a compact textual form
//!
//! ```text
//! TUMBLE 5s | SLIDE 10s 2s | SESSION 30s | COUNT_TUMBLE 100 | COUNT_SLIDE 100 10
//! ```
//!
//! plus an aggregation chosen from [`AggKind`]'s textual names
//! (`SUM`, `AVG`, `MEDIAN`, `P95`, …).

use gss_core::WindowFunction;
use gss_windows::{
    CountSlidingWindow, CountTumblingWindow, SessionWindow, SlidingWindow, TumblingWindow,
};

use crate::any::AggKind;
use crate::duration::{format_duration, parse_duration};

/// A window specification, parseable from and printable to the DSL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowDsl {
    /// `TUMBLE <len>`
    Tumble { length: i64 },
    /// `SLIDE <len> <slide>`
    Slide { length: i64, slide: i64 },
    /// `SESSION <gap>`
    Session { gap: i64 },
    /// `COUNT_TUMBLE <n>`
    CountTumble { length: u64 },
    /// `COUNT_SLIDE <n> <m>`
    CountSlide { length: u64, slide: u64 },
}

impl WindowDsl {
    /// Parses one window clause, e.g. `"SLIDE 10s 2s"`.
    pub fn parse(input: &str) -> Result<Self, String> {
        let mut parts = input.split_whitespace();
        let keyword = parts.next().ok_or("empty window spec")?.to_ascii_uppercase();
        let mut next_dur = |what: &str| -> Result<i64, String> {
            let token =
                parts.next().ok_or_else(|| format!("window spec '{input}': missing {what}"))?;
            parse_duration(token)
        };
        let spec = match keyword.as_str() {
            "TUMBLE" => WindowDsl::Tumble { length: next_dur("length")? },
            "SLIDE" => WindowDsl::Slide { length: next_dur("length")?, slide: next_dur("slide")? },
            "SESSION" => WindowDsl::Session { gap: next_dur("gap")? },
            "COUNT_TUMBLE" => {
                let n = parts
                    .next()
                    .ok_or_else(|| format!("window spec '{input}': missing count"))?
                    .parse::<u64>()
                    .map_err(|e| format!("window spec '{input}': {e}"))?;
                WindowDsl::CountTumble { length: n }
            }
            "COUNT_SLIDE" => {
                let n = parts
                    .next()
                    .ok_or_else(|| format!("window spec '{input}': missing count"))?
                    .parse::<u64>()
                    .map_err(|e| format!("window spec '{input}': {e}"))?;
                let m = parts
                    .next()
                    .ok_or_else(|| format!("window spec '{input}': missing slide count"))?
                    .parse::<u64>()
                    .map_err(|e| format!("window spec '{input}': {e}"))?;
                WindowDsl::CountSlide { length: n, slide: m }
            }
            other => return Err(format!("unknown window type '{other}'")),
        };
        if let Some(extra) = parts.next() {
            return Err(format!("window spec '{input}': unexpected token '{extra}'"));
        }
        spec.validate()?;
        Ok(spec)
    }

    fn validate(self) -> Result<(), String> {
        let ok = match self {
            WindowDsl::Tumble { length } => length > 0,
            WindowDsl::Slide { length, slide } => length > 0 && slide > 0,
            WindowDsl::Session { gap } => gap > 0,
            WindowDsl::CountTumble { length } => length > 0,
            WindowDsl::CountSlide { length, slide } => length > 0 && slide > 0,
        };
        if ok {
            Ok(())
        } else {
            Err(format!("window spec {self:?}: parameters must be positive"))
        }
    }

    /// Instantiates the window function.
    pub fn build(self) -> Box<dyn WindowFunction> {
        match self {
            WindowDsl::Tumble { length } => Box::new(TumblingWindow::new(length)),
            WindowDsl::Slide { length, slide } => Box::new(SlidingWindow::new(length, slide)),
            WindowDsl::Session { gap } => Box::new(SessionWindow::new(gap)),
            WindowDsl::CountTumble { length } => Box::new(CountTumblingWindow::new(length)),
            WindowDsl::CountSlide { length, slide } => {
                Box::new(CountSlidingWindow::new(length, slide))
            }
        }
    }
}

impl std::fmt::Display for WindowDsl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WindowDsl::Tumble { length } => write!(f, "TUMBLE {}", format_duration(*length)),
            WindowDsl::Slide { length, slide } => {
                write!(f, "SLIDE {} {}", format_duration(*length), format_duration(*slide))
            }
            WindowDsl::Session { gap } => write!(f, "SESSION {}", format_duration(*gap)),
            WindowDsl::CountTumble { length } => write!(f, "COUNT_TUMBLE {length}"),
            WindowDsl::CountSlide { length, slide } => write!(f, "COUNT_SLIDE {length} {slide}"),
        }
    }
}

/// Parses an aggregation name: `COUNT`, `SUM`, `AVG`, `MIN`, `MAX`,
/// `MEDIAN`, or `P<1..=100>`.
pub(crate) fn parse_agg(input: &str) -> Result<AggKind, String> {
    let s = input.trim().to_ascii_uppercase();
    Ok(match s.as_str() {
        "COUNT" => AggKind::Count,
        "SUM" => AggKind::Sum,
        "AVG" | "MEAN" => AggKind::Avg,
        "MIN" => AggKind::Min,
        "MAX" => AggKind::Max,
        "MEDIAN" => AggKind::Median,
        _ => {
            if let Some(pct) = s.strip_prefix('P') {
                let p: u32 = pct.parse().map_err(|e| format!("aggregation '{input}': {e}"))?;
                if !(1..=100).contains(&p) {
                    return Err(format!("aggregation '{input}': percentile out of range"));
                }
                AggKind::Percentile(p as f64 / 100.0)
            } else {
                return Err(format!("unknown aggregation '{input}'"));
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_core::{ContextClass, Measure};

    #[test]
    fn parses_every_window_form() {
        assert_eq!(WindowDsl::parse("TUMBLE 5s"), Ok(WindowDsl::Tumble { length: 5_000 }));
        assert_eq!(
            WindowDsl::parse("slide 10s 2s"),
            Ok(WindowDsl::Slide { length: 10_000, slide: 2_000 })
        );
        assert_eq!(WindowDsl::parse("SESSION 30s"), Ok(WindowDsl::Session { gap: 30_000 }));
        assert_eq!(
            WindowDsl::parse("COUNT_TUMBLE 100"),
            Ok(WindowDsl::CountTumble { length: 100 })
        );
        assert_eq!(
            WindowDsl::parse("COUNT_SLIDE 100 10"),
            Ok(WindowDsl::CountSlide { length: 100, slide: 10 })
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(WindowDsl::parse("").is_err());
        assert!(WindowDsl::parse("TUMBLE").is_err());
        assert!(WindowDsl::parse("TUMBLE 5s 6s").is_err());
        assert!(WindowDsl::parse("HOP 5s 1s").is_err());
        assert!(WindowDsl::parse("TUMBLE 0s").is_err());
        assert!(WindowDsl::parse("COUNT_TUMBLE -3").is_err());
        assert!(WindowDsl::parse("COUNT_SLIDE 10").is_err());
    }

    #[test]
    fn display_roundtrips() {
        for text in
            ["TUMBLE 5s", "SLIDE 10s 2s", "SESSION 30s", "COUNT_TUMBLE 100", "COUNT_SLIDE 100 10"]
        {
            let spec = WindowDsl::parse(text).unwrap();
            assert_eq!(spec.to_string(), text);
            assert_eq!(WindowDsl::parse(&spec.to_string()), Ok(spec));
        }
    }

    #[test]
    fn build_produces_matching_window_functions() {
        let w = WindowDsl::parse("SESSION 30s").unwrap().build();
        assert!(w.is_session());
        assert_eq!(w.context(), ContextClass::ForwardContextAware);
        let w = WindowDsl::parse("COUNT_TUMBLE 100").unwrap().build();
        assert_eq!(w.measure(), Measure::Count);
        let w = WindowDsl::parse("SLIDE 10s 2s").unwrap().build();
        assert_eq!(w.measure(), Measure::Time);
        assert_eq!(w.context(), ContextClass::ContextFree);
    }

    #[test]
    fn parses_aggregations() {
        assert_eq!(parse_agg("sum"), Ok(AggKind::Sum));
        assert_eq!(parse_agg("MEAN"), Ok(AggKind::Avg));
        assert_eq!(parse_agg("median"), Ok(AggKind::Median));
        assert_eq!(parse_agg("P95"), Ok(AggKind::Percentile(0.95)));
        assert!(parse_agg("P0").is_err());
        assert!(parse_agg("P101").is_err());
        assert!(parse_agg("MODE").is_err());
    }
}
