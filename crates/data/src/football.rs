//! Synthetic football sensor stream, modeled after the DEBS 2013 grand
//! challenge data the paper replays (Section 6.1, \[34\]).
//!
//! Substitution (documented in DESIGN.md): the original dataset tracks
//! ball positions at 2000 Hz; the paper adds 5 gaps per minute to separate
//! sessions (ball possession changing players) and aggregates a column
//! with 84 232 distinct values. This generator reproduces exactly those
//! workload-relevant properties — rate, session-gap structure, and value
//! cardinality — with a seeded random walk, because the paper itself notes
//! results "depend on workload characteristics rather than data
//! characteristics".

use gss_core::Time;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the synthetic football stream.
#[derive(Debug, Clone)]
pub struct FootballConfig {
    /// Tuples per second of event time (original sensors: 2000 Hz; the
    /// paper generates more to simulate higher ingestion rates).
    pub rate_hz: u64,
    /// Session gaps per minute of event time (paper: 5 per minute).
    pub gaps_per_minute: u32,
    /// Gap duration in milliseconds (must exceed the session gap of the
    /// queries for sessions to separate; dashboards use 1 s gaps).
    pub gap_ms: i64,
    /// Number of distinct values in the aggregated column (paper: 84 232).
    pub distinct_values: i64,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl Default for FootballConfig {
    fn default() -> Self {
        FootballConfig {
            rate_hz: 2000,
            gaps_per_minute: 5,
            gap_ms: 1500,
            distinct_values: 84_232,
            seed: 0xF00B,
        }
    }
}

/// A ball-velocity tuple stream generator.
pub struct FootballGenerator {
    cfg: FootballConfig,
    rng: StdRng,
    ts: Time,
    period_us: i64,
    until_gap: i64,
    velocity: i64,
}

impl FootballGenerator {
    pub fn new(cfg: FootballConfig) -> Self {
        assert!(cfg.rate_hz > 0, "rate must be positive");
        assert!(cfg.distinct_values > 0, "need at least one distinct value");
        let rng = StdRng::seed_from_u64(cfg.seed);
        let period_us = (1_000_000 / cfg.rate_hz.max(1)) as i64;
        let until_gap = Self::gap_interval(&cfg);
        FootballGenerator { cfg, rng, ts: 0, period_us, until_gap, velocity: 0 }
    }

    fn gap_interval(cfg: &FootballConfig) -> i64 {
        if cfg.gaps_per_minute == 0 {
            i64::MAX
        } else {
            // Tuples between gaps: one minute of tuples / gaps-per-minute.
            (cfg.rate_hz as i64 * 60) / cfg.gaps_per_minute as i64
        }
    }

    /// Generates `n` in-order tuples `(event_time_ms, value)`.
    pub fn take(&mut self, n: usize) -> Vec<(Time, i64)> {
        let mut out = Vec::with_capacity(n);
        let mut us = self.ts * 1000;
        for _ in 0..n {
            self.until_gap -= 1;
            if self.until_gap <= 0 {
                us += self.cfg.gap_ms * 1000;
                self.until_gap = Self::gap_interval(&self.cfg);
            }
            // Smooth random walk over the value domain (ball velocity).
            let step = self.rng.gen_range(-50..=50);
            self.velocity = (self.velocity + step).rem_euclid(self.cfg.distinct_values);
            out.push((us / 1000, self.velocity));
            us += self.period_us;
        }
        self.ts = us / 1000;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuples_are_in_order_and_rate_matches() {
        let mut g = FootballGenerator::new(FootballConfig {
            rate_hz: 1000,
            gaps_per_minute: 0,
            ..Default::default()
        });
        let tuples = g.take(5000);
        assert_eq!(tuples.len(), 5000);
        assert!(tuples.windows(2).all(|w| w[0].0 <= w[1].0), "must be in order");
        // 1000 Hz -> ~1 ms spacing -> ~5 s span.
        let span = tuples.last().unwrap().0 - tuples[0].0;
        assert!((4_500..=5_500).contains(&span), "span {span}");
    }

    #[test]
    fn gaps_separate_sessions() {
        let cfg =
            FootballConfig { rate_hz: 100, gaps_per_minute: 5, gap_ms: 1500, ..Default::default() };
        let mut g = FootballGenerator::new(cfg);
        // Two minutes of data -> ~10 gaps.
        let tuples = g.take(12_000);
        let gaps = tuples.windows(2).filter(|w| w[1].0 - w[0].0 >= 1500).count();
        assert!((8..=12).contains(&gaps), "gaps: {gaps}");
    }

    #[test]
    fn values_stay_in_domain() {
        let mut g = FootballGenerator::new(FootballConfig::default());
        for (_, v) in g.take(10_000) {
            assert!((0..84_232).contains(&v));
        }
    }

    #[test]
    fn seeded_runs_are_deterministic() {
        let mut a = FootballGenerator::new(FootballConfig::default());
        let mut b = FootballGenerator::new(FootballConfig::default());
        assert_eq!(a.take(1000), b.take(1000));
    }

    #[test]
    fn high_cardinality_reached() {
        let mut g = FootballGenerator::new(FootballConfig::default());
        let distinct: std::collections::HashSet<i64> =
            g.take(200_000).into_iter().map(|(_, v)| v).collect();
        assert!(distinct.len() > 1000, "distinct: {}", distinct.len());
    }
}
