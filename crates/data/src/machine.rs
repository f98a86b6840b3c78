//! Synthetic manufacturing-machine stream, modeled after the DEBS 2012
//! grand challenge data the paper replays (Section 6.1, \[25\]).
//!
//! Substitution (documented in DESIGN.md): the original data reports
//! machine states at 100 Hz with only **37 distinct values** in the
//! aggregated column — the property that makes run-length encoding so
//! effective for holistic aggregates in the paper's Figure 14. This
//! generator reproduces the rate and the 37-value cardinality with a
//! seeded Markov-style state process.

use gss_core::Time;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the synthetic machine stream.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Updates per second (original: 100 Hz).
    pub rate_hz: u64,
    /// Number of distinct machine states (original column: 37).
    pub distinct_values: i64,
    /// Probability (percent) of changing state between updates; low values
    /// produce the long runs typical of machine telemetry.
    pub change_percent: u8,
    pub seed: u64,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig { rate_hz: 100, distinct_values: 37, change_percent: 10, seed: 0x3A3A }
    }
}

/// A machine-state tuple generator.
pub struct MachineGenerator {
    cfg: MachineConfig,
    rng: StdRng,
    us: i64,
    period_us: i64,
    state: i64,
}

impl MachineGenerator {
    pub fn new(cfg: MachineConfig) -> Self {
        assert!(cfg.rate_hz > 0);
        assert!(cfg.distinct_values > 0);
        let rng = StdRng::seed_from_u64(cfg.seed);
        let period_us = (1_000_000 / cfg.rate_hz) as i64;
        MachineGenerator { cfg, rng, us: 0, period_us, state: 0 }
    }

    /// Generates `n` in-order tuples `(event_time_ms, state)`.
    pub fn take(&mut self, n: usize) -> Vec<(Time, i64)> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            if self.rng.gen_range(0..100) < self.cfg.change_percent as u32 {
                self.state = self.rng.gen_range(0..self.cfg.distinct_values);
            }
            out.push((self.us / 1000, self.state));
            self.us += self.period_us;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_37_states_at_most() {
        let mut g = MachineGenerator::new(MachineConfig::default());
        let distinct: std::collections::HashSet<i64> =
            g.take(100_000).into_iter().map(|(_, v)| v).collect();
        assert!(distinct.len() <= 37);
        assert!(distinct.len() > 20, "should visit most states: {}", distinct.len());
    }

    #[test]
    fn rate_is_100hz() {
        let mut g = MachineGenerator::new(MachineConfig::default());
        let tuples = g.take(1000);
        let span = tuples.last().unwrap().0 - tuples[0].0;
        assert!((9_000..=10_100).contains(&span), "span {span}");
    }

    #[test]
    fn long_runs_for_rle() {
        let mut g = MachineGenerator::new(MachineConfig::default());
        let tuples = g.take(10_000);
        let changes = tuples.windows(2).filter(|w| w[0].1 != w[1].1).count();
        // ~10% change probability (with self-transitions) -> far fewer
        // changes than tuples.
        assert!(changes < 2000, "changes: {changes}");
    }

    #[test]
    fn deterministic_with_seed() {
        let mut a = MachineGenerator::new(MachineConfig::default());
        let mut b = MachineGenerator::new(MachineConfig::default());
        assert_eq!(a.take(500), b.take(500));
    }
}
