//! Simulated time: base ticks and per-component clock domains.
//!
//! The global simulation advances in *base ticks* of a 6 GHz virtual clock
//! (one tick = 1/6 ns). Every modeled frequency in the evaluation divides
//! 6 GHz evenly, so components fire on exact tick boundaries and the
//! simulation stays deterministic across clock sweeps.

/// A point in simulated time, measured in 6 GHz base ticks.
pub type Tick = u64;

/// Base clock frequency in GHz that `Tick` counts cycles of.
pub const GHZ_BASE: f64 = 6.0;

/// Number of base ticks per nanosecond of simulated time.
pub const TICKS_PER_NS: u64 = 6;

/// A clock domain: a component frequency expressed as a base-tick period.
///
/// # Examples
///
/// ```
/// use distda_sim::time::ClockDomain;
/// let cgra = ClockDomain::from_ghz(1.0);
/// assert_eq!(cgra.period_ticks(), 6);
/// assert_eq!(cgra.cycles_in(12), 2);
/// assert_eq!(cgra.ticks_for_cycles(5), 30);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClockDomain {
    period: u64,
}

impl ClockDomain {
    /// Creates a domain from a frequency in GHz.
    ///
    /// # Panics
    ///
    /// Panics if the frequency does not evenly divide the 6 GHz base clock
    /// (the supported set is 0.5, 0.75, 1, 1.5, 2, 3 and 6 GHz).
    pub fn from_ghz(ghz: f64) -> Self {
        let period = GHZ_BASE / ghz;
        assert!(
            (period.fract()).abs() < 1e-9 && period >= 1.0,
            "frequency {ghz} GHz does not divide the {GHZ_BASE} GHz base clock"
        );
        Self {
            period: period as u64,
        }
    }

    /// The domain frequency in GHz.
    pub fn ghz(self) -> f64 {
        GHZ_BASE / self.period as f64
    }

    /// Base ticks per domain cycle.
    pub fn period_ticks(self) -> u64 {
        self.period
    }

    /// Whether this domain has a rising edge at base tick `t`.
    pub fn fires_at(self, t: Tick) -> bool {
        t.is_multiple_of(self.period)
    }

    /// Number of complete domain cycles elapsed by base tick `t`.
    pub fn cycles_in(self, t: Tick) -> u64 {
        t / self.period
    }

    /// Base ticks needed for `cycles` domain cycles.
    pub fn ticks_for_cycles(self, cycles: u64) -> Tick {
        cycles * self.period
    }

    /// The first tick `>= t` at which this domain fires.
    pub fn next_edge(self, t: Tick) -> Tick {
        t.div_ceil(self.period) * self.period
    }
}

/// Combines two optional wake-up times into the earliest one.
///
/// This is the reduction operator of the `next_event(now) -> Option<Tick>`
/// protocol: each component reports the earliest tick at which it could do
/// observable work (`None` = only external input can wake it), and the
/// scheduler folds the candidates with `earliest` to find the next tick the
/// machine must actually simulate.
///
/// # Examples
///
/// ```
/// use distda_sim::time::earliest;
/// assert_eq!(earliest(Some(5), Some(3)), Some(3));
/// assert_eq!(earliest(None, Some(7)), Some(7));
/// assert_eq!(earliest::<u64>(None, None), None);
/// ```
pub fn earliest<T: Ord>(a: Option<T>, b: Option<T>) -> Option<T> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

impl Default for ClockDomain {
    /// The paper's host frequency, 2 GHz.
    fn default() -> Self {
        Self::from_ghz(2.0)
    }
}

/// Converts a tick count to nanoseconds of simulated time.
pub fn ticks_to_ns(t: Tick) -> f64 {
    t as f64 / TICKS_PER_NS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ghz_periods_match_paper_frequencies() {
        assert_eq!(ClockDomain::from_ghz(1.0).period_ticks(), 6);
        assert_eq!(ClockDomain::from_ghz(1.5).period_ticks(), 4);
        assert_eq!(ClockDomain::from_ghz(2.0).period_ticks(), 3);
        assert_eq!(ClockDomain::from_ghz(3.0).period_ticks(), 2);
        assert_eq!(ClockDomain::from_ghz(6.0).period_ticks(), 1);
    }

    #[test]
    #[should_panic(expected = "does not divide")]
    fn rejects_non_divisor_frequency() {
        let _ = ClockDomain::from_ghz(2.5);
    }

    #[test]
    fn fires_on_exact_multiples_only() {
        let d = ClockDomain::from_ghz(2.0);
        let edges: Vec<Tick> = (0..12).filter(|&t| d.fires_at(t)).collect();
        assert_eq!(edges, vec![0, 3, 6, 9]);
    }

    #[test]
    fn next_edge_rounds_up() {
        let d = ClockDomain::from_ghz(1.0);
        assert_eq!(d.next_edge(0), 0);
        assert_eq!(d.next_edge(1), 6);
        assert_eq!(d.next_edge(6), 6);
        assert_eq!(d.next_edge(7), 12);
    }

    #[test]
    fn cycles_and_ticks_roundtrip() {
        let d = ClockDomain::from_ghz(3.0);
        for c in [0u64, 1, 10, 1000] {
            assert_eq!(d.cycles_in(d.ticks_for_cycles(c)), c);
        }
    }

    #[test]
    fn ghz_roundtrip() {
        for f in [1.0, 1.5, 2.0, 3.0] {
            assert!((ClockDomain::from_ghz(f).ghz() - f).abs() < 1e-12);
        }
    }

    #[test]
    fn ns_conversion() {
        assert_eq!(ticks_to_ns(6), 1.0);
        assert_eq!(ticks_to_ns(3), 0.5);
    }

    #[test]
    fn default_is_host_clock() {
        assert_eq!(ClockDomain::default().period_ticks(), 3);
    }
}
