//! Output checks. Every measured operation is checked; an operation that
//! fails any check counts once in the run's `failed` total.

use distda_system::{RunResult, SimError};
use std::collections::BTreeMap;

/// The default workload seed, `Scale::eval().seed`: the seed the pinned
/// tick counts were recorded with and the one the daemon always uses.
pub const DEFAULT_SEED: u64 = 0xD15C0;

/// The committed 216-run record: `kernel config simulated_ticks` per row.
const REPRODUCE_LOG: &str = include_str!("../../results/reproduce.log");

/// Pinned simulated ticks per (kernel, config label).
#[derive(Debug, Clone, Default)]
pub struct Pins(BTreeMap<(String, String), u64>);

impl Pins {
    /// Parses `kernel config ticks` rows, skipping the header and the
    /// total line.
    pub fn parse(log: &str) -> Self {
        let rows = log.lines().filter_map(|line| {
            let mut f = line.split_whitespace();
            let (kernel, config, ticks) = (f.next()?, f.next()?, f.next()?);
            if f.next().is_some() {
                return None;
            }
            let ticks = ticks.parse().ok()?;
            Some(((kernel.to_string(), config.to_string()), ticks))
        });
        Self(rows.collect())
    }

    /// The pins of `results/reproduce.log`.
    pub fn committed() -> Self {
        Self::parse(REPRODUCE_LOG)
    }

    /// Whether `ticks` matches the pinned row for the cell.
    pub fn check(&self, kernel: &str, config: &str, ticks: u64) -> Result<(), String> {
        match self.0.get(&(kernel.to_string(), config.to_string())) {
            Some(&pin) if pin == ticks => Ok(()),
            Some(&pin) => Err(format!(
                "{kernel}/{config}: {ticks} ticks, reproduce.log pins {pin}"
            )),
            None => Err(format!("{kernel}/{config}: no row in reproduce.log")),
        }
    }
}

/// Everything wrong with one simulated cell: a simulation error, a
/// golden-model mismatch, or ticks that differ from an earlier pass over
/// the same cell.
pub fn cell_problems(out: &Result<RunResult, SimError>, earlier_ticks: Option<u64>) -> Vec<String> {
    let r = match out {
        Ok(r) => r,
        Err(e) => return vec![format!("simulation failed: {e}")],
    };
    let mut problems = Vec::new();
    if !r.validated {
        problems.push(format!("{}/{}: golden-model mismatch", r.kernel, r.config));
    }
    if let Some(t) = earlier_ticks.filter(|&t| t != r.ticks) {
        problems.push(format!(
            "{}/{}: {} ticks, an earlier pass simulated {t}",
            r.kernel, r.config, r.ticks
        ));
    }
    problems
}

/// Failure accounting for one run: counts operations and prints the
/// first few problems to stderr.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations with at least one problem.
    pub failed: u64,
}

impl Tally {
    /// Records one operation and its problems (none = passed).
    pub fn op(&mut self, problems: &[String]) {
        self.attempted += 1;
        if problems.is_empty() {
            return;
        }
        self.failed += 1;
        if self.failed <= 10 {
            for p in problems {
                eprintln!("benchmark: check failed: {p}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distda_system::{ConfigKind, RunConfig};
    use distda_workloads::{pointer_chase, Scale};

    fn tiny_run(seed: u64) -> Result<RunResult, SimError> {
        pointer_chase(&Scale {
            seed,
            ..Scale::tiny()
        })
        .try_simulate(&RunConfig::named(ConfigKind::OoO))
    }

    #[test]
    fn committed_pins_cover_the_paper_configs() {
        let pins = Pins::committed();
        assert!(pins.check("adi", "Dist-DA-IO@2GHz", 5_563_990).is_ok());
        assert!(pins.check("pointer-chase", "OoO", 1).is_err());
        assert!(pins.check("no-such-kernel", "OoO", 1).is_err());
    }

    #[test]
    fn one_tick_perturbed_pin_is_flagged() {
        let out = tiny_run(DEFAULT_SEED);
        let r = out.as_ref().expect("tiny cell simulates");
        let row = |ticks: u64| format!("{} {} {ticks}\n", r.kernel, r.config);
        let exact = Pins::parse(&row(r.ticks));
        assert!(exact.check(&r.kernel, &r.config, r.ticks).is_ok());
        let perturbed = Pins::parse(&row(r.ticks + 1));
        assert!(perturbed.check(&r.kernel, &r.config, r.ticks).is_err());
        assert!(cell_problems(&out, Some(r.ticks)).is_empty());
        assert_eq!(cell_problems(&out, Some(r.ticks - 1)).len(), 1);
    }

    #[test]
    fn non_default_seed_still_validates() {
        let mut out = tiny_run(7);
        assert!(cell_problems(&out, None).is_empty());
        out.as_mut().expect("tiny cell simulates").validated = false;
        assert_eq!(cell_problems(&out, None).len(), 1);
    }

    #[test]
    fn tally_counts_an_operation_once() {
        let mut t = Tally::default();
        t.op(&[]);
        t.op(&["a".to_string(), "b".to_string()]);
        assert_eq!((t.attempted, t.failed), (2, 1));
    }
}
