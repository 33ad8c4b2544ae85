//! Kernel, configuration and scale selection, shared by the `run` and
//! `validate` commands: repeatable `--kernel NAME` and `--config LABEL`,
//! and `--scale tiny|eval`. Naming nothing selects every suite kernel
//! under the six paper configurations, at tiny scale.

use crate::paper_configs;
use distda_system::RunConfig;
use distda_workloads::{suite, Scale, Workload};
use std::fmt;

/// A selection the command line got wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectError {
    /// A `--kernel` name that is not among the kernels on offer.
    UnknownKernel {
        /// The name given.
        name: String,
        /// The names on offer, in order.
        available: Vec<String>,
    },
    /// A `--config` label [`RunConfig::from_label`] rejects, with its reason.
    BadLabel(String),
    /// A `--scale` other than `tiny` or `eval`.
    BadScale(String),
    /// A selection flag given last, without its value.
    MissingValue(&'static str),
}

impl fmt::Display for SelectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownKernel { name, available } => {
                write!(
                    f,
                    "unknown kernel: {name} (available: {})",
                    available.join(", ")
                )
            }
            Self::BadLabel(reason) => f.write_str(reason),
            Self::BadScale(s) => write!(f, "unknown scale: {s} (expected tiny or eval)"),
            Self::MissingValue(flag) => write!(f, "{flag} requires a value"),
        }
    }
}

/// What a command runs: kernels by name, configurations and an input
/// scale, filled in flag by flag through [`Selection::take`].
#[derive(Debug, Clone)]
pub struct Selection {
    kernels: Vec<String>,
    configs: Vec<RunConfig>,
    scale: Scale,
}

impl Default for Selection {
    fn default() -> Self {
        Self {
            kernels: Vec::new(),
            configs: Vec::new(),
            scale: Scale::tiny(),
        }
    }
}

impl Selection {
    /// Takes `flag` and its value from `rest` when `flag` is `--kernel`,
    /// `--config` or `--scale`; returns whether it did.
    ///
    /// # Errors
    ///
    /// A missing value, a label [`RunConfig::from_label`] rejects, or an
    /// unknown scale.
    pub fn take(
        &mut self,
        flag: &str,
        rest: &mut impl Iterator<Item = String>,
    ) -> Result<bool, SelectError> {
        let flag = match flag {
            "--kernel" => "--kernel",
            "--config" => "--config",
            "--scale" => "--scale",
            _ => return Ok(false),
        };
        let value = rest.next().ok_or(SelectError::MissingValue(flag))?;
        match flag {
            "--kernel" => self.kernels.push(value),
            "--config" => self
                .configs
                .push(RunConfig::from_label(&value).map_err(SelectError::BadLabel)?),
            _ => {
                self.scale = match value.as_str() {
                    "tiny" => Scale::tiny(),
                    "eval" => Scale::eval(),
                    _ => return Err(SelectError::BadScale(value)),
                }
            }
        }
        Ok(true)
    }

    /// The configurations named, in order, or else the six paper
    /// configurations.
    pub fn configs(&self) -> Vec<RunConfig> {
        if self.configs.is_empty() {
            paper_configs()
        } else {
            self.configs.clone()
        }
    }

    /// The kernels of `pool` named, in the order named, or else all of
    /// `pool`.
    ///
    /// # Errors
    ///
    /// [`SelectError::UnknownKernel`] for a name `pool` does not hold.
    pub fn kernels_of(&self, pool: Vec<Workload>) -> Result<Vec<Workload>, SelectError> {
        if self.kernels.is_empty() {
            return Ok(pool);
        }
        self.kernels
            .iter()
            .map(|name| {
                pool.iter()
                    .find(|w| &w.name == name)
                    .cloned()
                    .ok_or_else(|| SelectError::UnknownKernel {
                        name: name.clone(),
                        available: pool.iter().map(|w| w.name.clone()).collect(),
                    })
            })
            .collect()
    }

    /// The suite kernels named, at the selected scale.
    ///
    /// # Errors
    ///
    /// As [`Selection::kernels_of`].
    pub fn kernels(&self) -> Result<Vec<Workload>, SelectError> {
        self.kernels_of(suite(&self.scale))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Selection, SelectError> {
        let mut sel = Selection::default();
        let mut it = args.iter().map(|s| s.to_string());
        while let Some(a) = it.next() {
            assert!(sel.take(&a, &mut it)?, "not a selection flag: {a}");
        }
        Ok(sel)
    }

    fn names(ws: &[Workload]) -> Vec<&str> {
        ws.iter().map(|w| w.name.as_str()).collect()
    }

    #[test]
    fn default_is_every_suite_kernel_under_the_paper_configs() {
        let sel = parse(&[]).unwrap();
        assert_eq!(sel.scale, Scale::tiny());
        assert_eq!(
            names(&sel.kernels().unwrap()),
            names(&suite(&Scale::tiny()))
        );
        let labels: Vec<String> = sel.configs().iter().map(RunConfig::label).collect();
        let paper: Vec<String> = paper_configs().iter().map(RunConfig::label).collect();
        assert_eq!(labels, paper);
    }

    #[test]
    fn flags_repeat_and_keep_their_order() {
        let sel = parse(&[
            "--kernel",
            "pr",
            "--config",
            "OoO",
            "--kernel",
            "pf",
            "--config",
            "Dist-DA-F:4x4",
            "--scale",
            "eval",
        ])
        .unwrap();
        assert_eq!(sel.scale, Scale::eval());
        assert_eq!(names(&sel.kernels().unwrap()), ["pr", "pf"]);
        let labels: Vec<String> = sel.configs().iter().map(RunConfig::label).collect();
        let wide = RunConfig::from_label("Dist-DA-F:4x4").unwrap().label();
        assert_eq!(labels, ["OoO".to_string(), wide]);
    }

    #[test]
    fn other_flags_are_left_alone() {
        let mut sel = Selection::default();
        let mut rest = ["DIR".to_string()].into_iter();
        assert_eq!(sel.take("--out", &mut rest), Ok(false));
        assert_eq!(rest.next().as_deref(), Some("DIR"));
    }

    #[test]
    fn unknown_kernel_lists_the_available_ones() {
        let err = parse(&["--kernel", "nope"]).unwrap().kernels().unwrap_err();
        let SelectError::UnknownKernel { name, available } = &err else {
            panic!("wrong error: {err:?}");
        };
        assert_eq!(name, "nope");
        assert_eq!(available, &names(&suite(&Scale::tiny())));
        assert!(err.to_string().contains(&available.join(", ")), "{err}");
    }

    #[test]
    fn bad_label_scale_and_missing_value_are_typed() {
        assert!(matches!(
            parse(&["--config", "Dist-DA-Q"]),
            Err(SelectError::BadLabel(_))
        ));
        assert_eq!(
            parse(&["--scale", "huge"]).unwrap_err(),
            SelectError::BadScale("huge".to_string())
        );
        assert_eq!(
            parse(&["--kernel"]).unwrap_err(),
            SelectError::MissingValue("--kernel")
        );
    }
}
