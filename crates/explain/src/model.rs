//! Input model: what a run must hand the analyzer.
//!
//! The analyzer is deliberately decoupled from the machine: it consumes
//! plain data — a blame topology, per-engine busy totals already
//! converted to base ticks, and (optionally) the windowed
//! [`SampleDump`] — so it can be unit-tested against synthetic
//! machines whose critical path is known in closed form.

use distda_sim::sample::SampleDump;
use distda_sim::time::Tick;

/// One blame edge of the port topology: `waiter` accumulated `stalls`
/// stall cycles blocked at `port`, and the component responsible for
/// relieving the pressure is `blamed` (the consumer for back-pressured
/// ports, the producer for starvation ports like memory responses).
///
/// Stalls are per-*waiter*, not per-port: a channel port's raw counter
/// aggregates producer send-stalls, consumer recv-stalls and
/// delivery-side rejections, so each waiter's share sits on its own
/// edge (in that waiter's clock cycles — engine cycles for engines,
/// base ticks for structural components). An engine's edges are its
/// whole stall ledger: their sum is the engine's blamed time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    /// Canonical port name (see `distda_sim::port_names`).
    pub port: String,
    /// Component that accumulated the stall cycles at this port.
    pub waiter: String,
    /// Component those stall cycles indict.
    pub blamed: String,
    /// Stall cycles `waiter` accumulated here, in `waiter`'s clock.
    pub stalls: u64,
}

impl Edge {
    /// Convenience constructor.
    pub fn new(
        port: impl Into<String>,
        waiter: impl Into<String>,
        blamed: impl Into<String>,
        stalls: u64,
    ) -> Self {
        Self {
            port: port.into(),
            waiter: waiter.into(),
            blamed: blamed.into(),
            stalls,
        }
    }
}

/// One engine's end-of-run busy time, converted to base ticks (its
/// stall time is the sum of its blame [`Edge`]s).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineObs {
    /// Engine name (`engine.N`, its trace track and port-blame name).
    pub name: String,
    /// Base ticks spent executing (busy engine cycles x clock period).
    pub busy_ticks: u64,
    /// Engine-clock period in base ticks — converts the engine-cycle
    /// stall counts on this engine's ports into base ticks.
    pub period_ticks: u64,
}

/// Everything the analyzer sees from one finished run.
#[derive(Debug, Clone, Default)]
pub struct Observation {
    /// Total simulated base ticks of the run.
    pub ticks: Tick,
    /// The blame topology (one edge per port).
    pub edges: Vec<Edge>,
    /// Per-engine busy totals in base ticks.
    pub engines: Vec<EngineObs>,
    /// Windowed time series, when sampling ran.
    pub samples: Option<SampleDump>,
}

impl Default for EngineObs {
    fn default() -> Self {
        Self {
            name: String::new(),
            busy_ticks: 0,
            period_ticks: 1,
        }
    }
}
