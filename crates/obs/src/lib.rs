//! # distda-obs
//!
//! Fleet-level observability for the Dist-DA reproduction: everything a
//! *fleet* of simulation runs needs to be watched, compared and gated,
//! built on the measurement layers below it (the scheduler self-profiler
//! in `distda-sim`, the tracer in `distda-trace`).
//!
//! Four pillars:
//!
//! - [`registry`] — a label-aware metrics registry (counters, gauges,
//!   log-bucketed histograms) with an OpenMetrics text exporter, populated
//!   from [`RunResult`](distda_system::RunResult)s, trace dumps and
//!   self-profiler snapshots.
//! - [`manifest`] — JSONL run manifests: one self-describing record per
//!   simulated run (config hash, git revision, environment knobs, ticks,
//!   wall-clock, validation status), appended under `results/manifests/`.
//! - [`progress`] — a live sweep-progress reporter: a channel-fed thread
//!   that renders a one-line stderr status and streams machine-readable
//!   JSONL events, gated by `DISTDA_PROGRESS`.
//! - [`gate`](mod@gate) — the performance record and its gate: `obs record` folds
//!   repeated traced runs of the repository benchmark into a per-metric
//!   median and IQR (`BENCH_simspeed.json`), and `obs gate` compares two
//!   such records layer by layer, naming each metric that regressed.
//!
//! The invariant the whole crate is built around: observation never
//! perturbs simulation. Every pillar consumes data the simulator already
//! produced (or host-clock measurements that cannot feed back into
//! scheduler decisions), so simulated results are bit-identical with
//! observability on or off.

pub mod gate;
pub mod manifest;
pub mod progress;
pub mod registry;

pub use gate::{gate, GateReport, Record, RecordError};
pub use manifest::ManifestRecord;
pub use progress::{Progress, ProgressConfig};
pub use registry::Registry;
