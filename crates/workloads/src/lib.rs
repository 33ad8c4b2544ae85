//! # distda-workloads
//!
//! The paper's evaluation workloads (Table IV) re-implemented on the
//! kernel IR with deterministic synthetic input generators: disparity and
//! tracking (SD-VBS), fdtd-2d, cholesky, adi and seidel-2d (Polybench),
//! pathfinder and nw (Rodinia), bfs (MachSuite-style CSR), pagerank,
//! pointer-chase, and pca (CortexSuite) — plus the spmv and blocked-nw
//! case-study variants of Section VI-D.
//!
//! Each [`Workload`] bundles a program with its input initializer so any
//! configuration can be simulated with one call:
//!
//! ```
//! use distda_workloads::{Scale, pointer_chase};
//! use distda_system::{ConfigKind, RunConfig};
//!
//! let w = pointer_chase(&Scale::tiny());
//! let r = w.try_simulate(&RunConfig::named(ConfigKind::OoO)).unwrap();
//! assert!(r.validated);
//! ```

pub mod dp;
pub mod gen;
pub mod graph;
pub mod linalg;
pub mod micro;
pub mod spmv;
pub mod stencils;
pub mod vision;

use distda_ir::interp::{self, Memory};
use distda_ir::program::Program;
use distda_ir::value::Value;
use distda_system::{try_simulate, CheckPolicy, Run, RunConfig, RunResult, RunSpec, SimError};
use std::sync::{Arc, OnceLock};

pub use dp::{nw, nw_blocked, pathfinder};
pub use graph::{bfs, pagerank, pointer_chase};
pub use linalg::{cholesky, pca};
pub use spmv::{spmv, spmv_flat};
pub use stencils::{adi, fdtd_2d, seidel_2d};
pub use vision::{disparity, tracking};

/// Input scale parameters for the whole suite. Defaults are reduced from
/// the paper (Table IV) so a full sweep finishes in minutes; every
/// configuration sees the same inputs, so normalized results keep their
/// shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Image side for disparity/tracking.
    pub img: usize,
    /// Disparity shift count.
    pub shifts: usize,
    /// Stencil grid side (fdtd/adi/seidel).
    pub grid: usize,
    /// Stencil time steps.
    pub steps: usize,
    /// Matrix dimension (cholesky) / pca feature count.
    pub mat: usize,
    /// Pathfinder/pca row count.
    pub rows: usize,
    /// Pathfinder column count.
    pub cols: usize,
    /// nw sequence length.
    pub seq: usize,
    /// Graph node count (bfs/pagerank/spmv rows).
    pub nodes: usize,
    /// Average edges per node.
    pub edge_factor: usize,
    /// Pointer-chase hops.
    pub chase: usize,
    /// Pagerank/pr iterations.
    pub iters: usize,
    /// RNG seed for input generation.
    pub seed: u64,
}

impl Scale {
    /// Smallest inputs: unit/integration tests.
    pub fn tiny() -> Self {
        Self {
            img: 12,
            shifts: 4,
            grid: 16,
            steps: 2,
            mat: 12,
            rows: 8,
            cols: 48,
            seq: 24,
            nodes: 96,
            edge_factor: 4,
            chase: 512,
            iters: 2,
            seed: 0xD15C0,
        }
    }

    /// Default evaluation inputs for regenerating the paper's figures.
    /// Working sets exceed the (scaled) L2 and pressure the LLC, matching
    /// the paper's working-set-to-cache ratios.
    pub fn eval() -> Self {
        Self {
            img: 48,
            shifts: 8,
            grid: 96,
            steps: 3,
            mat: 72,
            rows: 64,
            cols: 512,
            seq: 96,
            nodes: 2048,
            edge_factor: 8,
            chase: 20_000,
            iters: 3,
            seed: 0xD15C0,
        }
    }

    /// Larger stencil grids for the working-set sensitivity sweep.
    pub fn big_grid(grid: usize) -> Self {
        Self {
            grid,
            ..Self::eval()
        }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Self::eval()
    }
}

/// A runnable benchmark: program plus deterministic input initializer.
#[derive(Clone)]
pub struct Workload {
    /// Short name (paper abbreviation).
    pub name: String,
    /// The kernel program.
    pub program: Program,
    /// Installs inputs into a fresh memory image.
    pub init: Arc<dyn Fn(&mut Memory) + Send + Sync>,
    /// Reference execution (final memory image + scalars), interpreted
    /// once on first use and shared by every configuration this workload
    /// is simulated under — the interpreter is deterministic, so caching
    /// cannot change any result.
    pub ref_cache: Arc<OnceLock<(Memory, Vec<Value>)>>,
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .field("arrays", &self.program.arrays.len())
            .finish()
    }
}

impl Workload {
    /// Simulates this workload under a configuration with the
    /// environment's instruments and [`CheckPolicy`]
    /// ([`RunSpec::from_env`]), validating against the cached reference
    /// execution. Failures come back as [`SimError`] so a sweep can report
    /// one failing cell and keep going. The benchmark sweep pins this
    /// signature.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on any simulation failure.
    pub fn try_simulate(&self, cfg: &RunConfig) -> Result<RunResult, SimError> {
        self.try_simulate_with(cfg, RunSpec::from_env())
            .map(|run| run.result)
    }

    /// [`Workload::try_simulate`] with an explicit scheduler self-profiler
    /// and no other instrument, under [`CheckPolicy::from_env`]. Profiling
    /// never perturbs the returned [`RunResult`]. The benchmark sweep pins
    /// this signature.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on any simulation failure.
    pub fn try_simulate_profiled(
        &self,
        cfg: &RunConfig,
        profiler: &distda_sim::Profiler,
    ) -> Result<RunResult, SimError> {
        let spec = RunSpec {
            profiler: profiler.clone(),
            policy: CheckPolicy::from_env(),
            ..RunSpec::default()
        };
        self.try_simulate_with(cfg, spec).map(|run| run.result)
    }

    /// [`distda_system::try_simulate`] on this workload, with the cached
    /// reference execution installed into `spec`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on any simulation failure.
    pub fn try_simulate_with<'a>(
        &'a self,
        cfg: &RunConfig,
        spec: RunSpec<'a>,
    ) -> Result<Run, SimError> {
        let spec = RunSpec {
            reference: Some(self.reference_exec()),
            ..spec
        };
        try_simulate(&self.program, &*self.init, cfg, &spec)
    }

    /// The cached reference execution: final memory image + scalar values
    /// from the interpreter, computed on first use.
    pub fn reference_exec(&self) -> &(Memory, Vec<Value>) {
        self.ref_cache.get_or_init(|| {
            let mut mem = Memory::for_program(&self.program);
            (self.init)(&mut mem);
            let scalars = interp::run(&self.program, &mut mem);
            (mem, scalars)
        })
    }

    /// Runs the reference interpreter, returning the final memory image.
    pub fn reference(&self) -> Memory {
        self.reference_exec().0.clone()
    }
}

/// The twelve-benchmark suite in the paper's presentation order.
pub fn suite(scale: &Scale) -> Vec<Workload> {
    vec![
        disparity(scale),
        tracking(scale),
        fdtd_2d(scale),
        cholesky(scale),
        adi(scale),
        seidel_2d(scale),
        pathfinder(scale),
        nw(scale),
        bfs(scale),
        pagerank(scale),
        pointer_chase(scale),
        pca(scale),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_twelve_distinct_workloads() {
        let s = suite(&Scale::tiny());
        assert_eq!(s.len(), 12);
        let mut names: Vec<&str> = s.iter().map(|w| w.name.as_str()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn every_workload_interprets_without_panicking() {
        for w in suite(&Scale::tiny()) {
            let _ = w.reference();
        }
    }
}
