//! # distda-system
//!
//! The full-machine integration of the Dist-DA reproduction: the host
//! out-of-order core, the slab allocator that anchors memory objects at
//! NUCA home clusters, the Table II offload interface (configuration,
//! register-file and dataflow mechanisms with MMIO accounting), the plan
//! transforms realizing the Mono-DA baseline, and the [`try_simulate`]
//! entry point that executes a kernel under any of the paper's six
//! configurations and validates it against the reference interpreter.
//!
//! ```no_run
//! use distda_system::{try_simulate, ConfigKind, RunConfig, RunSpec};
//! use distda_ir::prelude::*;
//!
//! let mut b = ProgramBuilder::new("axpy");
//! let x = b.array_f64("x", 1024);
//! let y = b.array_f64("y", 1024);
//! b.for_(0, 1024, 1, |b, i| {
//!     let v = Expr::cf(2.0) * Expr::load(x, i.clone()) + Expr::load(y, i.clone());
//!     b.store(y, i, v);
//! });
//! let prog = b.build();
//! let cfg = RunConfig::named(ConfigKind::DistDAF);
//! let run = try_simulate(&prog, &|_m| {}, &cfg, &RunSpec::from_env()).unwrap();
//! assert!(run.result.validated);
//! ```

pub mod alloc;
pub mod config;
pub mod error;
pub mod host;
pub mod hosteval;
pub mod machine;
pub mod netmsg;
pub mod runner;
pub mod transform;

pub use alloc::{allocate, AllocStrategy, Allocation};
pub use config::{
    parse_label_extension, ConfigKind, FarMemory, RunConfig, Topology, FAR_MEMORY_BYTES_PER_CYCLE,
};
pub use error::SimError;
pub use machine::{Machine, MachineState, PlanHandle, Substrate, CHAN_CAPACITY};
pub use runner::{
    machine_for, slug, try_simulate, try_simulate_instrumented, CheckPolicy, Run, RunResult,
    RunSpec,
};
pub use transform::decentralize;
