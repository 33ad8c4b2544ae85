//! # distda-accel
//!
//! The accelerator substrates of the evaluated machine: access units with
//! SRAM line buffers and stream-prefetch FSMs (paper Figure 2c), the
//! partition engine that executes compiler-emitted accelerator definitions
//! on either a lightweight in-order core or a statically-mapped CGRA tile
//! ([`engine::IssueModel`]), and the CGRA modulo-mapping resource model
//! ([`cgra`]).
//!
//! Engines talk to the rest of the machine exclusively through
//! [`ctx::EngineCtx`], so they are unit-testable against
//! [`ctx::MockCtx`] and machine-integrated by `distda-system`.

pub mod buffer;
pub mod cgra;
pub mod ctx;
pub mod engine;

pub use buffer::ObjectBuffer;
pub use cgra::{map as cgra_map, CgraConfig, CgraMapping};
pub use ctx::{EngineCtx, MockCtx};
pub use engine::{EngineStats, IssueModel, PartitionEngine};
