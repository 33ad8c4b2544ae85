//! # distda-sim
//!
//! Deterministic, cycle-stepped simulation primitives for the Dist-DA
//! reproduction: a multi-rate clock model, bounded FIFOs with credit
//! semantics, statistics reporting, and a seedable RNG.
//!
//! All components in the simulated machine advance on a shared *base tick*
//! that is the least common multiple of every clock frequency used in the
//! paper's evaluation (1, 1.5, 2 and 3 GHz), i.e. a 6 GHz base clock.
//! A [`ClockDomain`] converts between base ticks and domain cycles, which is
//! how the paper's clock-sensitivity study (Figure 13) mixes a 2 GHz host
//! with accelerators clocked from 1 to 3 GHz.
//!
//! ```
//! use distda_sim::time::{ClockDomain, GHZ_BASE};
//! let host = ClockDomain::from_ghz(2.0);
//! assert_eq!(host.period_ticks(), 3); // 6 GHz base / 2 GHz = 3 ticks
//! assert!(host.fires_at(0) && !host.fires_at(1) && host.fires_at(3));
//! assert_eq!(GHZ_BASE, 6.0);
//! ```

pub mod arena;
pub mod component;
pub mod conformance;
pub mod env;
pub mod fifo;
pub mod port;
pub mod port_names;
pub mod profile;
pub mod rng;
pub mod sample;
pub mod time;

/// Statistics reporting ([`Report`], [`geomean`]).
///
/// The implementation lives in `distda-trace` (the lowest layer of the
/// instrumentation stack) so that tracing can build reports without
/// depending on this crate; re-exported here because `distda_sim::stats`
/// is the historical path every consumer uses.
pub use distda_trace::stats;

pub use arena::{Arena, Handle};
pub use component::{Component, Instruments, Scheduler, Stop};
pub use fifo::Fifo;
pub use port::{Channel, CreditLoop, PortSnapshot, RxPort, TxPort};
pub use profile::{ProfileSnapshot, Profiler};
pub use rng::SplitMix64;
pub use sample::{SampleDump, Sampler};
pub use stats::{geomean, Report};
pub use time::{ClockDomain, Tick};
