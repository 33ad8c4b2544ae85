//! # distda-mem
//!
//! The memory hierarchy of the evaluated machine (paper Table III): per-core
//! private L1/L2 with MSHRs and an L2 stride prefetcher, a 2 MB static-NUCA
//! L3 split into 8 clusters on the mesh, and an LPDDR-style DRAM channel.
//!
//! The hierarchy is timing-only (tags, not bytes) and communicates with the
//! rest of the machine through [`system::MemSystem`]'s request/response
//! ports plus an outgoing-packet queue the machine injects into the shared
//! NoC. Accelerator coherency ports ([`msg::PortKind::Acp`]) attach directly
//! to an L3 cluster, which is what makes near-data placement pay off.
//!
//! ```
//! use distda_mem::{MemConfig, MemSystem};
//! use distda_mem::msg::{MemRequest, PortKind};
//! use distda_sim::time::ClockDomain;
//!
//! let mut ms = MemSystem::new(MemConfig::default(), ClockDomain::from_ghz(2.0), 0, 7);
//! let port = ms.register_port(PortKind::Host);
//! ms.request(0, MemRequest { port, id: 1, addr: 0x40, write: false });
//! assert!(ms.is_active());
//! ```

pub mod addrmap;
pub mod cache;
pub mod dram;
pub mod msg;
pub mod mshr;
pub mod params;
pub mod prefetch;
pub mod system;

pub use addrmap::AddressMap;
pub use cache::{Cache, CacheStats};
pub use msg::{MemMsg, MemRequest, MemResponse, PortId, PortKind, ReqId};
pub use params::{CacheParams, MemConfig, LINE_BYTES};
pub use system::MemSystem;
