//! Request/response types at the memory-system boundary and the messages it
//! exchanges over the shared NoC.

/// Caller-chosen request identifier, echoed in the response.
pub type ReqId = u64;

/// A registered requester port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortId(pub u32);

/// Sentinel "port" for L2 demand fills (internal).
pub(crate) const HOST_L2: u32 = u32::MAX;
/// Sentinel "port" for L2 prefetch fills (internal).
pub(crate) const PF_PORT: u32 = u32::MAX - 1;

/// What kind of requester a port is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortKind {
    /// The host core: requests traverse L1 -> L2 -> NUCA L3.
    Host,
    /// An accelerator coherency port attached to an L3 cluster: requests
    /// reach the local cluster in one ACP cycle; remote lines are forwarded
    /// over the NoC to their home cluster.
    Acp {
        /// Cluster the port is physically attached to.
        cluster: usize,
    },
}

/// A memory request presented to [`crate::system::MemSystem::request`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Issuing port.
    pub port: PortId,
    /// Echoed identifier.
    pub id: ReqId,
    /// Byte address.
    pub addr: u64,
    /// Whether this is a store.
    pub write: bool,
}

/// A completed memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemResponse {
    /// Port the request came from.
    pub port: PortId,
    /// Echoed identifier.
    pub id: ReqId,
    /// Byte address.
    pub addr: u64,
    /// Whether it was a store.
    pub write: bool,
}

/// Where a cluster should send the line once available.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReturnPath {
    /// Mesh node of the requester.
    pub node: usize,
    /// Raw port id (`HOST_L2`/`PF_PORT` sentinels for host-side fills).
    pub port: u32,
    /// Request id to echo.
    pub id: ReqId,
}

/// Messages the memory system exchanges over the shared mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemMsg {
    /// A line request (or writeback) to a home cluster.
    LineReq {
        /// Line address.
        line: u64,
        /// Store semantics (installs dirty).
        write: bool,
        /// Eviction writeback: carries data, needs no response.
        writeback: bool,
        /// Who to respond to.
        ret: ReturnPath,
    },
    /// A line grant back to a requester node.
    LineResp {
        /// Line address.
        line: u64,
        /// Destination port (raw) and request id.
        port: u32,
        /// Request id echo.
        id: ReqId,
        /// Whether the original demand was a store (ack).
        write: bool,
    },
    /// L3 miss forwarded to the memory controller.
    DramReq {
        /// Line address.
        line: u64,
        /// Write (no response needed).
        write: bool,
        /// Issuing cluster.
        from_cluster: usize,
    },
    /// DRAM fill returned to a cluster.
    DramResp {
        /// Line address.
        line: u64,
        /// Destination cluster.
        to_cluster: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentinels_do_not_collide_with_real_ports() {
        assert_ne!(HOST_L2, PF_PORT);
        const { assert!(HOST_L2 > 1_000_000 && PF_PORT > 1_000_000) };
    }

    #[test]
    fn request_roundtrip_fields() {
        let r = MemRequest {
            port: PortId(3),
            id: 9,
            addr: 0x40,
            write: true,
        };
        assert_eq!(r.port, PortId(3));
        assert!(r.write);
    }
}
