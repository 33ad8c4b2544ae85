//! The cycle-stepped memory hierarchy engine.
//!
//! Wires per-core private L1/L2 caches, the 8-cluster static-NUCA L3, and
//! the DRAM controller together. The engine does **not** own the mesh —
//! packets it wants to send are queued on an outgoing queue that the
//! machine model injects into the shared NoC (accelerator operand traffic
//! shares the same mesh, as in the paper), and delivered packets are handed
//! back via [`MemSystem::deliver`].
//!
//! The model is timing-only: functional bytes live in the workload
//! interpreter. Caches track tags/dirtiness; DRAM is latency + bandwidth.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use distda_check::Sanitizer;
use distda_noc::{Packet, TrafficClass};
use distda_sim::port::{Channel, PortSnapshot};
use distda_sim::time::{ClockDomain, Tick};
use distda_sim::Report;
use distda_trace::{EventKind, TraceSink, Tracer};

use crate::addrmap::AddressMap;
use crate::cache::{Cache, CacheStats, Lookup};
use crate::dram::Dram;
use crate::msg::{
    MemMsg, MemRequest, MemResponse, PortId, PortKind, ReqId, ReturnPath, HOST_L2, PF_PORT,
};
use crate::mshr::{Mshr, MshrAlloc, Waiter};
use crate::params::{line_of, MemConfig, LINE_BYTES};
use crate::prefetch::StridePrefetcher;

/// Counters not covered by per-cache statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemSysStats {
    /// Cycles a request stalled for a full L1 MSHR.
    pub l1_mshr_stalls: u64,
    /// Cycles a request stalled for a full L2 MSHR.
    pub l2_mshr_stalls: u64,
    /// Cluster bank-port conflicts (retried accesses).
    pub l3_port_conflicts: u64,
    /// Prefetch requests issued to L3.
    pub prefetch_issued: u64,
    /// Writeback messages sent toward L3/DRAM.
    pub writebacks_sent: u64,
    /// Lines invalidated by offload-boundary flushes.
    pub flushed_lines: u64,
    /// Requests accepted.
    pub requests: u64,
    /// Responses produced.
    pub responses: u64,
}

#[derive(Debug, Clone)]
enum Action {
    L1Access(MemRequest),
    L2Access {
        core: usize,
        line: u64,
    },
    ClusterAccess {
        cluster: usize,
        line: u64,
        write: bool,
        writeback: bool,
        ret: ReturnPath,
    },
    ClusterFill {
        cluster: usize,
        line: u64,
    },
    DramSend {
        cluster: usize,
        line: u64,
        write: bool,
    },
    RespondLine {
        cluster: usize,
        line: u64,
        ret: ReturnPath,
        write: bool,
    },
    HostFill {
        core: usize,
        line: u64,
    },
    L1Fill {
        core: usize,
        line: u64,
    },
    Respond(MemResponse),
    AcpAccess(MemRequest),
}

#[derive(Debug)]
struct HeapItem {
    at: Tick,
    seq: u64,
    action: Action,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

#[derive(Debug)]
struct HostCaches {
    l1: Cache,
    l2: Cache,
    l1_mshr: Mshr<Waiter>,
    l2_mshr: Mshr<()>,
    pf: StridePrefetcher,
}

#[derive(Debug)]
struct Cluster {
    cache: Cache,
    mshr: Mshr<(ReturnPath, bool)>,
    used_this_cycle: u32,
    budget_cycle: u64,
}

/// The memory hierarchy engine. See the module docs for the protocol.
#[derive(Debug)]
pub struct MemSystem {
    cfg: MemConfig,
    clock: ClockDomain,
    host_node: usize,
    memctrl_node: usize,
    hosts: Vec<HostCaches>,
    clusters: Vec<Cluster>,
    dram: Dram,
    map: AddressMap,
    ports: Vec<PortKind>,
    /// Host-core index per port (usize::MAX for non-host ports).
    port_core: Vec<usize>,
    /// Per-requester response ports. Unbounded channels: occupancy is
    /// already limited by each requester's outstanding-request window,
    /// so back-pressure lives at the request side, not here.
    resp: Vec<Channel<MemResponse>>,
    actions: BinaryHeap<Reverse<HeapItem>>,
    seq: u64,
    /// Mesh-bound protocol packets, drained by the owning machine
    /// through the port handshake (peek, inject, accept).
    out: Channel<Packet<MemMsg>>,
    stats: MemSysStats,
    sink: TraceSink,
    san: Sanitizer,
    /// Reused waiter buffers for the fill paths (see `Mshr::complete_into`).
    w_cluster: Vec<(ReturnPath, bool)>,
    w_l1: Vec<Waiter>,
    w_l2: Vec<()>,
    /// Disjoint `[start, end)` byte ranges owned by each tenant, for
    /// attributing memory-protocol packets to the tenant whose data they
    /// move. Empty (the default) attributes everything to tenant 0.
    tenant_ranges: Vec<(u64, u64, u16)>,
}

impl MemSystem {
    /// Creates the hierarchy. `host_node` and `memctrl_node` are mesh nodes
    /// (clusters are numbered identically to mesh nodes).
    ///
    /// # Panics
    ///
    /// Panics if the node indices exceed the cluster count.
    pub fn new(cfg: MemConfig, clock: ClockDomain, host_node: usize, memctrl_node: usize) -> Self {
        assert!(host_node < cfg.clusters && memctrl_node < cfg.clusters);
        Self {
            clusters: (0..cfg.clusters)
                .map(|_| Cluster {
                    cache: Cache::new(cfg.l3_cluster),
                    mshr: Mshr::new(cfg.l3_cluster.mshrs),
                    used_this_cycle: 0,
                    budget_cycle: u64::MAX,
                })
                .collect(),
            dram: Dram::new(cfg.dram_latency, cfg.dram_bytes_per_cycle, clock),
            map: AddressMap::new(cfg.clusters),
            hosts: Vec::new(),
            ports: Vec::new(),
            port_core: Vec::new(),
            resp: Vec::new(),
            actions: BinaryHeap::new(),
            seq: 0,
            out: Channel::unbounded(),
            stats: MemSysStats::default(),
            sink: TraceSink::default(),
            san: Sanitizer::disabled(),
            w_cluster: Vec::new(),
            w_l1: Vec::new(),
            w_l2: Vec::new(),
            tenant_ranges: Vec::new(),
            cfg,
            clock,
            host_node,
            memctrl_node,
        }
    }

    /// Attaches trace sinks: misses and MSHR pressure go to `mem`, DRAM
    /// bursts and queue depth to `mem.dram`. Disabled tracers cost nothing.
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        self.sink = tracer.sink("mem");
        self.dram.set_sink(tracer.sink("mem.dram"));
    }

    /// Attaches an invariant sanitizer consulted by
    /// [`MemSystem::check_drained`]. A disabled sanitizer costs nothing.
    pub fn set_sanitizer(&mut self, san: Sanitizer) {
        self.san = san;
    }

    /// Registers a requester port. Each `Host` port gets its own private
    /// L1/L2 pair (one per simulated core).
    ///
    /// # Panics
    ///
    /// Panics if an `Acp` port names a cluster out of range.
    pub fn register_port(&mut self, kind: PortKind) -> PortId {
        if let PortKind::Acp { cluster } = kind {
            assert!(cluster < self.cfg.clusters, "acp cluster out of range");
        }
        if matches!(kind, PortKind::Host) {
            self.hosts.push(HostCaches {
                l1: Cache::new(self.cfg.l1),
                l2: Cache::new(self.cfg.l2),
                l1_mshr: Mshr::new(self.cfg.l1.mshrs),
                l2_mshr: Mshr::new(self.cfg.l2.mshrs),
                pf: StridePrefetcher::new(8, 2),
            });
            self.port_core.push(self.hosts.len() - 1);
        } else {
            self.port_core.push(usize::MAX);
        }
        let id = PortId(self.ports.len() as u32);
        self.ports.push(kind);
        self.resp.push(Channel::unbounded());
        id
    }

    /// The mutable address map (the slab allocator pins regions here).
    pub fn addr_map_mut(&mut self) -> &mut AddressMap {
        &mut self.map
    }

    /// The address map.
    pub fn addr_map(&self) -> &AddressMap {
        &self.map
    }

    /// The uncore clock domain.
    pub fn clock(&self) -> ClockDomain {
        self.clock
    }

    /// The hierarchy configuration.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Declares the `[start, end)` byte range owned by `tenant`. Ranges
    /// must be disjoint; memory-protocol packets touching a line inside a
    /// declared range are attributed to its tenant in the NoC statistics
    /// (undeclared addresses attribute to tenant 0).
    pub fn declare_tenant_range(&mut self, start: u64, end: u64, tenant: u16) {
        self.tenant_ranges.push((start, end, tenant));
    }

    /// The tenant owning cache line `line` (0 when unclaimed).
    fn tenant_of_line(&self, line: u64) -> u16 {
        if self.tenant_ranges.is_empty() {
            return 0;
        }
        let addr = line * LINE_BYTES;
        self.tenant_ranges
            .iter()
            .find(|&&(s, e, _)| addr >= s && addr < e)
            .map(|&(_, _, t)| t)
            .unwrap_or(0)
    }

    /// Host-core index of a host port, precomputed at registration
    /// (meaningless for ACP ports, which never reach the L1 path).
    fn core_of(&self, port: PortId) -> usize {
        self.port_core[port.0 as usize]
    }

    fn schedule(&mut self, at: Tick, action: Action) {
        self.seq += 1;
        self.actions.push(Reverse(HeapItem {
            at,
            seq: self.seq,
            action,
        }));
    }

    fn cy(&self, cycles: u64) -> Tick {
        self.clock.ticks_for_cycles(cycles)
    }

    /// Presents a request. Requests are always accepted (internal queues
    /// absorb them); callers self-limit outstanding requests.
    ///
    /// # Panics
    ///
    /// Panics if the port was never registered.
    pub fn request(&mut self, now: Tick, req: MemRequest) {
        let kind = *self
            .ports
            .get(req.port.0 as usize)
            .expect("unregistered port");
        self.stats.requests += 1;
        match kind {
            PortKind::Host => self.schedule(now, Action::L1Access(req)),
            PortKind::Acp { .. } => self.schedule(now + self.cy(1), Action::AcpAccess(req)),
        }
    }

    /// The response port of one requester: completed responses arrive
    /// here and the requester accepts them through the port handshake.
    pub fn responses(&mut self, port: PortId) -> &mut Channel<MemResponse> {
        &mut self.resp[port.0 as usize]
    }

    /// Drains completed responses for a port into a fresh vector
    /// (test-oriented; steady-state callers accept through
    /// [`MemSystem::responses`] without touching the allocator).
    pub fn take_responses(&mut self, port: PortId) -> Vec<MemResponse> {
        let ch = &mut self.resp[port.0 as usize];
        let mut v = Vec::with_capacity(ch.len());
        let mut rx = ch.rx();
        while let Some(r) = rx.accept() {
            v.push(r);
        }
        v
    }

    /// Whether any response is waiting on `port`.
    pub fn has_responses(&self, port: PortId) -> bool {
        !self.resp[port.0 as usize].is_empty()
    }

    /// The mesh-bound packet port: the owning machine peeks the head,
    /// attempts injection, and accepts only once the mesh took the
    /// packet (so a refused injection leaves the head unchanged).
    pub fn outgoing(&mut self) -> &mut Channel<Packet<MemMsg>> {
        &mut self.out
    }

    /// All registered ports, in registration order.
    pub fn ports(&self) -> impl Iterator<Item = PortId> + '_ {
        (0..self.ports.len()).map(|i| PortId(i as u32))
    }

    /// Port statistics of the mesh-bound packet port.
    pub fn out_snapshot(&self) -> PortSnapshot {
        self.out.snapshot(distda_sim::port_names::MEM_OUT)
    }

    /// Port statistics of one requester's response port.
    pub fn resp_snapshot(&self, port: PortId) -> PortSnapshot {
        self.resp[port.0 as usize].snapshot(distda_sim::port_names::mem_resp(port.0 as usize))
    }

    /// Enqueues a mesh-bound packet on the outgoing port (unbounded:
    /// protocol progress must never deadlock on injection; the mesh's
    /// real back-pressure is applied at injection time by the machine).
    fn out_push(&mut self, pkt: Packet<MemMsg>) {
        self.out
            .tx()
            .offer(pkt)
            .expect("mem mesh port is unbounded");
    }

    /// Handles a packet delivered by the mesh to a memory component.
    pub fn deliver(&mut self, now: Tick, pkt: Packet<MemMsg>) {
        match pkt.payload {
            MemMsg::LineReq {
                line,
                write,
                writeback,
                ret,
            } => self.schedule(
                now,
                Action::ClusterAccess {
                    cluster: pkt.dst,
                    line,
                    write,
                    writeback,
                    ret,
                },
            ),
            MemMsg::LineResp {
                line,
                port,
                id,
                write,
            } => {
                if port == HOST_L2 || port == PF_PORT {
                    self.schedule(
                        now,
                        Action::HostFill {
                            core: id as usize,
                            line,
                        },
                    );
                } else {
                    self.push_response(MemResponse {
                        port: PortId(port),
                        id,
                        addr: line * LINE_BYTES,
                        write,
                    });
                }
            }
            MemMsg::DramReq {
                line,
                write,
                from_cluster,
            } => self.dram.enqueue(now, line, write, from_cluster),
            MemMsg::DramResp { line, to_cluster } => self.schedule(
                now,
                Action::ClusterFill {
                    cluster: to_cluster,
                    line,
                },
            ),
        }
    }

    fn push_response(&mut self, r: MemResponse) {
        self.stats.responses += 1;
        let p = r.port.0 as usize;
        self.resp[p]
            .tx()
            .offer(r)
            .expect("response ports are unbounded");
    }

    /// Whether work remains in flight inside the hierarchy.
    pub fn is_active(&self) -> bool {
        !self.actions.is_empty() || self.dram.pending() > 0 || !self.out.is_empty()
    }

    /// Responses produced but not yet drained by their requesters.
    ///
    /// Not part of [`MemSystem::is_active`] (the requester, not the
    /// hierarchy, must collect them), but a drained machine must have
    /// collected every one — leaving them outstanding is the drain-leak
    /// bug this accessor exists to close.
    pub fn pending_responses(&self) -> usize {
        self.resp.iter().map(|c| c.len()).sum()
    }

    /// Audits the hierarchy's drained-state invariants: every MSHR
    /// released, every response collected, no queued action, packet or
    /// DRAM burst, and cache occupancy within geometry. Flags violations
    /// on the attached sanitizer.
    pub fn check_drained(&self, now: Tick) {
        if !self.san.on() {
            return;
        }
        for (core, h) in self.hosts.iter().enumerate() {
            self.san
                .check(h.l1_mshr.is_empty(), "mem", "mshr-drain", now, || {
                    format!(
                        "host core {core} L1 MSHR holds lines {:#x?}",
                        h.l1_mshr.pending_lines()
                    )
                });
            self.san
                .check(h.l2_mshr.is_empty(), "mem", "mshr-drain", now, || {
                    format!(
                        "host core {core} L2 MSHR holds lines {:#x?}",
                        h.l2_mshr.pending_lines()
                    )
                });
            for (name, c) in [("L1", &h.l1), ("L2", &h.l2)] {
                self.san.check(
                    c.resident_lines() <= c.capacity_lines(),
                    "mem",
                    "cache-occupancy",
                    now,
                    || {
                        format!(
                            "host core {core} {name}: {} resident > {} capacity",
                            c.resident_lines(),
                            c.capacity_lines()
                        )
                    },
                );
            }
        }
        for (i, cl) in self.clusters.iter().enumerate() {
            self.san
                .check(cl.mshr.is_empty(), "mem", "mshr-drain", now, || {
                    format!(
                        "cluster {i} MSHR holds lines {:#x?}",
                        cl.mshr.pending_lines()
                    )
                });
            self.san.check(
                cl.cache.resident_lines() <= cl.cache.capacity_lines(),
                "mem",
                "cache-occupancy",
                now,
                || {
                    format!(
                        "cluster {i}: {} resident > {} capacity",
                        cl.cache.resident_lines(),
                        cl.cache.capacity_lines()
                    )
                },
            );
        }
        self.san.check(
            self.pending_responses() == 0,
            "mem",
            "response-drain",
            now,
            || format!("{} responses never collected", self.pending_responses()),
        );
        self.san
            .check(!self.is_active(), "mem", "hierarchy-drain", now, || {
                format!(
                    "still active: {} actions, {} dram bursts, {} outgoing packets",
                    self.actions.len(),
                    self.dram.pending(),
                    self.out.len()
                )
            });
        self.san.check(
            self.stats.requests == self.stats.responses,
            "mem",
            "request-response-balance",
            now,
            || {
                format!(
                    "{} requests accepted but {} responses produced",
                    self.stats.requests, self.stats.responses
                )
            },
        );
    }

    /// Earliest tick `>= now` at which [`MemSystem::tick`] would do
    /// observable work, or `None` when the hierarchy is quiescent and only
    /// a new request can wake it.
    ///
    /// Outgoing packets demand an immediate tick so the owning machine
    /// injects them the same tick it would have in lock-step execution.
    /// Responses waiting at a port are the requester's work, not the
    /// hierarchy's: each requester reports its own (see
    /// [`MemSystem::has_responses`]), so a response nobody collects leaves
    /// the hierarchy eventless but not quiescent.
    pub fn next_event(&self, now: Tick) -> Option<Tick> {
        use distda_sim::time::earliest;
        if !self.out.is_empty() {
            return Some(now);
        }
        let actions = self.actions.peek().map(|Reverse(top)| top.at.max(now));
        earliest(actions, self.dram.next_event(now))
    }

    /// Invalidates host-cached copies of `[start, end)` for every core
    /// (offload-boundary flush, Section IV-D). Returns dirty lines flushed.
    pub fn flush_host_range(&mut self, start: u64, end: u64) -> u64 {
        let mut dirty = 0;
        for h in &mut self.hosts {
            dirty += h.l1.flush_range(start, end);
            dirty += h.l2.flush_range(start, end);
        }
        self.stats.flushed_lines += dirty;
        dirty
    }

    /// Advances the hierarchy to base tick `now`.
    pub fn tick(&mut self, now: Tick) {
        // DRAM completion.
        if let Some(done) = self.dram.tick(now) {
            if !done.write {
                if done.from_cluster == self.memctrl_node {
                    self.schedule(
                        now,
                        Action::ClusterFill {
                            cluster: done.from_cluster,
                            line: done.line,
                        },
                    );
                } else {
                    self.out_push(
                        Packet::new(
                            self.memctrl_node,
                            done.from_cluster,
                            LINE_BYTES as u32,
                            TrafficClass::MemData,
                            MemMsg::DramResp {
                                line: done.line,
                                to_cluster: done.from_cluster,
                            },
                        )
                        .with_tenant(self.tenant_of_line(done.line)),
                    );
                }
            }
        }
        // Ready actions.
        while let Some(Reverse(top)) = self.actions.peek() {
            if top.at > now {
                break;
            }
            let item = self.actions.pop().expect("peeked").0;
            self.handle(now, item.action);
        }
    }

    fn handle(&mut self, now: Tick, action: Action) {
        match action {
            Action::L1Access(req) => self.l1_access(now, req),
            Action::L2Access { core, line } => self.l2_access(now, core, line),
            Action::ClusterAccess {
                cluster,
                line,
                write,
                writeback,
                ret,
            } => self.cluster_access(now, cluster, line, write, writeback, ret),
            Action::ClusterFill { cluster, line } => self.cluster_fill(now, cluster, line),
            Action::DramSend {
                cluster,
                line,
                write,
            } => self.dram_send(now, cluster, line, write),
            Action::RespondLine {
                cluster,
                line,
                ret,
                write,
            } => self.respond_line(now, cluster, line, ret, write),
            Action::HostFill { core, line } => self.host_fill(now, core, line),
            Action::L1Fill { core, line } => self.l1_fill(now, core, line),
            Action::Respond(r) => self.push_response(r),
            Action::AcpAccess(req) => self.acp_access(now, req),
        }
    }

    fn l1_access(&mut self, now: Tick, req: MemRequest) {
        let core = self.core_of(req.port);
        let line = line_of(req.addr);
        let lat = self.cy(self.cfg.l1.latency);
        let h = &mut self.hosts[core];
        if !h.l1.probe(line) && h.l1_mshr.is_full() && !h.l1_mshr.pending(line) {
            self.stats.l1_mshr_stalls += 1;
            let retry = self.cy(1);
            self.schedule(now + retry, Action::L1Access(req));
            return;
        }
        let h = &mut self.hosts[core];
        match h.l1.access(line, req.write) {
            Lookup::Hit => {
                let resp = MemResponse {
                    port: req.port,
                    id: req.id,
                    addr: req.addr,
                    write: req.write,
                };
                self.schedule(now + lat, Action::Respond(resp));
            }
            Lookup::Miss => {
                let waiter = Waiter {
                    port: req.port.0,
                    id: req.id,
                    write: req.write,
                };
                let alloc = h.l1_mshr.register(line, waiter, req.write);
                if self.sink.on() {
                    self.sink.instant(
                        now,
                        EventKind::CacheMiss {
                            level: 1,
                            unit: core as u16,
                            line,
                        },
                    );
                    let occ = self.hosts[core].l1_mshr.len();
                    self.sink.sample(now, "l1_mshr", occ as f64);
                }
                match alloc {
                    MshrAlloc::Allocated => {
                        self.schedule(now + lat, Action::L2Access { core, line })
                    }
                    MshrAlloc::Merged => {}
                    MshrAlloc::Full => unreachable!("checked above"),
                }
            }
        }
    }

    fn l2_access(&mut self, now: Tick, core: usize, line: u64) {
        // Train the stride prefetcher on the demand stream into L2.
        if self.cfg.l2_prefetch {
            let candidates = self.hosts[core].pf.observe(line);
            for pl in candidates {
                self.try_issue_prefetch(now, core, pl);
            }
        }
        let lat = self.cy(self.cfg.l2.latency);
        let h = &mut self.hosts[core];
        if !h.l2.probe(line) && h.l2_mshr.is_full() && !h.l2_mshr.pending(line) {
            self.stats.l2_mshr_stalls += 1;
            let retry = self.cy(1);
            self.schedule(now + retry, Action::L2Access { core, line });
            return;
        }
        let h = &mut self.hosts[core];
        match h.l2.access(line, false) {
            Lookup::Hit => self.schedule(now + lat, Action::L1Fill { core, line }),
            Lookup::Miss => {
                let alloc = h.l2_mshr.register(line, (), false);
                if self.sink.on() {
                    self.sink.instant(
                        now,
                        EventKind::CacheMiss {
                            level: 2,
                            unit: core as u16,
                            line,
                        },
                    );
                    let occ = self.hosts[core].l2_mshr.len();
                    self.sink.sample(now, "l2_mshr", occ as f64);
                }
                match alloc {
                    MshrAlloc::Allocated => {
                        let ret = ReturnPath {
                            node: self.host_node,
                            port: HOST_L2,
                            id: core as ReqId,
                        };
                        self.send_line_req(now + lat, self.host_node, line, false, false, ret);
                    }
                    MshrAlloc::Merged => {}
                    MshrAlloc::Full => unreachable!("checked above"),
                }
            }
        }
    }

    fn try_issue_prefetch(&mut self, now: Tick, core: usize, line: u64) {
        let h = &mut self.hosts[core];
        if h.l2.probe(line) || h.l2_mshr.pending(line) {
            return;
        }
        if h.l2_mshr.register_prefetch(line) == MshrAlloc::Allocated {
            self.stats.prefetch_issued += 1;
            let ret = ReturnPath {
                node: self.host_node,
                port: PF_PORT,
                id: core as ReqId,
            };
            self.send_line_req(now, self.host_node, line, false, false, ret);
        }
    }

    /// Sends a line request (or writeback) toward the home cluster of `line`.
    fn send_line_req(
        &mut self,
        now: Tick,
        src_node: usize,
        line: u64,
        write: bool,
        writeback: bool,
        ret: ReturnPath,
    ) {
        if writeback {
            self.stats.writebacks_sent += 1;
        }
        let home = self.map.home_cluster_of_line(line);
        if home == src_node {
            // Local bus, no NoC traversal.
            self.schedule(
                now + self.cy(1),
                Action::ClusterAccess {
                    cluster: home,
                    line,
                    write,
                    writeback,
                    ret,
                },
            );
            return;
        }
        let host_side = ret.port == HOST_L2 || ret.port == PF_PORT;
        let (class, bytes) = if write || writeback {
            (
                if host_side {
                    TrafficClass::HostData
                } else {
                    TrafficClass::AccData
                },
                LINE_BYTES as u32,
            )
        } else {
            (
                if host_side {
                    TrafficClass::HostCtrl
                } else {
                    TrafficClass::AccCtrl
                },
                0,
            )
        };
        self.out_push(
            Packet::new(
                src_node,
                home,
                bytes,
                class,
                MemMsg::LineReq {
                    line,
                    write,
                    writeback,
                    ret,
                },
            )
            .with_tenant(self.tenant_of_line(line)),
        );
    }

    fn cluster_budget_ok(&mut self, cluster: usize, now: Tick) -> bool {
        let cycle = self.clock.cycles_in(now);
        let cl = &mut self.clusters[cluster];
        if cl.budget_cycle != cycle {
            cl.budget_cycle = cycle;
            cl.used_this_cycle = 0;
        }
        if cl.used_this_cycle >= self.cfg.banks_per_cluster as u32 {
            return false;
        }
        cl.used_this_cycle += 1;
        true
    }

    fn cluster_access(
        &mut self,
        now: Tick,
        cluster: usize,
        line: u64,
        write: bool,
        writeback: bool,
        ret: ReturnPath,
    ) {
        if !self.cluster_budget_ok(cluster, now) {
            self.stats.l3_port_conflicts += 1;
            let retry = self.cy(1);
            self.schedule(
                now + retry,
                Action::ClusterAccess {
                    cluster,
                    line,
                    write,
                    writeback,
                    ret,
                },
            );
            return;
        }
        if writeback {
            let cl = &mut self.clusters[cluster];
            if cl.cache.probe(line) {
                cl.cache.access(line, true);
            } else {
                // Non-allocating writeback straight to memory.
                self.schedule(
                    now,
                    Action::DramSend {
                        cluster,
                        line,
                        write: true,
                    },
                );
            }
            return;
        }
        let lat = self.cy(self.cfg.l3_cluster.latency);
        let cl = &self.clusters[cluster];
        if !cl.cache.probe(line) && cl.mshr.is_full() && !cl.mshr.pending(line) {
            let retry = self.cy(1);
            self.schedule(
                now + retry,
                Action::ClusterAccess {
                    cluster,
                    line,
                    write,
                    writeback,
                    ret,
                },
            );
            return;
        }
        let cl = &mut self.clusters[cluster];
        match cl.cache.access(line, write) {
            Lookup::Hit => self.schedule(
                now + lat,
                Action::RespondLine {
                    cluster,
                    line,
                    ret,
                    write,
                },
            ),
            Lookup::Miss => {
                let alloc = cl.mshr.register(line, (ret, write), write);
                if self.sink.on() {
                    self.sink.instant(
                        now,
                        EventKind::CacheMiss {
                            level: 3,
                            unit: cluster as u16,
                            line,
                        },
                    );
                    let occ = self.clusters[cluster].mshr.len();
                    self.sink.sample(now, "cluster_mshr", occ as f64);
                }
                match alloc {
                    MshrAlloc::Allocated => self.schedule(
                        now + lat,
                        Action::DramSend {
                            cluster,
                            line,
                            write: false,
                        },
                    ),
                    MshrAlloc::Merged => {}
                    MshrAlloc::Full => unreachable!("checked above"),
                }
            }
        }
    }

    fn dram_send(&mut self, now: Tick, cluster: usize, line: u64, write: bool) {
        if cluster == self.memctrl_node {
            self.dram.enqueue(now, line, write, cluster);
        } else {
            let bytes = if write { LINE_BYTES as u32 } else { 0 };
            self.out_push(
                Packet::new(
                    cluster,
                    self.memctrl_node,
                    bytes,
                    TrafficClass::MemData,
                    MemMsg::DramReq {
                        line,
                        write,
                        from_cluster: cluster,
                    },
                )
                .with_tenant(self.tenant_of_line(line)),
            );
        }
    }

    fn cluster_fill(&mut self, now: Tick, cluster: usize, line: u64) {
        let mut waiters = std::mem::take(&mut self.w_cluster);
        waiters.clear();
        let Some(any_write) = self.clusters[cluster]
            .mshr
            .complete_into(line, &mut waiters)
        else {
            self.w_cluster = waiters;
            return; // spurious (e.g. duplicate fill): ignore
        };
        if let Some(ev) = self.clusters[cluster].cache.fill(line, any_write) {
            self.schedule(
                now,
                Action::DramSend {
                    cluster,
                    line: ev.line,
                    write: true,
                },
            );
        }
        let lat = self.cy(1);
        for &(ret, write) in &waiters {
            self.schedule(
                now + lat,
                Action::RespondLine {
                    cluster,
                    line,
                    ret,
                    write,
                },
            );
        }
        self.w_cluster = waiters;
    }

    fn respond_line(&mut self, now: Tick, cluster: usize, line: u64, ret: ReturnPath, write: bool) {
        if ret.node == cluster {
            // Local delivery: no NoC traversal.
            if ret.port == HOST_L2 || ret.port == PF_PORT {
                self.schedule(
                    now + self.cy(1),
                    Action::HostFill {
                        core: ret.id as usize,
                        line,
                    },
                );
            } else {
                self.push_response(MemResponse {
                    port: PortId(ret.port),
                    id: ret.id,
                    addr: line * LINE_BYTES,
                    write,
                });
            }
            return;
        }
        let host_side = ret.port == HOST_L2 || ret.port == PF_PORT;
        let (class, bytes) = if write {
            // Store ack: control only.
            (
                if host_side {
                    TrafficClass::HostCtrl
                } else {
                    TrafficClass::AccCtrl
                },
                0,
            )
        } else {
            (
                if host_side {
                    TrafficClass::HostData
                } else {
                    TrafficClass::AccData
                },
                LINE_BYTES as u32,
            )
        };
        self.out_push(
            Packet::new(
                cluster,
                ret.node,
                bytes,
                class,
                MemMsg::LineResp {
                    line,
                    port: ret.port,
                    id: ret.id,
                    write,
                },
            )
            .with_tenant(self.tenant_of_line(line)),
        );
    }

    fn host_fill(&mut self, now: Tick, core: usize, line: u64) {
        self.w_l2.clear();
        if self.hosts[core]
            .l2_mshr
            .complete_into(line, &mut self.w_l2)
            .is_none()
        {
            return;
        }
        let demand = !self.w_l2.is_empty();
        let evicted = if demand {
            self.hosts[core].l2.fill(line, false)
        } else {
            self.hosts[core].l2.fill_prefetch(line)
        };
        if let Some(ev) = evicted {
            let ret = ReturnPath {
                node: self.host_node,
                port: HOST_L2,
                id: core as ReqId,
            };
            self.send_line_req(now, self.host_node, ev.line, false, true, ret);
        }
        if demand {
            self.schedule(now + self.cy(1), Action::L1Fill { core, line });
        }
    }

    fn l1_fill(&mut self, now: Tick, core: usize, line: u64) {
        let mut waiters = std::mem::take(&mut self.w_l1);
        waiters.clear();
        let Some(any_write) = self.hosts[core].l1_mshr.complete_into(line, &mut waiters) else {
            self.w_l1 = waiters;
            return;
        };
        if let Some(ev) = self.hosts[core].l1.fill(line, any_write) {
            // Dirty L1 victim: write into L2 if present, else toward L3.
            if self.hosts[core].l2.probe(ev.line) {
                self.hosts[core].l2.access(ev.line, true);
            } else {
                let ret = ReturnPath {
                    node: self.host_node,
                    port: HOST_L2,
                    id: core as ReqId,
                };
                self.send_line_req(now, self.host_node, ev.line, false, true, ret);
            }
        }
        let lat = self.cy(1);
        for &w in &waiters {
            self.schedule(
                now + lat,
                Action::Respond(MemResponse {
                    port: PortId(w.port),
                    id: w.id,
                    addr: line * LINE_BYTES,
                    write: w.write,
                }),
            );
        }
        self.w_l1 = waiters;
    }

    fn acp_access(&mut self, now: Tick, req: MemRequest) {
        let PortKind::Acp { cluster } = self.ports[req.port.0 as usize] else {
            unreachable!("acp action on non-acp port");
        };
        let line = line_of(req.addr);
        let ret = ReturnPath {
            node: cluster,
            port: req.port.0,
            id: req.id,
        };
        let home = self.map.home_cluster_of_line(line);
        if home == cluster {
            self.schedule(
                now,
                Action::ClusterAccess {
                    cluster: home,
                    line,
                    write: req.write,
                    writeback: false,
                    ret,
                },
            );
        } else {
            let (class, bytes) = if req.write {
                (TrafficClass::AccData, LINE_BYTES as u32)
            } else {
                (TrafficClass::AccCtrl, 0)
            };
            self.out_push(
                Packet::new(
                    cluster,
                    home,
                    bytes,
                    class,
                    MemMsg::LineReq {
                        line,
                        write: req.write,
                        writeback: false,
                        ret,
                    },
                )
                .with_tenant(self.tenant_of_line(line)),
            );
        }
    }

    /// Per-core L1 statistics summed across cores.
    pub fn l1_stats(&self) -> CacheStats {
        self.hosts
            .iter()
            .map(|h| h.l1.stats())
            .fold(CacheStats::default(), |mut a, s| {
                a.accesses += s.accesses;
                a.hits += s.hits;
                a.misses += s.misses;
                a.fills += s.fills;
                a.writebacks += s.writebacks;
                a.flushed += s.flushed;
                a
            })
    }

    /// Per-core L2 statistics summed across cores.
    pub fn l2_stats(&self) -> CacheStats {
        self.hosts
            .iter()
            .map(|h| h.l2.stats())
            .fold(CacheStats::default(), |mut a, s| {
                a.accesses += s.accesses;
                a.hits += s.hits;
                a.misses += s.misses;
                a.fills += s.fills;
                a.writebacks += s.writebacks;
                a.flushed += s.flushed;
                a
            })
    }

    /// L3 statistics summed across clusters.
    pub fn l3_stats(&self) -> CacheStats {
        self.clusters
            .iter()
            .map(|c| c.cache.stats())
            .fold(CacheStats::default(), |mut a, s| {
                a.accesses += s.accesses;
                a.hits += s.hits;
                a.misses += s.misses;
                a.fills += s.fills;
                a.writebacks += s.writebacks;
                a.flushed += s.flushed;
                a
            })
    }

    /// DRAM (reads, writes).
    pub fn dram_counts(&self) -> (u64, u64) {
        (self.dram.reads, self.dram.writes)
    }

    /// Miscellaneous counters.
    pub fn sys_stats(&self) -> MemSysStats {
        self.stats
    }

    /// Useful prefetches (demand hits on prefetched L2 lines).
    pub fn useful_prefetches(&self) -> u64 {
        self.hosts.iter().map(|h| h.l2.useful_prefetches()).sum()
    }

    /// Folds all statistics into a report.
    pub fn report(&self) -> Report {
        let mut r = Report::new();
        for (name, s) in [
            ("l1", self.l1_stats()),
            ("l2", self.l2_stats()),
            ("l3", self.l3_stats()),
        ] {
            r.add(format!("{name}.accesses"), s.accesses as f64);
            r.add(format!("{name}.hits"), s.hits as f64);
            r.add(format!("{name}.misses"), s.misses as f64);
            r.add(format!("{name}.writebacks"), s.writebacks as f64);
        }
        let (dr, dw) = self.dram_counts();
        r.add("dram.reads", dr as f64);
        r.add("dram.writes", dw as f64);
        r.add("mshr.l1_stalls", self.stats.l1_mshr_stalls as f64);
        r.add("mshr.l2_stalls", self.stats.l2_mshr_stalls as f64);
        r.add("l3.port_conflicts", self.stats.l3_port_conflicts as f64);
        r.add("prefetch.issued", self.stats.prefetch_issued as f64);
        r.add("prefetch.useful", self.useful_prefetches() as f64);
        r.add("flushed_lines", self.stats.flushed_lines as f64);
        r
    }
}

/// The memory system as a self-contained
/// [`Component`](distda_sim::Component): it owns its caches, MSHRs, DRAM
/// model and outgoing-packet queue, so it implements the protocol for any
/// world. A composed machine whose other components push requests into it
/// mid-tick wraps it in an adapter over shared world state instead; this
/// impl serves standalone scheduling and conformance tests.
impl<W> distda_sim::Component<W> for MemSystem {
    fn name(&self) -> &str {
        "mem"
    }

    fn attach(&mut self, _world: &mut W, instr: &distda_sim::Instruments) {
        self.set_tracer(&instr.tracer);
        self.set_sanitizer(instr.san.clone());
    }

    fn tick(
        &mut self,
        now: Tick,
        _world: &mut W,
        _instr: &mut distda_sim::Instruments,
    ) -> distda_sim::Ticked {
        // Self-contained: no other component reads the hierarchy.
        MemSystem::tick(self, now);
        distda_sim::Ticked::NOTHING
    }

    fn next_event(&self, now: Tick, _world: &W) -> Option<Tick> {
        MemSystem::next_event(self, now)
    }

    fn is_quiescent(&self, _now: Tick, _world: &W) -> bool {
        !self.is_active() && self.pending_responses() == 0
    }

    fn audit_drained(&self, now: Tick, _world: &W, _san: &Sanitizer) {
        self.check_drained(now);
    }

    fn stall(&self, _now: Tick, _world: &W) -> Option<String> {
        self.is_active()
            .then(|| "memory hierarchy active".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distda_noc::{Mesh, NocConfig};

    struct Rig {
        ms: MemSystem,
        mesh: Mesh<MemMsg>,
        now: Tick,
    }

    impl Rig {
        fn new() -> Self {
            let clock = ClockDomain::from_ghz(2.0);
            Self {
                ms: MemSystem::new(MemConfig::default(), clock, 0, 7),
                mesh: Mesh::new(4, 2, NocConfig::default(), clock),
                now: 0,
            }
        }

        fn step(&mut self) {
            self.ms.tick(self.now);
            while let Some(&pkt) = self.ms.outgoing().front() {
                if self.mesh.try_inject(self.now, pkt).is_err() {
                    break;
                }
                self.ms.outgoing().rx().accept();
            }
            self.mesh.tick(self.now);
            for node in 0..self.mesh.node_count() {
                for pkt in self.mesh.drain_inbox(node) {
                    self.ms.deliver(self.now, pkt);
                }
            }
            self.now += 1;
        }

        fn run_until_response(&mut self, port: PortId, budget: u64) -> (Vec<MemResponse>, Tick) {
            let start = self.now;
            for _ in 0..budget {
                self.step();
                if self.ms.has_responses(port) {
                    return (self.ms.take_responses(port), self.now - start);
                }
            }
            panic!("no response within {budget} ticks");
        }
    }

    #[test]
    fn host_read_miss_reaches_dram_and_returns() {
        let mut rig = Rig::new();
        let p = rig.ms.register_port(PortKind::Host);
        rig.ms.request(
            0,
            MemRequest {
                port: p,
                id: 1,
                addr: 0x1000,
                write: false,
            },
        );
        let (resps, lat) = rig.run_until_response(p, 100_000);
        assert_eq!(resps.len(), 1);
        assert_eq!(resps[0].id, 1);
        let (dr, _) = rig.ms.dram_counts();
        assert_eq!(dr, 1);
        // Cold miss must cost far more than an L1 hit.
        assert!(lat > 100, "cold miss latency {lat} suspiciously low");
    }

    #[test]
    fn second_access_hits_l1_fast() {
        let mut rig = Rig::new();
        let p = rig.ms.register_port(PortKind::Host);
        rig.ms.request(
            0,
            MemRequest {
                port: p,
                id: 1,
                addr: 0x40,
                write: false,
            },
        );
        let (_, cold) = rig.run_until_response(p, 100_000);
        let t = rig.now;
        rig.ms.request(
            t,
            MemRequest {
                port: p,
                id: 2,
                addr: 0x40,
                write: false,
            },
        );
        let (resps, warm) = rig.run_until_response(p, 10_000);
        assert_eq!(resps[0].id, 2);
        assert!(warm < cold / 4, "warm {warm} vs cold {cold}");
        assert_eq!(rig.ms.l1_stats().hits, 1);
    }

    #[test]
    fn acp_local_cluster_is_faster_than_remote() {
        let mut rig = Rig::new();
        // Pin two regions: one at cluster 2 (local port), one at cluster 5.
        rig.ms.addr_map_mut().pin_region(0x10000, 0x20000, 2);
        rig.ms.addr_map_mut().pin_region(0x20000, 0x30000, 5);
        let p = rig.ms.register_port(PortKind::Acp { cluster: 2 });

        rig.ms.request(
            0,
            MemRequest {
                port: p,
                id: 1,
                addr: 0x10000,
                write: false,
            },
        );
        let (_, cold_local) = rig.run_until_response(p, 100_000);
        // Warm them up (first accesses go to DRAM).
        let t = rig.now;
        rig.ms.request(
            t,
            MemRequest {
                port: p,
                id: 2,
                addr: 0x20000,
                write: false,
            },
        );
        let (_, _cold_remote) = rig.run_until_response(p, 100_000);

        // Warm accesses: local L3 hit vs remote L3 hit.
        let t = rig.now;
        rig.ms.request(
            t,
            MemRequest {
                port: p,
                id: 3,
                addr: 0x10000,
                write: false,
            },
        );
        let (_, warm_local) = rig.run_until_response(p, 100_000);
        let t = rig.now;
        rig.ms.request(
            t,
            MemRequest {
                port: p,
                id: 4,
                addr: 0x20000,
                write: false,
            },
        );
        let (_, warm_remote) = rig.run_until_response(p, 100_000);
        assert!(
            warm_remote > warm_local,
            "remote {warm_remote} should exceed local {warm_local}"
        );
        let _ = cold_local;
    }

    #[test]
    fn streaming_reads_train_the_prefetcher() {
        let mut rig = Rig::new();
        let p = rig.ms.register_port(PortKind::Host);
        for i in 0..32u64 {
            let id = i + 1;
            rig.ms.request(
                rig.now,
                MemRequest {
                    port: p,
                    id,
                    addr: i * LINE_BYTES,
                    write: false,
                },
            );
            rig.run_until_response(p, 200_000);
        }
        assert!(rig.ms.sys_stats().prefetch_issued > 0, "prefetcher silent");
        assert!(rig.ms.useful_prefetches() > 0, "no useful prefetches");
    }

    #[test]
    fn write_then_flush_counts_dirty_lines() {
        let mut rig = Rig::new();
        let p = rig.ms.register_port(PortKind::Host);
        rig.ms.request(
            0,
            MemRequest {
                port: p,
                id: 1,
                addr: 0x80,
                write: true,
            },
        );
        rig.run_until_response(p, 100_000);
        let dirty = rig.ms.flush_host_range(0x80, 0xC0);
        assert_eq!(dirty, 1);
        assert_eq!(rig.ms.sys_stats().flushed_lines, 1);
    }

    #[test]
    fn all_requests_eventually_answered() {
        let mut rig = Rig::new();
        let p = rig.ms.register_port(PortKind::Host);
        let mut rng = distda_sim::SplitMix64::new(99);
        let n = 200;
        let mut sent = 0;
        let mut got = 0;
        let mut id = 0;
        while got < n {
            if sent < n && sent - got < 8 {
                id += 1;
                let addr = rng.below(1 << 20) & !7;
                let write = rng.below(2) == 0;
                rig.ms.request(
                    rig.now,
                    MemRequest {
                        port: p,
                        id,
                        addr,
                        write,
                    },
                );
                sent += 1;
            }
            rig.step();
            got += rig.ms.take_responses(p).len();
            assert!(rig.now < 10_000_000, "hang: {got}/{n} responses");
        }
        assert_eq!(rig.ms.sys_stats().requests, n as u64);
        assert_eq!(rig.ms.sys_stats().responses, n as u64);
    }

    #[test]
    fn acp_write_gets_acknowledged() {
        let mut rig = Rig::new();
        let p = rig.ms.register_port(PortKind::Acp { cluster: 3 });
        rig.ms.request(
            0,
            MemRequest {
                port: p,
                id: 9,
                addr: 0x40 * 3,
                write: true,
            },
        );
        let (resps, _) = rig.run_until_response(p, 200_000);
        assert!(resps[0].write);
        assert_eq!(resps[0].id, 9);
    }

    #[test]
    fn capacity_evictions_generate_writebacks() {
        let mut rig = Rig::new();
        let p = rig.ms.register_port(PortKind::Host);
        // Write far more distinct lines than L1+L2 capacity in one set
        // region: stride by L2 sets * line so everything maps to set 0.
        let stride = 128 * LINE_BYTES;
        for i in 0..64u64 {
            let id = i + 1;
            rig.ms.request(
                rig.now,
                MemRequest {
                    port: p,
                    id,
                    addr: i * stride,
                    write: true,
                },
            );
            rig.run_until_response(p, 400_000);
        }
        assert!(
            rig.ms.sys_stats().writebacks_sent > 0 || rig.ms.l2_stats().writebacks > 0,
            "no writebacks after thrashing one set with stores"
        );
    }
}
