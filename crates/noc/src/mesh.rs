//! The mesh interconnect model.
//!
//! Packets are routed XY (x first, then y) through bounded per-link queues.
//! A packet occupies a link for its serialization time (`ceil(bytes /
//! flit_bytes)` cycles) plus the per-hop router latency; a full downstream
//! queue stalls it in place, which is how credit-based back-pressure
//! propagates. The model is packet-granularity rather than flit-granularity:
//! it preserves the bandwidth, latency and contention behaviour the paper's
//! results depend on without simulating VC allocation.

use crate::packet::{NodeId, Packet, TrafficClass};
use distda_check::Sanitizer;
use distda_sim::port::{Channel, PortSnapshot};
use distda_sim::time::{ClockDomain, Tick};
use distda_trace::{EventKind, TraceSink};

/// Per-packet header bytes added on the wire (route + sequencing + CRC).
pub const HEADER_BYTES: u32 = 8;

/// Mesh configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NocConfig {
    /// Bytes carried per flit (link width).
    pub flit_bytes: u32,
    /// Router pipeline latency per hop, in NoC cycles.
    pub hop_latency: u64,
    /// Capacity of each link queue, in packets.
    pub link_queue: usize,
    /// Capacity of each node's injection queue, in packets.
    pub inject_queue: usize,
}

impl Default for NocConfig {
    /// 16-byte links, 2-cycle routers, 4-deep queues — a conventional
    /// low-radix mesh router in the paper's technology node.
    fn default() -> Self {
        Self {
            flit_bytes: 16,
            hop_latency: 2,
            link_queue: 4,
            inject_queue: 8,
        }
    }
}

/// Aggregate traffic statistics, indexed by [`TrafficClass`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NocStats {
    /// Packets injected per class.
    pub packets: [u64; 5],
    /// Payload bytes injected per class.
    pub bytes: [u64; 5],
    /// Bytes x links-traversed per class (energy-proportional work),
    /// including header bytes.
    pub hop_bytes: [u64; 5],
    /// Hop-bytes per tenant (index = tenant id), grown on demand.
    /// Sums to [`NocStats::total_hop_bytes`] by construction.
    pub tenant_hop_bytes: Vec<u64>,
    /// Hop-bytes actually accumulated link-by-link as packets traverse
    /// the mesh. `hop_bytes` is charged up front at injection from the
    /// Manhattan route length; this odometer counts real traversals, so
    /// once drained the two must agree — any route table or hop formula
    /// still assuming a fixed mesh shape breaks the equality.
    pub hop_bytes_traversed: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Sum of delivery latencies in base ticks (for averages).
    pub latency_ticks: u64,
    /// Cycles in which at least one link stalled for back-pressure.
    pub stall_cycles: u64,
}

impl NocStats {
    /// Total hop-bytes across all classes.
    pub fn total_hop_bytes(&self) -> u64 {
        self.hop_bytes.iter().sum()
    }

    /// Hop-bytes attributed to `tenant` (0 for tenants that never sent).
    pub fn tenant_hop_bytes(&self, tenant: u16) -> u64 {
        self.tenant_hop_bytes
            .get(tenant as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Average packet latency in base ticks.
    pub fn avg_latency(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.latency_ticks as f64 / self.delivered as f64
        }
    }

    /// Folds the statistics into a [`distda_sim::Report`].
    pub fn report(&self) -> distda_sim::Report {
        let mut r = distda_sim::Report::new();
        for c in TrafficClass::ALL {
            r.add(format!("bytes.{}", c.name()), self.bytes[c.index()] as f64);
            r.add(
                format!("hop_bytes.{}", c.name()),
                self.hop_bytes[c.index()] as f64,
            );
            r.add(
                format!("packets.{}", c.name()),
                self.packets[c.index()] as f64,
            );
        }
        r.add("delivered", self.delivered as f64);
        r.add("avg_latency_ticks", self.avg_latency());
        r.add("stall_cycles", self.stall_cycles as f64);
        r
    }
}

#[derive(Debug, Clone)]
struct InFlight<P> {
    pkt: Packet<P>,
    /// Tick at which it may leave its current queue. The packet's
    /// position (and therefore its remaining route) is implied by which
    /// queue holds it: XY next-hops are recomputed per hop from the
    /// position and `pkt.dst`, so nothing per-packet is allocated.
    ready_at: Tick,
    injected_at: Tick,
}

/// A 2D mesh NoC carrying packets with opaque payloads.
///
/// Per-link state is laid out struct-of-arrays: the packet queues
/// (`link_q`/`inj_q`), the head ready-times the hot loops scan
/// (`link_head`/`inj_head`, `Tick::MAX` when empty) and occupancy
/// bitmasks (`link_occ`/`inj_occ`) live in parallel arrays indexed by
/// directed-link / node id, so [`Mesh::tick`] and [`Mesh::next_event`]
/// touch only dense words and the queues that actually hold packets.
///
/// See the crate-level docs for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Mesh<P> {
    cols: usize,
    rows: usize,
    cfg: NocConfig,
    clock: ClockDomain,
    /// Packet queue per directed link (4 per node: E, W, N, S).
    link_q: Vec<Channel<InFlight<P>>>,
    /// `ready_at` of each link queue's head; `Tick::MAX` when empty.
    link_head: Vec<Tick>,
    /// One bit per link: set while its queue is non-empty.
    link_occ: Vec<u64>,
    /// Injection queue per node.
    inj_q: Vec<Channel<InFlight<P>>>,
    /// `ready_at` of each injection queue's head; `Tick::MAX` when empty.
    inj_head: Vec<Tick>,
    /// One bit per node: set while its injection queue is non-empty.
    inj_occ: Vec<u64>,
    /// Per-node delivery ports: ejected packets wait here until the
    /// owner accepts them through the port handshake. Unbounded —
    /// ejection must never deadlock the router; the owner drains every
    /// inbox each delivery phase.
    inbox: Vec<Channel<Packet<P>>>,
    /// Total packets across every inbox (O(1) pending check).
    inbox_count: usize,
    stats: NocStats,
    in_flight: usize,
    sink: TraceSink,
    san: Sanitizer,
}

impl<P> Mesh<P> {
    /// Creates a `cols x rows` mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension or either queue depth is zero.
    pub fn new(cols: usize, rows: usize, cfg: NocConfig, clock: ClockDomain) -> Self {
        assert!(cols > 0 && rows > 0, "mesh dimensions must be nonzero");
        assert!(
            cfg.link_queue > 0 && cfg.inject_queue > 0,
            "mesh queue depths must be nonzero"
        );
        let n = cols * rows;
        Self {
            cols,
            rows,
            cfg,
            clock,
            // 4 directed links per node (E, W, N, S); boundary links unused.
            link_q: (0..n * 4)
                .map(|_| Channel::bounded(cfg.link_queue))
                .collect(),
            link_head: vec![Tick::MAX; n * 4],
            link_occ: vec![0; (n * 4).div_ceil(64)],
            inj_q: (0..n).map(|_| Channel::bounded(cfg.inject_queue)).collect(),
            inj_head: vec![Tick::MAX; n],
            inj_occ: vec![0; n.div_ceil(64)],
            inbox: (0..n).map(|_| Channel::unbounded()).collect(),
            inbox_count: 0,
            stats: NocStats::default(),
            in_flight: 0,
            sink: TraceSink::default(),
            san: Sanitizer::disabled(),
        }
    }

    /// Attaches a trace sink; injections, deliveries and occupancy are
    /// recorded on it. A default (disabled) sink costs nothing.
    pub fn set_sink(&mut self, sink: TraceSink) {
        self.sink = sink;
    }

    /// Attaches an invariant sanitizer; ejections check timestamp
    /// monotonicity and [`Mesh::check_conservation`] audits flit
    /// accounting. A disabled sanitizer costs nothing.
    pub fn set_sanitizer(&mut self, san: Sanitizer) {
        self.san = san;
    }

    /// Audits flit conservation: packets injected must equal packets
    /// delivered plus packets still queued, and the cached `in_flight`
    /// count must agree with the queues. Flags violations on the attached
    /// sanitizer.
    pub fn check_conservation(&self, now: Tick) {
        if !self.san.on() {
            return;
        }
        let injected: u64 = self.stats.packets.iter().sum();
        let queued: usize = self.link_q.iter().map(|q| q.len()).sum::<usize>()
            + self.inj_q.iter().map(|q| q.len()).sum::<usize>();
        let inboxed: usize = self.inbox.iter().map(|b| b.len()).sum();
        self.san.check(
            self.in_flight == queued,
            "noc",
            "in-flight-count",
            now,
            || in_flight_msg(self.in_flight, queued),
        );
        self.san.check(
            injected == self.stats.delivered + queued as u64,
            "noc",
            "flit-conservation",
            now,
            || conservation_msg(injected, self.stats.delivered, queued, inboxed),
        );
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.cols * self.rows
    }

    /// Mesh width.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Mesh height.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The clock domain the mesh ticks in.
    pub fn clock(&self) -> ClockDomain {
        self.clock
    }

    /// Manhattan hop count between two nodes.
    pub fn hops(&self, a: NodeId, b: NodeId) -> u64 {
        let (ax, ay) = (a % self.cols, a / self.cols);
        let (bx, by) = (b % self.cols, b / self.cols);
        (ax.abs_diff(bx) + ay.abs_diff(by)) as u64
    }

    /// The node a packet sitting in link queue `li` has arrived at: the
    /// neighbor of the link's source node in the link's direction.
    fn link_dst_node(&self, li: usize) -> NodeId {
        let node = li / 4;
        match li % 4 {
            0 => node + 1,         // east
            1 => node - 1,         // west
            2 => node + self.cols, // north (increasing y)
            _ => node - self.cols, // south
        }
    }

    /// Next directed link on the XY route (x first, then y) from `at`
    /// toward `dst`, `None` when the packet is at its destination.
    fn next_link(&self, at: NodeId, dst: NodeId) -> Option<usize> {
        let (x, y) = (at % self.cols, at / self.cols);
        let (dx, dy) = (dst % self.cols, dst / self.cols);
        if x < dx {
            Some(at * 4) // east
        } else if x > dx {
            Some(at * 4 + 1) // west
        } else if y < dy {
            Some(at * 4 + 2) // north
        } else if y > dy {
            Some(at * 4 + 3) // south
        } else {
            None
        }
    }

    fn serialization_cycles(&self, bytes: u32) -> u64 {
        ((bytes + HEADER_BYTES).div_ceil(self.cfg.flit_bytes)) as u64
    }

    /// Attempts to inject a packet at its source node's injection queue.
    ///
    /// # Errors
    ///
    /// Returns the packet back when the injection queue is full; the caller
    /// should retry on a later cycle (this models source throttling).
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is out of range.
    pub fn try_inject(&mut self, now: Tick, pkt: Packet<P>) -> Result<(), Packet<P>> {
        assert!(pkt.src < self.node_count() && pkt.dst < self.node_count());
        let node = pkt.src;
        if self.inj_q[node].is_full() {
            return Err(pkt);
        }
        let class = pkt.class;
        let idx = class.index();
        let hops = self.hops(pkt.src, pkt.dst);
        let bytes = pkt.bytes;
        let dst_node = pkt.dst;
        let tenant = pkt.tenant;
        let flight = InFlight {
            pkt,
            ready_at: now + self.clock.ticks_for_cycles(self.cfg.hop_latency.min(1)),
            injected_at: now,
        };
        if self.inj_q[node].is_empty() {
            self.inj_head[node] = flight.ready_at;
            self.inj_occ[node / 64] |= 1 << (node % 64);
        }
        self.inj_q[node]
            .tx()
            .offer(flight)
            .ok()
            .expect("fullness checked above");
        self.stats.packets[idx] += 1;
        self.stats.bytes[idx] += bytes as u64;
        self.stats.hop_bytes[idx] += (bytes + HEADER_BYTES) as u64 * hops;
        if self.stats.tenant_hop_bytes.len() <= tenant as usize {
            self.stats.tenant_hop_bytes.resize(tenant as usize + 1, 0);
        }
        self.stats.tenant_hop_bytes[tenant as usize] += (bytes + HEADER_BYTES) as u64 * hops;
        self.in_flight += 1;
        if self.sink.on() {
            self.sink.instant(
                now,
                EventKind::NocFlit {
                    class: class.name(),
                    src: node as u16,
                    dst: dst_node as u16,
                    bytes,
                },
            );
            self.sink.count(class.name(), 1);
            self.sink.sample(now, "in_flight", self.in_flight as f64);
        }
        Ok(())
    }

    /// Whether any packet is still queued or in flight.
    pub fn is_active(&self) -> bool {
        self.in_flight > 0
    }

    /// Advances the mesh by one base tick. Only does work on this domain's
    /// clock edges.
    ///
    /// One batch pass per tick: every occupied queue (found via the
    /// occupancy bitmasks, ascending index — the same deterministic order
    /// as a full scan) gets one head-advance opportunity. Link heads move
    /// first (freeing space), then injections. A queue that becomes
    /// occupied mid-pass only holds a packet pushed *this* edge, whose
    /// `ready_at` is in the future, so skipping or visiting it is
    /// behaviour-identical.
    pub fn tick(&mut self, now: Tick) {
        if !self.clock.fires_at(now) || self.in_flight == 0 {
            return;
        }
        let mut stalled = false;
        for w in 0..self.link_occ.len() {
            let mut bits = self.link_occ[w];
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                stalled |= self.advance_head(now, Source::Link(i));
            }
        }
        for w in 0..self.inj_occ.len() {
            let mut bits = self.inj_occ[w];
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                stalled |= self.advance_head(now, Source::Inject(i));
            }
        }
        if stalled {
            self.stats.stall_cycles += 1;
        }
    }

    /// Pops the head of `src`'s queue, maintaining the head-ready array
    /// and occupancy bit.
    fn pop_head(&mut self, src: Source) -> InFlight<P> {
        let (q, heads, occ, i) = match src {
            Source::Link(i) => (
                &mut self.link_q[i],
                &mut self.link_head,
                &mut self.link_occ,
                i,
            ),
            Source::Inject(i) => (&mut self.inj_q[i], &mut self.inj_head, &mut self.inj_occ, i),
        };
        let f = q.rx().accept().expect("pop_head on empty queue");
        match q.front() {
            Some(n) => heads[i] = n.ready_at,
            None => {
                heads[i] = Tick::MAX;
                occ[i / 64] &= !(1 << (i % 64));
            }
        }
        f
    }

    fn advance_head(&mut self, now: Tick, src: Source) -> bool {
        let (ready_at, at) = match src {
            Source::Link(i) => (self.link_head[i], self.link_dst_node(i)),
            Source::Inject(i) => (self.inj_head[i], i),
        };
        // Covers both "not yet ready" and "empty" (`Tick::MAX`).
        if ready_at > now {
            return false;
        }
        let dst = match src {
            Source::Link(i) => self.link_q[i].front().expect("occupied").pkt.dst,
            Source::Inject(i) => self.inj_q[i].front().expect("occupied").pkt.dst,
        };
        match self.next_link(at, dst) {
            None => {
                // Eject at destination.
                let f = self.pop_head(src);
                self.stats.delivered += 1;
                let elapsed =
                    self.san
                        .checked_elapsed("noc", "monotone-delivery", now, f.injected_at);
                self.stats.latency_ticks += elapsed;
                self.in_flight -= 1;
                if self.sink.on() {
                    self.sink.observe("latency_ticks", elapsed);
                    self.sink.sample(now, "in_flight", self.in_flight as f64);
                }
                let accepted = self.inbox[f.pkt.dst].tx().offer(f.pkt).is_ok();
                debug_assert!(accepted, "inboxes are unbounded");
                self.inbox_count += 1;
                false
            }
            Some(link) => {
                if self.link_q[link].is_full() {
                    return true; // back-pressure stall
                }
                let mut f = self.pop_head(src);
                self.stats.hop_bytes_traversed += (f.pkt.bytes + HEADER_BYTES) as u64;
                let occupancy = self.cfg.hop_latency + self.serialization_cycles(f.pkt.bytes);
                f.ready_at = now + self.clock.ticks_for_cycles(occupancy);
                if self.link_q[link].is_empty() {
                    self.link_head[link] = f.ready_at;
                    self.link_occ[link / 64] |= 1 << (link % 64);
                }
                self.link_q[link]
                    .tx()
                    .offer(f)
                    .ok()
                    .expect("space checked above");
                false
            }
        }
    }

    /// Whether any delivered packet is waiting in an inbox.
    pub fn has_inbox_pending(&self) -> bool {
        self.inbox_count > 0
    }

    /// Earliest tick `>= now` at which [`Mesh::tick`] would do observable
    /// work, or `None` when nothing is queued or in flight.
    ///
    /// A head packet that is already ready must be re-examined on every
    /// clock edge (a blocked head charges `stall_cycles` per edge); a head
    /// that becomes ready at `t` first matters at the edge at or after `t`.
    /// Packets waiting in an inbox are the consumer's work, not the
    /// mesh's (see [`Mesh::has_inbox_pending`]): inboxes are unbounded, so
    /// draining them never changes what the mesh can do.
    pub fn next_event(&self, now: Tick) -> Option<Tick> {
        if self.in_flight == 0 {
            return None;
        }
        // `base` is the floor of every candidate; once a ready head hits
        // it, no later front can beat it, so stop scanning (the common
        // case while traffic is flowing). Only occupied queues are
        // visited, and only their dense head-ready words are read.
        let base = self.clock.next_edge(now);
        let mut earliest: Option<Tick> = None;
        for (occ, heads) in [
            (&self.link_occ, &self.link_head),
            (&self.inj_occ, &self.inj_head),
        ] {
            for (w, &word) in occ.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let i = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let edge = self.clock.next_edge(heads[i].max(now));
                    if edge == base {
                        return Some(base);
                    }
                    earliest = distda_sim::time::earliest(earliest, Some(edge));
                }
            }
        }
        earliest
    }

    /// Removes and returns all packets delivered to `node`.
    pub fn drain_inbox(&mut self, node: NodeId) -> Vec<Packet<P>> {
        let ch = &mut self.inbox[node];
        self.inbox_count -= ch.len();
        let mut v = Vec::with_capacity(ch.len());
        let mut rx = ch.rx();
        while let Some(pkt) = rx.accept() {
            v.push(pkt);
        }
        v
    }

    /// Batch-phase delivery: hands every inboxed packet to `f` in
    /// ascending node order (FIFO within a node) and clears the inboxes.
    /// Unlike per-node [`Mesh::drain_inbox`] this neither allocates nor
    /// visits empty inboxes, so an owner that fans deliveries out itself
    /// drains the whole mesh in one pass.
    pub fn for_each_delivered(&mut self, mut f: impl FnMut(NodeId, Packet<P>)) {
        if self.inbox_count == 0 {
            return;
        }
        self.inbox_count = 0;
        for node in 0..self.inbox.len() {
            let mut rx = self.inbox[node].rx();
            while let Some(pkt) = rx.accept() {
                f(node, pkt);
            }
        }
    }

    /// Number of packets waiting in `node`'s inbox.
    pub fn inbox_len(&self, node: NodeId) -> usize {
        self.inbox[node].len()
    }

    /// Port statistics of every node's delivery inbox, named
    /// `noc.inbox<node>`.
    pub fn inbox_snapshots(&self) -> Vec<PortSnapshot> {
        self.inbox
            .iter()
            .enumerate()
            .map(|(n, ch)| ch.snapshot(distda_sim::port_names::noc_inbox(n)))
            .collect()
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// Audits the drained mesh: flit conservation
    /// ([`Mesh::check_conservation`]), every inbox empty, and hop
    /// conservation — the hop-bytes charged up front at injection (from
    /// the Manhattan route formula) must equal the hop-bytes actually
    /// accumulated link-by-link by the router, and the per-tenant split
    /// must sum to the per-class totals. A mismatch means some route
    /// table or hop-count derivation disagrees with the real topology
    /// (e.g. a leftover hard-coded mesh shape). Flags violations on the
    /// attached sanitizer; a no-op when it is disabled.
    pub fn check_drained(&self, now: Tick) {
        if !self.san.on() {
            return;
        }
        self.check_conservation(now);
        let charged = self.stats.total_hop_bytes();
        self.san.check(
            self.stats.hop_bytes_traversed == charged,
            "noc",
            "hop-conservation",
            now,
            || hop_conservation_msg(charged, self.stats.hop_bytes_traversed),
        );
        let tenant_sum: u64 = self.stats.tenant_hop_bytes.iter().sum();
        self.san.check(
            tenant_sum == charged,
            "noc",
            "tenant-hop-partition",
            now,
            || tenant_partition_msg(charged, tenant_sum),
        );
        for node in 0..self.node_count() {
            self.san.check(
                self.inbox[node].is_empty(),
                "noc",
                "inbox-drain",
                now,
                || inbox_drain_msg(node, self.inbox[node].len()),
            );
        }
    }
}

/// The mesh as a self-contained [`Component`](distda_sim::Component): it
/// carries its own queues and clock, so it implements the protocol for
/// any world. Composed machines that route packets *into* the mesh from
/// world state (injection queues, inboxes) wrap it in their own adapter
/// instead; this impl serves standalone scheduling and conformance tests.
impl<W, P> distda_sim::Component<W> for Mesh<P> {
    fn name(&self) -> &str {
        "noc"
    }

    fn attach(&mut self, _world: &mut W, instr: &distda_sim::Instruments) {
        self.set_sink(instr.tracer.sink("noc"));
        self.set_sanitizer(instr.san.clone());
    }

    fn tick(
        &mut self,
        now: Tick,
        _world: &mut W,
        _instr: &mut distda_sim::Instruments,
    ) -> distda_sim::Ticked {
        // Self-contained: no other component reads the mesh.
        Mesh::tick(self, now);
        distda_sim::Ticked::NOTHING
    }

    fn next_event(&self, now: Tick, _world: &W) -> Option<Tick> {
        // Standalone, the mesh is also the owner that drains its inboxes.
        if self.has_inbox_pending() {
            return Some(now);
        }
        Mesh::next_event(self, now)
    }

    fn is_quiescent(&self, _now: Tick, _world: &W) -> bool {
        !self.is_active() && !self.has_inbox_pending()
    }

    fn audit_drained(&self, now: Tick, _world: &W, _san: &Sanitizer) {
        self.check_drained(now);
    }

    fn stall(&self, _now: Tick, _world: &W) -> Option<String> {
        self.is_active().then(|| "mesh active".to_string())
    }
}

#[derive(Debug, Clone, Copy)]
enum Source {
    Link(usize),
    Inject(usize),
}

// Failure-message constructors, out of line and `#[cold]`: they only run
// when an invariant has already been violated, and keeping the `format!`
// machinery out of the audit functions keeps those inlinable.

#[cold]
#[inline(never)]
fn in_flight_msg(in_flight: usize, queued: usize) -> String {
    format!("cached in_flight {in_flight} != {queued} packets in link/inject queues")
}

#[cold]
#[inline(never)]
fn conservation_msg(injected: u64, delivered: u64, queued: usize, inboxed: usize) -> String {
    format!("injected {injected} != delivered {delivered} + queued {queued} (inboxed {inboxed})")
}

#[cold]
#[inline(never)]
fn inbox_drain_msg(node: NodeId, held: usize) -> String {
    format!("node {node} inbox holds {held} undelivered packets")
}

#[cold]
#[inline(never)]
fn hop_conservation_msg(charged: u64, traversed: u64) -> String {
    format!(
        "hop-bytes charged at inject {charged} != hop-bytes traversed {traversed}: \
         route/hop-count derivation disagrees with the actual topology"
    )
}

#[cold]
#[inline(never)]
fn tenant_partition_msg(charged: u64, tenant_sum: u64) -> String {
    format!("per-tenant hop-bytes sum {tenant_sum} != total hop-bytes {charged}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use distda_sim::time::ClockDomain;

    fn mesh() -> Mesh<u64> {
        Mesh::new(4, 2, NocConfig::default(), ClockDomain::from_ghz(2.0))
    }

    fn run_until_quiet(m: &mut Mesh<u64>) -> Tick {
        let mut t = 0;
        while m.is_active() {
            m.tick(t);
            t += 1;
            assert!(t < 1_000_000, "mesh did not drain");
        }
        t
    }

    #[test]
    #[should_panic(expected = "mesh queue depths must be nonzero")]
    fn zero_queue_depth_is_rejected() {
        let cfg = NocConfig {
            link_queue: 0,
            ..NocConfig::default()
        };
        let _ = Mesh::<u64>::new(4, 2, cfg, ClockDomain::from_ghz(2.0));
    }

    #[test]
    fn hops_is_manhattan_distance() {
        let m = mesh();
        assert_eq!(m.hops(0, 3), 3);
        assert_eq!(m.hops(0, 4), 1);
        assert_eq!(m.hops(0, 7), 4);
        assert_eq!(m.hops(5, 5), 0);
    }

    #[test]
    fn delivers_single_packet() {
        let mut m = mesh();
        m.try_inject(0, Packet::new(0, 7, 64, TrafficClass::AccData, 42))
            .unwrap();
        run_until_quiet(&mut m);
        let got = m.drain_inbox(7);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, 42);
        assert_eq!(m.stats().delivered, 1);
    }

    #[test]
    fn local_delivery_works() {
        let mut m = mesh();
        m.try_inject(0, Packet::new(3, 3, 8, TrafficClass::AccCtrl, 1))
            .unwrap();
        run_until_quiet(&mut m);
        assert_eq!(m.drain_inbox(3).len(), 1);
        // Zero hops -> zero hop-bytes.
        assert_eq!(m.stats().hop_bytes[TrafficClass::AccCtrl.index()], 0);
    }

    #[test]
    fn hop_bytes_accounts_header_and_distance() {
        let mut m = mesh();
        m.try_inject(0, Packet::new(0, 3, 64, TrafficClass::HostData, 0))
            .unwrap();
        run_until_quiet(&mut m);
        assert_eq!(
            m.stats().hop_bytes[TrafficClass::HostData.index()],
            (64 + HEADER_BYTES as u64) * 3
        );
    }

    #[test]
    fn per_pair_ordering_is_fifo() {
        let mut m = mesh();
        for i in 0..5 {
            m.try_inject(0, Packet::new(1, 6, 16, TrafficClass::AccData, i))
                .unwrap();
        }
        run_until_quiet(&mut m);
        let got: Vec<u64> = m.drain_inbox(6).into_iter().map(|p| p.payload).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn injection_queue_back_pressure() {
        let mut m = mesh();
        let mut rejected = 0;
        for i in 0..100 {
            if m.try_inject(0, Packet::new(0, 7, 256, TrafficClass::HostData, i))
                .is_err()
            {
                rejected += 1;
            }
        }
        assert!(rejected > 0, "expected finite injection capacity");
        run_until_quiet(&mut m);
        assert_eq!(m.stats().delivered + rejected, 100);
    }

    #[test]
    fn contention_increases_latency() {
        // One packet alone vs. the same packet behind heavy cross traffic.
        let mut alone = mesh();
        alone
            .try_inject(0, Packet::new(0, 3, 64, TrafficClass::AccData, 0))
            .unwrap();
        run_until_quiet(&mut alone);
        let solo_lat = alone.stats().avg_latency();

        let mut busy = mesh();
        for i in 0..6 {
            busy.try_inject(0, Packet::new(0, 3, 256, TrafficClass::HostData, i))
                .unwrap();
        }
        busy.try_inject(0, Packet::new(0, 3, 64, TrafficClass::AccData, 99))
            .unwrap();
        run_until_quiet(&mut busy);
        assert!(busy.stats().avg_latency() > solo_lat);
        assert!(busy.stats().stall_cycles > 0 || busy.stats().avg_latency() > solo_lat);
    }

    #[test]
    fn bigger_packets_serialize_longer() {
        let lat = |bytes: u32| {
            let mut m = mesh();
            m.try_inject(0, Packet::new(0, 7, bytes, TrafficClass::MemData, 0))
                .unwrap();
            run_until_quiet(&mut m);
            m.stats().avg_latency()
        };
        assert!(lat(256) > lat(16));
    }

    #[test]
    fn batched_drain_delivers_everything_in_node_order() {
        let mut m = mesh();
        m.try_inject(0, Packet::new(0, 6, 16, TrafficClass::AccData, 60))
            .unwrap();
        m.try_inject(0, Packet::new(1, 2, 16, TrafficClass::AccData, 20))
            .unwrap();
        m.try_inject(0, Packet::new(3, 2, 16, TrafficClass::AccData, 21))
            .unwrap();
        run_until_quiet(&mut m);
        assert!(m.has_inbox_pending());
        let mut got = Vec::new();
        m.for_each_delivered(|node, p| got.push((node, p.payload)));
        // Ascending node order; within-node order matches per-node drain.
        assert_eq!(got.len(), 3);
        assert!(got.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(!m.has_inbox_pending());
        assert_eq!(m.inbox_len(2), 0);
        // A second batch drain is a no-op.
        m.for_each_delivered(|_, _| panic!("inbox should be empty"));
    }

    #[test]
    fn stats_report_has_all_classes() {
        let m = mesh();
        let r = m.stats().report();
        for c in TrafficClass::ALL {
            assert!(r.get(&format!("bytes.{}", c.name())).is_some());
        }
    }

    #[test]
    fn hop_conservation_catches_wrong_charge() {
        // Simulate a stale hop-count derivation: charge hop-bytes for a
        // route the router never takes. The drain audit must flag it.
        let mut m = mesh();
        m.set_sanitizer(Sanitizer::enabled());
        m.try_inject(0, Packet::new(0, 7, 64, TrafficClass::AccData, 1))
            .unwrap();
        run_until_quiet(&mut m);
        m.drain_inbox(7);
        m.stats.hop_bytes[TrafficClass::AccData.index()] += 72; // phantom hop
        m.check_drained(1_000);
        let kinds: Vec<&'static str> = m.san.take().into_iter().map(|v| v.invariant).collect();
        assert!(kinds.contains(&"hop-conservation"), "{kinds:?}");
        assert!(kinds.contains(&"tenant-hop-partition"), "{kinds:?}");
    }

    /// Deterministic SplitMix64 for the property tests below.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Walks the XY route from `src` to `dst`, asserting legality at
    /// every step: each link leaves the current node, x is corrected
    /// before y ever moves, and the walk terminates in exactly
    /// `hops(src, dst)` steps.
    fn assert_route_legal<P>(m: &Mesh<P>, src: NodeId, dst: NodeId) {
        let mut at = src;
        let mut steps = 0u64;
        let mut moved_y = false;
        while let Some(link) = m.next_link(at, dst) {
            assert_eq!(link / 4, at, "link {link} does not originate at {at}");
            let next = m.link_dst_node(link);
            assert!(next < m.node_count(), "route left the mesh at {next}");
            let dir = link % 4;
            if dir >= 2 {
                moved_y = true;
                assert_eq!(
                    at % m.cols(),
                    dst % m.cols(),
                    "y move before x was corrected"
                );
            } else {
                assert!(!moved_y, "x move after y started (not XY order)");
            }
            assert_eq!(m.hops(next, dst) + 1, m.hops(at, dst), "hop not forward");
            at = next;
            steps += 1;
            assert!(steps <= (m.cols() + m.rows()) as u64, "route cycles");
        }
        assert_eq!(at, dst);
        assert_eq!(steps, m.hops(src, dst));
    }

    #[test]
    fn property_random_meshes_route_xy_with_manhattan_hops() {
        let mut rng = Rng(0x5eed_0001);
        for _ in 0..64 {
            let cols = rng.below(9) as usize + 1;
            let rows = rng.below(9) as usize + 1;
            let m: Mesh<u64> =
                Mesh::new(cols, rows, NocConfig::default(), ClockDomain::from_ghz(2.0));
            for _ in 0..32 {
                let src = rng.below((cols * rows) as u64) as usize;
                let dst = rng.below((cols * rows) as u64) as usize;
                let (sx, sy) = (src % cols, src / cols);
                let (dx, dy) = (dst % cols, dst / cols);
                assert_eq!(m.hops(src, dst), (sx.abs_diff(dx) + sy.abs_diff(dy)) as u64);
                assert_route_legal(&m, src, dst);
            }
        }
    }

    #[test]
    fn property_random_meshes_conserve_flits_and_hop_bytes() {
        let mut rng = Rng(0x5eed_0002);
        for _ in 0..24 {
            let cols = rng.below(8) as usize + 1;
            let rows = rng.below(6) as usize + 1;
            let nodes = cols * rows;
            let mut m: Mesh<u64> =
                Mesh::new(cols, rows, NocConfig::default(), ClockDomain::from_ghz(2.0));
            m.set_sanitizer(Sanitizer::enabled());
            let n_pkts = rng.below(40) + 1;
            let mut injected = 0u64;
            let mut t = 0;
            for i in 0..n_pkts {
                let src = rng.below(nodes as u64) as usize;
                let dst = rng.below(nodes as u64) as usize;
                let bytes = (rng.below(256) + 1) as u32;
                let tenant = rng.below(4) as u16;
                let class = TrafficClass::ALL[rng.below(5) as usize];
                let pkt = Packet::new(src, dst, bytes, class, i).with_tenant(tenant);
                if m.try_inject(t, pkt).is_ok() {
                    injected += 1;
                }
                // Let some traffic drain so injection queues reopen.
                if i % 4 == 3 {
                    m.tick(t);
                    t += 1;
                }
            }
            while m.is_active() {
                m.tick(t);
                t += 1;
                assert!(t < 1_000_000, "mesh did not drain");
            }
            let mut delivered = 0u64;
            m.for_each_delivered(|_, _| delivered += 1);
            assert_eq!(delivered, injected);
            m.check_drained(t);
            let violations = m.san.take();
            assert!(violations.is_empty(), "{violations:?}");
            assert_eq!(
                m.stats().tenant_hop_bytes.iter().sum::<u64>(),
                m.stats().total_hop_bytes()
            );
            assert_eq!(m.stats().hop_bytes_traversed, m.stats().total_hop_bytes());
        }
    }
}
