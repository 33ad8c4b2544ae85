//! The full machine model: host core + NUCA hierarchy + mesh + distributed
//! accelerator engines + operand channels, advanced in lock-step on the
//! 6 GHz base tick.
//!
//! The machine also implements the host-initiated half of the Table II
//! interface: [`Machine::configure_plan`] (`cp_config`,
//! `cp_config_stream/random`), [`Machine::launch`] (`cp_set_rf`, `cp_run`)
//! and [`Machine::read_liveouts`] (`cp_load_rf`), with MMIO traffic and
//! host occupancy charged for each.
//!
//! ## Composition
//!
//! Structurally the machine is a [`Scheduler`] over a [`MachineState`]
//! world. Each intra-tick phase — inbox delivery, host issue, engine
//! execution, memory hierarchy, packet injection, mesh routing — is a
//! registered [`Component`] with a fixed stage number; the scheduler owns
//! the clock, the skip-ahead wake probe, the tick budget, the drain loop
//! and the drain audit. Adding a component to the machine is a single
//! [`Scheduler::register`] call: the tick loop, wake probe, drain
//! predicate and drain audit all follow from the component's own
//! protocol implementation, so none of them can silently forget it.

use crate::config::Topology;
use crate::error::SimError;
use crate::host::HostCore;
use crate::netmsg::{ChanState, NetMsg};
use distda_accel::{EngineCtx, IssueModel, PartitionEngine, Wake};
use distda_check::Sanitizer;
use distda_compiler::plan::OffloadPlan;
use distda_energy::EnergyCounters;
use distda_ir::expr::ArrayId;
use distda_ir::interp::Memory;
use distda_ir::trace::{DynOp, Layout};
use distda_ir::value::Value;
use distda_mem::{MemRequest, MemSystem, PortId, PortKind};
use distda_noc::{Mesh, NocConfig, Packet, TrafficClass};
use distda_sim::component::{Component, Instruments, Scheduler, Stop};
use distda_sim::port::{Channel, PortSnapshot};
use distda_sim::port_names;
use distda_sim::time::{ClockDomain, Tick};
use distda_sim::Sampler;
use distda_trace::{EventKind, TraceSink, Tracer};

/// Operand slots per channel buffer.
pub const CHAN_CAPACITY: usize = 64;
/// Host cycles charged per MMIO configuration word.
const MMIO_CYCLES_PER_WORD: u64 = 1;
/// Base ticks (10 simulated seconds) before a run loop is declared hung.
const TICK_BUDGET: u64 = 60_000_000_000;

/// Intra-tick phase stages. Components tick in ascending stage order;
/// the numbers are spaced so future components can slot between phases.
mod stage {
    /// Deliver last tick's mesh arrivals to memory/channels.
    pub const DELIVERY: u32 = 0;
    /// Host core issues.
    pub const HOST: u32 = 10;
    /// Accelerator engines execute (registered later, one per engine).
    pub const ENGINE: u32 = 20;
    /// Memory hierarchy advances and injects its outgoing packets.
    pub const MEM: u32 = 30;
    /// Machine-level packets (channel data/credits, MMIO) inject.
    pub const NET_OUT: u32 = 40;
    /// Mesh routes.
    pub const MESH: u32 = 50;
    /// Windowed port/counter sampling freezes the tick's final state
    /// (registered lazily, only when explain sampling is on).
    pub const SAMPLE: u32 = 60;
}

/// Handle to a configured offload plan.
pub type PlanHandle = usize;

/// How one partition is realized in hardware.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Substrate {
    /// Issue pacing (in-order width or CGRA II).
    pub model: IssueModel,
    /// Clock domain.
    pub clock: ClockDomain,
    /// Access-unit buffer capacity in lines.
    pub buffer_lines: usize,
    /// Whether this partition is a bare access node (FSM, not a core) —
    /// its ops are charged as buffer energy, not core energy.
    pub is_access_node: bool,
    /// Prefetch depth / outstanding limits (pf_ahead, max_reads,
    /// max_writes).
    pub tuning: (u64, u32, u32),
}

#[derive(Debug)]
struct EngineSlot {
    eng: PartitionEngine,
    cluster: usize,
    port: PortId,
    resp: Vec<u64>,
    chan_base: usize,
    is_access_node: bool,
    is_cgra: bool,
    /// Tenant this engine executes for (0 on single-tenant machines).
    /// Selects the functional image/layout view and tags outbound traffic.
    tenant: u16,
    /// Engine cycles stalled waiting on this slot's ACP port (mirrors the
    /// engine's `stall_mem` so per-port stall series sum to machine
    /// totals).
    mem_stalls: u64,
    /// Engine cycles stalled per operand channel of this engine's plan
    /// (indexed by local channel, global channel `chan_base + i`),
    /// charged at the same retry sites as the engine's `stall_chan`
    /// counter — the per-waiter attribution the explain blame edges carry
    /// (a channel port's raw counter mixes producer, consumer and
    /// delivery stalls).
    chan_stalls: Vec<u64>,
}

#[derive(Debug)]
struct PlanInst {
    engines: Vec<usize>,
    /// Live-outs: (scalar, engine slot index, carry register).
    liveouts: Vec<(distda_ir::expr::ScalarId, usize, u16)>,
    /// Carry scalars per engine (for `cp_set_rf` initialization).
    carry_scalars: Vec<Vec<distda_ir::expr::ScalarId>>,
    params: Vec<distda_compiler::affine::Sym>,
    /// Tenant the plan was configured for (0 on single-tenant machines).
    tenant: u16,
}

/// The shared world state every machine component operates on: the
/// structural units (mesh, memory hierarchy, host core, engines, operand
/// channels) plus the functional image and address layout.
///
/// Run-loop exit conditions receive `&MachineState` (plus the current
/// tick), so everything a condition might poll is readable here.
#[derive(Debug)]
pub struct MachineState {
    mesh: Mesh<NetMsg>,
    mem: MemSystem,
    host: HostCore,
    memimg: Memory,
    layout: Layout,
    chans: Vec<ChanState>,
    engines: Vec<EngineSlot>,
    plans: Vec<PlanInst>,
    /// Machine-level injection port into the mesh (channel operands,
    /// credits, MMIO). Bounded: producers observe back-pressure through
    /// the port handshake instead of an elastic queue.
    net_out: Channel<Packet<NetMsg>>,
    host_node: usize,
    mmio_words: u64,
    /// Functional image + layout views for tenants 1.. (tenant 0 uses the
    /// machine's primary `memimg`/`layout`). Index = tenant - 1.
    tenant_views: Vec<(Memory, Layout)>,
    /// Producer/consumer engine slot per global operand channel
    /// (parallel to `chans`) — the blame topology of the `chan{g}`
    /// ports, recorded at plan-configuration time.
    chan_engines: Vec<(usize, usize)>,
    /// Machine track: kernel phases, MMIO transfers, offload dispatches.
    sink: TraceSink,
    /// Host track: segment loads.
    host_sink: TraceSink,
    /// Channel track: per-channel occupancy series.
    chan_sink: TraceSink,
    /// Mirror of the scheduler's skip-ahead flag. With it on, engine
    /// edges on which the engine is not due are gated off; with it off
    /// every edge runs, as the tick-by-tick reference requires.
    skip: bool,
}

impl MachineState {
    /// Whether every engine of a plan has finished its invocation.
    pub fn plan_done(&self, handle: PlanHandle) -> bool {
        self.plans[handle]
            .engines
            .iter()
            .all(|&ei| self.engines[ei].eng.is_done())
    }

    /// The functional memory image.
    pub fn memimg(&self) -> &Memory {
        &self.memimg
    }

    /// Whether the host core's current trace segment has drained by `now`.
    pub fn host_segment_drained(&self, now: Tick) -> bool {
        self.host.segment_drained(now)
    }

    /// Freezes the statistics of every handshaked port in the machine —
    /// operand channels, the machine injection port, the memory system's
    /// mesh port and per-requester response ports, and the mesh inboxes.
    /// Engine-side ACP stall cycles are folded onto the matching
    /// response port so per-port stall series sum to the machine's
    /// `stall_mem`/`stall_chan` totals.
    pub fn port_snapshots(&self) -> Vec<PortSnapshot> {
        let mut out = Vec::new();
        for (g, ch) in self.chans.iter().enumerate() {
            out.push(ch.queue.snapshot(port_names::chan(g)));
        }
        out.push(self.net_out.snapshot(port_names::NET_OUT));
        out.push(self.mem.out_snapshot());
        for p in self.mem.ports() {
            let mut s = self.mem.resp_snapshot(p);
            if let Some(slot) = self.engines.iter().find(|s| s.port == p) {
                s.stalls = slot.mem_stalls;
            }
            out.push(s);
        }
        out.extend(self.mesh.inbox_snapshots());
        out
    }
}

/// Stage [`stage::DELIVERY`]: hands last tick's mesh arrivals to their
/// owners — memory-protocol messages to the hierarchy, operands and
/// credits to the channel buffers (checking credit conservation), MMIO
/// packets to nobody (their effect was applied at issue; the packet
/// exists for traffic accounting).
struct DeliveryComp;

impl Component<MachineState> for DeliveryComp {
    fn name(&self) -> &str {
        "delivery"
    }

    fn tick(&mut self, now: Tick, st: &mut MachineState, instr: &mut Instruments) {
        let san = &instr.san;
        let MachineState {
            mesh, mem, chans, ..
        } = st;
        mesh.for_each_delivered(|_node, pkt| {
            match pkt.payload {
                NetMsg::Mem(m) => {
                    let wrapped = Packet::new(pkt.src, pkt.dst, pkt.bytes, pkt.class, m)
                        .with_tenant(pkt.tenant);
                    mem.deliver(now, wrapped);
                }
                NetMsg::ChanData { chan, v } => {
                    if chans[chan as usize].queue.tx().offer(v).is_err() {
                        // Credits bound occupancy; an arrival beyond
                        // capacity means a credit was double-issued.
                        // With the sanitizer on this becomes a typed
                        // error (the operand is dropped — the run is
                        // already condemned); off, fail loudly as
                        // before.
                        if san.on() {
                            san.flag(
                                "machine.chan",
                                "credit-overflow",
                                now,
                                format!(
                                    "channel {chan} received an operand beyond its credited capacity"
                                ),
                            );
                        } else {
                            panic!("channel {chan} overflowed its credited capacity");
                        }
                    }
                }
                NetMsg::ChanCredit { chan, n } => {
                    chans[chan as usize].flow.grant(n as usize);
                    if san.on() {
                        let ch = &chans[chan as usize];
                        san.check(
                            ch.flow.conserves(ch.queue.len()),
                            "machine.chan",
                            "credit-conservation",
                            now,
                            || {
                                format!(
                                    "channel {chan}: credits {} + debt {} + queued {} > capacity {}",
                                    ch.flow.credits(),
                                    ch.flow.debt(),
                                    ch.queue.len(),
                                    ch.queue.capacity()
                                )
                            },
                        );
                    }
                }
                NetMsg::Mmio => {}
            }
        });
    }

    fn next_event(&self, now: Tick, st: &MachineState) -> Option<Tick> {
        st.mesh.has_inbox_pending().then_some(now)
    }

    fn is_quiescent(&self, _now: Tick, st: &MachineState) -> bool {
        !st.mesh.has_inbox_pending()
    }
}

/// Stage [`stage::HOST`]: the out-of-order host core collects memory
/// responses and issues into the hierarchy.
struct HostComp;

impl Component<MachineState> for HostComp {
    fn name(&self) -> &str {
        "host"
    }

    fn attach(&mut self, st: &mut MachineState, instr: &Instruments) {
        st.host_sink = instr.tracer.sink("host");
    }

    fn tick(&mut self, now: Tick, st: &mut MachineState, _instr: &mut Instruments) {
        let MachineState { host, mem, .. } = st;
        host.tick(now, mem);
    }

    fn next_event(&self, now: Tick, st: &MachineState) -> Option<Tick> {
        st.host.next_event(now)
    }

    fn is_quiescent(&self, now: Tick, st: &MachineState) -> bool {
        st.host.segment_drained(now)
    }

    fn stall(&self, now: Tick, st: &MachineState) -> Option<String> {
        (!st.host.segment_drained(now)).then(|| "host segment undrained".to_string())
    }
}

/// Passive component owning the operand-channel *audit*: channels are
/// advanced by the engines (producer/consumer sides) and the delivery
/// stage, never tick on their own, and were never part of the machine's
/// exit conditions — but a drained machine must leave every queue empty
/// and every credit conserved, which this component asserts.
struct ChannelsComp;

impl Component<MachineState> for ChannelsComp {
    fn name(&self) -> &str {
        "machine.chan"
    }

    fn attach(&mut self, st: &mut MachineState, instr: &Instruments) {
        st.chan_sink = instr.tracer.sink("machine.chan");
    }

    fn tick(&mut self, _now: Tick, _st: &mut MachineState, _instr: &mut Instruments) {}

    fn passive(&self) -> bool {
        true
    }

    fn next_event(&self, _now: Tick, _st: &MachineState) -> Option<Tick> {
        None
    }

    fn is_quiescent(&self, _now: Tick, _st: &MachineState) -> bool {
        true
    }

    fn audit_drained(&self, now: Tick, st: &MachineState, san: &Sanitizer) {
        for (g, ch) in st.chans.iter().enumerate() {
            san.check(
                ch.queue.is_empty(),
                "machine.chan",
                "channel-drain",
                now,
                || format!("channel {g} still holds {} operands", ch.queue.len()),
            );
            san.check(
                ch.flow.drained(),
                "machine.chan",
                "credit-conservation",
                now,
                || {
                    format!(
                        "channel {g}: credits {} + debt {} != capacity {CHAN_CAPACITY}",
                        ch.flow.credits(),
                        ch.flow.debt()
                    )
                },
            );
        }
        // The generic handshake audit over every machine port: no value
        // lost outside the TxPort/RxPort handshake, no occupancy beyond
        // the configured bound, nothing stranded after a drain.
        for v in distda_sim::conformance::check_ports(&st.port_snapshots(), now, true) {
            san.flag(&v.comp, v.rule, v.now, v.detail);
        }
    }
}

/// The earliest edge at or after `now` on which the engine in `slot` can
/// act: its next edge if a memory response is waiting at its port or its
/// blocking channel became ready, its reported internal wake otherwise.
/// The engine is due at `now` iff this is `Some(now)`.
fn engine_wake(slot: &EngineSlot, chans: &[ChanState], now: Tick) -> Option<Tick> {
    let clock = slot.eng.clock();
    if !slot.resp.is_empty() {
        // A response is waiting at the engine's port; it must be
        // handed over on the engine's next edge.
        return Some(clock.next_edge(now));
    }
    match slot.eng.wake() {
        Wake::Never => None,
        Wake::NextEdge => Some(clock.next_edge(now)),
        Wake::At(t) => Some(clock.next_edge(t.max(now))),
        Wake::External(chan) => {
            let ready = match chan {
                Some((c, is_send)) => {
                    let ch = &chans[slot.chan_base + c as usize];
                    if is_send {
                        ch.flow.credits() > 0
                    } else {
                        !ch.queue.is_empty()
                    }
                }
                None => false,
            };
            ready.then(|| clock.next_edge(now))
        }
    }
}

/// Runs `f` on engine `index` against its [`EngineCtx`] view of the
/// world at tick `now`.
fn drive_engine(
    st: &mut MachineState,
    index: usize,
    now: Tick,
    f: impl FnOnce(&mut PartitionEngine, &mut Ctx<'_>),
) {
    let MachineState {
        engines,
        mem,
        chans,
        net_out,
        memimg,
        layout,
        tenant_views,
        chan_sink,
        ..
    } = st;
    let slot = &mut engines[index];
    // The engine reads and writes its tenant's functional view.
    let (memimg, layout) = match slot.tenant {
        0 => (memimg, &*layout),
        t => {
            let (img, lay) = &mut tenant_views[t as usize - 1];
            (img, &*lay)
        }
    };
    let mut ctx = Ctx {
        now,
        port: slot.port,
        chan_base: slot.chan_base,
        tenant: slot.tenant,
        mem,
        chans,
        net_out,
        memimg,
        layout,
        resp: &mut slot.resp,
        chan_sink,
        mem_stalls: &mut slot.mem_stalls,
        chan_stalls: &mut slot.chan_stalls,
    };
    f(&mut slot.eng, &mut ctx);
}

/// Stage [`stage::ENGINE`], one per configured engine: collects the
/// engine's port responses and, when the engine is due, executes one
/// edge against its [`EngineCtx`] view of the world.
struct EngineComp {
    index: usize,
    name: String,
}

impl Component<MachineState> for EngineComp {
    fn name(&self) -> &str {
        &self.name
    }

    fn attach(&mut self, st: &mut MachineState, instr: &Instruments) {
        st.engines[self.index]
            .eng
            .set_sink(instr.tracer.sink(&self.name));
    }

    fn tick(&mut self, now: Tick, st: &mut MachineState, _instr: &mut Instruments) {
        let slot = &mut st.engines[self.index];
        {
            let mut rx = st.mem.responses(slot.port).rx();
            while let Some(r) = rx.accept() {
                slot.resp.push(r.id);
            }
        }
        // An engine that is not due here would only re-try its blocked
        // node — the skip-ahead argument applied to one engine: the edge
        // is skipped and its stall cycle charged in bulk on the engine's
        // next processed edge (or by `PartitionEngine::settle`). Off the
        // engine's clock edge `eng.tick` is a no-op anyway.
        let due = if st.skip {
            engine_wake(slot, &st.chans, now) == Some(now)
        } else {
            slot.eng.clock().fires_at(now)
        };
        if due {
            drive_engine(st, self.index, now, |eng, ctx| eng.tick(now, ctx));
        }
    }

    fn next_event(&self, now: Tick, st: &MachineState) -> Option<Tick> {
        engine_wake(&st.engines[self.index], &st.chans, now)
    }

    fn is_quiescent(&self, _now: Tick, st: &MachineState) -> bool {
        let slot = &st.engines[self.index];
        slot.eng.is_quiescent() && slot.resp.is_empty()
    }

    fn audit_drained(&self, now: Tick, st: &MachineState, san: &Sanitizer) {
        let i = self.index;
        let slot = &st.engines[i];
        san.check(
            slot.eng.is_done() || slot.eng.is_idle(),
            "engine",
            "engine-settled",
            now,
            || format!("engine {i} mid-invocation: {}", slot.eng.stall_debug()),
        );
        san.check(
            slot.eng.is_quiescent(),
            "engine",
            "engine-quiescent",
            now,
            || {
                format!(
                    "engine {i} leaked in-flight memory: {}",
                    slot.eng.stall_debug()
                )
            },
        );
        san.check(
            slot.resp.is_empty(),
            "engine",
            "response-drain",
            now,
            || format!("engine {i}: {} responses never consumed", slot.resp.len()),
        );
    }

    fn stall(&self, _now: Tick, st: &MachineState) -> Option<String> {
        let slot = &st.engines[self.index];
        (!slot.eng.is_done() && !slot.eng.is_idle()).then(|| {
            format!(
                "engine {} (cluster {}): {}",
                self.index,
                slot.cluster,
                slot.eng.stall_debug()
            )
        })
    }
}

/// Stage [`stage::MEM`]: the memory hierarchy advances, then injects its
/// outgoing protocol packets into the mesh (back-pressured: a refused
/// packet returns to the front of the queue).
struct MemComp;

impl Component<MachineState> for MemComp {
    fn name(&self) -> &str {
        "mem"
    }

    fn attach(&mut self, st: &mut MachineState, instr: &Instruments) {
        st.mem.set_tracer(&instr.tracer);
        st.mem.set_sanitizer(instr.san.clone());
    }

    fn tick(&mut self, now: Tick, st: &mut MachineState, _instr: &mut Instruments) {
        // With no queued action, DRAM burst or outgoing packet, both the
        // hierarchy tick and the injection loop below are no-ops
        // (undrained responses are the requester's job, not ours).
        if !st.mem.is_active() {
            return;
        }
        st.mem.tick(now);
        // Peek-then-accept: the packet leaves the memory system's port
        // only once the mesh accepts it, so a refused injection leaves
        // the exact same packet at the head (stable data).
        while let Some(&p) = st.mem.outgoing().front() {
            let wrapped = Packet::new(p.src, p.dst, p.bytes, p.class, NetMsg::Mem(p.payload))
                .with_tenant(p.tenant);
            if st.mesh.try_inject(now, wrapped).is_err() {
                st.mem.outgoing().note_stalls(1);
                break;
            }
            st.mem.outgoing().rx().accept();
        }
    }

    fn next_event(&self, now: Tick, st: &MachineState) -> Option<Tick> {
        st.mem.next_event(now)
    }

    fn is_quiescent(&self, _now: Tick, st: &MachineState) -> bool {
        !st.mem.is_active() && st.mem.pending_responses() == 0
    }

    fn audit_drained(&self, now: Tick, st: &MachineState, _san: &Sanitizer) {
        st.mem.check_drained(now);
    }

    fn stall(&self, _now: Tick, st: &MachineState) -> Option<String> {
        st.mem
            .is_active()
            .then(|| "memory hierarchy active".to_string())
    }
}

/// Stage [`stage::NET_OUT`]: machine-level packets (channel operands,
/// credits, MMIO) inject into the mesh, back-pressured like memory
/// traffic.
struct NetOutComp;

impl Component<MachineState> for NetOutComp {
    fn name(&self) -> &str {
        "net-out"
    }

    fn tick(&mut self, now: Tick, st: &mut MachineState, _instr: &mut Instruments) {
        // Peek-then-accept, as in [`MemComp`]: a refused injection leaves
        // the packet at the head unchanged and charges an injection-stall
        // cycle to the port.
        while let Some(&p) = st.net_out.front() {
            if st.mesh.try_inject(now, p).is_err() {
                st.net_out.note_stalls(1);
                break;
            }
            st.net_out.rx().accept();
        }
    }

    fn next_event(&self, now: Tick, st: &MachineState) -> Option<Tick> {
        (!st.net_out.is_empty()).then_some(now)
    }

    fn is_quiescent(&self, _now: Tick, st: &MachineState) -> bool {
        st.net_out.is_empty()
    }

    fn stall(&self, _now: Tick, st: &MachineState) -> Option<String> {
        (!st.net_out.is_empty())
            .then(|| format!("{} packets queued for injection", st.net_out.len()))
    }
}

/// Stage [`stage::MESH`]: the mesh routes in-flight packets.
struct MeshComp;

impl Component<MachineState> for MeshComp {
    fn name(&self) -> &str {
        "noc"
    }

    fn attach(&mut self, st: &mut MachineState, instr: &Instruments) {
        st.mesh.set_sink(instr.tracer.sink("noc"));
        st.mesh.set_sanitizer(instr.san.clone());
    }

    fn tick(&mut self, now: Tick, st: &mut MachineState, _instr: &mut Instruments) {
        st.mesh.tick(now);
    }

    fn next_event(&self, now: Tick, st: &MachineState) -> Option<Tick> {
        st.mesh.next_event(now)
    }

    fn is_quiescent(&self, _now: Tick, st: &MachineState) -> bool {
        !st.mesh.is_active() && !st.mesh.has_inbox_pending()
    }

    fn audit_drained(&self, now: Tick, st: &MachineState, _san: &Sanitizer) {
        st.mesh.check_drained(now);
    }

    fn stall(&self, _now: Tick, st: &MachineState) -> Option<String> {
        st.mesh.is_active().then(|| "mesh active".to_string())
    }
}

/// Stage `stage::SAMPLE`: freezes the cumulative state of every port
/// plus per-engine busy/stall totals into the windowed sampler ring at
/// each window boundary. Registered lazily by [`Machine::set_sampler`],
/// so a machine without explain sampling carries no trace of it in the
/// hot loop. Ticking last in stage order makes the record the tick's
/// *final* state, identical whether the scheduler stepped or skipped to
/// the boundary (skipped ticks are provably no-ops).
///
/// The component's wake (`next_event`) is the next window boundary —
/// always finite, so with sampling on a genuine deadlock degrades to a
/// tick-budget error instead of an immediate deadlock diagnosis. That
/// trade-off only exists on explain runs.
struct SamplerComp {
    sampler: Sampler,
    /// Cached copy of the sampler's next boundary, refreshed after each
    /// record so the per-tick gate is a field compare, not a lock.
    boundary: Tick,
}

impl Component<MachineState> for SamplerComp {
    fn name(&self) -> &str {
        "sampler"
    }

    fn tick(&mut self, now: Tick, st: &mut MachineState, _instr: &mut Instruments) {
        if now < self.boundary {
            return;
        }
        // Gated engine edges are charged lazily; bring every engine's
        // stall counters (and the port stalls they feed) up to `now`.
        for i in 0..st.engines.len() {
            drive_engine(st, i, now, |eng, ctx| eng.settle(now, ctx));
        }
        let ports = st.port_snapshots();
        let mut counters = Vec::with_capacity(st.engines.len() * 3);
        for (i, s) in st.engines.iter().enumerate() {
            let es = s.eng.stats();
            let period = s.eng.clock().period_ticks();
            let name = port_names::engine(i);
            counters.push((format!("{name}.busy_ticks"), es.busy_cycles * period));
            counters.push((format!("{name}.stall_mem_ticks"), es.stall_mem * period));
            counters.push((format!("{name}.stall_chan_ticks"), es.stall_chan * period));
        }
        let refs: Vec<(&str, u64)> = counters.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        self.sampler.record_at(now, &ports, &refs);
        self.boundary = self.sampler.next_boundary();
    }

    fn next_event(&self, _now: Tick, _st: &MachineState) -> Option<Tick> {
        Some(self.boundary)
    }

    fn is_quiescent(&self, _now: Tick, _st: &MachineState) -> bool {
        true
    }
}

/// The machine: a [`Scheduler`] composed over [`MachineState`]. Construct
/// with [`Machine::new`], configure plans, then alternate host segments
/// and offload invocations.
#[derive(Debug)]
pub struct Machine {
    sched: Scheduler<MachineState>,
    st: MachineState,
    /// The attached windowed sampler (disabled unless
    /// [`Machine::set_sampler`] ran with an enabled one).
    sampler: Sampler,
}

impl Machine {
    /// Builds the machine described by `topo`: a `mesh_cols x mesh_rows`
    /// mesh with one NUCA cluster per node, the host at
    /// `topo.host_node` and the memory controller at `topo.memctrl_node`
    /// ([`Topology::paper`] reproduces Table III's 4x2 shape). The caller
    /// supplies the (already allocated) memory system, functional image
    /// and layout.
    ///
    /// # Panics
    ///
    /// Panics if the memory system was built for a different cluster
    /// count than `topo` describes.
    pub fn new(
        mem: MemSystem,
        memimg: Memory,
        layout: Layout,
        host_width: u32,
        host_rob: usize,
        topo: &Topology,
    ) -> Self {
        assert_eq!(
            mem.config().clusters,
            topo.clusters(),
            "memory system built for a different cluster count than the topology"
        );
        let uncore = mem.clock();
        let mut mem = mem;
        let host_port = mem.register_port(PortKind::Host);
        let host = HostCore::new(uncore, host_width, host_rob, host_port);
        let mut st = MachineState {
            mesh: Mesh::new(topo.mesh_cols, topo.mesh_rows, NocConfig::default(), uncore),
            mem,
            host,
            memimg,
            layout,
            chans: Vec::new(),
            engines: Vec::new(),
            plans: Vec::new(),
            // Base provisioning covers host MMIO bursts; configuring a
            // plan grows the bound by each remote channel's worst-case
            // in-flight traffic (see `configure_plan_for_tenant`).
            net_out: Channel::bounded(64.max(2 * topo.clusters())),
            host_node: topo.host_node,
            mmio_words: 0,
            tenant_views: Vec::new(),
            chan_engines: Vec::new(),
            sink: TraceSink::default(),
            host_sink: TraceSink::default(),
            chan_sink: TraceSink::default(),
            skip: distda_sim::env::skip(),
        };
        let mut sched = Scheduler::new(TICK_BUDGET, st.skip);
        // Registration order is also instrument-attach order (stable trace
        // track IDs); stages give the intra-tick phase order.
        sched.register(stage::DELIVERY, Box::new(DeliveryComp), &mut st);
        sched.register(stage::HOST, Box::new(HostComp), &mut st);
        sched.register(stage::NET_OUT, Box::new(ChannelsComp), &mut st);
        sched.register(stage::MEM, Box::new(MemComp), &mut st);
        sched.register(stage::NET_OUT, Box::new(NetOutComp), &mut st);
        sched.register(stage::MESH, Box::new(MeshComp), &mut st);
        Self {
            sched,
            st,
            sampler: Sampler::disabled(),
        }
    }

    /// Current base tick.
    pub fn now(&self) -> Tick {
        self.sched.now()
    }

    /// Attaches a tracer to every component. Call before
    /// [`Machine::configure_plan`] so engine sinks are created too; a
    /// disabled tracer (the default) costs nothing.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        // The machine's own track registers first so track IDs are stable.
        self.st.sink = tracer.sink("machine");
        let san = self.sched.instruments().san.clone();
        let prof = self.sched.instruments().prof.clone();
        self.sched
            .set_instruments(&mut self.st, Instruments { tracer, san, prof });
    }

    /// The attached tracer (disabled unless [`Machine::set_tracer`] ran).
    pub fn tracer(&self) -> &Tracer {
        &self.sched.instruments().tracer
    }

    /// Attaches an invariant sanitizer to every component. With it on, the
    /// run loops stop with [`SimError::InvariantViolation`] as soon as a
    /// conservation law breaks, and [`Machine::drain`] audits the drained
    /// state. A disabled sanitizer (the default) costs nothing.
    pub fn set_sanitizer(&mut self, san: Sanitizer) {
        let tracer = self.sched.instruments().tracer.clone();
        let prof = self.sched.instruments().prof.clone();
        self.sched
            .set_instruments(&mut self.st, Instruments { tracer, san, prof });
    }

    /// Attaches a scheduler self-profiler: every registered component's
    /// `tick()` is timed against the host monotonic clock, wake targets and
    /// skip spans are counted. A disabled profiler (the default) costs one
    /// branch per tick. Profiling never perturbs simulated results.
    pub fn set_profiler(&mut self, prof: distda_sim::Profiler) {
        let tracer = self.sched.instruments().tracer.clone();
        let san = self.sched.instruments().san.clone();
        self.sched
            .set_instruments(&mut self.st, Instruments { tracer, san, prof });
    }

    /// Snapshot of the attached self-profiler (`None` when disabled),
    /// with the utilization window closed at the current tick.
    pub fn profile(&self) -> Option<distda_sim::ProfileSnapshot> {
        self.sched.instruments().prof.snapshot_at(self.sched.now())
    }

    /// Attaches a windowed port/counter sampler. An enabled sampler
    /// registers a `stage::SAMPLE` component that freezes cumulative
    /// port and engine statistics at every window boundary; a disabled
    /// one (the default) registers nothing, so the tick loop is exactly
    /// the un-sampled one and results stay byte-identical. Call at most
    /// once per machine, before running.
    ///
    /// # Panics
    ///
    /// Panics if an enabled sampler was already attached.
    pub fn set_sampler(&mut self, sampler: Sampler) {
        if !sampler.on() {
            return;
        }
        assert!(!self.sampler.on(), "sampler already attached");
        self.sampler = sampler.clone();
        let boundary = sampler.next_boundary();
        self.sched.register(
            stage::SAMPLE,
            Box::new(SamplerComp { sampler, boundary }),
            &mut self.st,
        );
    }

    /// The attached sampler (disabled unless [`Machine::set_sampler`]
    /// ran with an enabled one).
    pub fn sampler(&self) -> &Sampler {
        &self.sampler
    }

    /// The blame topology of every handshaked port: which component
    /// accumulated stall cycles there, how many (per-waiter attribution,
    /// in the waiter's clock cycles), and which component those cycles
    /// indict. Operand channels get one edge per side from the
    /// configured plans — a send-blocked producer blames the consumer
    /// (back-pressure), a recv-starved consumer blames the producer —
    /// each carrying that engine's own attributed stalls. The structural
    /// ports are fixed: injection back-pressure indicts the mesh,
    /// response starvation indicts the memory system, inbox pressure
    /// indicts delivery; their stalls are the raw port counters (base
    /// ticks).
    pub fn port_topology(&self) -> Vec<distda_explain::Edge> {
        use distda_explain::Edge;
        let attributed = |ei: usize, g: usize| -> u64 {
            let slot = &self.st.engines[ei];
            slot.chan_stalls[g - slot.chan_base]
        };
        let mut edges = Vec::new();
        for (g, &(p, c)) in self.st.chan_engines.iter().enumerate() {
            edges.push(Edge::new(
                port_names::chan(g),
                port_names::engine(p),
                port_names::engine(c),
                attributed(p, g),
            ));
            if c != p {
                edges.push(Edge::new(
                    port_names::chan(g),
                    port_names::engine(c),
                    port_names::engine(p),
                    attributed(c, g),
                ));
            }
        }
        edges.push(Edge::new(
            port_names::NET_OUT,
            port_names::HOST,
            port_names::NOC,
            self.st.net_out.snapshot(port_names::NET_OUT).stalls,
        ));
        edges.push(Edge::new(
            port_names::MEM_OUT,
            port_names::MEM,
            port_names::NOC,
            self.st.mem.out_snapshot().stalls,
        ));
        for p in self.st.mem.ports() {
            let (waiter, stalls) = match self.st.engines.iter().position(|s| s.port == p) {
                Some(i) => (port_names::engine(i), self.st.engines[i].mem_stalls),
                None => (
                    port_names::HOST.to_string(),
                    self.st.mem.resp_snapshot(p).stalls,
                ),
            };
            edges.push(Edge::new(
                port_names::mem_resp(p.0 as usize),
                waiter,
                port_names::MEM,
                stalls,
            ));
        }
        for s in self.st.mesh.inbox_snapshots() {
            let stalls = s.stalls;
            edges.push(Edge::new(
                s.name,
                port_names::NOC,
                port_names::DELIVERY,
                stalls,
            ));
        }
        edges
    }

    /// Per-engine totals converted to base ticks, the engine half of an
    /// explain [`Observation`](distda_explain::Observation).
    pub fn engine_observations(&self) -> Vec<distda_explain::EngineObs> {
        self.st
            .engines
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let es = s.eng.stats();
                let period = s.eng.clock().period_ticks();
                distda_explain::EngineObs {
                    name: port_names::engine(i),
                    busy_ticks: es.busy_cycles * period,
                    stall_mem_ticks: es.stall_mem * period,
                    stall_chan_ticks: es.stall_chan * period,
                    period_ticks: period,
                }
            })
            .collect()
    }

    /// The full explain observation of this machine's run so far:
    /// ports, blame topology, engine accounting and (when a sampler was
    /// attached) the windowed time series.
    pub fn observation(&self) -> distda_explain::Observation {
        distda_explain::Observation {
            ticks: self.now(),
            ports: self.port_snapshots(),
            edges: self.port_topology(),
            engines: self.engine_observations(),
            samples: self.sampler.dump(),
        }
    }

    fn san(&self) -> &Sanitizer {
        &self.sched.instruments().san
    }

    /// Fails with [`SimError::InvariantViolation`] if the sanitizer has
    /// recorded anything.
    fn check_sanitizer(&self, phase: &'static str) -> Result<(), SimError> {
        let count = self.san().count();
        if count > 0 {
            return Err(SimError::InvariantViolation {
                phase,
                now: self.now(),
                count,
                report: self.san().render(),
            });
        }
        Ok(())
    }

    fn map_stop(phase: &'static str, stop: Stop) -> SimError {
        match stop {
            Stop::Budget {
                now,
                budget,
                stalled,
            } => SimError::TickBudgetExhausted {
                phase,
                now,
                budget,
                stalled,
            },
            Stop::Deadlock { now, stalled } => SimError::Deadlock {
                phase,
                now,
                stalled,
            },
            Stop::Invariant { now, count, report } => SimError::InvariantViolation {
                phase,
                now,
                count,
                report,
            },
        }
    }

    /// Enables or disables idle skip-ahead (on by default; `DISTDA_SKIP=0`
    /// disables it process-wide). Simulated results are bit-identical
    /// either way — skipping only avoids spending host time on base ticks
    /// during which no component can do observable work.
    pub fn set_skip(&mut self, on: bool) {
        self.sched.set_skip(on);
        self.st.skip = on;
    }

    /// The scheduler (clock, registered components, instruments).
    pub fn scheduler(&self) -> &Scheduler<MachineState> {
        &self.sched
    }

    /// The machine's world state.
    pub fn state(&self) -> &MachineState {
        &self.st
    }

    /// The functional memory image.
    pub fn memimg(&self) -> &Memory {
        &self.st.memimg
    }

    /// Mutable functional memory (used by the host evaluator).
    pub fn memimg_mut(&mut self) -> &mut Memory {
        &mut self.st.memimg
    }

    /// Consumes the machine, returning the final memory image.
    pub fn into_memimg(self) -> Memory {
        self.st.memimg
    }

    /// The address layout.
    pub fn layout(&self) -> &Layout {
        &self.st.layout
    }

    /// The memory hierarchy (for statistics).
    pub fn mem(&self) -> &MemSystem {
        &self.st.mem
    }

    /// NoC statistics.
    pub fn noc_stats(&self) -> &distda_noc::NocStats {
        self.st.mesh.stats()
    }

    /// Host core statistics.
    pub fn host_stats(&self) -> crate::host::HostStats {
        self.st.host.stats()
    }

    /// Total MMIO configuration words issued.
    pub fn mmio_words(&self) -> u64 {
        self.st.mmio_words
    }

    /// `cp_config` + `cp_config_stream/random`: allocates engines for a
    /// plan, placing partition `i` at `placement[i]` with `substrates[i]`.
    /// Flushes host-cached copies of every accessed object (Section IV-D)
    /// and charges configuration MMIO.
    ///
    /// # Panics
    ///
    /// Panics if placements/substrates lengths mismatch the plan.
    pub fn configure_plan(
        &mut self,
        plan: &OffloadPlan,
        placement: &[usize],
        substrates: &[Substrate],
        object_ranges: &[(u64, u64)],
    ) -> PlanHandle {
        self.configure_plan_for_tenant(plan, placement, substrates, object_ranges, 0)
    }

    /// Registers an additional tenant with its own functional image and
    /// address layout, returning its tenant id. The machine's primary
    /// image/layout is tenant 0; tenants added here execute through their
    /// own views while sharing the fabric, NUCA banks and DRAM with
    /// everyone else.
    pub fn add_tenant(&mut self, memimg: Memory, layout: Layout) -> u16 {
        self.st.tenant_views.push((memimg, layout));
        self.st.tenant_views.len() as u16
    }

    /// The functional memory image of `tenant` (0 = the primary image).
    pub fn tenant_memimg(&self, tenant: u16) -> &Memory {
        if tenant == 0 {
            &self.st.memimg
        } else {
            &self.st.tenant_views[tenant as usize - 1].0
        }
    }

    /// Mutable [`Machine::tenant_memimg`], for host-phase execution on a
    /// tenant's functional view.
    pub fn tenant_memimg_mut(&mut self, tenant: u16) -> &mut Memory {
        if tenant == 0 {
            &mut self.st.memimg
        } else {
            &mut self.st.tenant_views[tenant as usize - 1].0
        }
    }

    /// Per-engine statistics summed over the engines owned by `tenant`.
    pub fn tenant_engine_totals(&self, tenant: u16) -> distda_accel::EngineStats {
        let mut t = distda_accel::EngineStats::default();
        for s in self.st.engines.iter().filter(|s| s.tenant == tenant) {
            let es = s.eng.stats();
            t.iterations += es.iterations;
            t.busy_cycles += es.busy_cycles;
            t.stall_mem += es.stall_mem;
            t.stall_chan += es.stall_chan;
            t.alu_ops += es.alu_ops;
            t.mem_ops += es.mem_ops;
            t.intra_bytes += es.intra_bytes;
            t.da_bytes += es.da_bytes;
            t.aa_bytes += es.aa_bytes;
            t.mmio_words += es.mmio_words;
        }
        t
    }

    /// [`Machine::configure_plan`] on behalf of `tenant`: the plan's
    /// engines read and write the tenant's functional view, and all
    /// traffic they cause is attributed to the tenant in the NoC stats.
    ///
    /// # Panics
    ///
    /// Panics if placements/substrates lengths mismatch the plan or the
    /// tenant was never registered.
    pub fn configure_plan_for_tenant(
        &mut self,
        plan: &OffloadPlan,
        placement: &[usize],
        substrates: &[Substrate],
        object_ranges: &[(u64, u64)],
        tenant: u16,
    ) -> PlanHandle {
        assert!(
            tenant as usize <= self.st.tenant_views.len(),
            "tenant {tenant} not registered"
        );
        assert_eq!(placement.len(), plan.partitions.len());
        assert_eq!(substrates.len(), plan.partitions.len());
        let chan_base = self.st.chans.len();
        for ch in &plan.channels {
            let c = ChanState::new(
                placement[ch.producer as usize],
                placement[ch.consumer as usize],
                CHAN_CAPACITY,
            );
            if !c.is_local() {
                // Size the injection port for this channel's worst-case
                // in-flight traffic: every credited operand plus the
                // credit-return packets they can provoke. The bound stays
                // real (a hostile producer cannot queue beyond it) while
                // provably never refusing well-behaved channel traffic.
                self.st
                    .net_out
                    .grow(CHAN_CAPACITY + CHAN_CAPACITY / ChanState::CREDIT_BATCH);
            }
            self.st.chans.push(c);
        }
        let handle = self.st.plans.len();
        let mut engine_ids = Vec::new();
        let mut carry_scalars = Vec::new();
        let mut config_words = 0u64;
        for (i, part) in plan.partitions.iter().enumerate() {
            let sub = substrates[i];
            let port = self.st.mem.register_port(PortKind::Acp {
                cluster: placement[i],
            });
            let mut eng = PartitionEngine::new(
                part.clone(),
                plan.params.clone(),
                sub.model,
                sub.clock,
                sub.buffer_lines,
            );
            let (pf, mr, mw) = sub.tuning;
            eng.set_tuning(pf, mr, mw);
            let index = self.st.engines.len();
            engine_ids.push(index);
            carry_scalars.push(part.carry_scalars.clone());
            self.st.engines.push(EngineSlot {
                eng,
                cluster: placement[i],
                port,
                resp: Vec::new(),
                chan_base,
                is_access_node: sub.is_access_node,
                is_cgra: matches!(sub.model, IssueModel::Cgra { .. }),
                tenant,
                mem_stalls: 0,
                chan_stalls: vec![0; plan.channels.len()],
            });
            // Registration wires the engine into the tick loop, wake
            // probe, drain predicate and drain audit — and attaches the
            // current instruments (its trace sink).
            self.sched.register(
                stage::ENGINE,
                Box::new(EngineComp {
                    index,
                    name: format!("engine.{index}"),
                }),
                &mut self.st,
            );
            // Configuration traffic: microcode + one word per access.
            let words = (part.microcode_bytes() / 8 + part.accesses.len() + 1) as u64;
            config_words += words;
            self.push_mmio_packet(placement[i], (words * 8) as u32, tenant);
        }
        // Offload-boundary flush of host-cached object lines.
        for &(s, e) in object_ranges {
            self.st.mem.flush_host_range(s, e);
        }
        // Blame topology of the just-created channels: the producer
        // engine accumulates stall cycles, the consumer engine is
        // indicted (it failed to drain the ring).
        for ch in &plan.channels {
            self.st.chan_engines.push((
                engine_ids[ch.producer as usize],
                engine_ids[ch.consumer as usize],
            ));
        }
        let liveouts = plan
            .liveouts
            .iter()
            .map(|&(s, p, r)| (s, engine_ids[p as usize], r))
            .collect();
        let engine_count = engine_ids.len() as u32;
        self.st.plans.push(PlanInst {
            engines: engine_ids,
            liveouts,
            carry_scalars,
            params: plan.params.clone(),
            tenant,
        });
        self.st.sink.instant(
            self.now(),
            EventKind::OffloadDispatch {
                plan: handle as u32,
                engines: engine_count,
                config_words,
            },
        );
        self.charge_mmio(config_words);
        handle
    }

    fn push_mmio_packet(&mut self, cluster: usize, bytes: u32, tenant: u16) {
        if cluster == self.st.host_node {
            return;
        }
        let mut pkt = Packet::new(
            self.st.host_node,
            cluster,
            bytes,
            TrafficClass::HostCtrl,
            NetMsg::Mmio,
        )
        .with_tenant(tenant);
        // The host blocks on a full injection port — real back-pressure
        // on the configuration path instead of an elastic queue. The
        // re-offered packet is the refused one, unchanged (stable data).
        loop {
            match self.st.net_out.tx().offer(pkt) {
                Ok(()) => return,
                Err(back) => {
                    pkt = back;
                    self.advance_ticks(1);
                }
            }
        }
    }

    fn charge_mmio(&mut self, words: u64) {
        self.st.mmio_words += words;
        let ticks = self
            .st
            .mem
            .clock()
            .ticks_for_cycles(words * MMIO_CYCLES_PER_WORD);
        let t0 = self.now();
        self.advance_ticks(ticks);
        if words > 0 {
            self.st
                .sink
                .span(t0, self.now(), EventKind::MmioTransfer { words });
        }
    }

    /// Carry scalars of each partition of a configured plan (the values the
    /// host must pass to [`Machine::launch`]).
    pub fn plan_carry_scalars(&self, handle: PlanHandle) -> &[Vec<distda_ir::expr::ScalarId>] {
        &self.st.plans[handle].carry_scalars
    }

    /// The plan's parameter table.
    pub fn plan_params(&self, handle: PlanHandle) -> &[distda_compiler::affine::Sym] {
        &self.st.plans[handle].params
    }

    /// `cp_set_rf` + `cp_run` on every partition of a plan.
    ///
    /// # Panics
    ///
    /// Panics if any engine of the plan is still busy.
    pub fn launch(
        &mut self,
        handle: PlanHandle,
        params: &[Value],
        carry_init: &[Vec<Value>],
        start: i64,
        end: i64,
        step: i64,
    ) {
        // Between invocations all queues have drained; restore any credits
        // still batched on the consumer side.
        for ch in &mut self.st.chans {
            ch.flow.restore();
        }
        let engine_ids = self.st.plans[handle].engines.clone();
        let tenant = self.st.plans[handle].tenant;
        let mut words = 0u64;
        for (k, &ei) in engine_ids.iter().enumerate() {
            let now = self.now();
            let cluster = self.st.engines[ei].cluster;
            self.st.engines[ei]
                .eng
                .run(now, params, &carry_init[k], start, end, step);
            words += params.len() as u64 + carry_init[k].len() as u64 + 2;
            self.push_mmio_packet(
                cluster,
                ((params.len() + carry_init[k].len() + 2) * 8) as u32,
                tenant,
            );
        }
        self.charge_mmio(words);
    }

    /// Whether every engine of a plan has finished its invocation.
    pub fn plan_done(&self, handle: PlanHandle) -> bool {
        self.st.plan_done(handle)
    }

    /// Runs the machine until the plan's engines finish (the host blocking
    /// on `cp_consume`, Section V-B).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the tick budget is exhausted or skip-ahead
    /// proves the plan can never finish.
    pub fn run_offload(&mut self, handle: PlanHandle) -> Result<(), SimError> {
        self.run_until("offload", move |_, st| st.plan_done(handle))
    }

    /// Runs the machine until `done(now, state)` holds, checked before
    /// every tick, with the budget/deadlock guards of the other run
    /// loops. `phase` labels any resulting [`SimError`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on budget exhaustion or a proven deadlock.
    pub fn run_until(
        &mut self,
        phase: &'static str,
        done: impl FnMut(Tick, &MachineState) -> bool,
    ) -> Result<(), SimError> {
        let t0 = self.now();
        let r = self
            .sched
            .run_until(&mut self.st, done)
            .map_err(|s| Self::map_stop(phase, s));
        if r.is_ok() {
            self.st
                .sink
                .span(t0, self.now(), EventKind::KernelPhase { phase });
            // A violation flagged on the final tick (after the loop's last
            // check) must still fail the phase.
            self.check_sanitizer(phase)?;
        }
        r
    }

    /// `cp_load_rf`: reads live-out scalars after completion.
    pub fn read_liveouts(&mut self, handle: PlanHandle) -> Vec<(distda_ir::expr::ScalarId, Value)> {
        let outs: Vec<_> = self.st.plans[handle]
            .liveouts
            .iter()
            .map(|&(s, ei, reg)| (s, self.st.engines[ei].eng.carry_value(reg)))
            .collect();
        self.charge_mmio(outs.len() as u64);
        outs
    }

    /// Executes a host trace segment to completion.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the segment cannot drain within the budget.
    pub fn run_host_segment(&mut self, ops: Vec<DynOp>) -> Result<(), SimError> {
        if ops.is_empty() {
            return Ok(());
        }
        let now = self.now();
        self.st.host_sink.instant(
            now,
            EventKind::HostSegment {
                ops: ops.len() as u64,
            },
        );
        self.st.host.load_segment(now, ops);
        self.run_until("host-segment", |now, st| st.host.segment_drained(now))
    }

    /// Advances the machine `n` base ticks.
    pub fn advance_ticks(&mut self, n: u64) {
        self.sched.advance_ticks(&mut self.st, n);
    }

    /// Drains all in-flight work (end of program): runs until every
    /// registered component is quiescent, then audits the drained state
    /// against every conservation invariant (a fold of each component's
    /// audit; a no-op with the sanitizer off).
    ///
    /// The exit condition requires every produced memory response to be
    /// collected, every mesh inbox to be empty, and every engine to be
    /// quiescent — quiescence is each component's own
    /// [`Component::is_quiescent`], so a component with a hidden queue
    /// cannot be forgotten by this loop (the bug class that twice
    /// produced "drained" machines with stranded packets).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if in-flight work cannot drain within the
    /// budget, or if the sanitizer finds the drained state violating a
    /// conservation invariant.
    pub fn drain(&mut self) -> Result<(), SimError> {
        let t0 = self.now();
        self.sched
            .drain(&mut self.st)
            .map_err(|s| Self::map_stop("drain", s))?;
        self.st
            .sink
            .span(t0, self.now(), EventKind::KernelPhase { phase: "drain" });
        Ok(())
    }

    /// One base tick.
    pub fn tick(&mut self) {
        self.sched.tick(&mut self.st);
    }

    /// Drives the machine to quiescence under the component-conformance
    /// harness (see [`distda_sim::conformance`]), returning every
    /// protocol violation observed: wake times in the past, broken wake
    /// promises, components active with no scheduled event, or failure
    /// to drain within `budget` ticks. Test-oriented; prefer
    /// [`Machine::drain`] in simulation flows.
    pub fn run_conformance(&mut self, budget: u64) -> Vec<distda_sim::conformance::Violation> {
        distda_sim::conformance::run_to_quiescence(&mut self.sched, &mut self.st, budget)
    }

    /// Aggregates energy-relevant event counts.
    pub fn energy_counters(&self) -> EnergyCounters {
        let mut c = EnergyCounters {
            host_ops: self.st.host.stats().retired,
            ..Default::default()
        };
        c.l1_accesses = self.st.mem.l1_stats().accesses;
        c.l2_accesses = self.st.mem.l2_stats().accesses;
        c.l3_accesses = self.st.mem.l3_stats().accesses;
        let (dr, dw) = self.st.mem.dram_counts();
        c.dram_accesses = dr + dw;
        c.noc_hop_bytes = self.st.mesh.stats().total_hop_bytes();
        c.flushed_lines = self.st.mem.sys_stats().flushed_lines;
        c.mmio_words = self.st.mmio_words;
        for s in &self.st.engines {
            let es = s.eng.stats();
            // Element accesses and line moves are access-unit work in every
            // configuration (the FSM performs them, Figure 2c) — stream
            // loads/stores are therefore charged as buffer energy, not as
            // core microcode ops, for Mono and Dist alike.
            c.buffer_elem_accesses += es.intra_bytes / 8;
            c.buffer_line_moves += es.da_bytes / 64;
            let chan_ops = es.aa_bytes / 4; // sends + matching recvs
            if s.is_access_node {
                c.buffer_elem_accesses += es.alu_ops;
            } else if s.is_cgra {
                c.cgra_ops += es.alu_ops + chan_ops;
            } else {
                c.io_ops += es.alu_ops + chan_ops;
            }
        }
        c
    }

    /// Sums engine traffic: (intra bytes, D-A bytes, A-A bytes) — Figure 9.
    pub fn access_distribution(&self) -> (u64, u64, u64) {
        let mut t = (0, 0, 0);
        for s in &self.st.engines {
            let es = s.eng.stats();
            t.0 += es.intra_bytes;
            t.1 += es.da_bytes;
            t.2 += es.aa_bytes;
        }
        t
    }

    /// Statistics of every handshaked port in the machine (see
    /// [`MachineState::port_snapshots`]).
    pub fn port_snapshots(&self) -> Vec<PortSnapshot> {
        self.st.port_snapshots()
    }

    /// Per-port occupancy/stall statistics as a report (`<port>.pushed`,
    /// `<port>.high_water`, `<port>.stalls`), merged under the `port.`
    /// prefix into run reports and exported by the obs registry as
    /// `distda_port_*` series. Ports that never moved a value are
    /// omitted to keep reports proportional to the traffic that existed.
    pub fn port_report(&self) -> distda_sim::Report {
        let mut r = distda_sim::Report::new();
        for s in self.port_snapshots() {
            if s.pushed == 0 && s.stalls == 0 {
                continue;
            }
            r.add(format!("{}.pushed", s.name), s.pushed as f64);
            r.add(format!("{}.high_water", s.name), s.high_water as f64);
            r.add(format!("{}.stalls", s.name), s.stalls as f64);
        }
        r
    }

    /// Sums accelerator-side statistics.
    pub fn engine_totals(&self) -> distda_accel::EngineStats {
        let mut t = distda_accel::EngineStats::default();
        for s in &self.st.engines {
            let es = s.eng.stats();
            t.iterations += es.iterations;
            t.busy_cycles += es.busy_cycles;
            t.stall_mem += es.stall_mem;
            t.stall_chan += es.stall_chan;
            t.alu_ops += es.alu_ops;
            t.mem_ops += es.mem_ops;
            t.intra_bytes += es.intra_bytes;
            t.da_bytes += es.da_bytes;
            t.aa_bytes += es.aa_bytes;
            t.mmio_words += es.mmio_words;
        }
        t
    }
}

struct Ctx<'a> {
    now: Tick,
    port: PortId,
    chan_base: usize,
    tenant: u16,
    mem: &'a mut MemSystem,
    chans: &'a mut Vec<ChanState>,
    net_out: &'a mut Channel<Packet<NetMsg>>,
    memimg: &'a mut Memory,
    layout: &'a Layout,
    resp: &'a mut Vec<u64>,
    chan_sink: &'a TraceSink,
    mem_stalls: &'a mut u64,
    chan_stalls: &'a mut [u64],
}

impl EngineCtx for Ctx<'_> {
    fn try_send(&mut self, chan: u16, v: Value) -> bool {
        let g = self.chan_base + chan as usize;
        let ch = &mut self.chans[g];
        if ch.flow.credits() == 0 {
            return false;
        }
        if ch.is_local() {
            if !ch.flow.take() {
                return false;
            }
            // Credits bound occupancy, so the offer cannot be refused.
            assert!(ch.queue.tx().offer(v).is_ok(), "credits bound occupancy");
            if self.chan_sink.on() {
                self.chan_sink
                    .sample(self.now, &port_names::chan(g), ch.queue.len() as f64);
            }
        } else {
            // The operand packet must win a slot at the injection port
            // *before* the credit is spent — a refused offer leaves the
            // channel state untouched and the engine simply retries.
            let pkt = Packet::new(
                ch.producer_cluster,
                ch.consumer_cluster,
                8,
                TrafficClass::AccData,
                NetMsg::ChanData { chan: g as u16, v },
            )
            .with_tenant(self.tenant);
            if self.net_out.tx().offer(pkt).is_err() {
                return false;
            }
            assert!(ch.flow.take(), "credit checked above");
        }
        true
    }

    fn try_recv(&mut self, chan: u16) -> Option<Value> {
        let g = self.chan_base + chan as usize;
        let ch = &mut self.chans[g];
        if !ch.is_local() && ch.flow.defer_would_flush() && !self.net_out.tx().ready() {
            // Accepting this operand would flush a credit batch that the
            // injection port cannot take; refuse the pop (the operand
            // stays at the head — stable data) and retry next cycle.
            return None;
        }
        let v = ch.queue.rx().accept()?;
        if self.chan_sink.on() {
            self.chan_sink
                .sample(self.now, &port_names::chan(g), ch.queue.len() as f64);
        }
        if ch.is_local() {
            ch.flow.put();
        } else if let Some(n) = ch.flow.defer() {
            let pkt = Packet::new(
                ch.consumer_cluster,
                ch.producer_cluster,
                0,
                TrafficClass::AccCtrl,
                NetMsg::ChanCredit {
                    chan: g as u16,
                    n: n as u16,
                },
            )
            .with_tenant(self.tenant);
            // Ready-checked above before the pop committed.
            assert!(
                self.net_out.tx().offer(pkt).is_ok(),
                "injection port readiness checked before accepting"
            );
        }
        Some(v)
    }

    fn note_chan_stall(&mut self, chan: u16, n: u64) {
        let g = self.chan_base + chan as usize;
        self.chans[g].queue.note_stalls(n);
        self.chan_stalls[chan as usize] += n;
    }

    fn note_mem_stall(&mut self, n: u64) {
        *self.mem_stalls += n;
    }

    fn mem_read(&mut self, req_id: u64, addr: u64) -> bool {
        self.mem
            .try_request(
                self.now,
                MemRequest {
                    port: self.port,
                    id: req_id,
                    addr,
                    write: false,
                },
            )
            .is_ok()
    }

    fn mem_write(&mut self, req_id: u64, addr: u64) -> bool {
        self.mem
            .try_request(
                self.now,
                MemRequest {
                    port: self.port,
                    id: req_id,
                    addr,
                    write: true,
                },
            )
            .is_ok()
    }

    fn poll_mem(&mut self) -> Option<u64> {
        self.resp.pop()
    }

    fn func_load(&mut self, array: ArrayId, idx: i64) -> Value {
        self.memimg.load(array, idx)
    }

    fn func_store(&mut self, array: ArrayId, idx: i64, v: Value) {
        self.memimg.store(array, idx, v);
    }

    fn addr_of(&self, array: ArrayId, idx: i64) -> u64 {
        self.layout.addr(array, idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distda_compiler::{compile, PartitionMode};
    use distda_ir::prelude::*;
    use distda_mem::MemConfig;

    fn axpy_setup() -> (
        Program,
        distda_compiler::CompiledKernel,
        Machine,
        ArrayId,
        ArrayId,
    ) {
        let mut b = ProgramBuilder::new("axpy");
        let x = b.array_f64("x", 64);
        let y = b.array_f64("y", 64);
        b.for_(0, 64, 1, |b, i| {
            let v = Expr::cf(2.0) * Expr::load(x, i.clone()) + Expr::load(y, i.clone());
            b.store(y, i, v);
        });
        let p = b.build();
        let ck = compile(&p, PartitionMode::Distributed);
        let uncore = ClockDomain::from_ghz(2.0);
        let mut mem = MemSystem::new(MemConfig::default(), uncore, 0, 7);
        let alloc = crate::alloc::allocate(
            &p,
            &ck.offloads,
            8,
            crate::alloc::AllocStrategy::RoundRobin,
            &mut mem,
        );
        let mut img = Memory::for_program(&p);
        for i in 0..64 {
            img.array_mut(x)[i] = Value::F(i as f64);
            img.array_mut(y)[i] = Value::F(1.0);
        }
        let machine = Machine::new(mem, img, alloc.layout, 5, 224, &Topology::paper());
        (p, ck, machine, x, y)
    }

    fn io_substrate(access_node: bool) -> Substrate {
        Substrate {
            model: IssueModel::InOrder { width: 1 },
            clock: ClockDomain::from_ghz(2.0),
            buffer_lines: 64,
            is_access_node: access_node,
            tuning: (4, 8, 16),
        }
    }

    #[test]
    fn distributed_axpy_runs_to_completion_with_correct_values() {
        let (_p, ck, mut m, _x, y) = axpy_setup();
        let plan = &ck.offloads[0];
        let placement = vec![0usize, 1];
        let subs = vec![io_substrate(false); 2];
        let h = m.configure_plan(plan, &placement, &subs, &[]);
        m.launch(h, &[], &[vec![], vec![]], 0, 64, 1);
        m.run_offload(h).unwrap();
        for i in 0..64 {
            assert_eq!(m.memimg().array(y)[i], Value::F(2.0 * i as f64 + 1.0));
        }
        // Cross-cluster operand traffic must have used the mesh.
        let stats = m.noc_stats();
        assert!(stats.bytes[TrafficClass::AccData.index()] > 0);
    }

    #[test]
    fn co_located_partitions_avoid_channel_noc_traffic() {
        // Same kernel twice: partitions split across clusters vs co-located.
        // Co-location eliminates the channel's share of AccData (remote ACP
        // line fills remain in both).
        let run = |placement: [usize; 2]| {
            let (_p, ck, mut m, _x, _y) = axpy_setup();
            let plan = &ck.offloads[0];
            let h = m.configure_plan(plan, &placement, &[io_substrate(false); 2], &[]);
            m.launch(h, &[], &[vec![], vec![]], 0, 64, 1);
            m.run_offload(h).unwrap();
            m.noc_stats().bytes[TrafficClass::AccData.index()]
        };
        let split = run([2, 5]);
        let colocated = run([2, 2]);
        assert!(
            colocated < split,
            "co-located {colocated} should move fewer operand bytes than split {split}"
        );
    }

    #[test]
    fn host_segment_and_offload_interleave() {
        let (_p, ck, mut m, x, _y) = axpy_setup();
        // Host writes x[0..4] first (trace ops), then offload runs.
        use distda_ir::trace::{DynOp, OpKind, NO_DEP};
        let base = m.layout().base(x);
        let ops: Vec<DynOp> = (0..4)
            .map(|i| DynOp {
                kind: OpKind::Store { addr: base + i * 8 },
                dep1: NO_DEP,
                dep2: NO_DEP,
            })
            .collect();
        m.run_host_segment(ops).unwrap();
        let t_after_host = m.now();
        assert!(t_after_host > 0);
        let plan = &ck.offloads[0];
        let h = m.configure_plan(plan, &[0, 1], &[io_substrate(false); 2], &[]);
        m.launch(h, &[], &[vec![], vec![]], 0, 64, 1);
        m.run_offload(h).unwrap();
        assert!(m.now() > t_after_host);
        assert_eq!(m.host_stats().retired, 4);
    }

    #[test]
    fn reduction_liveout_read_back() {
        let mut b = ProgramBuilder::new("sum");
        let x = b.array_i64("x", 32);
        let acc = b.scalar("acc", 0i64);
        b.for_(0, 32, 1, |b, i| {
            b.set(acc, Expr::Scalar(acc) + Expr::load(x, i));
        });
        let p = b.build();
        let ck = compile(&p, PartitionMode::Distributed);
        let uncore = ClockDomain::from_ghz(2.0);
        let mut mem = MemSystem::new(MemConfig::default(), uncore, 0, 7);
        let alloc = crate::alloc::allocate(
            &p,
            &ck.offloads,
            8,
            crate::alloc::AllocStrategy::RoundRobin,
            &mut mem,
        );
        let mut img = Memory::for_program(&p);
        for i in 0..32 {
            img.array_mut(x)[i] = Value::I(i as i64);
        }
        let mut m = Machine::new(mem, img, alloc.layout, 5, 224, &Topology::paper());
        let plan = &ck.offloads[0];
        let placements: Vec<usize> = (0..plan.partitions.len()).collect();
        let subs = vec![io_substrate(false); plan.partitions.len()];
        let h = m.configure_plan(plan, &placements, &subs, &[]);
        let carries: Vec<Vec<Value>> = m
            .plan_carry_scalars(h)
            .iter()
            .map(|ss| ss.iter().map(|_| Value::I(0)).collect())
            .collect();
        m.launch(h, &[], &carries, 0, 32, 1);
        m.run_offload(h).unwrap();
        let outs = m.read_liveouts(h);
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].1, Value::I((0..32).sum::<i64>()));
    }

    #[test]
    fn energy_counters_populated() {
        let (_p, ck, mut m, _x, _y) = axpy_setup();
        let plan = &ck.offloads[0];
        let h = m.configure_plan(plan, &[0, 1], &[io_substrate(false); 2], &[]);
        m.launch(h, &[], &[vec![], vec![]], 0, 64, 1);
        m.run_offload(h).unwrap();
        m.drain().unwrap();
        let c = m.energy_counters();
        assert!(c.io_ops > 0);
        assert!(c.l3_accesses > 0, "ACP traffic must reach L3");
        assert!(c.dram_accesses > 0, "cold data comes from DRAM");
        assert!(c.mmio_words > 0);
        let (intra, da, aa) = m.access_distribution();
        assert!(intra > 0 && da > 0 && aa > 0);
    }

    #[test]
    fn adding_components_needs_only_registration() {
        // The tick loop, wake probe, drain predicate and drain audit all
        // derive from the registered component set: a machine configured
        // with more engines has more registered components, with no other
        // machine code aware of the count.
        let (_p, ck, m, _x, _y) = axpy_setup();
        let before: Vec<String> = m
            .scheduler()
            .components()
            .map(|c| c.name().to_string())
            .collect();
        assert_eq!(
            before,
            ["delivery", "host", "mem", "machine.chan", "net-out", "noc"]
        );
        let (_p2, ck2, mut m2, _x2, _y2) = axpy_setup();
        let plan = &ck2.offloads[0];
        let h = m2.configure_plan(plan, &[0, 1], &[io_substrate(false); 2], &[]);
        let after: Vec<String> = m2
            .scheduler()
            .components()
            .map(|c| c.name().to_string())
            .collect();
        assert_eq!(
            after,
            [
                "delivery",
                "host",
                "engine.0",
                "engine.1",
                "mem",
                "machine.chan",
                "net-out",
                "noc"
            ]
        );
        let _ = (h, ck);
    }
}
