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
use distda_accel::{EngineCtx, IssueModel, PartitionEngine};
use distda_check::Sanitizer;
use distda_compiler::plan::OffloadPlan;
use distda_energy::EnergyCounters;
use distda_ir::expr::ArrayId;
use distda_ir::interp::Memory;
use distda_ir::trace::{DynOp, Layout};
use distda_ir::value::Value;
use distda_mem::{MemRequest, MemSystem, PortId, PortKind};
use distda_noc::{Mesh, NocConfig, Packet, TrafficClass};
use distda_sim::component::{Component, Instruments, Scheduler, Stop, Ticked};
use distda_sim::port::{Channel, PortSnapshot};
use distda_sim::port_names;
use distda_sim::time::{ClockDomain, Tick};
use distda_sim::wake::{WakeCache, NO_WAKE};
use distda_trace::{EventKind, TraceSink};
use std::ops::Range;

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
    /// Accelerator engines execute (one stage for every engine,
    /// registered with the first one).
    pub const ENGINE: u32 = 20;
    /// Memory hierarchy advances and injects its outgoing packets.
    pub const MEM: u32 = 30;
    /// Machine-level packets (channel data/credits, MMIO) inject.
    pub const NET_OUT: u32 = 40;
    /// Mesh routes.
    pub const MESH: u32 = 50;
    /// The operand-channel audit, which no hand-over marks: with
    /// skip-ahead on it is asked its (empty) wake once per run entry and
    /// never ticks.
    pub const CHAN: u32 = 60;
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
    /// Tenant this engine executes for: indexes the functional view it
    /// reads and writes, and tags its outbound traffic.
    tenant: u16,
}

#[derive(Debug)]
struct PlanInst {
    engines: Vec<usize>,
    /// The plan's operand channels: a range of the machine's channels.
    chans: Range<usize>,
    /// Live-outs: (scalar, engine slot index, carry register).
    liveouts: Vec<(distda_ir::expr::ScalarId, usize, u16)>,
    /// Carry scalars per engine (for `cp_set_rf` initialization).
    carry_scalars: Vec<Vec<distda_ir::expr::ScalarId>>,
    params: Vec<distda_compiler::affine::Sym>,
    /// Tenant the plan was configured for.
    tenant: u16,
}

/// The shared world state every machine component operates on: the
/// structural units (mesh, memory hierarchy, host core, engines, operand
/// channels) plus each tenant's functional image and address layout.
///
/// Run-loop exit conditions receive `&MachineState` (plus the current
/// tick), so everything a condition might poll is readable here.
#[derive(Debug)]
pub struct MachineState {
    mesh: Mesh<NetMsg>,
    mem: MemSystem,
    host: HostCore,
    /// Functional image + address layout per tenant, indexed by tenant id
    /// (one entry on a single-tenant machine).
    views: Vec<(Memory, Layout)>,
    chans: Vec<ChanState>,
    engines: Vec<EngineSlot>,
    plans: Vec<PlanInst>,
    /// Machine-level injection port into the mesh (channel operands,
    /// credits, MMIO). Bounded: producers observe back-pressure through
    /// the port handshake instead of an elastic queue.
    net_out: Channel<Packet<NetMsg>>,
    host_node: usize,
    mmio_words: u64,
    /// Producer/consumer engine slot per global operand channel
    /// (parallel to `chans` once a plan's configuration completes) — the
    /// blame topology of the `chan{g}` ports, and where their engine
    /// stalls are read from.
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
    /// The engine stage's wake cache, parallel to `engines`: each engine's
    /// [`engine_wake`], marked at every hand-over since that can change it
    /// (an operand or credit for it, a response at its port).
    wakes: WakeCache,
}

/// The marks for responses the hierarchy pushed across a hand-over that
/// moved its response count from `before`: the host if one waits at its
/// port, the engine stage if one waits at an engine's, and every engine
/// with one waiting, until the stage collects it.
fn responded(
    before: u64,
    mem: &MemSystem,
    host: &HostCore,
    engines: &[EngineSlot],
    wakes: &mut WakeCache,
) -> Ticked {
    if mem.sys_stats().responses == before {
        return Ticked::NOTHING;
    }
    let mut any = false;
    for (i, slot) in engines.iter().enumerate() {
        if mem.has_responses(slot.port) {
            wakes.mark(i);
            any = true;
        }
    }
    Ticked::NOTHING
        .mark_if(mem.has_responses(host.port()), stage::HOST)
        .mark_if(any, stage::ENGINE)
}

impl MachineState {
    /// Whether every engine of a plan has finished its invocation.
    pub fn plan_done(&self, handle: PlanHandle) -> bool {
        self.plans[handle]
            .engines
            .iter()
            .all(|&ei| self.engines[ei].eng.is_done())
    }

    /// Cycles engine `ei` spent blocked on global operand channel `g` as
    /// of `now`: the engine's own ledger entry for that channel.
    fn chan_stalls_at(&self, now: Tick, ei: usize, g: usize) -> u64 {
        let slot = &self.engines[ei];
        slot.eng.chan_stalls_at(now, (g - slot.chan_base) as u16)
    }

    /// Freezes the statistics of every handshaked port in the machine at
    /// `now` — operand channels, the machine injection port, the memory
    /// system's mesh port and per-requester response ports, and the mesh
    /// inboxes. Engine stall cycles come from the engines' ledgers: a
    /// channel port adds its producer's and consumer's entries to its
    /// own refused offers, and an engine's ACP response port carries the
    /// engine's `stall_mem`, so per-port stall series sum to the
    /// machine's `stall_mem`/`stall_chan` totals.
    pub fn port_snapshots(&self, now: Tick) -> Vec<PortSnapshot> {
        let mut out = Vec::new();
        for (g, ch) in self.chans.iter().enumerate() {
            let mut s = ch.queue.snapshot(port_names::chan(g));
            // A channel of a plan still being configured has no engines
            // yet, and so no stalls beyond its own.
            if let Some(&(p, c)) = self.chan_engines.get(g) {
                s.stalls += self.chan_stalls_at(now, p, g);
                if c != p {
                    s.stalls += self.chan_stalls_at(now, c, g);
                }
            }
            out.push(s);
        }
        out.push(self.net_out.snapshot(port_names::NET_OUT));
        out.push(self.mem.out_snapshot());
        for p in self.mem.ports() {
            let mut s = self.mem.resp_snapshot(p);
            if let Some(slot) = self.engines.iter().find(|s| s.port == p) {
                s.stalls = slot.eng.stats_at(now).stall_mem;
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
/// exists for traffic accounting). Marks the hierarchy for a memory
/// message, the engine stage for an operand or credit, and the requesters
/// of any response `mem.deliver` pushed. Draining the inboxes is no
/// hand-over: the mesh's wake does not read them.
struct DeliveryComp;

impl Component<MachineState> for DeliveryComp {
    fn name(&self) -> &str {
        "delivery"
    }

    fn tick(&mut self, now: Tick, st: &mut MachineState, instr: &mut Instruments) -> Ticked {
        let san = &instr.san;
        let MachineState {
            mesh,
            mem,
            host,
            chans,
            engines,
            chan_engines,
            wakes,
            ..
        } = st;
        let responses = mem.sys_stats().responses;
        let (mut to_mem, mut to_engines) = (false, false);
        mesh.for_each_delivered(|_node, pkt| {
            match pkt.payload {
                NetMsg::Mem(m) => {
                    let wrapped = Packet::new(pkt.src, pkt.dst, pkt.bytes, pkt.class, m)
                        .with_tenant(pkt.tenant);
                    mem.deliver(now, wrapped);
                    to_mem = true;
                }
                NetMsg::ChanData { chan, v } => {
                    wakes.mark(chan_engines[chan as usize].1);
                    to_engines = true;
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
                    wakes.mark(chan_engines[chan as usize].0);
                    to_engines = true;
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
        responded(responses, mem, host, engines, wakes)
            .mark_if(to_mem, stage::MEM)
            .mark_if(to_engines, stage::ENGINE)
    }

    fn next_event(&self, now: Tick, st: &MachineState) -> Option<Tick> {
        st.mesh.has_inbox_pending().then_some(now)
    }

    fn is_quiescent(&self, _now: Tick, st: &MachineState) -> bool {
        !st.mesh.has_inbox_pending()
    }
}

/// Stage [`stage::HOST`]: the out-of-order host core collects memory
/// responses and issues into the hierarchy, which it marks when it did.
struct HostComp;

impl Component<MachineState> for HostComp {
    fn name(&self) -> &str {
        "host"
    }

    fn attach(&mut self, st: &mut MachineState, instr: &Instruments) {
        st.host_sink = instr.tracer.sink("host");
    }

    fn tick(&mut self, now: Tick, st: &mut MachineState, _instr: &mut Instruments) -> Ticked {
        let MachineState { host, mem, .. } = st;
        let requests = mem.sys_stats().requests;
        host.tick(now, mem);
        Ticked::NOTHING.mark_if(mem.sys_stats().requests != requests, stage::MEM)
    }

    fn next_event(&self, now: Tick, st: &MachineState) -> Option<Tick> {
        // A response waiting at the host's port is collected next tick.
        if st.mem.has_responses(st.host.port()) {
            return Some(now);
        }
        st.host.next_event(now)
    }

    fn is_quiescent(&self, now: Tick, st: &MachineState) -> bool {
        st.host.segment_drained(now)
    }

    fn stall(&self, now: Tick, st: &MachineState) -> Option<String> {
        (!st.host.segment_drained(now)).then(|| "host segment undrained".to_string())
    }
}

/// Stage [`stage::CHAN`], owning the operand-channel *audit*: channels are
/// advanced by the engines (producer/consumer sides) and the delivery
/// stage, never tick on their own, and were never part of the machine's
/// exit conditions — but a drained machine must leave every queue empty
/// and every credit conserved, which this component asserts. It also
/// supplies the machine's explain record at each sampler boundary. Its
/// tick is a no-op and it never reports a wake, so with skip-ahead on it
/// never ticks.
struct ChannelsComp;

impl Component<MachineState> for ChannelsComp {
    fn name(&self) -> &str {
        "machine.chan"
    }

    fn attach(&mut self, st: &mut MachineState, instr: &Instruments) {
        st.chan_sink = instr.tracer.sink("machine.chan");
    }

    fn tick(&mut self, _now: Tick, _st: &mut MachineState, _instr: &mut Instruments) -> Ticked {
        Ticked::NOTHING
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
        for v in distda_sim::conformance::check_ports(&st.port_snapshots(now), now, true) {
            san.record(v);
        }
    }

    /// The machine's explain record: every port, plus per-engine busy and
    /// stall totals in base ticks.
    fn sample(
        &self,
        at: Tick,
        st: &MachineState,
        ports: &mut Vec<PortSnapshot>,
        counters: &mut Vec<(String, u64)>,
    ) {
        ports.extend(st.port_snapshots(at));
        for (i, s) in st.engines.iter().enumerate() {
            let es = s.eng.stats_at(at);
            let period = s.eng.clock().period_ticks();
            let name = port_names::engine(i);
            counters.push((format!("{name}.busy_ticks"), es.busy_cycles * period));
            counters.push((format!("{name}.stall_mem_ticks"), es.stall_mem * period));
            counters.push((format!("{name}.stall_chan_ticks"), es.stall_chan * period));
        }
    }
}

/// [`PartitionEngine::next_wake`] of the engine in `slot` ([`NO_WAKE`]
/// for `None`), given the responses collected at its port and the state
/// of its channels.
fn engine_wake(slot: &EngineSlot, chans: &[ChanState], now: Tick) -> Tick {
    slot.eng
        .next_wake(now, !slot.resp.is_empty(), |c, send| {
            let ch = &chans[slot.chan_base + c as usize];
            if send {
                ch.flow.credits() > 0
            } else {
                !ch.queue.is_empty()
            }
        })
        .unwrap_or(NO_WAKE)
}

/// Stage [`stage::ENGINE`], one for every configured engine: collects
/// the port responses of marked engines and executes one edge of each
/// engine that is due, against its [`EngineCtx`] view of the world.
///
/// The stage probes and ticks from [`MachineState::wakes`]: an engine's
/// wake is recomputed only after it ran an edge or when a hand-over marked
/// it, so an engine that waits on a channel or a memory response costs one
/// compare per probe and per executed tick. A tick is one pass over the
/// engines that refreshes each marked entry, runs each due engine and
/// folds the new minimum. It marks the hierarchy when an engine issued a
/// request and the injection port when one pushed a packet, and reports
/// that minimum as the stage's own wake, unless an engine is left marked
/// (a local send or receive marks the engine at the other end, which the
/// pass may have visited already).
#[derive(Default)]
struct EngineStage {
    san: Sanitizer,
}

impl Component<MachineState> for EngineStage {
    fn name(&self) -> &str {
        "engine.all"
    }

    fn attach(&mut self, st: &mut MachineState, instr: &Instruments) {
        self.san = instr.san.clone();
        // As the scheduler does with its stages: new instruments mark
        // every entry, so none is left unchecked by them.
        st.wakes.mark_all();
        for (i, slot) in st.engines.iter_mut().enumerate() {
            slot.eng.set_sink(instr.tracer.sink(&port_names::engine(i)));
        }
    }

    fn tick(&mut self, now: Tick, st: &mut MachineState, _instr: &mut Instruments) -> Ticked {
        let MachineState {
            engines,
            mem,
            chans,
            net_out,
            views,
            chan_sink,
            chan_engines,
            skip,
            wakes,
            ..
        } = st;
        let (requests, pushed) = (mem.sys_stats().requests, net_out.len());
        let mut w = NO_WAKE;
        for (i, slot) in engines.iter_mut().enumerate() {
            let due = wakes.due(i, now, || {
                let mut rx = mem.responses(slot.port).rx();
                while let Some(r) = rx.accept() {
                    slot.resp.push(r.id);
                }
                engine_wake(slot, chans, now)
            });
            // An engine that is not due here would only re-try its blocked
            // node — the skip-ahead argument applied to one engine: the
            // edge is skipped, and its stall cycle is charged in bulk on
            // the engine's next processed edge (readers in between see it
            // through `PartitionEngine::stats_at`). Off the engine's clock
            // edge `eng.tick` is a no-op anyway.
            let run = if *skip {
                due
            } else {
                slot.eng.clock().fires_at(now)
            };
            if run {
                // The engine reads and writes its tenant's functional view.
                let (memimg, layout) = &mut views[slot.tenant as usize];
                let mut ctx = Ctx {
                    now,
                    port: slot.port,
                    chan_base: slot.chan_base,
                    tenant: slot.tenant,
                    mem,
                    chans,
                    net_out,
                    memimg,
                    layout: &*layout,
                    resp: &mut slot.resp,
                    chan_sink,
                    chan_engines,
                    wakes,
                };
                slot.eng.tick(now, &mut ctx);
                // The next probe asks from the next tick on.
                wakes.set(i, engine_wake(slot, chans, now + 1));
            }
            w = w.min(wakes.get(i));
        }
        // Engines only add to the injection port; net-out drains it later.
        let t = Ticked::NOTHING
            .mark_if(mem.sys_stats().requests != requests, stage::MEM)
            .mark_if(net_out.len() != pushed, stage::NET_OUT);
        if wakes.any_marked() {
            return t;
        }
        t.wake((w != NO_WAKE).then_some(w))
    }

    /// The minimum over the cached engine wakes; a marked engine is asked
    /// (`now` while a response waits at its port: the stage collects it on
    /// its next tick) and its answer is not kept. With the sanitizer on,
    /// once a tick, every unmarked engine's entry is checked against its
    /// uncached `engine_wake` (`wake-cache`, level `engine`), and no
    /// response may wait at its port: a pushed response marks it until it
    /// is collected.
    fn next_event(&self, now: Tick, st: &MachineState) -> Option<Tick> {
        let (wakes, engines) = (&st.wakes, &st.engines);
        let waiting = |slot: &EngineSlot| st.mem.has_responses(slot.port);
        if self.san.on() && wakes.first_ask_at(now) {
            for (i, slot) in engines.iter().enumerate() {
                let fresh = engine_wake(slot, &st.chans, now);
                let broken = waiting(slot).then_some("a response waits at its port");
                wakes.check(&self.san, || self.name(), i, fresh, now, broken);
            }
        }
        let ask = |slot| match waiting(slot) {
            true => now,
            false => engine_wake(slot, &st.chans, now),
        };
        let all = engines.iter().enumerate();
        let (w, _) = WakeCache::min(now, all.map(|(i, slot)| (i, wakes.peek(i, || ask(slot)))));
        (w != NO_WAKE).then_some(w)
    }

    fn is_quiescent(&self, _now: Tick, st: &MachineState) -> bool {
        st.engines
            .iter()
            .all(|slot| slot.eng.is_quiescent() && slot.resp.is_empty())
    }

    fn audit_drained(&self, now: Tick, st: &MachineState, san: &Sanitizer) {
        for (i, slot) in st.engines.iter().enumerate() {
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
    }

    fn stall(&self, _now: Tick, st: &MachineState) -> Option<String> {
        let parts: Vec<String> = st
            .engines
            .iter()
            .enumerate()
            .filter(|(_, slot)| !slot.eng.is_done() && !slot.eng.is_idle())
            .map(|(i, slot)| {
                format!(
                    "engine {i} (cluster {}): {}",
                    slot.cluster,
                    slot.eng.stall_debug()
                )
            })
            .collect();
        (!parts.is_empty()).then(|| parts.join("; "))
    }
}

/// Stage [`stage::MEM`]: the memory hierarchy advances, then injects its
/// outgoing protocol packets into the mesh (back-pressured: a refused
/// packet returns to the front of the queue). Marks the mesh when it
/// injected and the requesters of any response it pushed. While an
/// injection is refused the hierarchy's `next_event` is `now`, so the
/// stall is charged on every tick, as tick by tick.
struct MemComp;

impl Component<MachineState> for MemComp {
    fn name(&self) -> &str {
        "mem"
    }

    fn attach(&mut self, st: &mut MachineState, instr: &Instruments) {
        st.mem.set_tracer(&instr.tracer);
        st.mem.set_sanitizer(instr.san.clone());
    }

    fn tick(&mut self, now: Tick, st: &mut MachineState, _instr: &mut Instruments) -> Ticked {
        let MachineState {
            mem,
            mesh,
            host,
            engines,
            wakes,
            ..
        } = st;
        let responses = mem.sys_stats().responses;
        mem.tick(now);
        let t = responded(responses, mem, host, engines, wakes);
        // Peek-then-accept: the packet leaves the memory system's port
        // only once the mesh accepts it, so a refused injection leaves
        // the exact same packet at the head (stable data).
        let mut injected = false;
        while let Some(&p) = mem.outgoing().front() {
            let wrapped = Packet::new(p.src, p.dst, p.bytes, p.class, NetMsg::Mem(p.payload))
                .with_tenant(p.tenant);
            if mesh.try_inject(now, wrapped).is_err() {
                mem.outgoing().note_stalls(1);
                break;
            }
            mem.outgoing().rx().accept();
            injected = true;
        }
        t.mark_if(injected, stage::MESH)
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
/// traffic. Marks the mesh when it injected; while an injection is
/// refused the port is non-empty and `next_event` is `now`, so the stall
/// is charged on every tick, as tick by tick.
struct NetOutComp;

impl Component<MachineState> for NetOutComp {
    fn name(&self) -> &str {
        "net-out"
    }

    fn tick(&mut self, now: Tick, st: &mut MachineState, _instr: &mut Instruments) -> Ticked {
        // Peek-then-accept, as in [`MemComp`]: a refused injection leaves
        // the packet at the head unchanged and charges an injection-stall
        // cycle to the port.
        let mut injected = false;
        while let Some(&p) = st.net_out.front() {
            if st.mesh.try_inject(now, p).is_err() {
                st.net_out.note_stalls(1);
                break;
            }
            st.net_out.rx().accept();
            injected = true;
        }
        Ticked::NOTHING.mark_if(injected, stage::MESH)
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

/// Stage [`stage::MESH`]: the mesh routes in-flight packets, and marks
/// the delivery stage when packets arrived at an inbox.
struct MeshComp;

impl Component<MachineState> for MeshComp {
    fn name(&self) -> &str {
        "noc"
    }

    fn attach(&mut self, st: &mut MachineState, instr: &Instruments) {
        st.mesh.set_sink(instr.tracer.sink("noc"));
        st.mesh.set_sanitizer(instr.san.clone());
    }

    fn tick(&mut self, now: Tick, st: &mut MachineState, _instr: &mut Instruments) -> Ticked {
        st.mesh.tick(now);
        // The delivery stage drains every inbox before the mesh's turn.
        Ticked::NOTHING.mark_if(st.mesh.has_inbox_pending(), stage::DELIVERY)
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

/// The machine: a [`Scheduler`] composed over [`MachineState`]. Construct
/// with [`Machine::new`], configure plans, then alternate host segments
/// and offload invocations.
#[derive(Debug)]
pub struct Machine {
    sched: Scheduler<MachineState>,
    st: MachineState,
    /// Ticks charged to each machine phase, in first-charge order.
    phases: Vec<(&'static str, Tick)>,
}

impl Machine {
    /// Builds the machine described by `topo`: a `mesh_cols x mesh_rows`
    /// mesh with one NUCA cluster per node, the host at
    /// `topo.host_node` and the memory controller at `topo.memctrl_node`
    /// ([`Topology::paper`] reproduces Table III's 4x2 shape). The caller
    /// supplies the (already allocated) memory system and one functional
    /// image and layout per tenant, indexed by tenant id
    /// ([`runner::machine_for`](crate::runner::machine_for) builds both
    /// from a program and a configuration).
    ///
    /// # Panics
    ///
    /// Panics if `views` is empty or the memory system was built for a
    /// different cluster count than `topo` describes.
    pub fn new(mem: MemSystem, views: Vec<(Memory, Layout)>, topo: &Topology) -> Self {
        assert!(!views.is_empty(), "a machine runs at least one tenant");
        assert_eq!(
            mem.config().clusters,
            topo.clusters(),
            "memory system built for a different cluster count than the topology"
        );
        let uncore = mem.clock();
        let mut mem = mem;
        let host_port = mem.register_port(PortKind::Host);
        let host = HostCore::new(uncore, host_port);
        let mut st = MachineState {
            mesh: Mesh::new(topo.mesh_cols, topo.mesh_rows, NocConfig::default(), uncore),
            mem,
            host,
            views,
            chans: Vec::new(),
            engines: Vec::new(),
            plans: Vec::new(),
            // Base provisioning covers host MMIO bursts; configuring a
            // plan grows the bound by each remote channel's worst-case
            // in-flight traffic (see `configure_plan`).
            net_out: Channel::bounded(64.max(2 * topo.clusters())),
            host_node: topo.host_node,
            mmio_words: 0,
            chan_engines: Vec::new(),
            sink: TraceSink::default(),
            host_sink: TraceSink::default(),
            chan_sink: TraceSink::default(),
            skip: distda_sim::env::skip(),
            wakes: WakeCache::new("engine"),
        };
        let mut sched = Scheduler::new(TICK_BUDGET, st.skip);
        // Registration order is also instrument-attach order (stable trace
        // track IDs); stages give the intra-tick phase order.
        sched.register(stage::DELIVERY, Box::new(DeliveryComp), &mut st);
        sched.register(stage::HOST, Box::new(HostComp), &mut st);
        sched.register(stage::CHAN, Box::new(ChannelsComp), &mut st);
        sched.register(stage::MEM, Box::new(MemComp), &mut st);
        sched.register(stage::NET_OUT, Box::new(NetOutComp), &mut st);
        sched.register(stage::MESH, Box::new(MeshComp), &mut st);
        Self {
            sched,
            st,
            phases: Vec::new(),
        }
    }

    /// Current base tick.
    pub fn now(&self) -> Tick {
        self.sched.now()
    }

    /// Attaches the run's instruments to every component. Call before
    /// [`Machine::configure_plan`] so engine sinks are created too.
    ///
    /// - The tracer records events and metrics.
    /// - With the sanitizer on, the run loops stop with
    ///   [`SimError::InvariantViolation`] as soon as a conservation law
    ///   breaks, and [`Machine::drain`] audits the drained state.
    /// - The self-profiler times every registered component's `tick()`
    ///   against the host monotonic clock and counts wake targets and skip
    ///   spans; it never perturbs simulated results.
    /// - The explain sampler records every port and engine total at each
    ///   window boundary (see [`Machine::observation`]); it never adds a
    ///   tick or a wake.
    ///
    /// Disabled instruments (the default) cost nothing beyond a branch.
    pub fn set_instruments(&mut self, instr: Instruments) {
        // The machine's own track registers first so track IDs are stable.
        self.st.sink = instr.tracer.sink("machine");
        self.sched.set_instruments(&mut self.st, instr);
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
        let now = self.now();
        let attributed = |ei: usize, g: usize| self.st.chan_stalls_at(now, ei, g);
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
                Some(i) => (
                    port_names::engine(i),
                    self.st.engines[i].eng.stats_at(now).stall_mem,
                ),
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

    /// Per-engine busy time converted to base ticks, the engine half of
    /// an explain [`Observation`](distda_explain::Observation). Stall time
    /// is not repeated here: it is the sum of the engine's blame edges.
    pub fn engine_observations(&self) -> Vec<distda_explain::EngineObs> {
        let now = self.now();
        self.st
            .engines
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let period = s.eng.clock().period_ticks();
                distda_explain::EngineObs {
                    name: port_names::engine(i),
                    busy_ticks: s.eng.stats_at(now).busy_cycles * period,
                    period_ticks: period,
                }
            })
            .collect()
    }

    /// The full explain observation of this machine's run so far: blame
    /// topology, engine accounting and (when an enabled sampler was
    /// attached) the windowed time series.
    pub fn observation(&self) -> distda_explain::Observation {
        distda_explain::Observation {
            ticks: self.now(),
            edges: self.port_topology(),
            engines: self.engine_observations(),
            samples: self.sched.instruments().sampler.dump(),
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
        self.st.wakes.mark_all();
    }

    /// The scheduler (clock, registered components, instruments).
    pub fn scheduler(&self) -> &Scheduler<MachineState> {
        &self.sched
    }

    /// The machine's world state.
    pub fn state(&self) -> &MachineState {
        &self.st
    }

    /// The functional memory image of `tenant`.
    pub fn memimg(&self, tenant: u16) -> &Memory {
        &self.st.views[tenant as usize].0
    }

    /// Mutable [`Machine::memimg`] (the host evaluator executes on it).
    pub fn memimg_mut(&mut self, tenant: u16) -> &mut Memory {
        &mut self.st.views[tenant as usize].0
    }

    /// Consumes the machine, returning tenant 0's final memory image.
    pub fn into_memimg(mut self) -> Memory {
        self.st.views.swap_remove(0).0
    }

    /// The address layout of `tenant`.
    pub fn layout(&self, tenant: u16) -> &Layout {
        &self.st.views[tenant as usize].1
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

    /// Per-engine statistics summed over the engines owned by `tenant`.
    pub fn tenant_engine_totals(&self, tenant: u16) -> distda_accel::EngineStats {
        let now = self.now();
        self.st
            .engines
            .iter()
            .filter(|s| s.tenant == tenant)
            .map(|s| s.eng.stats_at(now))
            .sum()
    }

    /// `cp_config` + `cp_config_stream/random` on behalf of `tenant`:
    /// allocates engines for a plan, placing partition `i` at
    /// `placement[i]` with `substrates[i]`. The plan's engines read and
    /// write the tenant's functional view, and all traffic they cause is
    /// attributed to the tenant in the NoC stats. Flushes host-cached
    /// copies of every accessed object (Section IV-D) and charges
    /// configuration MMIO.
    ///
    /// # Panics
    ///
    /// Panics if placements/substrates lengths mismatch the plan or the
    /// machine has no view for `tenant`.
    pub fn configure_plan(
        &mut self,
        plan: &OffloadPlan,
        placement: &[usize],
        substrates: &[Substrate],
        object_ranges: &[(u64, u64)],
        tenant: u16,
    ) -> PlanHandle {
        assert!(
            (tenant as usize) < self.st.views.len(),
            "tenant {tenant} has no view"
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
        if self.st.engines.is_empty() {
            // One stage ticks every engine; it joins the tick loop, wake
            // probe, drain predicate and drain audit with the first one.
            self.sched.register(
                stage::ENGINE,
                Box::new(EngineStage::default()),
                &mut self.st,
            );
        }
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
            eng.set_sink(
                self.sched
                    .instruments()
                    .tracer
                    .sink(&port_names::engine(index)),
            );
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
            });
            self.st.wakes.push();
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
            chans: chan_base..self.st.chans.len(),
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
            self.charge_phase(t0, EventKind::MmioTransfer { words });
        }
    }

    /// Charges the ticks since `t0` to a machine phase: one span on the
    /// machine track, and its length in the phase ledger under the span's
    /// label (a zero-tick phase adds no entry).
    fn charge_phase(&mut self, t0: Tick, kind: EventKind) {
        let now = self.now();
        if now > t0 {
            let label = match kind {
                EventKind::KernelPhase { phase } => phase,
                _ => kind.category(),
            };
            match self.phases.iter_mut().find(|(l, _)| *l == label) {
                Some((_, t)) => *t += now - t0,
                None => self.phases.push((label, now - t0)),
            }
        }
        self.st.sink.span(t0, now, kind);
    }

    /// Ticks charged to each machine phase so far (`kernel_phase` labels
    /// and `mmio`); the run's other ticks belong to no phase.
    pub(crate) fn phases(&self) -> &[(&'static str, Tick)] {
        &self.phases
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
        // Between invocations the plan's own queues have drained; restore
        // any credits still batched on their consumer side. Other plans'
        // channels are left alone: another plan may be in flight, and its
        // credits return by message.
        let chans = self.st.plans[handle].chans.clone();
        for ch in &mut self.st.chans[chans] {
            ch.flow.restore();
        }
        self.st.wakes.mark_all();
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
            self.charge_phase(t0, EventKind::KernelPhase { phase });
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
        self.charge_phase(t0, EventKind::KernelPhase { phase: "drain" });
        Ok(())
    }

    /// One base tick.
    pub fn tick(&mut self) {
        self.sched.tick(&mut self.st);
    }

    /// Drives the machine to quiescence under the component-conformance
    /// harness (see [`distda_sim::conformance`]), returning every
    /// violation observed: wake times in the past, broken wake promises,
    /// components active with no scheduled event, failure to drain
    /// within `budget` ticks, or a failed drain audit. Test-oriented;
    /// prefer [`Machine::drain`] in simulation flows.
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
            let es = s.eng.stats_at(self.now());
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
            let es = s.eng.stats_at(self.now());
            t.0 += es.intra_bytes;
            t.1 += es.da_bytes;
            t.2 += es.aa_bytes;
        }
        t
    }

    /// Statistics of every handshaked port in the machine (see
    /// [`MachineState::port_snapshots`]).
    pub fn port_snapshots(&self) -> Vec<PortSnapshot> {
        self.st.port_snapshots(self.now())
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
        let now = self.now();
        self.st.engines.iter().map(|s| s.eng.stats_at(now)).sum()
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
    /// Producer/consumer engine per global channel, and the wake cache in
    /// which a local send or receive marks the engine at the other end.
    chan_engines: &'a [(usize, usize)],
    wakes: &'a mut WakeCache,
}

impl Ctx<'_> {
    /// Presents a line request at the engine's ACP.
    fn request(&mut self, id: u64, addr: u64, write: bool) {
        let port = self.port;
        let req = MemRequest {
            port,
            id,
            addr,
            write,
        };
        self.mem.request(self.now, req);
    }
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
            self.wakes.mark(self.chan_engines[g].1);
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
            self.wakes.mark(self.chan_engines[g].0);
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

    fn mem_read(&mut self, id: u64, addr: u64) {
        self.request(id, addr, false);
    }

    fn mem_write(&mut self, id: u64, addr: u64) {
        self.request(id, addr, true);
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

    /// An axpy kernel, its compiled plan, a machine holding its inputs,
    /// and its `x` and `y` arrays.
    type Axpy = (
        Program,
        distda_compiler::CompiledKernel,
        Machine,
        ArrayId,
        ArrayId,
    );

    fn axpy_setup() -> Axpy {
        axpy_machine(64)
    }

    /// [`axpy_setup`] over `n` elements.
    fn axpy_machine(n: usize) -> Axpy {
        let mut b = ProgramBuilder::new("axpy");
        let x = b.array_f64("x", n);
        let y = b.array_f64("y", n);
        b.for_(0, n as i64, 1, |b, i| {
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
            0,
        );
        let mut img = Memory::for_program(&p);
        for i in 0..n {
            img.array_mut(x)[i] = Value::F(i as f64);
            img.array_mut(y)[i] = Value::F(1.0);
        }
        let machine = Machine::new(mem, vec![(img, alloc.layout)], &Topology::paper());
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
        let h = m.configure_plan(plan, &placement, &subs, &[], 0);
        m.launch(h, &[], &[vec![], vec![]], 0, 64, 1);
        m.run_offload(h).unwrap();
        for i in 0..64 {
            assert_eq!(m.memimg(0).array(y)[i], Value::F(2.0 * i as f64 + 1.0));
        }
        // Cross-cluster operand traffic must have used the mesh.
        let stats = m.noc_stats();
        assert!(stats.bytes[TrafficClass::AccData.index()] > 0);
    }

    #[test]
    fn launch_restores_only_its_own_plans_credits() {
        let (_p, ck, mut m, _x, _y) = axpy_setup();
        let plan = &ck.offloads[0];
        let subs = [io_substrate(false); 2];
        let a = m.configure_plan(plan, &[0, 1], &subs, &[], 0);
        let b = m.configure_plan(plan, &[2, 3], &subs, &[], 0);
        let debt = |m: &Machine| -> Vec<usize> {
            let chans = m.st.plans[a].chans.clone();
            m.st.chans[chans].iter().map(|c| c.flow.debt()).collect()
        };
        m.launch(a, &[], &[vec![], vec![]], 0, 64, 1);
        let mut ticks = 0;
        while debt(&m).iter().all(|&d| d == 0) {
            assert!(ticks < 100_000, "plan A's consumer never held debt");
            m.advance_ticks(1);
            ticks += 1;
        }
        // Plan A is in flight with credits batched on its consumer side;
        // launching plan B must not hand them back without a message.
        let before = debt(&m);
        m.launch(b, &[], &[vec![], vec![]], 0, 64, 1);
        assert_eq!(debt(&m), before);
    }

    #[test]
    fn co_located_partitions_avoid_channel_noc_traffic() {
        // Same kernel twice: partitions split across clusters vs co-located.
        // Co-location eliminates the channel's share of AccData (remote ACP
        // line fills remain in both).
        let run = |placement: [usize; 2]| {
            let (_p, ck, mut m, _x, _y) = axpy_setup();
            let plan = &ck.offloads[0];
            let h = m.configure_plan(plan, &placement, &[io_substrate(false); 2], &[], 0);
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
        let base = m.layout(0).base(x);
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
        let h = m.configure_plan(plan, &[0, 1], &[io_substrate(false); 2], &[], 0);
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
            0,
        );
        let mut img = Memory::for_program(&p);
        for i in 0..32 {
            img.array_mut(x)[i] = Value::I(i as i64);
        }
        let mut m = Machine::new(mem, vec![(img, alloc.layout)], &Topology::paper());
        let plan = &ck.offloads[0];
        let placements: Vec<usize> = (0..plan.partitions.len()).collect();
        let subs = vec![io_substrate(false); plan.partitions.len()];
        let h = m.configure_plan(plan, &placements, &subs, &[], 0);
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
        let h = m.configure_plan(plan, &[0, 1], &[io_substrate(false); 2], &[], 0);
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

    fn component_names(m: &Machine) -> Vec<String> {
        m.scheduler()
            .components()
            .map(|c| c.name().to_string())
            .collect()
    }

    #[test]
    fn adding_components_needs_only_registration() {
        // The tick loop, wake probe, drain predicate and drain audit all
        // derive from the registered component set. A machine that only
        // runs host code (an OoO machine) registers no engine stage; the
        // first configured engine registers the one stage, and every
        // later engine, of this plan or another, joins it with no other
        // machine code aware of the count.
        use distda_ir::trace::{DynOp, OpKind, NO_DEP};
        let (_p, _ck, mut m, x, _y) = axpy_setup();
        let store = DynOp {
            kind: OpKind::Store {
                addr: m.layout(0).base(x),
            },
            dep1: NO_DEP,
            dep2: NO_DEP,
        };
        m.run_host_segment(vec![store]).unwrap();
        m.drain().unwrap();
        let host_only = ["delivery", "host", "mem", "net-out", "noc", "machine.chan"];
        assert_eq!(component_names(&m), host_only);

        let (_p, ck, mut m, _x, _y) = axpy_setup();
        let with_engines = [
            "delivery",
            "host",
            "engine.all",
            "mem",
            "net-out",
            "noc",
            "machine.chan",
        ];
        m.configure_plan(&ck.offloads[0], &[0, 1], &[io_substrate(false); 2], &[], 0);
        assert_eq!(component_names(&m), with_engines);
        m.configure_plan(&ck.offloads[0], &[2, 3], &[io_substrate(false); 2], &[], 0);
        assert_eq!(component_names(&m), with_engines);
        assert_eq!(m.state().engines.len(), 4);
    }

    /// Runs two invocations of axpy's two-partition plan placed at
    /// `placement` to a drained machine, with the sanitizer attached.
    /// The consumer runs at half the producer's clock over 8x the
    /// channel's capacity in elements, so the consumer waits for operands
    /// at first and the producer then waits for credits. Returns
    /// everything a run result is built from (ticks, energy counters,
    /// traffic, engine statistics, port report, output array) and the
    /// number of violations the sanitizer recorded.
    fn sanitized_axpy(placement: [usize; 2], skip: bool) -> (String, usize) {
        const N: usize = 8 * CHAN_CAPACITY;
        let (_p, ck, mut m, _x, y) = axpy_machine(N);
        m.set_skip(skip);
        let san = Sanitizer::enabled();
        m.set_instruments(Instruments {
            san: san.clone(),
            ..Instruments::disabled()
        });
        let slow = Substrate {
            clock: ClockDomain::from_ghz(1.0),
            ..io_substrate(false)
        };
        let h = m.configure_plan(
            &ck.offloads[0],
            &placement,
            &[io_substrate(false), slow],
            &[],
            0,
        );
        for _ in 0..2 {
            m.launch(h, &[], &[vec![], vec![]], 0, N as i64, 1);
            m.run_offload(h).unwrap();
        }
        m.drain().unwrap();
        let outcome = format!(
            "{:?}",
            (
                m.now(),
                m.energy_counters(),
                m.access_distribution(),
                m.noc_stats(),
                m.engine_totals(),
                m.port_report(),
                m.memimg(0).array(y),
            )
        );
        (outcome, san.count())
    }

    /// Runs a host segment over both of axpy's arrays to a drained
    /// machine, with the sanitizer attached: a load of each `x` line
    /// (cluster 0, the host's node), then a store to each `y` line
    /// (cluster 1, over the mesh), each store dependent on the load
    /// before it. Returns what [`sanitized_axpy`] returns.
    fn sanitized_host_segment(skip: bool) -> (String, usize) {
        use distda_ir::trace::{DynOp, OpKind, NO_DEP};
        const LINES: u64 = 64;
        let (_p, _ck, mut m, x, y) = axpy_machine(8 * LINES as usize);
        m.set_skip(skip);
        let san = Sanitizer::enabled();
        m.set_instruments(Instruments {
            san: san.clone(),
            ..Instruments::disabled()
        });
        let (xs, ys) = (m.layout(0).base(x), m.layout(0).base(y));
        let mut ops = Vec::new();
        for i in 0..LINES {
            ops.push(DynOp {
                kind: OpKind::Load { addr: xs + 64 * i },
                dep1: NO_DEP,
                dep2: NO_DEP,
            });
            ops.push(DynOp {
                kind: OpKind::Store { addr: ys + 64 * i },
                dep1: ops.len() as u32 - 1,
                dep2: NO_DEP,
            });
        }
        m.run_host_segment(ops).unwrap();
        m.drain().unwrap();
        let outcome = format!(
            "{:?}",
            (
                m.now(),
                m.energy_counters(),
                m.noc_stats(),
                m.host_stats(),
                m.port_report(),
            )
        );
        (outcome, san.count())
    }

    /// Both wake caches, the scheduler's stages and the engine stage's
    /// engines, under the sanitizer's `wake-cache` rule: with skip-ahead
    /// on, no violation, and the same results as the tick-by-tick run.
    fn wake_cache_holds(run: impl Fn(bool) -> (String, usize)) {
        let (skipped, violations) = run(true);
        assert_eq!(violations, 0);
        let (reference, violations) = run(false);
        assert_eq!(violations, 0);
        assert_eq!(skipped, reference);
    }

    // `x` lives on cluster 0 and `y` on cluster 1. An engine at its
    // array's cluster gets its responses from `mem.tick`, an engine
    // elsewhere from the delivery stage; each test has both kinds.

    #[test]
    fn wake_cache_holds_on_a_local_channel() {
        // Co-located partitions: local sends and receives mark the engine
        // at the other end of the channel.
        wake_cache_holds(|skip| sanitized_axpy([1, 1], skip));
    }

    #[test]
    fn wake_cache_holds_on_a_remote_channel() {
        // Partitions at their data: delivered operands and credits mark
        // the engine at the other end, and the operand and credit packets
        // mark the injection port, the mesh and the delivery stage.
        wake_cache_holds(|skip| sanitized_axpy([0, 1], skip));
    }

    #[test]
    fn wake_cache_holds_on_a_host_segment() {
        // The host's requests mark the hierarchy, its remote lines mark
        // the mesh, the delivery stage and the hierarchy again, and the
        // responses mark the host.
        wake_cache_holds(sanitized_host_segment);
    }

    #[test]
    fn sampled_machine_still_proves_deadlock() {
        // The sampler reports no wake, so a condition that can never hold
        // is a proven deadlock at the same tick with sampling on or off.
        let deadlock_at = |sampler: distda_sim::Sampler| {
            let (_p, ck, mut m, _x, _y) = axpy_setup();
            m.set_skip(true);
            m.set_instruments(Instruments {
                sampler: sampler.clone(),
                ..Instruments::disabled()
            });
            let h = m.configure_plan(&ck.offloads[0], &[0, 1], &[io_substrate(false); 2], &[], 0);
            m.launch(h, &[], &[vec![], vec![]], 0, 64, 1);
            let err = m.run_until("never", |_, _| false).unwrap_err();
            assert!(matches!(err, SimError::Deadlock { .. }), "got {err:?}");
            if let Some(d) = sampler.dump() {
                assert!(!d.windows.is_empty());
            }
            m.now()
        };
        assert_eq!(
            deadlock_at(distda_sim::Sampler::enabled(64, 512)),
            deadlock_at(distda_sim::Sampler::disabled())
        );
    }
}
