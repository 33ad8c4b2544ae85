//! The accelerator engine: executes one distributed accelerator definition
//! ([`PartitionDef`]) with decoupled access units.
//!
//! The same engine body serves both substrates the paper evaluates — a
//! single-issue in-order core at 2 GHz and a statically-mapped CGRA tile at
//! 1 GHz — differing only in the [`IssueModel`] that paces microcode
//! execution. Streams are prefetched into the line buffer by the access
//! FSM (Figure 2c); channel operands block on credit back-pressure, which
//! is what lets partitions run ahead of each other (Section IV-B).

use crate::buffer::{LineSet, ObjectBuffer};
use crate::ctx::EngineCtx;
use distda_compiler::affine::Sym;
use distda_compiler::plan::{AccessPattern, PNode, PartitionDef};
use distda_ir::value::Value;
use distda_sim::arena::{Arena, Handle};
use distda_sim::time::{ClockDomain, Tick};
use distda_trace::{EventKind, StallCause, TraceSink};

/// Bytes per cache line (matches the memory hierarchy).
const LINE_BYTES: u64 = 64;
/// Lines the stream FSM runs ahead of the consumer.
const PF_AHEAD_LINES: u64 = 4;
/// Outstanding read limit per access unit.
const MAX_READS: u32 = 8;
/// Outstanding write limit per access unit.
const MAX_WRITES: u32 = 16;

/// How microcode issue is paced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueModel {
    /// In-order core issuing `width` single-cycle ops per cycle.
    InOrder {
        /// Issue width (1 in the paper's base Dist-DA-IO; 4 for +SW).
        width: u32,
    },
    /// Statically-mapped CGRA executing one iteration per initiation
    /// interval once the pipeline is primed.
    Cgra {
        /// Initiation interval in accelerator cycles.
        ii: u64,
    },
}

/// Counters for Figures 9/10/11.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Inner iterations retired.
    pub iterations: u64,
    /// Cycles in which at least one microcode op issued.
    pub busy_cycles: u64,
    /// Cycles stalled on memory (buffer miss in flight).
    pub stall_mem: u64,
    /// Cycles stalled on channel credit/emptiness.
    pub stall_chan: u64,
    /// ALU ops executed.
    pub alu_ops: u64,
    /// Memory element ops executed (loads + stores).
    pub mem_ops: u64,
    /// Bytes served from the local buffer (Figure 9 "intra").
    pub intra_bytes: u64,
    /// Bytes moved between the access unit and the cache hierarchy
    /// (Figure 9 "D-A"): line fills + drains.
    pub da_bytes: u64,
    /// Operand bytes produced onto channels (Figure 9 "A-A").
    pub aa_bytes: u64,
    /// MMIO configuration words received (`cp_set_rf`, `cp_run`).
    pub mmio_words: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wait {
    /// Waiting for a line fill; resume the node at `pc` with element `elem`.
    Line {
        line_addr: u64,
        pc: usize,
        elem: i64,
    },
    /// Waiting for channel space/data.
    Chan { pc: usize },
    /// Waiting for outstanding writes to drop below the cap.
    WriteCap { pc: usize },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Idle,
    Running,
    Draining,
    Done,
}

#[derive(Debug, Clone, Copy)]
enum Pending {
    Fill { line: u64 },
    WriteAck,
}

/// The engine's next internally-scheduled wake-up, reported after every
/// processed clock edge. This is the engine's half of the system-wide
/// `next_event` protocol: the machine may skip every base tick on which no
/// component has scheduled work, and skips this engine's own edges until it
/// is due, so `Wake` must name the earliest edge at which this engine could
/// act — erring early is safe, erring late breaks bit-exactness with the
/// tick-by-tick simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// The engine can make progress on its very next clock edge.
    NextEdge,
    /// Internally idle until the given tick (dependence stall, CGRA
    /// initiation interval); the first edge at or after it matters.
    At(Tick),
    /// Blocked on an external event: a memory response (`None`) or a
    /// channel becoming ready (`Some((local_chan, is_send))` — a send
    /// waits for credit, a receive for data).
    External(Option<(u16, bool)>),
    /// Nothing can happen until the engine is reconfigured (`cp_run`).
    Never,
}

/// Executes one accelerator definition. See the module docs.
#[derive(Debug)]
pub struct PartitionEngine {
    def: PartitionDef,
    param_syms: Vec<Sym>,
    model: IssueModel,
    clock: ClockDomain,
    buffer: ObjectBuffer,

    params: Vec<Value>,
    carry: Vec<Value>,
    access_base: Vec<i64>,
    stream_pf: Vec<i64>,
    /// Last line written per access (eager drain when the stream advances).
    write_line: Vec<Option<u64>>,
    start: i64,
    end: i64,
    step: i64,
    inner: i64,

    state: State,
    pc: usize,
    vals: Vec<Value>,
    /// Tick each node's result becomes available (pipelined FUs).
    ready: Vec<Tick>,
    wait: Option<Wait>,
    busy_until: Tick,
    iter_start: Tick,

    /// In-flight request records, keyed by the generation-checked handle
    /// that travels as the request id. Occupancy is bounded by the
    /// outstanding-request windows, so the slab never grows past the
    /// high-water mark and issue/complete stops touching the allocator.
    pending: Arena<Pending>,
    /// Lines with a fill in flight.
    pending_lines: LineSet,
    pf_ahead: u64,
    max_reads: u32,
    max_writes: u32,
    next_req: u64,
    outstanding_reads: u32,
    outstanding_writes: u32,
    wb_retry: Vec<u64>,

    /// Wake-up reported after the last processed edge.
    wake: Wake,
    /// Last clock edge actually processed (for bulk stall accounting).
    last_edge: Option<Tick>,
    /// Set when a ctx memory issue failed this edge (port busy): the
    /// failure is time-dependent, so the next edge must be simulated.
    attempted: bool,

    stats: EngineStats,

    sink: TraceSink,
    /// Open stall span: when the current wait began and why. Transitions
    /// only happen on processed (never skipped) edges, so the spans are
    /// identical with skip-ahead on or off.
    wait_since: Option<(Tick, StallCause)>,
    /// Open invocation span: `(run tick, iterations at run)`.
    run_since: Option<(Tick, u64)>,
}

impl PartitionEngine {
    /// Creates an engine for a definition.
    ///
    /// `param_syms` is the plan-wide parameter table
    /// ([`distda_compiler::OffloadPlan::params`]); `buffer_lines` sizes the
    /// access-unit SRAM (64 lines = the paper's 4 KB default).
    pub fn new(
        def: PartitionDef,
        param_syms: Vec<Sym>,
        model: IssueModel,
        clock: ClockDomain,
        buffer_lines: usize,
    ) -> Self {
        let n_access = def.accesses.len();
        let n_carry = def.carry_scalars.len();
        let n_nodes = def.nodes.len();
        Self {
            def,
            param_syms,
            model,
            clock,
            buffer: ObjectBuffer::new(buffer_lines.max(1)),
            params: Vec::new(),
            carry: vec![Value::I(0); n_carry],
            access_base: vec![0; n_access],
            stream_pf: vec![0; n_access],
            write_line: vec![None; n_access],
            start: 0,
            end: 0,
            step: 1,
            inner: 0,
            state: State::Idle,
            pc: 0,
            vals: vec![Value::I(0); n_nodes],
            ready: vec![0; n_nodes],
            wait: None,
            busy_until: 0,
            iter_start: 0,
            pending: Arena::with_capacity((MAX_READS + MAX_WRITES) as usize),
            pending_lines: LineSet::default(),
            pf_ahead: PF_AHEAD_LINES,
            max_reads: MAX_READS,
            max_writes: MAX_WRITES,
            next_req: 0,
            outstanding_reads: 0,
            outstanding_writes: 0,
            wb_retry: Vec::new(),
            wake: Wake::Never,
            last_edge: None,
            attempted: false,
            stats: EngineStats::default(),
            sink: TraceSink::default(),
            wait_since: None,
            run_since: None,
        }
    }

    /// Attaches a trace sink recording stall and invocation spans. A
    /// default (disabled) sink costs nothing.
    pub fn set_sink(&mut self, sink: TraceSink) {
        self.sink = sink;
    }

    fn cause_of(w: Wait) -> StallCause {
        match w {
            Wait::Line { .. } => StallCause::Mem,
            Wait::Chan { .. } => StallCause::Chan,
            Wait::WriteCap { .. } => StallCause::WriteCap,
        }
    }

    /// The executed definition.
    pub fn def(&self) -> &PartitionDef {
        &self.def
    }

    /// The engine's clock domain.
    pub fn clock(&self) -> ClockDomain {
        self.clock
    }

    /// Tunes the access unit: prefetch distance (lines ahead) and
    /// outstanding request limits. Used by the paper's software-prefetch
    /// study (Figure 14, Dist-DA-IO+SW).
    pub fn set_tuning(&mut self, pf_ahead: u64, max_reads: u32, max_writes: u32) {
        self.pf_ahead = pf_ahead.max(1);
        self.max_reads = max_reads.max(1);
        self.max_writes = max_writes.max(1);
    }

    /// `cp_set_rf` + `cp_run`: configures one invocation of the offload.
    ///
    /// `params` must match the plan's parameter table; `carry_init` the
    /// definition's carry registers; `(start, end, step)` are the evaluated
    /// inner-loop bounds.
    ///
    /// # Panics
    ///
    /// Panics if the engine is mid-run or argument lengths mismatch.
    pub fn run(
        &mut self,
        now: Tick,
        params: &[Value],
        carry_init: &[Value],
        start: i64,
        end: i64,
        step: i64,
    ) {
        assert!(
            matches!(self.state, State::Idle | State::Done),
            "engine re-run while busy"
        );
        assert_eq!(params.len(), self.param_syms.len(), "param count");
        assert_eq!(carry_init.len(), self.carry.len(), "carry count");
        assert!(step != 0, "zero step");
        self.params = params.to_vec();
        self.carry.copy_from_slice(carry_init);
        self.stats.mmio_words += params.len() as u64 + carry_init.len() as u64 + 2;
        // Evaluate access bases with the new parameter environment.
        let env = |sym: Sym| -> i64 {
            match self.param_syms.iter().position(|&s| s == sym) {
                Some(i) => self.params[i].as_i64(),
                None => 0,
            }
        };
        for (i, a) in self.def.accesses.iter().enumerate() {
            self.access_base[i] = match &a.pattern {
                AccessPattern::Stream { base, .. } => base.eval(&env),
                AccessPattern::Indirect => 0,
            };
        }
        self.start = start;
        self.end = end;
        self.step = step;
        self.inner = start;
        self.stream_pf = vec![start; self.def.accesses.len()];
        self.write_line = vec![None; self.def.accesses.len()];
        self.pc = 0;
        self.wait = None;
        self.iter_start = now;
        self.wake = Wake::NextEdge;
        self.last_edge = None;
        self.attempted = false;
        if let Some((t0, c0)) = self.wait_since.take() {
            self.sink
                .span(t0, now, EventKind::EngineStall { cause: c0 });
        }
        if self.sink.on() {
            self.run_since = Some((now, self.stats.iterations));
        }
        self.state = if (step > 0 && start >= end) || (step < 0 && start <= end) {
            State::Draining
        } else {
            State::Running
        };
    }

    /// The engine's next internally-scheduled wake-up, as of the last
    /// processed clock edge. See [`Wake`].
    pub fn wake(&self) -> Wake {
        self.wake
    }

    /// One-line description of what the engine is doing, for deadlock
    /// reports.
    pub fn stall_debug(&self) -> String {
        format!(
            "state={:?} pc={} inner={} wait={:?} wake={:?} reads={} writes={} retries={}",
            self.state,
            self.pc,
            self.inner,
            self.wait,
            self.wake,
            self.outstanding_reads,
            self.outstanding_writes,
            self.wb_retry.len(),
        )
    }

    /// Whether the engine has completed its invocation (including drains).
    pub fn is_done(&self) -> bool {
        matches!(self.state, State::Done)
    }

    /// Whether the engine has no invocation at all yet.
    pub fn is_idle(&self) -> bool {
        matches!(self.state, State::Idle)
    }

    /// Whether the engine holds no in-flight memory state: no outstanding
    /// reads or writes, no queued writeback retries, no pending request
    /// bookkeeping. A drained machine requires this of every engine — an
    /// engine that reached `Done` with reads still outstanding means the
    /// machine stopped before the hierarchy delivered everything (the
    /// drain-leak bug).
    pub fn is_quiescent(&self) -> bool {
        self.outstanding_reads == 0
            && self.outstanding_writes == 0
            && self.wb_retry.is_empty()
            && self.pending.is_empty()
            && self.pending_lines.is_empty()
    }

    /// Reads a carry register (`cp_load_rf` after completion).
    pub fn carry_value(&self, reg: u16) -> Value {
        self.carry[reg as usize]
    }

    /// Statistics so far (cumulative across invocations).
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Buffer statistics.
    pub fn buffer(&self) -> &ObjectBuffer {
        &self.buffer
    }

    fn stride_of(&self, access: usize) -> i64 {
        match &self.def.accesses[access].pattern {
            AccessPattern::Stream { stride, .. } => *stride,
            AccessPattern::Indirect => 0,
        }
    }

    fn elem_of_stream(&self, access: usize, inner_val: i64) -> i64 {
        self.access_base[access] + inner_val * self.stride_of(access)
    }

    fn issue_read(&mut self, ctx: &mut dyn EngineCtx, line: u64) -> bool {
        if self.outstanding_reads >= self.max_reads || self.pending_lines.contains(&line) {
            return self.pending_lines.contains(&line);
        }
        let h = self.pending.alloc(Pending::Fill { line });
        if ctx.mem_read(h.to_bits(), line * LINE_BYTES) {
            self.next_req += 1;
            self.outstanding_reads += 1;
            self.pending_lines.insert(line);
            true
        } else {
            self.pending.take(h);
            self.attempted = true;
            false
        }
    }

    fn issue_write(&mut self, ctx: &mut dyn EngineCtx, line_addr: u64) {
        if self.outstanding_writes >= self.max_writes {
            self.wb_retry.push(line_addr);
            return;
        }
        let h = self.pending.alloc(Pending::WriteAck);
        if ctx.mem_write(h.to_bits(), line_addr) {
            self.next_req += 1;
            self.outstanding_writes += 1;
            self.stats.da_bytes += LINE_BYTES;
        } else {
            self.pending.take(h);
            self.attempted = true;
            self.wb_retry.push(line_addr);
        }
    }

    fn handle_completions(&mut self, ctx: &mut dyn EngineCtx) {
        while let Some(id) = ctx.poll_mem() {
            match self.pending.take(Handle::from_bits(id)) {
                Some(Pending::Fill { line }) => {
                    self.outstanding_reads -= 1;
                    self.pending_lines.remove(&line);
                    self.stats.da_bytes += LINE_BYTES;
                    if let Some(victim) = self.buffer.install(line) {
                        self.issue_write(ctx, victim * LINE_BYTES);
                    }
                }
                Some(Pending::WriteAck) => {
                    self.outstanding_writes -= 1;
                }
                None => {}
            }
        }
        // Retry deferred writebacks.
        while self.outstanding_writes < self.max_writes {
            let Some(line) = self.wb_retry.pop() else {
                break;
            };
            self.issue_write(ctx, line);
        }
    }

    fn prefetch_streams(&mut self, ctx: &mut dyn EngineCtx) {
        if !matches!(self.state, State::Running) {
            return;
        }
        for a in 0..self.def.accesses.len() {
            let def = &self.def.accesses[a];
            if def.write || !matches!(def.pattern, AccessPattern::Stream { .. }) {
                continue;
            }
            let stride = self.stride_of(a);
            if stride == 0 {
                // Loop-invariant element: fetch its line once.
                let elem = self.elem_of_stream(a, self.inner);
                let line = ctx.addr_of(def.array, elem) / LINE_BYTES;
                if !self.buffer.present(line) && !self.pending_lines.contains(&line) {
                    let _ = self.issue_read(ctx, line);
                }
                continue;
            }
            let cur_elem = self.elem_of_stream(a, self.inner);
            let cur_line = ctx.addr_of(def.array, cur_elem) / LINE_BYTES;
            let mut budget = 32;
            while budget > 0 && self.outstanding_reads < self.max_reads {
                budget -= 1;
                let v = self.stream_pf[a];
                let in_range = (self.step > 0 && v < self.end) || (self.step < 0 && v > self.end);
                if !in_range {
                    break;
                }
                let elem = self.elem_of_stream(a, v);
                let addr = ctx.addr_of(self.def.accesses[a].array, elem);
                let line = addr / LINE_BYTES;
                if line.abs_diff(cur_line) > self.pf_ahead {
                    break;
                }
                if !self.buffer.present(line) && !self.issue_read(ctx, line) {
                    break;
                }
                self.stream_pf[a] = v + self.step;
            }
        }
    }

    /// Cheap copy of every field that can change on an edge with no memory
    /// response and no channel event; used to detect quiescence. `stream_pf`
    /// is folded in because the prefetcher can advance past buffer-resident
    /// lines without issuing any request.
    #[allow(clippy::type_complexity)]
    fn snapshot(
        &self,
    ) -> (
        State,
        usize,
        i64,
        Option<Wait>,
        Tick,
        u64,
        u32,
        u32,
        usize,
        usize,
        i64,
    ) {
        (
            self.state,
            self.pc,
            self.inner,
            self.wait,
            self.busy_until,
            self.next_req,
            self.outstanding_reads,
            self.outstanding_writes,
            self.wb_retry.len(),
            self.pending_lines.len(),
            self.stream_pf.iter().fold(0i64, |a, &v| a.wrapping_add(v)),
        )
    }

    /// Charges the stall counters for edges the machine skipped while this
    /// engine sat in a wait — whole ticks skipped by the scheduler, or
    /// single edges of this engine gated because it was not due. On every
    /// skipped edge the tick-by-tick simulation would have re-tried the
    /// blocked node and charged exactly one stall cycle; everything else
    /// on those edges is provably a no-op, so bulk accounting keeps the
    /// statistics bit-identical.
    fn account_skipped_edges(&mut self, now: Tick, ctx: &mut dyn EngineCtx) {
        let Some(last) = self.last_edge else { return };
        if !matches!(self.state, State::Running) {
            return;
        }
        let Some(w) = self.wait else { return };
        let period = self.clock.period_ticks();
        // Skipped edges lie strictly between `last` and `now`; the blocked
        // node is only re-tried (charging a stall) on edges where `execute`
        // runs, i.e. at or past `busy_until`.
        let first = (last + period).max(self.clock.next_edge(self.busy_until));
        if now < first + period {
            return;
        }
        let missed = (now - period - first) / period + 1;
        match w {
            Wait::Line { .. } | Wait::WriteCap { .. } => {
                self.stats.stall_mem += missed;
                ctx.note_mem_stall(missed);
            }
            Wait::Chan { pc } => {
                self.stats.stall_chan += missed;
                if let Some((c, _)) = self.chan_of(pc) {
                    ctx.note_chan_stall(c, missed);
                }
            }
        }
    }

    /// Charges the stall edges skipped up to the last clock edge at or
    /// before `now`, exactly as if each had been processed, and moves the
    /// accounting point there. Skipped edges are otherwise charged on the
    /// engine's next processed edge, so a reader of the stall counters
    /// between two processed edges (an explain window boundary) settles
    /// every engine first to see the tick-by-tick values.
    pub fn settle(&mut self, now: Tick, ctx: &mut dyn EngineCtx) {
        let edge = now - now % self.clock.period_ticks();
        if self.last_edge.is_none_or(|last| last >= edge) {
            return;
        }
        self.account_skipped_edges(edge + self.clock.period_ticks(), ctx);
        self.last_edge = Some(edge);
    }

    /// The channel the node at `pc` blocks on, as `(chan, is_send)`.
    fn chan_of(&self, pc: usize) -> Option<(u16, bool)> {
        match self.def.nodes[pc] {
            PNode::Recv { chan } => Some((chan, false)),
            PNode::Send { chan, .. } => Some((chan, true)),
            _ => None,
        }
    }

    fn compute_wake(&self, now: Tick, progress: bool) -> Wake {
        match self.state {
            State::Idle | State::Done => Wake::Never,
            // Still draining after the retry pass ran: write acks are in
            // flight, and only their responses can move things along.
            State::Draining => {
                if progress || self.attempted {
                    Wake::NextEdge
                } else {
                    Wake::External(None)
                }
            }
            State::Running => {
                if progress || self.attempted {
                    return Wake::NextEdge;
                }
                if let Some(w) = self.wait {
                    return match w {
                        Wait::Line { .. } | Wait::WriteCap { .. } => Wake::External(None),
                        Wait::Chan { pc } => Wake::External(self.chan_of(pc)),
                    };
                }
                if self.busy_until > now {
                    Wake::At(self.busy_until)
                } else {
                    Wake::NextEdge
                }
            }
        }
    }

    /// Advances the engine by one base tick.
    pub fn tick(&mut self, now: Tick, ctx: &mut dyn EngineCtx) {
        if !self.clock.fires_at(now) {
            return;
        }
        self.account_skipped_edges(now, ctx);
        let before = self.snapshot();
        self.attempted = false;
        self.handle_completions(ctx);
        self.prefetch_streams(ctx);
        match self.state {
            State::Idle | State::Done => {}
            State::Draining => {
                if self.outstanding_writes == 0 && self.wb_retry.is_empty() {
                    self.state = State::Done;
                    if let Some((t0, it0)) = self.run_since.take() {
                        self.sink.span(
                            t0,
                            now,
                            EventKind::EngineRun {
                                iters: self.stats.iterations - it0,
                            },
                        );
                    }
                }
            }
            State::Running => {
                if now >= self.busy_until {
                    self.execute(now, ctx);
                }
            }
        }
        if self.sink.on() {
            self.trace_wait_transition(now);
        }
        let progress = self.snapshot() != before;
        self.wake = self.compute_wake(now, progress);
        self.last_edge = Some(now);
    }

    /// Closes/opens stall spans when the wait record changed on this edge.
    fn trace_wait_transition(&mut self, now: Tick) {
        let cur = self.wait.map(Self::cause_of);
        match (self.wait_since, cur) {
            (None, Some(c)) => self.wait_since = Some((now, c)),
            (Some((t0, c0)), None) => {
                self.sink
                    .span(t0, now, EventKind::EngineStall { cause: c0 });
                self.wait_since = None;
            }
            (Some((t0, c0)), Some(c)) if c != c0 => {
                self.sink
                    .span(t0, now, EventKind::EngineStall { cause: c0 });
                self.wait_since = Some((now, c));
            }
            _ => {}
        }
    }

    fn execute(&mut self, now: Tick, ctx: &mut dyn EngineCtx) {
        let width = match self.model {
            IssueModel::InOrder { width } => width.max(1),
            IssueModel::Cgra { .. } => u32::MAX, // iteration paced by II
        };
        let mut issued = 0u32;
        while issued < width {
            if self.pc >= self.def.nodes.len() {
                self.finish_iteration(now);
                return;
            }
            // Pipelined functional units: issue is in order at one node
            // per slot, but a multi-cycle result only stalls consumers
            // that need it before it is ready.
            if matches!(self.model, IssueModel::InOrder { .. }) {
                let dep_ready = self.operands_ready(self.pc);
                if dep_ready > now {
                    self.busy_until = dep_ready;
                    if issued > 0 {
                        self.stats.busy_cycles += 1;
                    }
                    return;
                }
            }
            match self.step_node(now, ctx) {
                Ok(lat) => {
                    // Any completed step invalidates a pending wait record
                    // (a resolved channel wait is not cleared by the Recv /
                    // Send arms themselves).
                    self.wait = None;
                    issued += 1;
                    self.ready[self.pc] = now + self.clock.ticks_for_cycles(lat.max(1));
                    self.pc += 1;
                }
                Err(wait) => {
                    match wait {
                        Wait::Line { .. } | Wait::WriteCap { .. } => {
                            self.stats.stall_mem += 1;
                            ctx.note_mem_stall(1);
                        }
                        Wait::Chan { pc } => {
                            self.stats.stall_chan += 1;
                            if let Some((c, _)) = self.chan_of(pc) {
                                ctx.note_chan_stall(c, 1);
                            }
                        }
                    }
                    self.wait = Some(wait);
                    if issued > 0 {
                        self.stats.busy_cycles += 1;
                    }
                    return;
                }
            }
        }
        if issued > 0 {
            self.stats.busy_cycles += 1;
        }
    }

    /// Latest readiness tick among the operands of the node at `pc`.
    fn operands_ready(&self, pc: usize) -> Tick {
        let ops: [Option<u16>; 3] = match &self.def.nodes[pc] {
            PNode::Bin { a, b, .. } => [Some(*a), Some(*b), None],
            PNode::Un { a, .. } => [Some(*a), None, None],
            PNode::Select { c, t, f } => [Some(*c), Some(*t), Some(*f)],
            PNode::Send { src, .. } => [Some(*src), None, None],
            PNode::SetCarry { src, .. } => [Some(*src), None, None],
            PNode::LoadIndirect { addr, .. } => [Some(*addr), None, None],
            PNode::StoreStream { val, pred, .. } => [Some(*val), *pred, None],
            PNode::StoreIndirect {
                addr, val, pred, ..
            } => [Some(*addr), Some(*val), *pred],
            _ => [None, None, None],
        };
        ops.iter()
            .flatten()
            .map(|&o| self.ready[o as usize])
            .max()
            .unwrap_or(0)
    }

    fn finish_iteration(&mut self, now: Tick) {
        self.stats.iterations += 1;
        self.pc = 0;
        self.inner += self.step;
        if let IssueModel::Cgra { ii } = self.model {
            let ii_ticks = self.clock.ticks_for_cycles(ii);
            let next = (self.iter_start + ii_ticks).max(now);
            self.busy_until = next;
            self.iter_start = next;
        }
        let still =
            (self.step > 0 && self.inner < self.end) || (self.step < 0 && self.inner > self.end);
        if !still {
            // Drain dirty buffer lines before reporting completion.
            let dirty = self.buffer.drain_dirty();
            self.state = State::Draining;
            self.wait = None;
            // Issue drains now (ctx unavailable here; defer via retry list).
            self.wb_retry.extend(dirty);
        }
    }

    /// Executes the node at `self.pc`; returns its extra latency or a wait.
    fn step_node(&mut self, _now: Tick, ctx: &mut dyn EngineCtx) -> Result<u64, Wait> {
        let pc = self.pc;
        // If we were waiting on this node, fast-path the resume.
        let resumed = match self.wait {
            Some(Wait::Line {
                line_addr,
                pc: wpc,
                elem,
            }) if wpc == pc => {
                if self.buffer.present(line_addr / LINE_BYTES) {
                    self.wait = None;
                    Some(elem)
                } else {
                    // The fill may have been installed and evicted by a
                    // competing stream before we resumed: re-issue the
                    // demand fetch or we wait forever.
                    let line = line_addr / LINE_BYTES;
                    if !self.pending_lines.contains(&line) {
                        let _ = self.issue_read(ctx, line);
                    }
                    return Err(Wait::Line {
                        line_addr,
                        pc,
                        elem,
                    });
                }
            }
            Some(Wait::WriteCap { pc: wpc }) if wpc == pc => {
                if self.outstanding_writes < self.max_writes {
                    self.wait = None;
                    None
                } else {
                    return Err(Wait::WriteCap { pc });
                }
            }
            _ => None,
        };
        let node = self.def.nodes[pc];
        let v: Value = match node {
            PNode::Const(v) => v,
            PNode::IndVar => Value::I(self.inner),
            PNode::Param(ix) => self.params[ix as usize],
            PNode::Carry(r) => self.carry[r as usize],
            PNode::SetCarry { reg, src } => {
                self.carry[reg as usize] = self.vals[src as usize];
                self.vals[src as usize]
            }
            PNode::LoadStream { access } => {
                let a = access as usize;
                let array = self.def.accesses[a].array;
                let elem = match resumed {
                    Some(e) => e,
                    None => {
                        let elem = self.elem_of_stream(a, self.inner);
                        let addr = ctx.addr_of(array, elem);
                        let line = addr / LINE_BYTES;
                        if !self.buffer.access(line) {
                            // Demand fetch (prefetcher may be behind).
                            let _ = self.issue_read(ctx, line);
                            return Err(Wait::Line {
                                line_addr: line * LINE_BYTES,
                                pc,
                                elem,
                            });
                        }
                        self.stats.intra_bytes += 8;
                        elem
                    }
                };
                if resumed.is_some() {
                    self.stats.intra_bytes += 8;
                }
                self.stats.mem_ops += 1;
                ctx.func_load(array, elem)
            }
            PNode::LoadIndirect { access, addr } => {
                let a = access as usize;
                let array = self.def.accesses[a].array;
                let elem = match resumed {
                    Some(e) => e,
                    None => {
                        let elem = self.vals[addr as usize].as_i64();
                        let byte = ctx.addr_of(array, elem);
                        let line = byte / LINE_BYTES;
                        if !self.buffer.access(line) {
                            let _ = self.issue_read(ctx, line);
                            return Err(Wait::Line {
                                line_addr: line * LINE_BYTES,
                                pc,
                                elem,
                            });
                        }
                        self.stats.intra_bytes += 8;
                        elem
                    }
                };
                if resumed.is_some() {
                    self.stats.intra_bytes += 8;
                }
                self.stats.mem_ops += 1;
                ctx.func_load(array, elem)
            }
            PNode::Bin { op, a, b } => {
                self.stats.alu_ops += 1;
                let r = op.apply(self.vals[a as usize], self.vals[b as usize]);
                self.vals[pc] = r;
                return Ok(op.latency());
            }
            PNode::Un { op, a } => {
                self.stats.alu_ops += 1;
                let r = op.apply(self.vals[a as usize]);
                self.vals[pc] = r;
                return Ok(op.latency());
            }
            PNode::Select { c, t, f } => {
                self.stats.alu_ops += 1;
                if self.vals[c as usize].truthy() {
                    self.vals[t as usize]
                } else {
                    self.vals[f as usize]
                }
            }
            PNode::Recv { chan } => match ctx.try_recv(chan) {
                Some(v) => v,
                None => return Err(Wait::Chan { pc }),
            },
            PNode::Send { chan, src } => {
                let v = self.vals[src as usize];
                if !ctx.try_send(chan, v) {
                    return Err(Wait::Chan { pc });
                }
                self.stats.aa_bytes += 8;
                v
            }
            PNode::StoreStream { access, val, pred } => {
                let executed = pred.is_none_or(|p| self.vals[p as usize].truthy());
                if executed {
                    if self.outstanding_writes >= self.max_writes && resumed.is_none() {
                        return Err(Wait::WriteCap { pc });
                    }
                    let a = access as usize;
                    let array = self.def.accesses[a].array;
                    let elem = self.elem_of_stream(a, self.inner);
                    let v = self.vals[val as usize];
                    ctx.func_store(array, elem, v);
                    let line = ctx.addr_of(array, elem) / LINE_BYTES;
                    self.stats.mem_ops += 1;
                    self.stats.intra_bytes += 8;
                    if let Some(victim) = self.buffer.write(line) {
                        self.issue_write(ctx, victim * LINE_BYTES);
                    }
                    // Stream stores advance monotonically: once the write
                    // pointer leaves a line, drain it eagerly so dirty
                    // lines never pile up in the buffer (Figure 2c's drain
                    // FSM).
                    if let Some(prev) = self.write_line[a] {
                        if prev != line {
                            self.buffer.mark_clean(prev);
                            self.issue_write(ctx, prev * LINE_BYTES);
                        }
                    }
                    self.write_line[a] = Some(line);
                }
                Value::I(0)
            }
            PNode::StoreIndirect {
                access,
                addr,
                val,
                pred,
            } => {
                let executed = pred.is_none_or(|p| self.vals[p as usize].truthy());
                if executed {
                    if self.outstanding_writes >= self.max_writes && resumed.is_none() {
                        return Err(Wait::WriteCap { pc });
                    }
                    let a = access as usize;
                    let array = self.def.accesses[a].array;
                    let elem = self.vals[addr as usize].as_i64();
                    let v = self.vals[val as usize];
                    ctx.func_store(array, elem, v);
                    let line = ctx.addr_of(array, elem) / LINE_BYTES;
                    self.stats.mem_ops += 1;
                    self.stats.intra_bytes += 8;
                    if let Some(victim) = self.buffer.write(line) {
                        self.issue_write(ctx, victim * LINE_BYTES);
                    }
                }
                Value::I(0)
            }
        };
        self.vals[pc] = v;
        Ok(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::MockCtx;
    use distda_compiler::{compile, PartitionMode};
    use distda_ir::prelude::*;

    fn axpy_plan() -> (Program, distda_compiler::OffloadPlan) {
        let mut b = ProgramBuilder::new("axpy");
        let x = b.array_f64("x", 32);
        let y = b.array_f64("y", 32);
        b.for_(0, 32, 1, |b, i| {
            let v = Expr::cf(2.0) * Expr::load(x, i.clone()) + Expr::load(y, i.clone());
            b.store(y, i, v);
        });
        let p = b.build();
        let ck = compile(&p, PartitionMode::Monolithic);
        (p, ck.offloads[0].clone())
    }

    fn run_to_done(e: &mut PartitionEngine, ctx: &mut MockCtx, budget: u64) -> u64 {
        let mut t = 0;
        while !e.is_done() {
            e.tick(t, ctx);
            t += 1;
            assert!(t < budget, "engine hung");
        }
        t
    }

    #[test]
    fn monolithic_axpy_computes_correct_values() {
        let (_, plan) = axpy_plan();
        let mut eng = PartitionEngine::new(
            plan.partitions[0].clone(),
            plan.params.clone(),
            IssueModel::InOrder { width: 1 },
            ClockDomain::from_ghz(2.0),
            64,
        );
        let mut ctx = MockCtx::new(3);
        let x = ArrayId(0);
        let y = ArrayId(1);
        for i in 0..32 {
            ctx.set(x, i, Value::F(i as f64));
            ctx.set(y, i, Value::F(1.0));
        }
        eng.run(0, &[], &[], 0, 32, 1);
        run_to_done(&mut eng, &mut ctx, 1_000_000);
        for i in 0..32 {
            assert_eq!(ctx.func_load(y, i), Value::F(2.0 * i as f64 + 1.0));
        }
        assert_eq!(eng.stats().iterations, 32);
        assert!(
            eng.stats().intra_bytes > 0,
            "no buffer reuse on unit stride"
        );
    }

    #[test]
    fn reduction_carry_produces_sum() {
        let mut b = ProgramBuilder::new("sum");
        let x = b.array_i64("x", 16);
        let acc = b.scalar("acc", 0i64);
        b.for_(0, 16, 1, |b, i| {
            b.set(acc, Expr::Scalar(acc) + Expr::load(x, i));
        });
        let p = b.build();
        let plan = compile(&p, PartitionMode::Monolithic).offloads[0].clone();
        let mut eng = PartitionEngine::new(
            plan.partitions[0].clone(),
            plan.params.clone(),
            IssueModel::InOrder { width: 1 },
            ClockDomain::from_ghz(2.0),
            64,
        );
        let mut ctx = MockCtx::new(2);
        for i in 0..16 {
            ctx.set(ArrayId(0), i, Value::I(i + 1));
        }
        eng.run(0, &[], &[Value::I(0)], 0, 16, 1);
        run_to_done(&mut eng, &mut ctx, 1_000_000);
        let (_, _, reg) = plan.liveouts[0];
        assert_eq!(eng.carry_value(reg), Value::I(136));
    }

    #[test]
    fn empty_trip_completes_immediately() {
        let (_, plan) = axpy_plan();
        let mut eng = PartitionEngine::new(
            plan.partitions[0].clone(),
            plan.params.clone(),
            IssueModel::InOrder { width: 1 },
            ClockDomain::from_ghz(2.0),
            8,
        );
        let mut ctx = MockCtx::new(1);
        eng.run(0, &[], &[], 5, 5, 1);
        run_to_done(&mut eng, &mut ctx, 100);
        assert_eq!(eng.stats().iterations, 0);
    }

    #[test]
    fn recv_blocks_until_data_arrives() {
        // Distributed two-partition pipeline over MockCtx channels.
        let mut b = ProgramBuilder::new("pipe");
        let x = b.array_f64("x", 8);
        let y = b.array_f64("y", 8);
        b.for_(0, 8, 1, |b, i| {
            b.store(y, i.clone(), Expr::load(x, i) * Expr::cf(3.0));
        });
        let p = b.build();
        let plan = compile(&p, PartitionMode::Distributed).offloads[0].clone();
        assert_eq!(plan.partitions.len(), 2);
        let mk = |d: &distda_compiler::PartitionDef| {
            PartitionEngine::new(
                d.clone(),
                plan.params.clone(),
                IssueModel::InOrder { width: 1 },
                ClockDomain::from_ghz(2.0),
                16,
            )
        };
        let mut e0 = mk(&plan.partitions[0]);
        let mut e1 = mk(&plan.partitions[1]);
        let mut ctx = MockCtx::new(2);
        for i in 0..8 {
            ctx.set(ArrayId(0), i, Value::F(i as f64));
        }
        e0.run(0, &[], &[], 0, 8, 1);
        e1.run(0, &[], &[], 0, 8, 1);
        let mut t = 0;
        while !(e0.is_done() && e1.is_done()) {
            e0.tick(t, &mut ctx);
            e1.tick(t, &mut ctx);
            t += 1;
            assert!(t < 1_000_000, "pipeline hung");
        }
        for i in 0..8 {
            assert_eq!(ctx.func_load(ArrayId(1), i), Value::F(3.0 * i as f64));
        }
        let total_aa: u64 = e0.stats().aa_bytes + e1.stats().aa_bytes;
        assert_eq!(total_aa, 8 * 8, "one 8-byte operand per iteration");
    }

    /// Whether `e` can act at `now`: the machine's gate, over a mock
    /// whose channels hold `cap` operands and whose memory answers on the
    /// next poll.
    fn due(e: &PartitionEngine, ctx: &MockCtx, cap: usize, now: Tick) -> bool {
        let clock = e.clock();
        let len = |c: u16| ctx.channels.get(&c).map_or(0, |q| q.len());
        let wake = if !ctx.inflight.is_empty() {
            Some(clock.next_edge(now))
        } else {
            match e.wake() {
                Wake::Never | Wake::External(None) => None,
                Wake::NextEdge => Some(clock.next_edge(now)),
                Wake::At(t) => Some(clock.next_edge(t.max(now))),
                Wake::External(Some((c, is_send))) => {
                    let ready = if is_send { len(c) < cap } else { len(c) > 0 };
                    ready.then(|| clock.next_edge(now))
                }
            }
        };
        wake == Some(now)
    }

    #[test]
    fn settling_equals_ticking_every_edge() {
        // The producer half of a two-partition pipeline, sending into a
        // two-slot channel that a scripted consumer drains slowly: the
        // engine spends most of its run blocked on channel credit.
        let mut b = ProgramBuilder::new("pipe");
        let x = b.array_f64("x", 32);
        let y = b.array_f64("y", 32);
        b.for_(0, 32, 1, |b, i| {
            b.store(y, i.clone(), Expr::load(x, i) * Expr::cf(3.0));
        });
        let plan = compile(&b.build(), PartitionMode::Distributed).offloads[0].clone();
        let ch = &plan.channels[0];
        let (producer, chan) = (ch.producer as usize, 0u16);
        const CAP: usize = 2;
        // A mid-wait tick that is not an edge (the 2 GHz period is 3).
        const MID: Tick = 151;
        let drive = |gated: bool| {
            let mut e = PartitionEngine::new(
                plan.partitions[producer].clone(),
                plan.params.clone(),
                IssueModel::InOrder { width: 1 },
                ClockDomain::from_ghz(2.0),
                16,
            );
            let mut ctx = MockCtx::new(0);
            ctx.chan_cap = Some(CAP);
            e.run(0, &[], &[], 0, 32, 1);
            let (mut edges, mut mid) = (0, None);
            let mut t = 0;
            while !e.is_done() {
                if t > 200 && t % 40 == 0 {
                    ctx.channels.entry(chan).or_default().pop_front();
                }
                if !gated || due(&e, &ctx, CAP, t) {
                    edges += u64::from(e.clock().fires_at(t));
                    e.tick(t, &mut ctx);
                }
                if t == MID {
                    if gated {
                        assert!(
                            matches!(e.wake(), Wake::External(Some(_))),
                            "mid-wait: {}",
                            e.stall_debug()
                        );
                        e.settle(t, &mut ctx);
                    }
                    mid = Some((e.stats(), ctx.chan_stall_notes, ctx.mem_stall_notes));
                }
                t += 1;
                assert!(t < 1_000_000, "pipeline hung");
            }
            let end = (e.stats(), ctx.chan_stall_notes, ctx.mem_stall_notes);
            (mid.expect("run outlives MID"), end, t, edges)
        };
        let (mid_all, end_all, t_all, edges_all) = drive(false);
        let (mid_due, end_due, t_due, edges_due) = drive(true);
        assert!(end_all.0.stall_chan > 0, "the engine must block on credit");
        assert_eq!(end_all.1, end_all.0.stall_chan, "notes follow the counter");
        assert!(edges_due < edges_all, "the gate skipped no edge");
        assert_eq!(mid_due, mid_all, "settled mid-wait counters");
        assert_eq!(end_due, end_all, "final counters");
        assert_eq!(t_due, t_all, "completion tick");
    }

    #[test]
    fn cgra_ii_paces_iterations() {
        let (_, plan) = axpy_plan();
        let mk = |model| {
            PartitionEngine::new(
                plan.partitions[0].clone(),
                plan.params.clone(),
                model,
                ClockDomain::from_ghz(1.0),
                64,
            )
        };
        let mut fast = mk(IssueModel::Cgra { ii: 1 });
        let mut slow = mk(IssueModel::Cgra { ii: 16 });
        let mut c1 = MockCtx::new(1);
        let mut c2 = MockCtx::new(1);
        fast.run(0, &[], &[], 0, 32, 1);
        slow.run(0, &[], &[], 0, 32, 1);
        let t_fast = run_to_done(&mut fast, &mut c1, 1_000_000);
        let t_slow = run_to_done(&mut slow, &mut c2, 1_000_000);
        assert!(
            t_slow > t_fast * 2,
            "II=16 ({t_slow}) should be much slower than II=1 ({t_fast})"
        );
    }

    #[test]
    fn predicated_store_skips_memory() {
        let mut b = ProgramBuilder::new("pred");
        let x = b.array_i64("x", 8);
        let y = b.array_i64("y", 8);
        b.for_(0, 8, 1, |b, i| {
            b.when(Expr::load(x, i.clone()).lt(Expr::c(0)), |b| {
                b.store(y, i.clone(), Expr::c(1));
            });
        });
        let p = b.build();
        let plan = compile(&p, PartitionMode::Monolithic).offloads[0].clone();
        let mut eng = PartitionEngine::new(
            plan.partitions[0].clone(),
            plan.params.clone(),
            IssueModel::InOrder { width: 1 },
            ClockDomain::from_ghz(2.0),
            16,
        );
        let mut ctx = MockCtx::new(1);
        // x all non-negative: predicate always false.
        eng.run(0, &[], &[], 0, 8, 1);
        run_to_done(&mut eng, &mut ctx, 1_000_000);
        for i in 0..8 {
            assert_eq!(ctx.func_load(ArrayId(1), i), Value::I(0));
        }
    }

    #[test]
    fn wider_issue_is_faster() {
        let (_, plan) = axpy_plan();
        let mk = |w| {
            PartitionEngine::new(
                plan.partitions[0].clone(),
                plan.params.clone(),
                IssueModel::InOrder { width: w },
                ClockDomain::from_ghz(2.0),
                64,
            )
        };
        let mut narrow = mk(1);
        let mut wide = mk(4);
        let mut c1 = MockCtx::new(1);
        let mut c2 = MockCtx::new(1);
        narrow.run(0, &[], &[], 0, 32, 1);
        wide.run(0, &[], &[], 0, 32, 1);
        let tn = run_to_done(&mut narrow, &mut c1, 1_000_000);
        let tw = run_to_done(&mut wide, &mut c2, 1_000_000);
        assert!(tw < tn, "4-wide {tw} should beat 1-wide {tn}");
    }

    #[test]
    fn stats_count_memory_and_alu_ops() {
        let (_, plan) = axpy_plan();
        let mut eng = PartitionEngine::new(
            plan.partitions[0].clone(),
            plan.params.clone(),
            IssueModel::InOrder { width: 1 },
            ClockDomain::from_ghz(2.0),
            64,
        );
        let mut ctx = MockCtx::new(1);
        eng.run(0, &[], &[], 0, 32, 1);
        run_to_done(&mut eng, &mut ctx, 1_000_000);
        assert_eq!(eng.stats().mem_ops, 32 * 3);
        assert_eq!(eng.stats().alu_ops, 32 * 2);
        assert!(eng.stats().da_bytes > 0);
    }
}
