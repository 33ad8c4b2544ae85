//! End-to-end simulation of one kernel under one configuration: compile,
//! allocate, place, execute (host segments interleaved with offload
//! invocations), validate against the reference interpreter, and collect
//! every metric the paper's figures need.

use crate::alloc::{allocate, allocate_for_tenant, Allocation};
use crate::config::{ConfigKind, RunConfig, Topology};
use crate::error::SimError;
use crate::hosteval::HostEval;
use crate::machine::{Machine, PlanHandle, Substrate};
use crate::transform::decentralize;
use distda_accel::{cgra_map, CgraConfig, IssueModel};
use distda_check::Sanitizer;
use distda_compiler::affine::Sym;
use distda_compiler::plan::OffloadPlan;
use distda_compiler::{compile, CompiledKernel, PNode};
use distda_energy::{EnergyBreakdown, EnergyCounters, EnergyModel};
use distda_explain::Explanation;
use distda_ir::interp::{self, Memory};
use distda_ir::program::{LoopId, Program, Stmt};
use distda_ir::value::Value;
use distda_mem::{MemConfig, MemSystem};
use distda_noc::TrafficClass;
use distda_sim::component::Instruments;
use distda_sim::time::{ticks_to_ns, ClockDomain, Tick};
use distda_sim::{Profiler, Report, Sampler};
use distda_trace::Tracer;
use std::collections::HashMap;

/// Flush the host trace segment when it grows past this many ops.
const SEGMENT_FLUSH_OPS: usize = 1 << 20;

/// Which correctness machinery a run engages (the `distda-check`
/// subsystem).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckPolicy {
    /// Attach an enabled invariant sanitizer to the machine: conservation
    /// violations become [`SimError::InvariantViolation`] instead of
    /// silent corruption or panics.
    pub sanitize: bool,
    /// Treat a golden-model mismatch (simulated memory image or live-out
    /// scalars != the IR interpreter's) as
    /// [`SimError::ValidationMismatch`] instead of only recording
    /// `validated = false`.
    pub strict_validate: bool,
}

impl CheckPolicy {
    /// The environment-driven policy [`RunSpec::from_env`] uses:
    /// `sanitize` follows `DISTDA_SANITIZE` (default: on in debug builds),
    /// `strict_validate` follows `DISTDA_VALIDATE` (default: off).
    pub fn from_env() -> Self {
        Self {
            sanitize: distda_sim::env::sanitize(),
            strict_validate: distda_sim::env::validate(),
        }
    }

    /// Everything on — what the `validate` bin and the differential tests
    /// use regardless of environment.
    pub fn full() -> Self {
        Self {
            sanitize: true,
            strict_validate: true,
        }
    }
}

/// Everything measured in one simulated run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Kernel name.
    pub kernel: String,
    /// Configuration label.
    pub config: String,
    /// Total simulated base ticks.
    pub ticks: Tick,
    /// Simulated nanoseconds.
    pub ns: f64,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// Raw event counters.
    pub counters: EnergyCounters,
    /// Demand accesses across L1+L2+L3 (Figure 8).
    pub cache_accesses: u64,
    /// Element memory operations (host + accelerators).
    pub mem_ops: u64,
    /// Total retired operations (host + accelerators).
    pub total_ops: u64,
    /// Host-retired operations.
    pub host_ops: u64,
    /// Figure 9 components, in bytes.
    pub intra_bytes: u64,
    /// Accelerator <-> cache-hierarchy bytes.
    pub da_bytes: u64,
    /// Accelerator <-> accelerator operand bytes.
    pub aa_bytes: u64,
    /// NoC payload bytes per traffic class (Figure 10 order).
    pub noc_bytes: [u64; 5],
    /// Total bytes moved (headline data-movement metric).
    pub data_moved_bytes: u64,
    /// Final memory image matched the reference interpreter.
    pub validated: bool,
    /// Full statistics dump.
    pub report: Report,
}

impl RunResult {
    /// Total dynamic energy in picojoules.
    pub fn energy_pj(&self) -> f64 {
        self.energy.total()
    }

    /// Instructions per host-equivalent (2 GHz) cycle.
    pub fn ipc(&self) -> f64 {
        let cycles = (self.ticks / 3).max(1);
        self.total_ops as f64 / cycles as f64
    }

    /// Memory operations per nanosecond (Figure 11a's memory-op rate).
    pub fn mem_op_rate(&self) -> f64 {
        self.mem_ops as f64 / self.ns.max(1e-9)
    }
}

/// Everything one run attaches and checks, beyond the program and the
/// configuration: the skip-ahead override, a shared reference execution,
/// the three instruments and the [`CheckPolicy`]. The instruments are cheap
/// clone handles whose `Default` is disabled, so [`RunSpec::default`] is a
/// bare run: no instruments, no sanitizer, no strict validation. Clones
/// share their instruments, which accumulate across the runs they attach
/// to: build one spec per run.
#[derive(Clone, Default)]
pub struct RunSpec<'a> {
    /// Idle skip-ahead override; `None` keeps the machine default
    /// (`DISTDA_SKIP`) and makes the run eligible for the
    /// `DISTDA_CHECK_SKIP` cross-check.
    pub skip: Option<bool>,
    /// Precomputed reference execution (final memory image + scalar
    /// values from the interpreter). Sweeps run one workload under many
    /// configurations; interpreting the kernel once and sharing the result
    /// removes the dominant per-run cost for short kernels. `None`
    /// recomputes it inline.
    pub reference: Option<&'a (Memory, Vec<Value>)>,
    /// Event tracer attached to the machine; the run's report gains a
    /// `trace.*` section when it is enabled.
    pub tracer: Tracer,
    /// Which correctness machinery the run engages.
    pub policy: CheckPolicy,
    /// Scheduler self-profiler timing every component tick against the
    /// host clock (never perturbing results).
    pub profiler: Profiler,
    /// Windowed port sampler; when enabled, the run returns a causal
    /// [`Explanation`] and its report gains the `explain.*` keys.
    pub sampler: Sampler,
}

impl RunSpec<'_> {
    /// The environment's run: tracer, profiler and sampler per
    /// `DISTDA_TRACE`, `DISTDA_OBS` and `DISTDA_EXPLAIN`, and
    /// [`CheckPolicy::from_env`].
    pub fn from_env() -> Self {
        Self {
            tracer: distda_sim::env::tracer(),
            policy: CheckPolicy::from_env(),
            profiler: distda_sim::env::profiler(),
            sampler: distda_sim::env::sampler(),
            ..Self::default()
        }
    }
}

/// What [`try_simulate`] returns: the measured result, the simulated final
/// memory image and live-out scalars (for debugging and differential
/// tests), and the causal tree when a sampler was attached.
#[derive(Debug)]
pub struct Run {
    /// Everything measured.
    pub result: RunResult,
    /// The simulated final memory image.
    pub memory: Memory,
    /// The simulated live-out scalar values.
    pub scalars: Vec<Value>,
    /// The causal explanation, when `spec.sampler` was enabled.
    pub explanation: Option<Explanation>,
}

/// The file-name form of a kernel or configuration label: every
/// non-alphanumeric character becomes `-`. Artifact paths
/// (`results/trace_<kernel>_<config>.json`, ...) and the serve cache's
/// entry names are built from it.
pub fn slug(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect()
}

/// The one simulation pipeline: simulates `prog` (inputs installed
/// by `init`) under `cfg` with what `spec` attaches.
///
/// With `spec.policy.sanitize`, an enabled [`Sanitizer`] is attached to
/// the machine: the run loops stop on the first conservation-law
/// violation, and the drained machine is audited (MSHRs, responses,
/// credits, flits, cache occupancy, tick attribution). With
/// `spec.policy.strict_validate`, a disagreement with the IR interpreter's
/// golden execution becomes [`SimError::ValidationMismatch`] naming the
/// first mismatching object/element.
///
/// Two environment rules apply here and nowhere else:
///
/// - each enabled instrument whose knob (`DISTDA_TRACE`, `DISTDA_OBS`,
///   `DISTDA_EXPLAIN`) is set is written once, after the run, to
///   `results/{trace,profile,explain}_<kernel>_<config>.*`;
/// - with `DISTDA_CHECK_SKIP=1` and `spec.skip == None`, the run is
///   repeated tick-by-tick without instruments and the two results must
///   agree, else [`SimError::InvariantViolation`] with phase
///   `skip-cross-check`.
///
/// # Errors
///
/// Returns [`SimError`] on deadlock, budget exhaustion, invariant
/// violation, invalid configuration, strict-validation mismatch, or a
/// skip cross-check divergence.
pub fn try_simulate(
    prog: &Program,
    init: &dyn Fn(&mut Memory),
    cfg: &RunConfig,
    spec: &RunSpec,
) -> Result<Run, SimError> {
    cfg.validate()?;
    // Reference execution for validation (shared across a sweep's
    // configurations when the caller precomputed it).
    let computed;
    let reference = match spec.reference {
        Some(r) => r,
        None => {
            let mut m = Memory::for_program(prog);
            init(&mut m);
            let s = interp::run(prog, &mut m);
            computed = (m, s);
            &computed
        }
    };
    let (ref_mem, ref_scalars) = (&reference.0, reference.1.as_slice());

    // Compile.
    let compiled: Option<CompiledKernel> = cfg.kind.partition_mode().map(|mode| {
        let mut ck = compile(prog, mode);
        if cfg.kind.decentralize_accesses() {
            for plan in &mut ck.offloads {
                *plan = decentralize(plan);
            }
        }
        ck
    });
    let plans: Vec<OffloadPlan> = compiled
        .as_ref()
        .map(|c| c.offloads.clone())
        .unwrap_or_default();

    let san = if spec.policy.sanitize {
        Sanitizer::enabled()
    } else {
        Sanitizer::disabled()
    };
    let exec = if cfg.topology.tenants > 1 {
        let ck = compiled.as_ref().ok_or_else(|| SimError::InvalidConfig {
            detail: "multi-tenant runs require an offload-capable configuration".to_string(),
        })?;
        run_tenants(prog, init, cfg, &plans, ck, spec, &san)?
    } else {
        run_single(prog, init, cfg, &plans, compiled, spec, &san)?
    };
    let Execution {
        machine,
        scalars,
        extra,
    } = exec;
    let eval_scalars = scalars[0].clone();

    // Validation: every tenant's memory image and live-out scalars match
    // the shared reference (co-scheduled tenants run identical copies of
    // the kernel, so one golden execution covers them all).
    let mut validated = true;
    let mut first_bad = None;
    for t in 0..cfg.topology.tenants as u16 {
        let img = machine.tenant_memimg(t);
        let mem_ok = (0..prog.arrays.len())
            .all(|a| img.array(distda_ir::ArrayId(a)) == ref_mem.array(distda_ir::ArrayId(a)));
        let scalars_ok = scalars[t as usize] == ref_scalars;
        if !(mem_ok && scalars_ok) {
            validated = false;
            first_bad.get_or_insert(t);
        }
    }
    if spec.policy.strict_validate && !validated {
        let t = first_bad.unwrap_or(0);
        let base = mismatch_detail(
            prog,
            machine.tenant_memimg(t),
            ref_mem,
            &scalars[t as usize],
            ref_scalars,
        );
        return Err(SimError::ValidationMismatch {
            kernel: prog.name.clone(),
            config: cfg.label(),
            detail: if cfg.topology.tenants > 1 {
                format!("tenant {t}: {base}")
            } else {
                base
            },
        });
    }

    // Metrics.
    let counters = machine.energy_counters();
    let energy = EnergyModel::nominal_32nm().energy_pj(&counters);
    let l1 = machine.mem().l1_stats();
    let l2 = machine.mem().l2_stats();
    let l3 = machine.mem().l3_stats();
    let cache_accesses = l1.accesses + l2.accesses + l3.accesses;
    let eng = machine.engine_totals();
    let host = machine.host_stats();
    let noc = machine.noc_stats().clone();
    let mut noc_bytes = [0u64; 5];
    for c in TrafficClass::ALL {
        noc_bytes[c.index()] = noc.bytes[c.index()];
    }
    let (dr, dw) = machine.mem().dram_counts();
    // Bytes moved across the chip, distance-weighted on the mesh: vertical
    // movement through the host's private hierarchy, DRAM transfers, and
    // byte-hops on the NoC. Bank-adjacent moves (an L3 bank filling its
    // local access buffer) are the near-data accesses the model exists to
    // create; they are counted in buffer energy, not as chip-level data
    // movement — exactly the on-chip movement the paper's headline
    // reduction measures.
    let data_moved_bytes = 64 * (l1.fills + l2.fills + dr + dw) + noc.total_hop_bytes();

    let ticks = machine.now();
    let tracer = &spec.tracer;
    // Tick-attribution partition invariant: with full event history, the
    // machine-track phase spans plus the `other` remainder must account
    // for exactly the run's ticks — neither a shortfall nor an
    // over-accounting masked by the old `saturating_sub`.
    if san.on() && tracer.is_enabled() {
        let attr = distda_trace::summary::phase_attribution(tracer, ticks);
        if attr.complete {
            let sum: Tick = attr.parts.iter().map(|(_, t)| *t).sum();
            san.check(
                sum == ticks && !attr.over_accounted,
                "trace",
                "attribution-partition",
                ticks,
                || {
                    format!(
                        "phase attribution sums to {sum} of {ticks} ticks (over_accounted={})",
                        attr.over_accounted
                    )
                },
            );
        }
        if san.count() > 0 {
            return Err(SimError::InvariantViolation {
                phase: "post-run",
                now: ticks,
                count: san.count(),
                report: san.render(),
            });
        }
    }
    let mut report = Report::new();
    report.merge_prefixed("mem", &machine.mem().report());
    report.merge_prefixed("noc", &noc.report());
    report.merge_prefixed("energy", &energy.report());
    // Per-port occupancy/stall series (`port.<name>.*`) from the
    // handshaked channel layer; quiet ports are omitted.
    report.merge_prefixed("port", &machine.port_report());
    report.add("ticks", ticks as f64);
    report.add("host.retired", host.retired as f64);
    report.add("host.mem_ops", host.mem_ops as f64);
    report.add("accel.iterations", eng.iterations as f64);
    report.add("accel.stall_mem", eng.stall_mem as f64);
    report.add("accel.stall_chan", eng.stall_chan as f64);
    report.add("validated", f64::from(u8::from(validated)));
    // Per-tenant attribution (`tenant.N.*`, `tenancy.*`) from a
    // multi-tenant execution; empty for single-tenant runs.
    report.merge(&extra);
    if tracer.is_enabled() {
        report.merge_prefixed("trace", &tracer.metrics_report());
    }
    // Causal attribution (`explain.*`): with an attached sampler the
    // drained machine's port topology, engine counters and windowed
    // samples become a ranked causal tree. An accounting violation
    // (blamed + busy exceeding the run) escalates through the sanitizer
    // like every other conservation law.
    let explanation = if machine.sampler().on() {
        let obs = machine.observation();
        let x = distda_explain::analyze(&obs);
        if san.on() {
            for v in &x.violations {
                san.check(false, "explain", "tick-accounting", ticks, || v.clone());
            }
            if san.count() > 0 {
                return Err(SimError::InvariantViolation {
                    phase: "explain-accounting",
                    now: ticks,
                    count: san.count(),
                    report: san.render(),
                });
            }
        }
        report.merge_prefixed("explain", &distda_explain::to_report(&x));
        // Counter tracks: the sampled windows become `explain` series in
        // the trace registry, rendered as Perfetto counter tracks by the
        // Chrome exporter next to the run's slices.
        if tracer.is_enabled() {
            if let Some(d) = &obs.samples {
                let sink = tracer.sink("explain");
                for w in &d.windows {
                    for (p, pt) in d.port_names.iter().zip(&w.ports) {
                        sink.sample(w.at, &format!("{p}.stalls"), pt.stalls as f64);
                        sink.sample(w.at, &format!("{p}.len"), pt.len as f64);
                    }
                    for (c, v) in d.counter_names.iter().zip(&w.counters) {
                        sink.sample(w.at, c, *v as f64);
                    }
                }
            }
        }
        Some(x)
    } else {
        None
    };

    let result = RunResult {
        kernel: prog.name.clone(),
        config: cfg.label(),
        ticks,
        ns: ticks_to_ns(ticks),
        energy,
        counters,
        cache_accesses,
        mem_ops: host.mem_ops + eng.mem_ops,
        total_ops: host.retired + eng.mem_ops + eng.alu_ops,
        host_ops: host.retired,
        intra_bytes: eng.intra_bytes,
        da_bytes: eng.da_bytes,
        aa_bytes: eng.aa_bytes,
        noc_bytes,
        data_moved_bytes,
        validated,
        report,
    };
    let run = Run {
        result,
        memory: machine.into_memimg(),
        scalars: eval_scalars,
        explanation,
    };
    export_artifacts(spec, &run);
    if spec.skip.is_none() && distda_sim::env::check_skip() {
        // The tick-by-tick twin carries no instruments: it exists only to
        // compare simulated results, and must not emit into the caller's
        // tracer or overwrite the returned run's artifacts.
        let slow = RunSpec {
            skip: Some(false),
            reference: Some(reference),
            policy: spec.policy,
            ..RunSpec::default()
        };
        skip_cross_check(&run.result, &try_simulate(prog, init, cfg, &slow)?.result)?;
    }
    Ok(run)
}

/// [`try_simulate`] with the [`RunSpec`] fields as loose arguments and the
/// run flattened to `(result, memory, scalars)`. The benchmark sweep
/// (`benchmark/src/sweep.rs`) pins this signature.
///
/// # Errors
///
/// Returns [`SimError`] as [`try_simulate`].
#[allow(clippy::too_many_arguments)]
pub fn try_simulate_instrumented(
    prog: &Program,
    init: &dyn Fn(&mut Memory),
    cfg: &RunConfig,
    skip: Option<bool>,
    reference: Option<&(Memory, Vec<Value>)>,
    tracer: &Tracer,
    policy: CheckPolicy,
    profiler: &Profiler,
    sampler: &Sampler,
) -> Result<(RunResult, Memory, Vec<Value>), SimError> {
    let spec = RunSpec {
        skip,
        reference,
        tracer: tracer.clone(),
        policy,
        profiler: profiler.clone(),
        sampler: sampler.clone(),
    };
    try_simulate(prog, init, cfg, &spec).map(|run| (run.result, run.memory, run.scalars))
}

/// Writes each artifact the environment asks for of a finished run: the
/// Chrome trace (`DISTDA_TRACE`), the self-profile table (`DISTDA_OBS`)
/// and the causal tree (`DISTDA_EXPLAIN`), each only when the run's own
/// instrument is enabled too.
fn export_artifacts(spec: &RunSpec, run: &Run) {
    let r = &run.result;
    if spec.tracer.is_enabled() && distda_sim::env::tracer().is_enabled() {
        let doc = distda_trace::chrome::export(&spec.tracer);
        write_artifact("trace", "json", r, &doc);
    }
    if distda_sim::env::obs() {
        if let Some(snap) = spec.profiler.snapshot_at(r.ticks) {
            let table = distda_sim::profile::render_table(&snap);
            write_artifact("profile", "txt", r, &table);
        }
    }
    if distda_sim::env::explain().is_some() {
        if let Some(x) = &run.explanation {
            write_artifact("explain", "txt", r, &distda_explain::render_text(x));
        }
    }
}

/// Writes `results/<kind>_<kernel>_<config>.<ext>`, warning on failure.
fn write_artifact(kind: &str, ext: &str, r: &RunResult, body: &str) {
    let dir = std::path::Path::new("results");
    let path = dir.join(format!(
        "{kind}_{}_{}.{ext}",
        slug(&r.kernel),
        slug(&r.config)
    ));
    if std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, body))
        .is_err()
    {
        eprintln!("warning: could not write {kind} to {}", path.display());
    }
}

/// Compares a run against its tick-by-tick twin: every simulated quantity
/// (ticks, counters, energy, bytes, `validated`) must agree. A divergence
/// is a [`SimError::InvariantViolation`] with phase `skip-cross-check`
/// carrying both keys, so one failing cell never aborts a sweep or a
/// server worker.
fn skip_cross_check(fast: &RunResult, slow: &RunResult) -> Result<(), SimError> {
    let key = |r: &RunResult| {
        format!(
            "{:?} {:?}",
            (r.ticks, &r.counters, &r.energy, r.cache_accesses),
            (
                r.mem_ops,
                r.total_ops,
                r.host_ops,
                r.intra_bytes,
                r.da_bytes,
                r.aa_bytes,
                r.noc_bytes,
                r.data_moved_bytes,
                r.validated,
            )
        )
    };
    let (a, b) = (key(fast), key(slow));
    if a == b {
        return Ok(());
    }
    Err(SimError::InvariantViolation {
        phase: "skip-cross-check",
        now: fast.ticks,
        count: 1,
        report: format!(
            "skip-ahead diverged from tick-by-tick on {} / {}\n  skip:         {a}\n  tick-by-tick: {b}",
            fast.kernel, fast.config
        ),
    })
}

/// Describes the first disagreement between the simulated machine's final
/// state and the golden model's, for [`SimError::ValidationMismatch`].
fn mismatch_detail(
    prog: &Program,
    sim: &Memory,
    reference: &Memory,
    sim_scalars: &[Value],
    ref_scalars: &[Value],
) -> String {
    for a in 0..prog.arrays.len() {
        let id = distda_ir::ArrayId(a);
        let (s, r) = (sim.array(id), reference.array(id));
        let diffs = s.iter().zip(r.iter()).filter(|(x, y)| x != y).count();
        if diffs > 0 || s.len() != r.len() {
            let i = s
                .iter()
                .zip(r.iter())
                .position(|(x, y)| x != y)
                .unwrap_or(s.len().min(r.len()));
            return format!(
                "array {}[{}]: simulated {:?} != reference {:?} ({} of {} elements differ)",
                prog.arrays[a].name,
                i,
                s.get(i),
                r.get(i),
                diffs,
                r.len()
            );
        }
    }
    for (i, (s, r)) in sim_scalars.iter().zip(ref_scalars.iter()).enumerate() {
        if s != r {
            return format!("scalar {i}: simulated {s:?} != reference {r:?}");
        }
    }
    "state differs but no element-level mismatch found".to_string()
}

/// The memory-hierarchy configuration implied by a topology: cluster and
/// bank counts follow the mesh shape, and a configured far-memory pool
/// moves DRAM an extra network hop away (added latency, pool bandwidth).
/// External drivers building machines by hand (the `bench` case studies)
/// use this to stay consistent with the runner.
pub fn mem_config_for(topo: &Topology) -> MemConfig {
    let mut mc = MemConfig::scaled_for_reduced_inputs();
    mc.clusters = topo.clusters();
    mc.banks_per_cluster = topo.banks_per_cluster;
    if let Some(fm) = topo.far_memory {
        mc.dram_latency += fm.extra_latency;
        mc.dram_bytes_per_cycle = fm.bytes_per_cycle;
    }
    mc
}

/// Attaches the run's instrumentation (skip override, tracer, sanitizer,
/// self-profiler, explain sampler) to a freshly built machine.
fn instrument(machine: &mut Machine, spec: &RunSpec, san: &Sanitizer) {
    if let Some(on) = spec.skip {
        machine.set_skip(on);
    }
    machine.set_instruments(Instruments {
        tracer: spec.tracer.clone(),
        san: san.clone(),
        prof: spec.profiler.clone(),
    });
    machine.set_sampler(spec.sampler.clone());
}

/// What an execution strategy hands back to the shared metrics/validation
/// tail: the drained machine, per-tenant live-out scalars (tenant 0
/// first), and any extra report keys (`tenant.N.*`, `tenancy.*`).
struct Execution {
    machine: Machine,
    scalars: Vec<Vec<Value>>,
    extra: Report,
}

/// The single-tenant execution strategy: the program walker interleaves
/// host segments with offload invocations exactly as before topology
/// parametrization.
fn run_single(
    prog: &Program,
    init: &dyn Fn(&mut Memory),
    cfg: &RunConfig,
    plans: &[OffloadPlan],
    compiled: Option<CompiledKernel>,
    spec: &RunSpec,
    san: &Sanitizer,
) -> Result<Execution, SimError> {
    let topo = &cfg.topology;
    let uncore = ClockDomain::from_ghz(2.0);
    let mut mem = MemSystem::new(
        mem_config_for(topo),
        uncore,
        topo.host_node,
        topo.memctrl_node,
    );
    let alloc = allocate(prog, plans, topo.clusters(), cfg.alloc, &mut mem);

    let mut img = Memory::for_program(prog);
    init(&mut img);
    let mut machine = Machine::new(mem, img, alloc.layout.clone(), 5, 224, topo);
    instrument(&mut machine, spec, san);

    let mut walker = Walker {
        prog,
        cfg,
        machine,
        eval: HostEval::new(prog, alloc.layout.clone()),
        compiled,
        alloc,
        handles: HashMap::new(),
    };
    let body = prog.body.clone();
    walker.exec_block(&body)?;
    walker.flush()?;
    walker.machine.drain()?;
    let Walker { machine, eval, .. } = walker;
    Ok(Execution {
        machine,
        scalars: vec![eval.scalars],
        extra: Report::new(),
    })
}

/// Whether a statement (transitively) contains a loop.
fn stmt_contains_loop(s: &Stmt) -> bool {
    match s {
        Stmt::Loop(_) => true,
        Stmt::If(_, t, e) => t.iter().any(stmt_contains_loop) || e.iter().any(stmt_contains_loop),
        _ => false,
    }
}

/// Functionally executes one loop-free statement against a tenant's view.
fn exec_scalar_stmt(s: &Stmt, eval: &mut HostEval, mem: &mut Memory) {
    match s {
        Stmt::Store(a, idx, val) => eval.store(*a, idx, val, mem),
        Stmt::SetScalar(sid, e) => eval.set_scalar(*sid, e, mem),
        Stmt::If(c, t, e) => {
            let (v, _) = eval.eval(c, mem);
            let arm = if v.truthy() { t } else { e };
            for s in arm {
                exec_scalar_stmt(s, eval, mem);
            }
        }
        Stmt::Loop(_) => unreachable!("host phases are loop-free under tenancy"),
    }
}

/// Runs a tenant's loop-free host phase (prologue or epilogue) and charges
/// the accumulated segment to the shared host core.
fn run_host_phase(
    stmts: &[&Stmt],
    eval: &mut HostEval,
    machine: &mut Machine,
    tenant: u16,
) -> Result<(), SimError> {
    {
        let mem = machine.tenant_memimg_mut(tenant);
        for s in stmts {
            exec_scalar_stmt(s, eval, mem);
        }
    }
    machine.run_host_segment(eval.take_segment())
}

/// Jain's fairness index over per-tenant progress rates: 1.0 when every
/// tenant progresses equally, 1/n under maximal starvation.
fn jain_index(xs: &[f64]) -> f64 {
    let s: f64 = xs.iter().sum();
    let s2: f64 = xs.iter().map(|x| x * x).sum();
    if s2 <= 0.0 {
        return 1.0;
    }
    s * s / (xs.len() as f64 * s2)
}

/// The multi-tenant execution strategy: `topology.tenants` identical
/// copies of the kernel co-scheduled on one fabric. Each tenant gets its
/// own functional view and a disjoint address band whose anchored objects
/// rotate home clusters (see [`allocate_for_tenant`]); host phases share
/// the single host core sequentially, while every tenant's offload runs
/// concurrently and contends for NUCA banks, mesh links and DRAM. The
/// kernel must be shaped as `prologue* offloadable-loop epilogue*` with no
/// loops outside the offload — anything else is rejected rather than
/// silently serialized.
fn run_tenants(
    prog: &Program,
    init: &dyn Fn(&mut Memory),
    cfg: &RunConfig,
    plans: &[OffloadPlan],
    compiled: &CompiledKernel,
    spec: &RunSpec,
    san: &Sanitizer,
) -> Result<Execution, SimError> {
    let topo = &cfg.topology;
    let n = topo.tenants;

    // Shape gate: exactly one top-level loop, offloadable, with loop-free
    // prologue/epilogue around it.
    let mut pre: Vec<&Stmt> = Vec::new();
    let mut post: Vec<&Stmt> = Vec::new();
    let mut the_loop: Option<&distda_ir::Loop> = None;
    for s in &prog.body {
        match s {
            Stmt::Loop(l) => {
                if the_loop.is_some() {
                    return Err(SimError::InvalidConfig {
                        detail: format!(
                            "kernel {} has multiple top-level loops; multi-tenant runs \
                             require prologue* offloadable-loop epilogue*",
                            prog.name
                        ),
                    });
                }
                the_loop = Some(l);
            }
            s if the_loop.is_none() => pre.push(s),
            s => post.push(s),
        }
    }
    let l = the_loop.ok_or_else(|| SimError::InvalidConfig {
        detail: format!("kernel {} has no top-level loop to offload", prog.name),
    })?;
    if pre.iter().chain(post.iter()).any(|s| stmt_contains_loop(s)) {
        return Err(SimError::InvalidConfig {
            detail: format!(
                "kernel {} has host-side loops outside the offload; multi-tenant \
                 runs require loop-free prologue/epilogue",
                prog.name
            ),
        });
    }
    let plan = compiled
        .plan_for(l.id)
        .cloned()
        .ok_or_else(|| SimError::InvalidConfig {
            detail: format!(
                "kernel {}'s top-level loop is not offloadable under this configuration",
                prog.name
            ),
        })?;

    // One shared fabric; per-tenant views, layouts and address bands.
    let uncore = ClockDomain::from_ghz(2.0);
    let mut mem = MemSystem::new(
        mem_config_for(topo),
        uncore,
        topo.host_node,
        topo.memctrl_node,
    );
    let mut allocs: Vec<Allocation> = Vec::with_capacity(n);
    let mut imgs: Vec<Memory> = Vec::with_capacity(n);
    for t in 0..n {
        allocs.push(allocate_for_tenant(
            prog,
            plans,
            topo.clusters(),
            cfg.alloc,
            &mut mem,
            t as u16,
        ));
        let mut img = Memory::for_program(prog);
        init(&mut img);
        imgs.push(img);
    }
    let mut imgs = imgs.into_iter();
    let mut machine = Machine::new(
        mem,
        imgs.next().expect("tenants >= 1"),
        allocs[0].layout.clone(),
        5,
        224,
        topo,
    );
    for (i, img) in imgs.enumerate() {
        machine.add_tenant(img, allocs[i + 1].layout.clone());
    }
    instrument(&mut machine, spec, san);
    let mut evals: Vec<HostEval> = allocs
        .iter()
        .map(|a| HostEval::new(prog, a.layout.clone()))
        .collect();

    // Host prologues run sequentially: one host core serves all tenants.
    for (t, eval) in evals.iter_mut().enumerate() {
        run_host_phase(&pre, eval, &mut machine, t as u16)?;
    }

    // Configure and launch every tenant's offload. Configuration MMIO is
    // charged sequentially (still one host core), so later tenants launch
    // while earlier offloads are already in flight — a staggered start,
    // exactly what co-scheduling looks like.
    let mut handles: Vec<PlanHandle> = Vec::with_capacity(n);
    for t in 0..n {
        let eval = &mut evals[t];
        let (sv, ev) = {
            let mem = machine.tenant_memimg_mut(t as u16);
            let (sv, _) = eval.eval(&l.start, mem);
            let (ev, _) = eval.eval(&l.end, mem);
            (sv, ev)
        };
        machine.run_host_segment(eval.take_segment())?;
        let placement = place_partitions(&plan, &allocs[t], cfg.kind, topo.host_node);
        let substrates = substrates_for(&plan, cfg);
        let ranges: Vec<(u64, u64)> = {
            let mut arrays: Vec<_> = plan
                .partitions
                .iter()
                .flat_map(|p| p.accesses.iter().map(|a| a.array))
                .collect();
            arrays.sort();
            arrays.dedup();
            arrays
                .into_iter()
                .map(|a| allocs[t].layout.range(prog, a))
                .collect()
        };
        let h =
            machine.configure_plan_for_tenant(&plan, &placement, &substrates, &ranges, t as u16);
        let params: Vec<Value> = plan
            .params
            .iter()
            .map(|sym| match sym {
                Sym::Var(lv) => Value::I(evals[t].loop_vars[lv.0]),
                Sym::Scalar(s) => evals[t].scalars[s.0],
            })
            .collect();
        let carries: Vec<Vec<Value>> = machine
            .plan_carry_scalars(h)
            .iter()
            .map(|ss| ss.iter().map(|s| evals[t].scalars[s.0]).collect())
            .collect();
        machine.launch(h, &params, &carries, sv.as_i64(), ev.as_i64(), l.step);
        handles.push(h);
    }

    // All offloads in flight: run to joint completion, recording the tick
    // at which each tenant's plan finished.
    let mut done_at: Vec<Option<Tick>> = vec![None; n];
    {
        let hs = handles.clone();
        machine.run_until("offload", |now, st| {
            let mut all = true;
            for (t, &h) in hs.iter().enumerate() {
                if st.plan_done(h) {
                    if done_at[t].is_none() {
                        done_at[t] = Some(now);
                    }
                } else {
                    all = false;
                }
            }
            all
        })?;
    }

    // Live-outs back to each tenant's host state, then sequential
    // epilogues.
    for t in 0..n {
        for (s, v) in machine.read_liveouts(handles[t]) {
            evals[t].set_scalar_external(s, v);
        }
    }
    for (t, eval) in evals.iter_mut().enumerate() {
        run_host_phase(&post, eval, &mut machine, t as u16)?;
    }
    machine.drain()?;

    // Per-tenant attribution and the fairness summary. Rates are inverse
    // completion ticks; under a perfectly fair fabric all tenants finish
    // together and the index is 1.0.
    let end = machine.now();
    let mut extra = Report::new();
    let mut rates = Vec::with_capacity(n);
    for (t, &done) in done_at.iter().enumerate() {
        let ticks_t = done.unwrap_or(end);
        let et = machine.tenant_engine_totals(t as u16);
        let hop = machine.noc_stats().tenant_hop_bytes(t as u16);
        extra.add(format!("tenant.{t}.ticks"), ticks_t as f64);
        extra.add(format!("tenant.{t}.iterations"), et.iterations as f64);
        extra.add(format!("tenant.{t}.busy_cycles"), et.busy_cycles as f64);
        extra.add(format!("tenant.{t}.stall_mem"), et.stall_mem as f64);
        extra.add(format!("tenant.{t}.stall_chan"), et.stall_chan as f64);
        extra.add(format!("tenant.{t}.intra_bytes"), et.intra_bytes as f64);
        extra.add(format!("tenant.{t}.da_bytes"), et.da_bytes as f64);
        extra.add(format!("tenant.{t}.aa_bytes"), et.aa_bytes as f64);
        extra.add(format!("tenant.{t}.hop_bytes"), hop as f64);
        rates.push(1.0 / ticks_t.max(1) as f64);
    }
    extra.add("tenancy.tenants", n as f64);
    extra.add("tenancy.fairness", jain_index(&rates));
    Ok(Execution {
        machine,
        scalars: evals.into_iter().map(|e| e.scalars).collect(),
        extra,
    })
}

struct Walker<'a> {
    prog: &'a Program,
    cfg: &'a RunConfig,
    machine: Machine,
    eval: HostEval,
    compiled: Option<CompiledKernel>,
    alloc: Allocation,
    handles: HashMap<LoopId, PlanHandle>,
}

impl Walker<'_> {
    fn exec_block(&mut self, stmts: &[Stmt]) -> Result<(), SimError> {
        for s in stmts {
            self.exec(s)?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), SimError> {
        let ops = self.eval.take_segment();
        self.machine.run_host_segment(ops)
    }

    fn exec(&mut self, s: &Stmt) -> Result<(), SimError> {
        match s {
            Stmt::Store(a, idx, val) => {
                let mem = self.machine.memimg_mut();
                self.eval.store(*a, idx, val, mem);
                Ok(())
            }
            Stmt::SetScalar(sid, e) => {
                let mem = self.machine.memimg_mut();
                self.eval.set_scalar(*sid, e, mem);
                Ok(())
            }
            Stmt::If(c, t, e) => {
                let (v, _) = self.eval.eval(c, self.machine.memimg_mut());
                if v.truthy() {
                    self.exec_block(t)
                } else {
                    self.exec_block(e)
                }
            }
            Stmt::Loop(l) => {
                let plan = self
                    .compiled
                    .as_ref()
                    .and_then(|c| c.plan_for(l.id))
                    .cloned();
                match plan {
                    Some(plan) => self.run_offload(l, &plan),
                    None => self.run_host_loop(l),
                }
            }
        }
    }

    fn run_host_loop(&mut self, l: &distda_ir::Loop) -> Result<(), SimError> {
        let (sv, _) = self.eval.eval(&l.start, self.machine.memimg_mut());
        let (ev, _) = self.eval.eval(&l.end, self.machine.memimg_mut());
        let (start, end) = (sv.as_i64(), ev.as_i64());
        let mut i = start;
        while (l.step > 0 && i < end) || (l.step < 0 && i > end) {
            self.eval.loop_vars[l.var.0] = i;
            self.eval.emit_loop_overhead();
            self.exec_block(&l.body)?;
            if self.eval.segment_len() > SEGMENT_FLUSH_OPS {
                self.flush()?;
            }
            i += l.step;
        }
        Ok(())
    }

    fn run_offload(&mut self, l: &distda_ir::Loop, plan: &OffloadPlan) -> Result<(), SimError> {
        // Host evaluates bounds (may read memory, e.g. CSR row pointers).
        let (sv, _) = self.eval.eval(&l.start, self.machine.memimg_mut());
        let (ev, _) = self.eval.eval(&l.end, self.machine.memimg_mut());
        self.flush()?;
        let handle = match self.handles.get(&l.id) {
            Some(&h) => h,
            None => {
                let h = self.configure(plan);
                self.handles.insert(l.id, h);
                h
            }
        };
        let params: Vec<Value> = plan
            .params
            .iter()
            .map(|sym| match sym {
                Sym::Var(lv) => Value::I(self.eval.loop_vars[lv.0]),
                Sym::Scalar(s) => self.eval.scalars[s.0],
            })
            .collect();
        let carries: Vec<Vec<Value>> = self
            .machine
            .plan_carry_scalars(handle)
            .iter()
            .map(|ss| ss.iter().map(|s| self.eval.scalars[s.0]).collect())
            .collect();
        self.machine
            .launch(handle, &params, &carries, sv.as_i64(), ev.as_i64(), l.step);
        self.machine.run_offload(handle)?;
        for (s, v) in self.machine.read_liveouts(handle) {
            self.eval.set_scalar_external(s, v);
        }
        Ok(())
    }

    fn configure(&mut self, plan: &OffloadPlan) -> PlanHandle {
        let placement = place_partitions(
            plan,
            &self.alloc,
            self.cfg.kind,
            self.cfg.topology.host_node,
        );
        let substrates = substrates_for(plan, self.cfg);
        let ranges: Vec<(u64, u64)> = {
            let mut arrays: Vec<_> = plan
                .partitions
                .iter()
                .flat_map(|p| p.accesses.iter().map(|a| a.array))
                .collect();
            arrays.sort();
            arrays.dedup();
            arrays
                .into_iter()
                .map(|a| self.alloc.layout.range(self.prog, a))
                .collect()
        };
        self.machine
            .configure_plan(plan, &placement, &substrates, &ranges)
    }
}

/// Horizontal placement (paper Section V-A step 4): anchored partitions go
/// to their object's home cluster; compute-only partitions go to the
/// majority cluster of their channel peers; Mono-CA centralizes at the
/// topology's host node (which is also the fallback for partitions with no
/// placement votes).
pub fn place_partitions(
    plan: &OffloadPlan,
    alloc: &Allocation,
    kind: ConfigKind,
    host_node: usize,
) -> Vec<usize> {
    let n = plan.partitions.len();
    if kind == ConfigKind::MonoCA {
        return vec![host_node; n];
    }
    let mut placement: Vec<Option<usize>> = vec![None; n];
    // Pass 1: partitions with accesses follow their objects.
    for (i, part) in plan.partitions.iter().enumerate() {
        let mut votes: HashMap<usize, usize> = HashMap::new();
        for acc in &part.accesses {
            if let Some(h) = alloc.home[acc.array.0] {
                *votes.entry(h).or_insert(0) += 1;
            }
        }
        placement[i] = votes
            .into_iter()
            .max_by_key(|&(c, v)| (v, std::cmp::Reverse(c)))
            .map(|(c, _)| c);
    }
    // Pass 2: the rest follow their channel peers.
    for (i, _) in plan.partitions.iter().enumerate() {
        if placement[i].is_some() {
            continue;
        }
        let mut votes: HashMap<usize, usize> = HashMap::new();
        for ch in &plan.channels {
            let peer = if ch.producer as usize == i {
                ch.consumer as usize
            } else if ch.consumer as usize == i {
                ch.producer as usize
            } else {
                continue;
            };
            if let Some(c) = placement[peer] {
                *votes.entry(c).or_insert(0) += 1;
            }
        }
        placement[i] = votes
            .into_iter()
            .max_by_key(|&(c, v)| (v, std::cmp::Reverse(c)))
            .map(|(c, _)| c);
    }
    placement
        .into_iter()
        .map(|p| p.unwrap_or(host_node))
        .collect()
}

/// Whether a partition is a bare access node (stream FSM + channel port).
fn is_access_node(part: &distda_compiler::PartitionDef) -> bool {
    !part.accesses.is_empty()
        && part.nodes.iter().all(|n| {
            matches!(
                n,
                PNode::LoadStream { .. }
                    | PNode::StoreStream { .. }
                    | PNode::Send { .. }
                    | PNode::Recv { .. }
            )
        })
}

/// Chooses a substrate for every partition of a plan under a configuration.
pub fn substrates_for(plan: &OffloadPlan, cfg: &RunConfig) -> Vec<Substrate> {
    let accel_clock = ClockDomain::from_ghz(cfg.accel_ghz);
    let uncore = ClockDomain::from_ghz(2.0);
    let tuning = if cfg.sw_prefetch {
        (16, 24, 32)
    } else {
        (8, 12, 16)
    };
    plan.partitions
        .iter()
        .map(|part| {
            let access_node = is_access_node(part);
            if access_node {
                // Stream FSM: element-rate hardware at the uncore clock.
                return Substrate {
                    model: IssueModel::InOrder { width: 1 },
                    clock: uncore,
                    buffer_lines: cfg.buffer_lines,
                    is_access_node: true,
                    tuning,
                };
            }
            let model = if cfg.kind.is_cgra() {
                let grid = if cfg.kind == ConfigKind::MonoDAF {
                    CgraConfig::mono_da_8x8()
                } else {
                    CgraConfig::dist_da_5x5()
                };
                IssueModel::Cgra {
                    ii: cgra_map(part, &grid).ii,
                }
            } else {
                IssueModel::InOrder {
                    width: cfg.issue_width,
                }
            };
            Substrate {
                model,
                clock: accel_clock,
                buffer_lines: cfg.buffer_lines,
                is_access_node: false,
                tuning,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use distda_ir::prelude::*;

    /// The environment's run of `p`, panicking on any [`SimError`].
    fn run(p: &Program, init: &dyn Fn(&mut Memory), cfg: &RunConfig) -> RunResult {
        try_simulate(p, init, cfg, &RunSpec::from_env())
            .unwrap()
            .result
    }

    fn axpy(n: usize) -> (Program, impl Fn(&mut Memory)) {
        let mut b = ProgramBuilder::new("axpy");
        let x = b.array_f64("x", n);
        let y = b.array_f64("y", n);
        b.for_(0, n as i64, 1, |b, i| {
            let v = Expr::cf(2.0) * Expr::load(x, i.clone()) + Expr::load(y, i.clone());
            b.store(y, i, v);
        });
        let p = b.build();
        (p, move |mem: &mut Memory| {
            for i in 0..n {
                mem.array_mut(ArrayId(0))[i] = Value::F(i as f64);
                mem.array_mut(ArrayId(1))[i] = Value::F(1.0);
            }
        })
    }

    #[test]
    fn every_configuration_validates_on_axpy() {
        let (p, init) = axpy(256);
        for kind in ConfigKind::ALL {
            let cfg = RunConfig::named(kind);
            let r = run(&p, &init, &cfg);
            assert!(r.validated, "{} failed validation", cfg.label());
            assert!(r.ticks > 0);
        }
    }

    #[test]
    fn accelerated_configs_reduce_host_work() {
        let (p, init) = axpy(512);
        let ooo = run(&p, &init, &RunConfig::named(ConfigKind::OoO));
        let dist = run(&p, &init, &RunConfig::named(ConfigKind::DistDAIO));
        assert!(
            dist.host_ops < ooo.host_ops / 4,
            "offload should strip host instructions: {} vs {}",
            dist.host_ops,
            ooo.host_ops
        );
        assert!(dist.counters.io_ops > 0);
    }

    #[test]
    fn dist_da_reduces_cache_accesses_vs_ooo() {
        let (p, init) = axpy(2048);
        let ooo = run(&p, &init, &RunConfig::named(ConfigKind::OoO));
        let dist = run(&p, &init, &RunConfig::named(ConfigKind::DistDAF));
        assert!(
            dist.cache_accesses < ooo.cache_accesses,
            "near-data buffers should cut cache accesses: {} vs {}",
            dist.cache_accesses,
            ooo.cache_accesses
        );
    }

    #[test]
    fn nested_loop_offload_reruns_inner_plan() {
        let mut b = ProgramBuilder::new("rows");
        let a = b.array_f64("a", 16 * 16);
        let o = b.array_f64("o", 16 * 16);
        b.for_(0, 16, 1, |b, i| {
            b.for_(0, 16, 1, |b, j| {
                let idx = i.clone() * Expr::c(16) + j;
                b.store(o, idx.clone(), Expr::load(a, idx) * Expr::cf(2.0));
            });
        });
        let p = b.build();
        let init = |mem: &mut Memory| {
            for i in 0..256 {
                mem.array_mut(ArrayId(0))[i] = Value::F(i as f64);
            }
        };
        for kind in [ConfigKind::OoO, ConfigKind::MonoDAIO, ConfigKind::DistDAIO] {
            let r = run(&p, &init, &RunConfig::named(kind));
            assert!(r.validated, "{:?} failed", kind);
        }
    }

    #[test]
    fn larger_meshes_validate_across_configs() {
        let (p, init) = axpy(256);
        for (c, r_) in [(4usize, 4usize), (8, 4)] {
            let cfg = RunConfig::named(ConfigKind::DistDAF).with_topology(Topology::mesh(c, r_));
            let r = run(&p, &init, &cfg);
            assert!(r.validated, "{} failed validation", r.config);
            assert!(r.config.ends_with(&format!(":{c}x{r_}")));
        }
    }

    #[test]
    fn far_memory_pool_adds_latency() {
        let (p, init) = axpy(512);
        let near = run(&p, &init, &RunConfig::named(ConfigKind::OoO));
        let mut topo = Topology::paper();
        topo.far_memory = Some(crate::config::FarMemory {
            extra_latency: 200,
            bytes_per_cycle: 2,
        });
        let far = run(
            &p,
            &init,
            &RunConfig::named(ConfigKind::OoO).with_topology(topo),
        );
        assert!(far.validated);
        assert!(
            far.ticks > near.ticks,
            "pooled memory an extra hop away must cost time: {} vs {}",
            far.ticks,
            near.ticks
        );
    }

    #[test]
    fn multi_tenant_axpy_validates_with_fair_attribution() {
        let (p, init) = axpy(256);
        let mut topo = Topology::mesh(4, 2);
        topo.tenants = 2;
        let cfg = RunConfig::named(ConfigKind::DistDAIO).with_topology(topo);
        let r = run(&p, &init, &cfg);
        assert!(r.validated, "{} failed validation", r.config);
        assert!(r.config.ends_with(":t2"));
        assert_eq!(r.report.get("tenancy.tenants"), Some(2.0));
        let fair = r.report.get("tenancy.fairness").unwrap();
        assert!(
            fair > 0.5 && fair <= 1.0 + 1e-12,
            "homogeneous tenants should be near-fair, index {fair}"
        );
        // Both tenants did the same (full) amount of kernel work, and the
        // per-tenant counts partition the whole-machine total.
        let it0 = r.report.get("tenant.0.iterations").unwrap();
        let it1 = r.report.get("tenant.1.iterations").unwrap();
        assert!(it0 > 0.0);
        assert_eq!(it0, it1);
        assert_eq!(it0 + it1, r.report.get("accel.iterations").unwrap());
        // Per-tenant hop bytes partition the whole-machine total (the
        // registry invariant the obs layer re-checks on ingest).
        let hop_sum: f64 = (0..2)
            .map(|t| r.report.get(&format!("tenant.{t}.hop_bytes")).unwrap())
            .sum();
        assert_eq!(hop_sum, r.report.sum_prefix("noc.hop_bytes."));
    }

    #[test]
    fn multi_tenant_rejects_host_side_loops() {
        let mut b = ProgramBuilder::new("two-loops");
        let x = b.array_f64("x", 32);
        b.for_(0, 32, 1, |b, i| {
            b.store(x, i.clone(), Expr::load(x, i) + Expr::cf(1.0));
        });
        b.for_(0, 32, 1, |b, i| {
            b.store(x, i.clone(), Expr::load(x, i) * Expr::cf(2.0));
        });
        let p = b.build();
        let mut topo = Topology::paper();
        topo.tenants = 2;
        let cfg = RunConfig::named(ConfigKind::DistDAIO).with_topology(topo);
        let err = try_simulate(&p, &|_| {}, &cfg, &RunSpec::from_env()).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig { .. }), "{err}");
    }

    #[test]
    fn reduction_scalars_flow_back_to_host() {
        let mut b = ProgramBuilder::new("dot");
        let x = b.array_f64("x", 128);
        let y = b.array_f64("y", 128);
        let acc = b.scalar("acc", 0.0f64);
        let out = b.array_f64("out", 1);
        b.for_(0, 128, 1, |b, i| {
            b.set(
                acc,
                Expr::Scalar(acc) + Expr::load(x, i.clone()) * Expr::load(y, i),
            );
        });
        // Host consumes the reduction result afterwards.
        b.store(out, Expr::c(0), Expr::Scalar(acc));
        let p = b.build();
        let init = |mem: &mut Memory| {
            for i in 0..128 {
                mem.array_mut(ArrayId(0))[i] = Value::F(1.0);
                mem.array_mut(ArrayId(1))[i] = Value::F(2.0);
            }
        };
        for kind in ConfigKind::ALL {
            let r = run(&p, &init, &RunConfig::named(kind));
            assert!(r.validated, "{:?} failed validation", kind);
        }
    }

    #[test]
    fn skip_cross_check_reports_a_one_tick_divergence() {
        let (p, init) = axpy(64);
        let fast = run(&p, &init, &RunConfig::named(ConfigKind::DistDAF));
        assert!(skip_cross_check(&fast, &fast.clone()).is_ok());
        let mut slow = fast.clone();
        slow.ticks += 1;
        match skip_cross_check(&fast, &slow) {
            Err(SimError::InvariantViolation { phase, report, .. }) => {
                assert_eq!(phase, "skip-cross-check");
                assert!(report.contains(&format!("({},", fast.ticks)), "{report}");
                assert!(report.contains(&format!("({},", slow.ticks)), "{report}");
            }
            other => panic!("expected a skip-cross-check violation, got {other:?}"),
        }
    }
}
