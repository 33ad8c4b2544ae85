//! Regression tests for the performance-engineering layer: the parallel
//! sweep must produce bit-identical results regardless of worker count,
//! idle skip-ahead must be bit-identical to tick-by-tick execution, and
//! no combination of instruments may perturb a result.

use distda_bench::{run_matrix, try_run_matrix};
use distda_sim::sample::{DEFAULT_WINDOW_CAP, DEFAULT_WINDOW_TICKS};
use distda_sim::{Profiler, Sampler};
use distda_system::{
    try_simulate, try_simulate_instrumented, CheckPolicy, ConfigKind, RunConfig, RunResult,
    RunSpec, Topology,
};
use distda_trace::Tracer;
use distda_workloads::{micro, pathfinder, pointer_chase, suite, Scale};
use std::sync::Mutex;

/// Serializes the tests that mutate `DISTDA_THREADS` (process-global
/// state) so they cannot race each other's set/remove.
static THREADS_ENV: Mutex<()> = Mutex::new(());

/// `run_matrix` with 1 worker and with 8 workers must produce identical
/// `RunResult`s (every field: ticks, energy, NoC bytes, ...) and identical
/// row/column ordering, for 3 workloads x 3 configurations.
#[test]
fn parallel_sweep_matches_sequential() {
    let _guard = THREADS_ENV.lock().unwrap();
    let scale = Scale::tiny();
    let all = suite(&scale);
    let workloads = &all[..3];
    let configs = vec![
        RunConfig::named(ConfigKind::OoO),
        RunConfig::named(ConfigKind::MonoDAIO),
        RunConfig::named(ConfigKind::DistDAIO),
    ];
    std::env::set_var("DISTDA_THREADS", "1");
    let seq = run_matrix(workloads, &configs);
    std::env::set_var("DISTDA_THREADS", "8");
    let par = run_matrix(workloads, &configs);
    std::env::remove_var("DISTDA_THREADS");
    assert_eq!(seq.kernels, par.kernels, "kernel order diverged");
    assert_eq!(seq.configs, par.configs, "config order diverged");
    assert_eq!(seq.results.len(), par.results.len());
    for (key, a) in &seq.results {
        let b = &par.results[key];
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "results diverged for {key:?}"
        );
    }
}

/// A scenario-family sweep — wider meshes, a far-memory pool, and
/// multi-tenant cells — must also be byte-stable across `DISTDA_THREADS`:
/// per-tenant attribution and fairness metrics ride in the `RunResult`
/// report, so the same field-by-field comparison covers them.
#[test]
fn multi_tenant_sweep_is_byte_stable_across_threads() {
    let _guard = THREADS_ENV.lock().unwrap();
    let workloads = micro::suite(0xBEEF);
    let mut two_tenants = Topology::mesh(4, 4);
    two_tenants.tenants = 2;
    let mut far = Topology::mesh(8, 4);
    far.far_memory = Some(distda_system::FarMemory {
        extra_latency: 150,
        bytes_per_cycle: 2,
    });
    let configs = vec![
        RunConfig::named(ConfigKind::DistDAIO).with_topology(two_tenants),
        RunConfig::named(ConfigKind::DistDAF).with_topology(far),
    ];
    std::env::set_var("DISTDA_THREADS", "1");
    let seq = run_matrix(&workloads, &configs);
    std::env::set_var("DISTDA_THREADS", "8");
    let par = run_matrix(&workloads, &configs);
    std::env::remove_var("DISTDA_THREADS");
    assert_eq!(seq.results.len(), par.results.len());
    for (key, a) in &seq.results {
        let b = &par.results[key];
        assert!(a.validated, "{key:?} must strict-validate");
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "results diverged for {key:?}"
        );
    }
}

/// The tiny-scale suite under OoO and Dist-DA-IO gives 24 validated runs
/// of exactly 1 697 725 simulated ticks in total. Any change to a
/// modelled latency, a kernel or a scheduling decision moves the sum; only
/// a deliberate model change may update it.
#[test]
fn tiny_suite_ticks_are_pinned() {
    let configs = [
        RunConfig::named(ConfigKind::OoO),
        RunConfig::named(ConfigKind::DistDAIO),
    ];
    let (sweep, failures) = try_run_matrix(&suite(&Scale::tiny()), &configs);
    assert!(failures.is_empty(), "failed cells: {failures:?}");
    assert_eq!(sweep.results.len(), 24);
    assert!(sweep.results.values().all(|r| r.validated));
    let ticks: u64 = sweep.results.values().map(|r| r.ticks).sum();
    assert_eq!(ticks, 1_697_725);
}

/// The randomized micro suite (seed 20220231) and the tiny-scale suite
/// under the two tenant configurations of CI's rack/tenant slice: per
/// cell, the run's ticks and an FNV-1a digest of every
/// `tenant.*`/`tenancy.*` report entry (key and value bits, in key order).
/// Any change to how co-scheduled tenants are set up, launched or
/// attributed moves a value; only a deliberate model change may update
/// them.
#[test]
fn tenant_runs_are_pinned() {
    let configs =
        ["Dist-DA-IO:t2", "Dist-DA-F:4x4:fm150:t4"].map(|c| RunConfig::from_label(c).unwrap());
    let [t2, t4] = [&configs[0], &configs[1]].map(RunConfig::label);
    let digest = |r: &RunResult| {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (k, v) in r.report.iter() {
            if !(k.starts_with("tenant.") || k.starts_with("tenancy.")) {
                continue;
            }
            for b in k.bytes().chain(v.to_bits().to_le_bytes()) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    };
    let workloads: Vec<_> = micro::suite(20220231)
        .into_iter()
        .chain(suite(&Scale::tiny()))
        .collect();
    let (sweep, failures) = try_run_matrix(&workloads, &configs);
    assert!(failures.is_empty(), "failed cells: {failures:?}");
    let want = [
        ("micro-saxpy", &t2, 6157, 9542501023816091010),
        ("micro-saxpy", &t4, 20563, 17677915231191247256),
        ("micro-dot", &t2, 13392, 1632959065345029972),
        ("micro-dot", &t4, 43749, 15073259649029614696),
        ("micro-gather", &t2, 15403, 2049320334968406254),
        ("micro-gather", &t4, 37642, 10993918617871840745),
        ("micro-stencil3", &t2, 13951, 18210532072460516175),
        ("micro-stencil3", &t4, 24877, 16803991757583088772),
        ("disparity", &t2, 100120, 4933138015149052480),
        ("disparity", &t4, 107143, 15613605794805497207),
        ("tracking", &t2, 42803, 3607476414700845823),
        ("tracking", &t4, 82331, 15263719967282549198),
        ("fdtd-2d", &t2, 75703, 7092070440296547294),
        ("fdtd-2d", &t4, 102025, 3945677162024331280),
        ("cholesky", &t2, 32996, 16706930599258400784),
        ("cholesky", &t4, 69800, 6035407967945160408),
        ("adi", &t2, 83914, 11766015109097606936),
        ("adi", &t4, 79351, 18403255006113384508),
        ("seidel-2d", &t2, 50557, 1416540195191261322),
        ("seidel-2d", &t4, 38689, 1753061439722029581),
        ("pathfinder", &t2, 23263, 14288221781333785725),
        ("pathfinder", &t4, 51715, 1134402136170126136),
        ("nw", &t2, 34415, 10006921007210528901),
        ("nw", &t4, 65513, 17904801461632209460),
        ("bfs", &t2, 97180, 2016399645939231640),
        ("bfs", &t4, 198451, 9267291246193096869),
        ("pagerank", &t2, 90523, 18446326237008987096),
        ("pagerank", &t4, 170746, 445338585936047096),
        ("pointer-chase", &t2, 83505, 16713465898642285093),
        ("pointer-chase", &t4, 155505, 9034619969623843053),
        ("pca", &t2, 125900, 18146141748586808633),
        ("pca", &t4, 125204, 6062831648775742623),
    ];
    assert_eq!(sweep.results.len(), want.len());
    for (k, c, ticks, d) in want {
        let r = sweep.get(k, c);
        assert!(r.validated, "{k} / {c} must validate");
        assert_eq!((r.ticks, digest(r)), (ticks, d), "{k} / {c}");
    }
}

/// Skip-ahead and tick-by-tick execution must agree on every statistic of
/// the full `RunResult` for a small kernel across representative configs.
#[test]
fn skip_ahead_matches_tick_by_tick() {
    let scale = Scale::tiny();
    let all = suite(&scale);
    let w = &all[0];
    for kind in [ConfigKind::OoO, ConfigKind::MonoDAF, ConfigKind::DistDAIO] {
        let cfg = RunConfig::named(kind);
        let skip = |on| RunSpec {
            skip: Some(on),
            ..RunSpec::from_env()
        };
        let fast = w.try_simulate_with(&cfg, skip(true)).unwrap().result;
        let slow = w.try_simulate_with(&cfg, skip(false)).unwrap().result;
        assert_eq!(
            format!("{fast:?}"),
            format!("{slow:?}"),
            "{} diverged under {}",
            w.name,
            cfg.label()
        );
    }
}

/// Every simulated quantity of a result: ticks, counters, energy, bytes
/// and `validated` (the report is left out: instruments add their own
/// `trace.*`/`explain.*` keys to it).
fn result_key(r: &RunResult) -> String {
    format!(
        "{:?}",
        (
            (r.ticks, &r.counters, &r.energy, r.cache_accesses),
            (r.mem_ops, r.total_ops, r.host_ops),
            (r.intra_bytes, r.da_bytes, r.aa_bytes, r.noc_bytes),
            (r.data_moved_bytes, r.validated),
        )
    )
}

/// The explain sampler adds no tick: on an offload cell and an OoO cell,
/// a profiled run with the sampler executes, skips and probes exactly as
/// a run that is only profiled.
#[test]
fn sampling_executes_the_bare_ticks() {
    let scale = Scale::tiny();
    for (w, kind) in [
        (pathfinder(&scale), ConfigKind::DistDAIO),
        (pointer_chase(&scale), ConfigKind::OoO),
    ] {
        let cfg = RunConfig::named(kind);
        let counts = |sampler: Sampler| {
            let profiler = Profiler::enabled();
            let spec = RunSpec {
                skip: Some(true),
                profiler: profiler.clone(),
                sampler,
                ..RunSpec::default()
            };
            let r = try_simulate(&w.program, &*w.init, &cfg, &spec).unwrap();
            let p = profiler.snapshot_at(r.result.ticks).unwrap();
            (r.result.ticks, p.ticks_executed, p.skip_spans, p.probes)
        };
        assert_eq!(
            counts(Sampler::enabled(256, DEFAULT_WINDOW_CAP)),
            counts(Sampler::disabled()),
            "{} / {}",
            w.name,
            cfg.label()
        );
    }
}

/// Instruments observe a run and never steer it: for two tiny kernels
/// under OoO and Dist-DA-F, a bare run, a run with tracer, profiler and
/// sampler all enabled under the full check policy, and the flattened
/// `try_simulate_instrumented` entry with everything disabled must agree
/// on every simulated quantity.
#[test]
fn instruments_never_perturb_results() {
    let scale = Scale::tiny();
    for w in [pointer_chase(&scale), pathfinder(&scale)] {
        for kind in [ConfigKind::OoO, ConfigKind::DistDAF] {
            let cfg = RunConfig::named(kind);
            let bare = try_simulate(&w.program, &*w.init, &cfg, &RunSpec::default())
                .unwrap()
                .result;
            let all_on = RunSpec {
                tracer: Tracer::enabled(),
                policy: CheckPolicy::full(),
                profiler: Profiler::enabled(),
                sampler: Sampler::enabled(DEFAULT_WINDOW_TICKS, DEFAULT_WINDOW_CAP),
                ..RunSpec::default()
            };
            let instrumented = try_simulate(&w.program, &*w.init, &cfg, &all_on).unwrap();
            assert!(instrumented.explanation.is_some(), "sampler attached");
            let (flat, _, _) = try_simulate_instrumented(
                &w.program,
                &*w.init,
                &cfg,
                None,
                None,
                &Tracer::disabled(),
                CheckPolicy::default(),
                &Profiler::disabled(),
                &Sampler::disabled(),
            )
            .unwrap();
            let want = result_key(&bare);
            for (how, r) in [("instrumented", &instrumented.result), ("flattened", &flat)] {
                assert_eq!(
                    result_key(r),
                    want,
                    "{how} run diverged from bare on {} / {}",
                    w.name,
                    cfg.label()
                );
            }
        }
    }
}
