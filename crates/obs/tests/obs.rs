//! End-to-end observability tests: the self-profiler against a real
//! simulated run, and the central invariant — observation never perturbs
//! simulation.

use distda_obs::Registry;
use distda_sim::profile::ComponentProfile;
use distda_sim::{ProfileSnapshot, Profiler};
use distda_system::{CheckPolicy, ConfigKind, RunConfig, RunSpec, Topology};
use distda_workloads::{micro, pathfinder, Scale};

#[test]
fn profiler_accounts_for_a_real_run() {
    let w = pathfinder(&Scale::tiny());
    let cfg = RunConfig::named(ConfigKind::DistDAF);
    let prof = Profiler::enabled();
    let r = w.try_simulate_profiled(&cfg, &prof).unwrap();
    assert!(r.validated);
    let snap = prof.snapshot_at(r.ticks).unwrap();

    // Executed + skipped ticks partition the run exactly.
    assert_eq!(
        snap.ticks_executed + snap.ticks_skipped,
        r.ticks,
        "profiler tick accounting must partition the run"
    );
    assert!(snap.ticks_executed > 0);
    assert!(!snap.comps.is_empty(), "machine registers components");

    // Per-component active ticks are bounded by executed ticks, and their
    // sum by executed ticks times the component count.
    for c in &snap.comps {
        assert!(
            c.active_ticks <= snap.ticks_executed,
            "{}: {} active > {} executed",
            c.name,
            c.active_ticks,
            snap.ticks_executed
        );
    }
    let sum: u64 = snap.comps.iter().map(|c| c.active_ticks).sum();
    assert!(sum <= snap.ticks_executed * snap.comps.len() as u64);

    // Host time was actually measured, and the table renders it.
    assert!(snap.total_host_ns() > 0);
    let table = distda_sim::profile::render_table(&snap);
    assert!(table.contains("component"), "{table}");
    assert!(table.contains("executed"), "{table}");
}

/// One profiler shared by two runs adds them up, as the `RunSpec` docs
/// promise: the scheduler hands each run's counts over once, when its
/// run loops return, and those hand-overs must accumulate.
#[test]
fn a_shared_profiler_accumulates_runs() {
    let w = pathfinder(&Scale::tiny());
    let cfgs = [ConfigKind::DistDAIO, ConfigKind::DistDAF].map(RunConfig::named);
    // Skip-ahead on: only its wake probes count wakes.
    let run = |cfg: &RunConfig, profiler: &Profiler| {
        let spec = RunSpec {
            skip: Some(true),
            profiler: profiler.clone(),
            policy: CheckPolicy::from_env(),
            ..RunSpec::default()
        };
        w.try_simulate_with(cfg, spec).unwrap().result.ticks
    };
    let alone: Vec<ProfileSnapshot> = cfgs
        .iter()
        .map(|cfg| {
            let prof = Profiler::enabled();
            run(cfg, &prof);
            prof.snapshot_at(0).unwrap()
        })
        .collect();
    let shared = Profiler::enabled();
    let ticks: u64 = cfgs.iter().map(|cfg| run(cfg, &shared)).sum();
    let snap = shared.snapshot_at(ticks).unwrap();
    assert_eq!(snap.ticks_executed + snap.ticks_skipped, ticks);
    let total = |f: fn(&ProfileSnapshot) -> u64| alone.iter().map(f).sum::<u64>();
    assert_eq!(snap.ticks_executed, total(|s| s.ticks_executed));
    assert_eq!(snap.skip_spans, total(|s| s.skip_spans));
    assert_eq!(snap.probes, total(|s| s.probes));
    let mut names: Vec<&str> = alone
        .iter()
        .flat_map(|s| s.comps.iter().map(|c| c.name.as_str()))
        .collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(snap.comps.len(), names.len());
    assert!(snap.comps.iter().any(|c| c.wakes > 0), "{snap:?}");
    for c in &snap.comps {
        let sum = |f: fn(&ComponentProfile) -> u64| {
            let of_name = alone
                .iter()
                .flat_map(|s| &s.comps)
                .filter(|a| a.name == c.name);
            of_name.map(f).sum::<u64>()
        };
        assert_eq!(c.active_ticks, sum(|a| a.active_ticks), "{}", c.name);
        assert_eq!(c.wakes, sum(|a| a.wakes), "{}", c.name);
    }
}

#[test]
fn profiling_does_not_perturb_results() {
    let w = pathfinder(&Scale::tiny());
    let cfg = RunConfig::named(ConfigKind::DistDAIO);
    let plain = w.try_simulate(&cfg).unwrap();
    let prof = Profiler::enabled();
    let profiled = w.try_simulate_profiled(&cfg, &prof).unwrap();
    assert_eq!(
        format!("{plain:?}"),
        format!("{profiled:?}"),
        "RunResult must be bit-identical with the profiler attached"
    );
}

#[test]
fn registry_ingests_a_run_and_profile() {
    let w = pathfinder(&Scale::tiny());
    let cfg = RunConfig::named(ConfigKind::DistDAF);
    let prof = Profiler::enabled();
    let r = w.try_simulate_profiled(&cfg, &prof).unwrap();
    let snap = prof.snapshot_at(r.ticks).unwrap();

    let mut reg = Registry::new();
    reg.ingest_run(&r);
    reg.ingest_profile(&[("kernel", &r.kernel), ("config", &r.config)], &snap);
    reg.ingest_report("distda_stat", &[("kernel", &r.kernel)], &r.report);
    let om = reg.openmetrics();
    assert!(om.contains("distda_simulated_ticks_total"), "{om}");
    assert!(om.contains("distda_prof_host_ns_total"), "{om}");
    assert!(om.contains(&format!("kernel=\"{}\"", r.kernel)), "{om}");
    assert!(om.ends_with("# EOF\n"));
}

/// Sums every sample of one metric in an OpenMetrics export, optionally
/// keeping only series carrying a given label pair.
fn series_sum(om: &str, metric: &str, label: Option<(&str, &str)>) -> f64 {
    om.lines()
        .filter(|l| l.starts_with(&format!("{metric}{{")) || l.starts_with(&format!("{metric} ")))
        .filter(|l| match label {
            Some((k, v)) => l.contains(&format!("{k}=\"{v}\"")),
            None => true,
        })
        .map(|l| l.rsplit(' ').next().unwrap().parse::<f64>().unwrap())
        .sum()
}

/// The per-tenant series a multi-tenant run exports must partition the
/// whole-machine totals: summing `distda_tenant_*` over tenants recovers
/// the machine-level iteration count and NoC hop-byte total exactly.
#[test]
fn tenant_series_partition_machine_totals() {
    let mut topo = Topology::mesh(4, 2);
    topo.tenants = 2;
    let w = micro::saxpy(256, 2.0, 9);
    let cfg = RunConfig::named(ConfigKind::DistDAIO).with_topology(topo);
    let r = w.try_simulate(&cfg).unwrap();
    assert!(r.validated, "multi-tenant run must validate");

    let mut reg = Registry::new();
    reg.ingest_run(&r);
    let om = reg.openmetrics();

    // Both tenants appear as labelled series.
    for t in ["0", "1"] {
        assert!(om.contains(&format!("tenant=\"{t}\"")), "{om}");
    }
    assert!(om.contains("distda_tenancy_fairness"), "{om}");

    // Per-tenant iterations sum to the machine's accelerator iterations.
    let iters = series_sum(&om, "distda_tenant_iterations_total", None);
    assert_eq!(iters, r.report.get("accel.iterations").unwrap(), "{om}");

    // Per-tenant hop bytes partition the mesh's total hop bytes.
    let hops = series_sum(&om, "distda_tenant_hop_bytes_total", None);
    assert_eq!(hops, r.report.sum_prefix("noc.hop_bytes."), "{om}");

    // Each tenant's share is itself nonzero — attribution, not lumping.
    for t in ["0", "1"] {
        let h = series_sum(&om, "distda_tenant_hop_bytes_total", Some(("tenant", t)));
        assert!(h > 0.0, "tenant {t} moved no bytes: {om}");
    }
}

/// The per-port stall series exported from `port.*` report keys must sum
/// back to the whole-machine stall totals: channel-port stalls recover
/// `accel.stall_chan` exactly, and ACP response-port stalls recover
/// `accel.stall_mem` exactly. This pins the engine's per-port stall
/// attribution hooks to the two sites that charge its own counters.
#[test]
fn port_series_sum_to_machine_stalls() {
    let w = pathfinder(&Scale::tiny());
    let cfg = RunConfig::named(ConfigKind::DistDAIO);
    let r = w.try_simulate(&cfg).unwrap();
    assert!(r.validated);

    let mut reg = Registry::new();
    reg.ingest_run(&r);
    let om = reg.openmetrics();

    // Ports exported and carrying traffic.
    assert!(om.contains("distda_port_pushed_total"), "{om}");
    assert!(
        series_sum(&om, "distda_port_pushed_total", None) > 0.0,
        "{om}"
    );

    // Stall cycles on ports whose name starts with `prefix`.
    let stalls_for = |prefix: &str| -> f64 {
        om.lines()
            .filter(|l| l.starts_with("distda_port_stall_cycles_total{"))
            .filter(|l| l.contains(&format!("port=\"{prefix}")))
            .map(|l| l.rsplit(' ').next().unwrap().parse::<f64>().unwrap())
            .sum()
    };
    let chan = r.report.get("accel.stall_chan").unwrap();
    let mem = r.report.get("accel.stall_mem").unwrap();
    assert_eq!(stalls_for("chan"), chan, "{om}");
    assert_eq!(stalls_for("mem.resp"), mem, "{om}");
    assert!(
        chan + mem > 0.0,
        "expected the run to exercise back-pressure: {om}"
    );
}
