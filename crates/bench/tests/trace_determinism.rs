//! Determinism and validity of the tracing subsystem on real runs: the
//! exported Chrome trace must be byte-identical whether the run executes
//! alone or among concurrent worker threads, and with idle skip-ahead on
//! or off; and the export must be structurally valid trace-event JSON.

use distda_system::{ConfigKind, RunConfig, RunResult, RunSpec};
use distda_trace::{chrome, json, summary, Tracer};
use distda_workloads::{suite, Scale};

/// Runs `w` under the environment's policy with an explicit tracer and
/// skip-ahead override.
fn traced(
    w: &distda_workloads::Workload,
    cfg: &RunConfig,
    skip: Option<bool>,
    tracer: &Tracer,
) -> RunResult {
    let spec = RunSpec {
        skip,
        tracer: tracer.clone(),
        ..RunSpec::from_env()
    };
    w.try_simulate_with(cfg, spec).unwrap().result
}

/// Runs `w` traced and returns the Chrome export.
fn traced_export(w: &distda_workloads::Workload, cfg: &RunConfig, skip: Option<bool>) -> String {
    let tracer = Tracer::enabled();
    traced(w, cfg, skip, &tracer);
    chrome::export(&tracer)
}

/// One simulation alone vs the same simulation racing 7 sibling runs on
/// worker threads: the exported trace must be byte-identical. Each run has
/// its own tracer, so concurrency may only affect the result through
/// nondeterminism in the simulation itself — which there must be none of.
#[test]
fn trace_identical_alone_and_among_worker_threads() {
    let scale = Scale::tiny();
    let all = suite(&scale);
    let w = &all[2];
    let cfg = RunConfig::named(ConfigKind::DistDAIO);

    let alone = traced_export(w, &cfg, None);

    let mut exports: Vec<String> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| s.spawn(|| traced_export(w, &cfg, None)))
            .collect();
        for h in handles {
            exports.push(h.join().expect("worker panicked"));
        }
    });
    for (i, e) in exports.iter().enumerate() {
        assert_eq!(&alone, e, "trace diverged on worker {i}");
    }
}

/// Skip-ahead fast-forwards idle ticks; tracing must not observe the
/// difference — exports with skip forced on and forced off must be
/// byte-identical across representative configurations.
#[test]
fn trace_identical_skip_on_and_off() {
    let scale = Scale::tiny();
    let all = suite(&scale);
    let w = &all[0];
    for kind in [
        ConfigKind::MonoDAF,
        ConfigKind::DistDAIO,
        ConfigKind::DistDAF,
    ] {
        let cfg = RunConfig::named(kind);
        let fast = traced_export(w, &cfg, Some(true));
        let slow = traced_export(w, &cfg, Some(false));
        assert_eq!(fast, slow, "{} diverged under {}", w.name, cfg.label());
    }
}

/// Attaching a tracer must not perturb the simulation: every statistic of
/// the `RunResult` (modulo the `trace.*` metric keys the tracer adds) must
/// match an untraced run.
#[test]
fn tracing_does_not_perturb_results() {
    let scale = Scale::tiny();
    let all = suite(&scale);
    let w = &all[1];
    let cfg = RunConfig::named(ConfigKind::DistDAIO);
    let tracer = Tracer::enabled();
    let on = traced(w, &cfg, None, &tracer);
    let plain = traced(w, &cfg, None, &Tracer::disabled());
    assert_eq!(on.ticks, plain.ticks);
    assert_eq!(on.ns, plain.ns);
    assert_eq!(on.validated, plain.validated);
    assert_eq!(format!("{:?}", on.energy), format!("{:?}", plain.energy));
    assert_eq!(
        format!("{:?}", on.counters),
        format!("{:?}", plain.counters)
    );
}

/// The Chrome export of a real run parses as JSON, orders events by
/// timestamp within each track, balances every `B` with an `E`, and the
/// phase attribution over the same trace partitions the run's ticks.
#[test]
fn chrome_export_of_real_run_is_valid() {
    let scale = Scale::tiny();
    let all = suite(&scale);
    let w = all.iter().find(|w| w.name == "bfs").expect("bfs in suite");
    let cfg = RunConfig::named(ConfigKind::DistDAIO);
    let tracer = Tracer::enabled();
    let r = traced(w, &cfg, None, &tracer);
    assert!(r.validated);

    let doc = chrome::export(&tracer);
    let v = json::parse(&doc).expect("chrome export parses as JSON");
    let events = v
        .get("traceEvents")
        .expect("traceEvents key")
        .as_arr()
        .expect("traceEvents is an array");
    assert!(!events.is_empty());

    // Per-track: start timestamps nondecreasing, B/E balanced, instants
    // flagged. `E` records carry the span's *end* tick and `C` samples
    // trail the event stream, so only opening records are order-checked.
    let mut last_ts: std::collections::BTreeMap<i64, f64> = Default::default();
    let mut depth: std::collections::BTreeMap<i64, i64> = Default::default();
    for e in events {
        let ph = e.get("ph").unwrap().as_str().unwrap();
        if ph == "M" {
            continue;
        }
        let tid = e.get("tid").unwrap().as_num().unwrap() as i64;
        let ts = e.get("ts").unwrap().as_num().unwrap();
        if matches!(ph, "B" | "X" | "i") {
            let prev = last_ts.entry(tid).or_insert(f64::NEG_INFINITY);
            assert!(ts >= *prev, "track {tid} went backwards: {ts} < {prev}");
            *prev = ts;
        }
        match ph {
            "B" => *depth.entry(tid).or_insert(0) += 1,
            "E" => {
                let d = depth.entry(tid).or_insert(0);
                *d -= 1;
                assert!(*d >= 0, "track {tid} closed an unopened phase");
            }
            "i" => assert_eq!(e.get("s").unwrap().as_str().unwrap(), "t"),
            _ => {}
        }
    }
    for (tid, d) in &depth {
        assert_eq!(*d, 0, "track {tid} left {d} phases open");
    }

    let attr = summary::phase_attribution(&tracer, r.ticks);
    let total: u64 = attr.parts.iter().map(|(_, t)| t).sum();
    assert_eq!(total, r.ticks, "attribution must partition the run");
    assert!(attr.complete);
}
