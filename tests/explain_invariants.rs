//! Cross-layer invariants of the explain pipeline on real machines:
//! canonical port naming everywhere names are exported, exact tick
//! accounting on real runs, and byte-identical causal trees across
//! execution strategies that must not be observable.

use distda::explain::{render_text, Explanation};
use distda::sim::{port_names, sample::DEFAULT_WINDOW_CAP, Sampler};
use distda::system::{CheckPolicy, RunResult, RunSpec};
use distda::workloads::{bfs, nw, pathfinder, pointer_chase, Scale};

const WINDOW: u64 = 1024;

fn explained(
    w: &distda::workloads::Workload,
    cfg: &distda::system::RunConfig,
    skip: Option<bool>,
) -> (RunResult, Explanation) {
    let spec = RunSpec {
        skip,
        sampler: Sampler::enabled(WINDOW, DEFAULT_WINDOW_CAP),
        policy: CheckPolicy::from_env(),
        ..RunSpec::default()
    };
    let run = w
        .try_simulate_with(cfg, spec)
        .expect("explained run succeeds");
    let x = run.explanation.expect("sampler on -> explanation present");
    (run.result, x)
}

/// Every port name exported by a real machine — report keys, sampled
/// series, blame-edge ports — must come from the one `port_names`
/// module, so runner reports, obs labels and explain nodes can never
/// disagree (the naming-drift satellite's invariant test).
#[test]
fn every_exported_port_name_is_canonical() {
    let w = pathfinder(&Scale::tiny());
    let cfg = distda::system::RunConfig::named(distda::system::ConfigKind::DistDAF);
    let (r, x) = explained(&w, &cfg, None);

    let mut port_keys = 0;
    for (key, _) in r.report.iter() {
        let Some(rest) = key.strip_prefix("port.") else {
            continue;
        };
        let Some((name, _stat)) = rest.rsplit_once('.') else {
            panic!("malformed port report key: {key}");
        };
        assert!(
            port_names::is_canonical(name),
            "report key {key} carries non-canonical port name {name}"
        );
        port_keys += 1;
    }
    assert!(port_keys > 0, "the run must export port statistics");

    for step in &x.critical_path {
        assert!(
            port_names::is_canonical(&step.port),
            "critical-path port {} is not canonical",
            step.port
        );
    }
    let mut waits = 0;
    for e in &x.engines {
        for wait in &e.waits {
            assert!(
                port_names::is_canonical(&wait.port),
                "wait port {} is not canonical",
                wait.port
            );
            waits += 1;
        }
    }
    assert!(waits > 0, "a Dist-DA run must record engine waits");

    // Blame-graph components come from the same module: engines, or one
    // of the fixed structural names.
    let component_ok = |c: &str| {
        c == port_names::HOST
            || c == port_names::MEM
            || c == port_names::NOC
            || c == port_names::DELIVERY
            || c.strip_prefix("engine.")
                .is_some_and(|d| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit()))
    };
    for step in &x.critical_path {
        assert!(component_ok(&step.component), "{}", step.component);
        assert!(component_ok(&step.blamed), "{}", step.blamed);
    }
}

/// Real machines must satisfy the exact-accounting invariant the
/// sanitizer enforces: zero violations, and per engine
/// `blamed + busy + idle == ticks`.
#[test]
fn real_runs_account_every_tick() {
    for w in [
        pathfinder(&Scale::tiny()),
        pointer_chase(&Scale::tiny()),
        nw(&Scale::tiny()),
    ] {
        for kind in [
            distda::system::ConfigKind::DistDAIO,
            distda::system::ConfigKind::DistDAF,
        ] {
            let cfg = distda::system::RunConfig::named(kind);
            let (r, x) = explained(&w, &cfg, None);
            assert!(
                x.violations.is_empty(),
                "{} / {}: {:?}",
                w.name,
                cfg.label(),
                x.violations
            );
            for e in &x.engines {
                assert_eq!(
                    e.blamed_ticks + e.busy_ticks + e.idle_ticks,
                    x.ticks,
                    "{} / {}: {}",
                    w.name,
                    cfg.label(),
                    e.name
                );
            }
            // The report carries the verdict the tree renders.
            assert_eq!(
                r.report.get("explain.stall_ticks"),
                Some(x.stall_ticks as f64)
            );
        }
    }
}

/// The causal tree is part of the deterministic surface: skip-ahead on
/// and off must produce byte-identical rendered trees (skip-ahead is an
/// optimization, not a semantic change), and repeated runs must be
/// stable. bfs blocks engines across window boundaries, where the
/// sampler must see stall cycles charged exactly as tick-by-tick
/// execution charges them.
#[test]
fn causal_tree_is_byte_identical_across_skip_modes() {
    use distda::system::ConfigKind::{DistDAF, DistDAIO};
    let cases = [
        (pathfinder(&Scale::tiny()), DistDAF),
        (bfs(&Scale::tiny()), DistDAIO),
        (bfs(&Scale::tiny()), DistDAF),
    ];
    for (w, kind) in cases {
        let cfg = distda::system::RunConfig::named(kind);
        let (_, skip_on) = explained(&w, &cfg, Some(true));
        let (_, skip_off) = explained(&w, &cfg, Some(false));
        let (_, again) = explained(&w, &cfg, Some(true));
        let ctx = format!("{} / {}", w.name, cfg.label());
        assert_eq!(
            render_text(&skip_on),
            render_text(&skip_off),
            "{ctx}: skip-ahead must not change the causal tree"
        );
        assert_eq!(
            render_text(&skip_on),
            render_text(&again),
            "{ctx}: stable reruns"
        );
    }
}
