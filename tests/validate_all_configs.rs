//! Cross-crate integration: every workload of the suite must produce the
//! reference-identical memory image under every evaluated configuration —
//! the paper's "validated by execution until program completion".

use distda::system::{ConfigKind, RunConfig};
use distda::workloads::{suite, Scale};

fn check(kind: ConfigKind) {
    let scale = Scale::tiny();
    for w in suite(&scale) {
        let r = w.try_simulate(&RunConfig::named(kind)).unwrap();
        assert!(
            r.validated,
            "{} failed validation under {}",
            w.name, r.config
        );
        assert!(r.ticks > 0, "{} reported zero time", w.name);
    }
}

#[test]
fn ooo_validates_entire_suite() {
    check(ConfigKind::OoO);
}

#[test]
fn mono_ca_validates_entire_suite() {
    check(ConfigKind::MonoCA);
}

#[test]
fn mono_da_io_validates_entire_suite() {
    check(ConfigKind::MonoDAIO);
}

#[test]
fn mono_da_f_validates_entire_suite() {
    check(ConfigKind::MonoDAF);
}

#[test]
fn dist_da_io_validates_entire_suite() {
    check(ConfigKind::DistDAIO);
}

#[test]
fn dist_da_f_validates_entire_suite() {
    check(ConfigKind::DistDAF);
}

#[test]
fn sensitivity_variants_validate_on_representative_kernels() {
    let scale = Scale::tiny();
    for w in [
        distda::workloads::fdtd_2d(&scale),
        distda::workloads::pagerank(&scale),
    ] {
        for cfg in [RunConfig::dist_da_io_sw(), RunConfig::dist_da_f_alloc()] {
            let r = w.try_simulate(&cfg).unwrap();
            assert!(r.validated, "{} failed under {}", w.name, r.config);
        }
    }
}

#[test]
fn case_study_kernels_validate() {
    let scale = Scale::tiny();
    for w in [
        distda::workloads::spmv(&scale),
        distda::workloads::spmv_flat(&scale),
        distda::workloads::nw_blocked(&scale, 4),
    ] {
        for kind in [ConfigKind::OoO, ConfigKind::DistDAIO] {
            let r = w.try_simulate(&RunConfig::named(kind)).unwrap();
            assert!(r.validated, "{} failed under {:?}", w.name, kind);
        }
    }
}

/// The differential-validation contract with everything strict: a
/// golden-model mismatch, conservation-invariant violation, or drain leak
/// is a typed error, for every configuration, with idle skip-ahead both on
/// and off. Guards the drain-state leaks the sanitizer originally flagged
/// (undelivered responses; packets stranded in a mesh inbox on the final
/// drain tick).
#[test]
fn strict_checked_runs_hold_every_invariant_across_configs() {
    use distda::system::{CheckPolicy, RunSpec};
    let scale = Scale::tiny();
    // pointer-chase serializes DRAM misses, fdtd-2d streams through the
    // prefetcher (the path that stranded a DRAM request in an inbox), and
    // bfs exercises indirect traffic from the engines.
    for w in [
        distda::workloads::pointer_chase(&scale),
        distda::workloads::fdtd_2d(&scale),
        distda::workloads::bfs(&scale),
    ] {
        for kind in ConfigKind::ALL {
            for skip in [true, false] {
                let spec = RunSpec {
                    skip: Some(skip),
                    policy: CheckPolicy::full(),
                    ..RunSpec::default()
                };
                let run = w
                    .try_simulate_with(&RunConfig::named(kind), spec)
                    .unwrap_or_else(|e| panic!("{} under {:?} (skip={skip}): {e}", w.name, kind));
                assert!(run.result.validated);
            }
        }
    }
}

/// Interleaved allocation leaves no home-cluster table, so configurations
/// that consult it must be rejected with a typed error up front — this
/// used to be an `unreachable!()` panic deep in the allocator.
#[test]
fn interleaved_alloc_under_decentralized_config_is_a_typed_error() {
    use distda::system::{AllocStrategy, SimError};
    let scale = Scale::tiny();
    let w = distda::workloads::pointer_chase(&scale);
    let cfg = RunConfig {
        alloc: AllocStrategy::Interleaved,
        ..RunConfig::named(ConfigKind::DistDAF)
    };
    match w.try_simulate(&cfg) {
        Err(SimError::InvalidConfig { detail }) => {
            assert!(detail.contains("Interleaved"), "detail: {detail}");
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
    // The plain Mono-CA baseline allocates interleaved by design and must
    // keep working.
    let ca = RunConfig {
        alloc: AllocStrategy::Interleaved,
        ..RunConfig::named(ConfigKind::MonoCA)
    };
    assert!(w.try_simulate(&ca).expect("Mono-CA interleaved").validated);
}
