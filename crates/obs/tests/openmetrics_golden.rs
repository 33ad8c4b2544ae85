//! Pins the OpenMetrics rendering byte for byte: a registry ingested from a
//! tiny two-cell sweep, plus series that exercise every formatting path
//! (escaped label values, non-finite gauges, histogram buckets), must
//! render to exactly the committed length and FNV-1a hash. Any change to
//! the exporter's output — not just to its speed — fails here.

use distda_obs::Registry;
use distda_system::{ConfigKind, RunConfig};
use distda_workloads::{pathfinder, pointer_chase, Scale};

/// Byte length of the golden rendering.
const GOLDEN_LEN: usize = 8953;
/// FNV-1a (64-bit) of the golden rendering.
const GOLDEN_FNV: u64 = 0xad4c_bb22_df1c_9584;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn golden_registry() -> Registry {
    let scale = Scale::tiny();
    let mut reg = Registry::new();
    for (w, kind) in [
        (pathfinder(&scale), ConfigKind::DistDAF),
        (pointer_chase(&scale), ConfigKind::OoO),
    ] {
        let r = w.try_simulate(&RunConfig::named(kind)).unwrap();
        reg.ingest_run(&r);
    }
    reg.counter_add("distda_serve_jobs", &[], 7);
    reg.gauge_set("odd_values", &[("case", "nan")], f64::NAN);
    reg.gauge_set("odd_values", &[("case", "+inf")], f64::INFINITY);
    reg.gauge_set("odd_values", &[("case", "-inf")], f64::NEG_INFINITY);
    reg.gauge_set("odd_values", &[("case", "tiny")], 1.5e-300);
    reg.gauge_set("odd_values", &[("case", "neg")], -0.125);
    reg.gauge_set("escaped", &[("path", "a\\b\"c\nd"), ("z.key", "")], 2.0);
    // 2^63 lands in the top bucket, whose bound renders as `+Inf`.
    for v in [0, 1, 3, 100, 5_000_000, 1 << 63] {
        reg.hist_observe("lat_ns", &[("stage", "admit")], v);
    }
    reg.hist_observe("lat_ns", &[], 42);
    reg
}

#[test]
fn openmetrics_rendering_matches_golden() {
    let om = golden_registry().openmetrics();
    assert!(om.ends_with("# EOF\n"));
    let (len, hash) = (om.len(), fnv1a(om.as_bytes()));
    if (len, hash) != (GOLDEN_LEN, GOLDEN_FNV) {
        let path = std::env::temp_dir().join("distda_openmetrics_golden_actual.om");
        let _ = std::fs::write(&path, &om);
        panic!(
            "OpenMetrics rendering changed: {len} bytes, fnv1a {hash:#018x} \
             (golden {GOLDEN_LEN} bytes, {GOLDEN_FNV:#018x}); actual written to {}",
            path.display()
        );
    }
}
