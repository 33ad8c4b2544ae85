//! Measures the idle skip-ahead fast path: runs the paper's 12-workload x
//! 6-configuration sweep single-threaded, once with skip-ahead and once
//! tick-by-tick (interleaved per configuration so ambient load affects
//! both sides alike), and prints the per-kernel wall-clock speedup.

use distda_bench::paper_configs;
use distda_system::RunSpec;
use distda_workloads::{suite, Scale};
use std::time::Instant;

/// The environment's run with an explicit skip-ahead setting.
fn skip(on: bool) -> RunSpec<'static> {
    RunSpec {
        skip: Some(on),
        ..RunSpec::from_env()
    }
}

fn main() {
    let scale = Scale::eval();
    let cfgs = paper_configs();
    let mut total_skip = 0.0f64;
    let mut total_base = 0.0f64;
    let mut wins = 0usize;
    let workloads = suite(&scale);
    for w in &workloads {
        let (mut t_skip, mut t_base) = (0.0f64, 0.0f64);
        for cfg in &cfgs {
            let t0 = Instant::now();
            let r = w.try_simulate_with(cfg, skip(true)).unwrap().result;
            t_skip += t0.elapsed().as_secs_f64();
            assert!(r.validated, "{} failed under {}", w.name, cfg.label());
            let t0 = Instant::now();
            let r = w.try_simulate_with(cfg, skip(false)).unwrap().result;
            t_base += t0.elapsed().as_secs_f64();
            assert!(r.validated, "{} failed under {}", w.name, cfg.label());
        }
        let speedup = t_base / t_skip;
        if speedup >= 1.5 {
            wins += 1;
        }
        println!(
            "{:<14} skip {:7.2}s  tick-by-tick {:7.2}s  speedup {:5.2}x",
            w.name, t_skip, t_base, speedup
        );
        total_skip += t_skip;
        total_base += t_base;
    }
    println!(
        "total: skip {:.1}s  tick-by-tick {:.1}s  speedup {:.2}x  ({wins}/{} kernels >= 1.5x)",
        total_skip,
        total_base,
        total_base / total_skip,
        workloads.len()
    );
}
