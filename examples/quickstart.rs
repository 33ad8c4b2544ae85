//! Quickstart: author a kernel, offload it, compare against the OoO host.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use distda::ir::prelude::*;
use distda::system::{try_simulate, ConfigKind, RunConfig, RunSpec};

fn main() {
    // 1. Write a kernel in the IR: y[i] = sqrt(x[i]^2 + y[i]^2).
    let n = 16 * 1024;
    let mut b = ProgramBuilder::new("hypot");
    let x = b.array_f64("x", n);
    let y = b.array_f64("y", n);
    b.for_(0, n as i64, 1, |b, i| {
        let gx = Expr::load(x, i.clone());
        let gy = Expr::load(y, i.clone());
        let v = (gx.clone() * gx + gy.clone() * gy).sqrt();
        b.store(y, i, v);
    });
    let prog = b.build();

    // 2. Inputs.
    let init = |mem: &mut Memory| {
        for i in 0..n {
            mem.array_mut(x)[i] = Value::F(i as f64);
            mem.array_mut(y)[i] = Value::F(1.0);
        }
    };

    // 3. Simulate under the OoO baseline and the full Dist-DA-F system.
    // `from_env` honours the `DISTDA_*` knobs (tracing, checking, ...).
    let run = |cfg: &RunConfig| try_simulate(&prog, &init, cfg, &RunSpec::from_env()).unwrap();
    println!(
        "{:<18} {:>12} {:>14} {:>12} {:>10}",
        "config", "ticks", "energy (nJ)", "NoC bytes", "valid"
    );
    let mut baseline = None;
    for kind in [
        ConfigKind::OoO,
        ConfigKind::MonoDAIO,
        ConfigKind::DistDAIO,
        ConfigKind::DistDAF,
    ] {
        let cfg = RunConfig::named(kind);
        let r = run(&cfg).result;
        println!(
            "{:<18} {:>12} {:>14.1} {:>12} {:>10}",
            r.config,
            r.ticks,
            r.energy_pj() / 1e3,
            r.noc_bytes.iter().sum::<u64>(),
            r.validated
        );
        if kind == ConfigKind::OoO {
            baseline = Some(r);
        }
    }
    let base = baseline.expect("baseline ran");
    let dist = run(&RunConfig::named(ConfigKind::DistDAF)).result;
    println!(
        "\nDist-DA-F vs OoO: {:.2}x speedup, {:.2}x energy efficiency",
        base.ticks as f64 / dist.ticks as f64,
        base.energy_pj() / dist.energy_pj()
    );
}
