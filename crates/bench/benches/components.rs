//! Microbenchmarks of the simulator's hot components plus a small
//! end-to-end simulation, so `cargo bench` exercises the substrate.
//!
//! Dependency-free harness: each benchmark runs a short warm-up, then
//! reports the mean wall-clock time per iteration over a fixed batch.

use distda_ir::prelude::*;
use distda_mem::cache::Cache;
use distda_mem::params::CacheParams;
use distda_noc::{Mesh, NocConfig, Packet, TrafficClass};
use distda_sim::time::ClockDomain;
use distda_system::{try_simulate, ConfigKind, RunConfig, RunSpec};
use std::hint::black_box;
use std::time::Instant;

/// Times `iters` calls of `f` and prints the mean per-iteration cost.
fn bench(name: &str, iters: u64, mut f: impl FnMut()) {
    for _ in 0..iters.div_ceil(10) {
        f(); // warm-up
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let total = start.elapsed();
    let per = total.as_nanos() as f64 / iters as f64;
    let (val, unit) = if per >= 1e6 {
        (per / 1e6, "ms")
    } else if per >= 1e3 {
        (per / 1e3, "us")
    } else {
        (per, "ns")
    };
    println!("{name:<40} {val:>10.2} {unit}/iter  ({iters} iters)");
}

fn bench_cache() {
    let mut cache = Cache::new(CacheParams {
        size_bytes: 32 * 1024,
        assoc: 8,
        latency: 2,
        mshrs: 8,
    });
    let mut line = 0u64;
    bench("cache/streaming_access", 1_000_000, || {
        if cache.access(black_box(line), false) == distda_mem::cache::Lookup::Miss {
            cache.fill(line, false);
        }
        line = (line + 1) % 4096;
    });
}

fn bench_noc() {
    let mut mesh: Mesh<u64> = Mesh::new(4, 2, NocConfig::default(), ClockDomain::from_ghz(2.0));
    let mut t = 0u64;
    bench("noc/inject_route_deliver", 200_000, || {
        let _ = mesh.try_inject(t, Packet::new(0, 7, 64, TrafficClass::AccData, t));
        mesh.tick(t);
        for n in 0..8 {
            black_box(mesh.drain_inbox(n));
        }
        t += 1;
    });
}

fn bench_compiler() {
    let mut b = ProgramBuilder::new("stencil");
    let a = b.array_f64("a", 4096);
    let o = b.array_f64("o", 4096);
    b.for_(1, 4095, 1, |b, i| {
        let v = Expr::load(a, i.clone() - Expr::c(1))
            + Expr::load(a, i.clone())
            + Expr::load(a, i.clone() + Expr::c(1));
        b.store(o, i, v * Expr::cf(1.0 / 3.0));
    });
    let prog = b.build();
    bench("compiler/compile_distributed", 2_000, || {
        black_box(distda_compiler::compile(
            black_box(&prog),
            distda_compiler::PartitionMode::Distributed,
        ));
    });
}

fn bench_end_to_end() {
    let n = 1024usize;
    let mut b = ProgramBuilder::new("axpy");
    let x = b.array_f64("x", n);
    let y = b.array_f64("y", n);
    b.for_(0, n as i64, 1, |b, i| {
        let v = Expr::cf(2.0) * Expr::load(x, i.clone()) + Expr::load(y, i.clone());
        b.store(y, i, v);
    });
    let prog = b.build();
    let init = move |mem: &mut Memory| {
        for i in 0..n {
            mem.array_mut(x)[i] = Value::F(i as f64);
        }
    };
    for kind in [ConfigKind::OoO, ConfigKind::DistDAF] {
        bench(&format!("end_to_end/axpy_1k/{kind:?}"), 10, || {
            let cfg = RunConfig::named(kind);
            black_box(try_simulate(&prog, &init, &cfg, &RunSpec::from_env()).unwrap());
        });
    }
}

fn main() {
    bench_cache();
    bench_noc();
    bench_compiler();
    bench_end_to_end();
}
