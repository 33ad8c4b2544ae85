//! Peek inside the compiler: author a kernel, inspect the DFG
//! classification, the object-anchored partitioning and the generated
//! accelerator definitions, then run it.
//!
//! ```text
//! cargo run --release --example custom_kernel
//! ```

use distda::compiler::{compile, AccessPattern, PartitionMode};
use distda::ir::prelude::*;
use distda::system::{try_simulate, ConfigKind, RunConfig, RunSpec};

fn main() {
    // A gather-scale-scatter kernel: out[i] = table[idx[i]] * w[i].
    let n = 4096;
    let mut b = ProgramBuilder::new("gather-scale");
    let idx = b.array_i64("idx", n);
    let table = b.array_f64("table", 8 * n);
    let w = b.array_f64("w", n);
    let out = b.array_f64("out", n);
    b.for_(0, n as i64, 1, |b, i| {
        let v = Expr::load(table, Expr::load(idx, i.clone())) * Expr::load(w, i.clone());
        b.store(out, i, v);
    });
    let prog = b.build();

    // Compile with distributed (Dist-DA) partitioning and inspect.
    let compiled = compile(&prog, PartitionMode::Distributed);
    for plan in &compiled.offloads {
        println!(
            "offload {:?}: class {:?}, {} partitions, {} channels, cut {} B/iter, DFG {}x{}",
            plan.loop_id,
            plan.class,
            plan.partitions.len(),
            plan.channels.len(),
            plan.cut_bytes,
            plan.dfg_dims.0,
            plan.dfg_dims.1
        );
        for p in &plan.partitions {
            let obj = p
                .object
                .map(|a| prog.arrays[a.0].name.clone())
                .unwrap_or_else(|| "-".into());
            let patterns: Vec<&str> = p
                .accesses
                .iter()
                .map(|a| match a.pattern {
                    AccessPattern::Stream { .. } => {
                        if a.write {
                            "stream-W"
                        } else {
                            "stream-R"
                        }
                    }
                    AccessPattern::Indirect => {
                        if a.write {
                            "indirect-W"
                        } else {
                            "indirect-R"
                        }
                    }
                })
                .collect();
            println!(
                "  partition {} @ object {:<6}: {:>2} microcode ops ({} B), accesses {:?}",
                p.id,
                obj,
                p.inst_count(),
                p.microcode_bytes(),
                patterns
            );
        }
    }

    // Run it end to end.
    let init = |mem: &mut Memory| {
        for i in 0..n {
            mem.array_mut(idx)[i] = Value::I(((i * 7919) % (8 * n)) as i64);
            mem.array_mut(w)[i] = Value::F(0.5);
        }
        for i in 0..8 * n {
            mem.array_mut(table)[i] = Value::F(i as f64);
        }
    };
    let run = |kind| {
        try_simulate(&prog, &init, &RunConfig::named(kind), &RunSpec::from_env())
            .unwrap()
            .result
    };
    let ooo = run(ConfigKind::OoO);
    let dist = run(ConfigKind::DistDAF);
    assert!(ooo.validated && dist.validated);
    println!(
        "\nOoO {} ticks vs Dist-DA-F {} ticks -> {:.2}x speedup, {:.2}x energy efficiency",
        ooo.ticks,
        dist.ticks,
        ooo.ticks as f64 / dist.ticks as f64,
        ooo.energy_pj() / dist.energy_pj()
    );
}
