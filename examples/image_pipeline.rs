//! A realistic vision pipeline (SD-VBS stereo disparity) across every
//! architecture model the paper evaluates — the workload class whose
//! multi-object inner loops motivate sub-computation partitioning.
//!
//! ```text
//! cargo run --release --example image_pipeline
//! ```

use distda::system::{ConfigKind, RunConfig};
use distda::workloads::{disparity, Scale};

fn main() {
    let mut scale = Scale::eval();
    scale.img = 32; // keep the demo snappy
    let w = disparity(&scale);
    println!(
        "stereo disparity: {}x{} image, {} shifts, {} objects\n",
        scale.img,
        scale.img,
        scale.shifts,
        w.program.arrays.len()
    );
    println!(
        "{:<18} {:>12} {:>12} {:>10} {:>10} {:>10}",
        "config", "ticks", "energy(nJ)", "intra%", "D-A%", "A-A%"
    );
    for kind in ConfigKind::ALL {
        let r = w.try_simulate(&RunConfig::named(kind)).unwrap();
        assert!(r.validated, "wrong pixels under {}", r.config);
        let total = (r.intra_bytes + r.da_bytes + r.aa_bytes).max(1) as f64;
        println!(
            "{:<18} {:>12} {:>12.1} {:>9.1}% {:>9.1}% {:>9.1}%",
            r.config,
            r.ticks,
            r.energy_pj() / 1e3,
            100.0 * r.intra_bytes as f64 / total,
            100.0 * r.da_bytes as f64 / total,
            100.0 * r.aa_bytes as f64 / total,
        );
    }
    println!("\nintra = access-unit buffer hits (near-data reuse),");
    println!("D-A   = accelerator <-> cache hierarchy, A-A = operand dataflow.");
}
