//! Irregular graph analytics (pagerank + bfs) near data: indirect accesses
//! served at the L3 cluster that owns each object, with the full energy
//! breakdown per component.
//!
//! ```text
//! cargo run --release --example graph_analytics
//! ```

use distda::system::{ConfigKind, RunConfig};
use distda::workloads::{bfs, pagerank, Scale};

fn main() {
    let scale = Scale::eval();
    for w in [pagerank(&scale), bfs(&scale)] {
        println!(
            "== {} ({} nodes, edge factor {}) ==",
            w.name, scale.nodes, scale.edge_factor
        );
        println!(
            "{:<18} {:>11} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "config", "ticks", "core", "accel", "cache", "noc", "dram"
        );
        for kind in [
            ConfigKind::OoO,
            ConfigKind::MonoDAIO,
            ConfigKind::DistDAIO,
            ConfigKind::DistDAF,
        ] {
            let r = w.try_simulate(&RunConfig::named(kind)).unwrap();
            assert!(r.validated);
            let e = &r.energy;
            let pct = |x: f64| 100.0 * x / r.energy_pj();
            println!(
                "{:<18} {:>11} {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}%",
                r.config,
                r.ticks,
                pct(e.core),
                pct(e.accel + e.buffers + e.mmio),
                pct(e.cache),
                pct(e.noc),
                pct(e.dram),
            );
        }
        println!();
    }
    println!("Near-data offload shifts energy from the host core and cache walk");
    println!("into cheap access-unit buffers beside the owning L3 cluster.");
}
