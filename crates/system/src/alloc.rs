//! The slab allocator for accelerator-visible memory objects (paper
//! Section IV-D).
//!
//! Accelerator configurations anchor each data structure at a *home
//! cluster*: the allocator hands out a large contiguous region per cluster
//! and pins object ranges there, which both minimizes translation requests
//! and gives near-data placement its target. The conventional
//! (interleaved) layout is used by the OoO and Mono-CA baselines.

use distda_compiler::OffloadPlan;
use distda_ir::expr::ArrayId;
use distda_ir::program::Program;
use distda_ir::trace::Layout;
use distda_mem::MemSystem;

/// Object placement policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocStrategy {
    /// Conventional static-NUCA line interleaving; no anchoring.
    Interleaved,
    /// Objects anchored round-robin across clusters (the default greedy
    /// first-touch stand-in; deterministic).
    RoundRobin,
    /// Objects co-used by one offload placed in adjacent clusters
    /// (the Figure 14 "+A" manual-allocation optimization).
    Affinity,
}

/// The outcome of allocation: byte layout plus per-object home cluster.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// Byte addresses per array.
    pub layout: Layout,
    /// Home cluster per array (`None` = interleaved).
    pub home: Vec<Option<usize>>,
}

/// Base of the slab region (tenant 0; later tenants stack above it).
const SLAB_BASE: u64 = 0x4000_0000;
/// Bytes reserved per cluster.
const SLAB_PER_CLUSTER: u64 = 0x0400_0000;
/// Base of the interleaved (non-anchored) region for tenant 0.
const INTERLEAVED_BASE: u64 = 0x1000_0000;
/// Interleaved-region bytes reserved per tenant.
const INTERLEAVED_PER_TENANT: u64 = 0x0200_0000;

/// Allocates every array of `prog` on behalf of `tenant` and pins its
/// anchored regions in `mem`'s address map. Each tenant gets its own
/// disjoint address band (interleaved region and per-cluster slabs), its
/// anchored objects rotate home clusters by the tenant index so
/// co-scheduled tenants don't all pile onto the same NUCA banks, and
/// every band but tenant 0's is declared to `mem` for per-tenant traffic
/// attribution.
///
/// # Panics
///
/// Panics if an object exceeds the per-cluster slab or the interleaved
/// region overflows its per-tenant band.
pub fn allocate(
    prog: &Program,
    plans: &[OffloadPlan],
    clusters: usize,
    strategy: AllocStrategy,
    mem: &mut MemSystem,
    tenant: u16,
) -> Allocation {
    let n = prog.arrays.len();
    let order: Vec<ArrayId> = match strategy {
        AllocStrategy::Interleaved => {
            let base = INTERLEAVED_BASE + tenant as u64 * INTERLEAVED_PER_TENANT;
            let total: u64 = prog
                .arrays
                .iter()
                .map(|a| (a.len as u64 * Program::ELEM_BYTES + 63) & !63)
                .sum();
            assert!(
                total <= INTERLEAVED_PER_TENANT,
                "program footprint overflows the per-tenant interleaved region"
            );
            if tenant > 0 {
                mem.declare_tenant_range(base, base + INTERLEAVED_PER_TENANT, tenant);
            }
            return Allocation {
                layout: Layout::new(prog, base),
                home: vec![None; n],
            };
        }
        AllocStrategy::RoundRobin => (0..n).map(ArrayId).collect(),
        AllocStrategy::Affinity => affinity_order(n, plans),
    };
    let slab0 = SLAB_BASE + tenant as u64 * clusters as u64 * SLAB_PER_CLUSTER;
    let mut home = vec![None; n];
    let mut cursor = vec![0u64; clusters];
    let mut bases = vec![0u64; n];
    for (k, a) in order.iter().enumerate() {
        let c = (k + tenant as usize) % clusters;
        let bytes = (prog.arrays[a.0].len as u64 * Program::ELEM_BYTES + 63) & !63;
        assert!(
            cursor[c] + bytes <= SLAB_PER_CLUSTER,
            "object {} overflows cluster slab",
            prog.arrays[a.0].name
        );
        let base = slab0 + c as u64 * SLAB_PER_CLUSTER + cursor[c];
        cursor[c] += bytes;
        bases[a.0] = base;
        home[a.0] = Some(c);
        if bytes > 0 {
            mem.addr_map_mut().pin_region(base, base + bytes, c);
        }
    }
    if tenant > 0 {
        mem.declare_tenant_range(slab0, slab0 + clusters as u64 * SLAB_PER_CLUSTER, tenant);
    }
    Allocation {
        layout: Layout::from_bases(bases),
        home,
    }
}

/// Orders arrays so objects co-used by the same offload land in adjacent
/// clusters.
fn affinity_order(n: usize, plans: &[OffloadPlan]) -> Vec<ArrayId> {
    let mut seen = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for plan in plans {
        for part in &plan.partitions {
            for acc in &part.accesses {
                if !seen[acc.array.0] {
                    seen[acc.array.0] = true;
                    order.push(acc.array);
                }
            }
        }
    }
    for (i, s) in seen.iter().enumerate().take(n) {
        if !s {
            order.push(ArrayId(i));
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use distda_ir::prelude::*;
    use distda_mem::MemConfig;
    use distda_sim::time::ClockDomain;

    fn prog() -> Program {
        let mut b = ProgramBuilder::new("t");
        b.array_f64("a", 100);
        b.array_f64("b", 100);
        b.array_f64("c", 100);
        b.build()
    }

    fn fresh_mem() -> MemSystem {
        MemSystem::new(MemConfig::default(), ClockDomain::from_ghz(2.0), 0, 7)
    }

    #[test]
    fn interleaved_has_no_homes() {
        let p = prog();
        let mut mem = fresh_mem();
        let a = allocate(&p, &[], 8, AllocStrategy::Interleaved, &mut mem, 0);
        assert!(a.home.iter().all(|h| h.is_none()));
        assert!(mem.addr_map().regions().is_empty());
    }

    #[test]
    fn round_robin_spreads_homes() {
        let p = prog();
        let mut mem = fresh_mem();
        let a = allocate(&p, &[], 8, AllocStrategy::RoundRobin, &mut mem, 0);
        assert_eq!(a.home, vec![Some(0), Some(1), Some(2)]);
        // Address map agrees with the recorded homes.
        for (i, h) in a.home.iter().enumerate() {
            let base = a.layout.base(ArrayId(i));
            assert_eq!(mem.addr_map().home_cluster(base), h.unwrap());
        }
    }

    #[test]
    fn anchored_objects_are_line_aligned_and_disjoint() {
        let p = prog();
        let mut mem = fresh_mem();
        let a = allocate(&p, &[], 8, AllocStrategy::RoundRobin, &mut mem, 0);
        let mut ranges: Vec<(u64, u64)> = (0..3).map(|i| a.layout.range(&p, ArrayId(i))).collect();
        ranges.sort();
        for r in &ranges {
            assert_eq!(r.0 % 64, 0);
        }
        for w in ranges.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlap");
        }
    }

    #[test]
    fn affinity_orders_by_plan_usage() {
        use distda_compiler::{compile, PartitionMode};
        let mut b = ProgramBuilder::new("t");
        let _a0 = b.array_f64("unused", 8);
        let x = b.array_f64("x", 8);
        let y = b.array_f64("y", 8);
        b.for_(0, 8, 1, |b, i| {
            b.store(y, i.clone(), Expr::load(x, i));
        });
        let p = b.build();
        let ck = compile(&p, PartitionMode::Distributed);
        let order = affinity_order(3, &ck.offloads);
        // Used arrays come first, then the unused one.
        assert_eq!(order.last(), Some(&ArrayId(0)));
    }
}
