//! The six evaluated configurations (paper Section VI-A) plus the
//! sensitivity-study knobs.

use crate::alloc::AllocStrategy;
use distda_compiler::PartitionMode;

/// The architecture models of Figure 1 / Section VI-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConfigKind {
    /// Out-of-order host only (the normalization baseline).
    OoO,
    /// Monolithic accelerator on the L3 bus, centralized stream-specialized
    /// accesses, 8 KB private buffer, 2 GHz.
    MonoCA,
    /// Monolithic compute, decentralized access nodes; in-order core at
    /// 2 GHz.
    MonoDAIO,
    /// Monolithic compute, decentralized accesses; 8x8 CGRA at 1 GHz.
    MonoDAF,
    /// Distributed compute + decentralized accesses; in-order cores at
    /// 2 GHz.
    DistDAIO,
    /// Distributed compute + decentralized accesses; 5x5 CGRA per cluster
    /// at 1 GHz.
    DistDAF,
}

impl ConfigKind {
    /// All kinds in the paper's presentation order.
    pub const ALL: [ConfigKind; 6] = [
        ConfigKind::OoO,
        ConfigKind::MonoCA,
        ConfigKind::MonoDAIO,
        ConfigKind::MonoDAF,
        ConfigKind::DistDAIO,
        ConfigKind::DistDAF,
    ];

    /// Paper-style label.
    pub fn label(self) -> &'static str {
        match self {
            ConfigKind::OoO => "OoO",
            ConfigKind::MonoCA => "Mono-CA",
            ConfigKind::MonoDAIO => "Mono-DA-IO",
            ConfigKind::MonoDAF => "Mono-DA-F",
            ConfigKind::DistDAIO => "Dist-DA-IO",
            ConfigKind::DistDAF => "Dist-DA-F",
        }
    }

    /// Compiler partitioning mode for this configuration.
    pub fn partition_mode(self) -> Option<PartitionMode> {
        match self {
            ConfigKind::OoO => None,
            ConfigKind::MonoCA | ConfigKind::MonoDAIO | ConfigKind::MonoDAF => {
                Some(PartitionMode::Monolithic)
            }
            ConfigKind::DistDAIO | ConfigKind::DistDAF => Some(PartitionMode::Distributed),
        }
    }

    /// Whether accesses are decentralized into access nodes (Mono-DA).
    pub fn decentralize_accesses(self) -> bool {
        matches!(self, ConfigKind::MonoDAIO | ConfigKind::MonoDAF)
    }

    /// Whether the compute substrate is a CGRA fabric.
    pub fn is_cgra(self) -> bool {
        matches!(self, ConfigKind::MonoDAF | ConfigKind::DistDAF)
    }
}

/// A disaggregated far-memory pool behind the memory-controller node:
/// every DRAM access pays an extra network crossing to the remote pool,
/// and the pool link's bandwidth replaces local DRAM bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FarMemory {
    /// Extra uncore cycles per DRAM access (the remote hop, both ways).
    pub extra_latency: u64,
    /// Far-pool link bandwidth in bytes per uncore cycle.
    pub bytes_per_cycle: u64,
}

/// The machine shape: mesh dimensions, NUCA banking, where the host and
/// the memory controller sit, plus the scenario-family knobs (far-memory
/// pool, tenant count). One L3 cluster per mesh node, so the cluster
/// count is always `mesh_cols * mesh_rows`.
///
/// [`Topology::paper`] reproduces the Table III machine exactly (4x2
/// mesh, 8 clusters x 4 banks, host at node 0, memory controller at node
/// 7); every paper figure runs on it byte-identically to the
/// pre-parametric code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Mesh width (columns).
    pub mesh_cols: usize,
    /// Mesh height (rows).
    pub mesh_rows: usize,
    /// NUCA banks per L3 cluster.
    pub banks_per_cluster: usize,
    /// Mesh node hosting the OoO core and its private hierarchy.
    pub host_node: usize,
    /// Mesh node fronting DRAM (or the far-memory pool).
    pub memctrl_node: usize,
    /// Disaggregated far-memory pool behind the controller, if any.
    pub far_memory: Option<FarMemory>,
    /// Independent co-scheduled copies of the workload sharing the fabric
    /// (1 = the classic single-tenant machine).
    pub tenants: usize,
}

impl Topology {
    /// The Table III machine: 4x2 mesh, host at node 0, controller at 7.
    pub fn paper() -> Self {
        Self {
            mesh_cols: 4,
            mesh_rows: 2,
            banks_per_cluster: 4,
            host_node: 0,
            memctrl_node: 7,
            far_memory: None,
            tenants: 1,
        }
    }

    /// An arbitrary mesh, host at node 0 and the memory controller at the
    /// opposite corner (the paper's convention generalized).
    pub fn mesh(cols: usize, rows: usize) -> Self {
        Self {
            mesh_cols: cols,
            mesh_rows: rows,
            memctrl_node: (cols * rows).saturating_sub(1),
            ..Self::paper()
        }
    }

    /// Cluster count (one cluster per mesh node).
    pub fn clusters(&self) -> usize {
        self.mesh_cols * self.mesh_rows
    }

    /// Checks the topology for internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`](crate::error::SimError) naming
    /// the violated rule.
    pub fn validate(&self) -> Result<(), crate::error::SimError> {
        let fail = |detail: String| Err(crate::error::SimError::InvalidConfig { detail });
        if self.mesh_cols == 0 || self.mesh_rows == 0 {
            return fail(format!(
                "mesh must be at least 1x1, got {}x{}",
                self.mesh_cols, self.mesh_rows
            ));
        }
        if self.clusters() > 1024 {
            return fail(format!(
                "mesh {}x{} exceeds 1024 clusters",
                self.mesh_cols, self.mesh_rows
            ));
        }
        if self.banks_per_cluster == 0 || self.banks_per_cluster > 64 {
            return fail(format!(
                "banks_per_cluster must be in 1..=64, got {}",
                self.banks_per_cluster
            ));
        }
        if self.host_node >= self.clusters() || self.memctrl_node >= self.clusters() {
            return fail(format!(
                "host node {} / memctrl node {} out of range for {} clusters",
                self.host_node,
                self.memctrl_node,
                self.clusters()
            ));
        }
        if self.tenants == 0 || self.tenants > 16 {
            return fail(format!("tenants must be in 1..=16, got {}", self.tenants));
        }
        if let Some(fm) = self.far_memory {
            if fm.bytes_per_cycle == 0 {
                return fail("far-memory bytes_per_cycle must be nonzero".to_string());
            }
        }
        Ok(())
    }

    /// The label segments for the non-paper knobs (`:4x4:fm150:t2`
    /// style), empty for the paper machine. Host/controller placement is
    /// not rendered: labels cover the sweepable axes, and
    /// [`Topology::apply_segment`] re-derives placement from the mesh.
    pub fn label_suffix(&self) -> String {
        let paper = Self::paper();
        let mut out = String::new();
        if (self.mesh_cols, self.mesh_rows) != (paper.mesh_cols, paper.mesh_rows) {
            out.push_str(&format!(":{}x{}", self.mesh_cols, self.mesh_rows));
        }
        if self.banks_per_cluster != paper.banks_per_cluster {
            out.push_str(&format!(":b{}", self.banks_per_cluster));
        }
        if let Some(fm) = self.far_memory {
            out.push_str(&format!(":fm{}", fm.extra_latency));
            if fm.bytes_per_cycle != FAR_MEMORY_BYTES_PER_CYCLE {
                out.push_str(&format!("x{}", fm.bytes_per_cycle));
            }
        }
        if self.tenants > 1 {
            out.push_str(&format!(":t{}", self.tenants));
        }
        out
    }

    /// Applies one extended-label segment: `<C>x<R>` (mesh dimensions,
    /// host/controller re-derived as in [`Topology::mesh`]), `b<N>`
    /// (banks per cluster), `fm<LAT>[x<BW>]` (far-memory pool), or
    /// `t<N>` (tenant count).
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed segment.
    pub fn apply_segment(&mut self, seg: &str) -> Result<(), String> {
        let bad = |what: &str| Err(format!("bad topology segment `{seg}`: {what}"));
        if let Some(rest) = seg.strip_prefix("fm") {
            let (lat, bw) = match rest.split_once('x') {
                Some((l, b)) => (l, Some(b)),
                None => (rest, None),
            };
            let Ok(extra_latency) = lat.parse::<u64>() else {
                return bad("expected fm<LATENCY>[x<BYTES_PER_CYCLE>]");
            };
            let bytes_per_cycle = match bw {
                Some(b) => match b.parse::<u64>() {
                    Ok(v) => v,
                    Err(_) => return bad("expected fm<LATENCY>[x<BYTES_PER_CYCLE>]"),
                },
                None => FAR_MEMORY_BYTES_PER_CYCLE,
            };
            self.far_memory = Some(FarMemory {
                extra_latency,
                bytes_per_cycle,
            });
            return Ok(());
        }
        if let Some(rest) = seg.strip_prefix('t') {
            if let Ok(n) = rest.parse::<usize>() {
                self.tenants = n;
                return Ok(());
            }
        }
        if let Some(rest) = seg.strip_prefix('b') {
            if let Ok(n) = rest.parse::<usize>() {
                self.banks_per_cluster = n;
                return Ok(());
            }
        }
        if let Some((c, r)) = seg.split_once('x') {
            if let (Ok(cols), Ok(rows)) = (c.parse::<usize>(), r.parse::<usize>()) {
                let banks = self.banks_per_cluster;
                let (fm, tenants) = (self.far_memory, self.tenants);
                *self = Self::mesh(cols, rows);
                self.banks_per_cluster = banks;
                self.far_memory = fm;
                self.tenants = tenants;
                return Ok(());
            }
        }
        bad("expected <C>x<R>, b<N>, fm<LAT>[x<BW>] or t<N>")
    }
}

impl Default for Topology {
    fn default() -> Self {
        Self::paper()
    }
}

/// Default far-pool link bandwidth (bytes per uncore cycle) when an
/// extended label gives only a latency (`:fm150`).
pub const FAR_MEMORY_BYTES_PER_CYCLE: u64 = 2;

/// Splits an extended configuration label (`<base>[:<segment>]...`) into
/// the base label and the topology built from its segments.
///
/// # Errors
///
/// Returns a description of the first malformed segment.
pub fn parse_label_extension(label: &str) -> Result<(&str, Topology), String> {
    let mut parts = label.split(':');
    let base = parts.next().unwrap_or(label);
    let mut topo = Topology::paper();
    for seg in parts {
        topo.apply_segment(seg)?;
    }
    Ok((base, topo))
}

/// One simulated configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// The architecture model.
    pub kind: ConfigKind,
    /// Accelerator clock in GHz (Figure 13 sweeps this).
    pub accel_ghz: f64,
    /// Access-unit buffer lines (64 = 4 KB; Mono-CA uses 128 = 8 KB).
    pub buffer_lines: usize,
    /// In-order accelerator issue width (Figure 14 +SW uses 4).
    pub issue_width: u32,
    /// Deeper prefetch + more MLP in the access units (Figure 14 +SW).
    pub sw_prefetch: bool,
    /// Object allocation policy (Figure 14 +A uses `Affinity`).
    pub alloc: AllocStrategy,
    /// Optional label suffix for variants.
    pub suffix: &'static str,
    /// Machine shape and scenario family ([`Topology::paper`] by default).
    pub topology: Topology,
}

impl RunConfig {
    /// The paper's default settings for a configuration kind.
    pub fn named(kind: ConfigKind) -> Self {
        // Buffer capacities follow the 4x-scaled hierarchy (paper: 4 KB
        // per access unit, 8 KB private for Mono-CA).
        let (accel_ghz, buffer_lines, issue_width) = match kind {
            ConfigKind::OoO => (2.0, 32, 1),
            ConfigKind::MonoCA => (2.0, 64, 4),
            ConfigKind::MonoDAIO => (2.0, 32, 1),
            ConfigKind::MonoDAF => (1.0, 32, 1),
            ConfigKind::DistDAIO => (2.0, 32, 1),
            ConfigKind::DistDAF => (1.0, 32, 1),
        };
        let alloc = match kind {
            ConfigKind::OoO | ConfigKind::MonoCA => AllocStrategy::Interleaved,
            _ => AllocStrategy::RoundRobin,
        };
        Self {
            kind,
            accel_ghz,
            buffer_lines,
            issue_width,
            sw_prefetch: false,
            alloc,
            suffix: "",
            topology: Topology::paper(),
        }
    }

    /// Resolves a configuration label, the one grammar `run`, `validate`
    /// and the serve protocol accept: the base names a paper
    /// configuration by its kind (`OoO`, `dist-da-f`) or its full display
    /// label (`Dist-DA-F@1GHz`), or a Figure 14 variant (`Dist-DA-IO+SW`,
    /// `Dist-DA-F+A@1GHz`), case-insensitively; any `:`-separated topology
    /// segments (`4x4`, `b8`, `fm150x4`, `t2`; see
    /// [`parse_label_extension`]) reshape the machine it runs on. Every
    /// [`RunConfig::label`] parses back to its configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of an unknown base name or a malformed
    /// segment.
    pub fn from_label(label: &str) -> Result<Self, String> {
        let (base, topo) = parse_label_extension(label)?;
        let named = ConfigKind::ALL.into_iter().map(Self::named);
        let variants = [Self::dist_da_io_sw(), Self::dist_da_f_alloc()];
        let cfg = named
            .chain(variants)
            .find(|c| {
                c.label().eq_ignore_ascii_case(base)
                    || format!("{}{}", c.kind.label(), c.suffix).eq_ignore_ascii_case(base)
            })
            .ok_or_else(|| {
                format!(
                    "unknown config: {base} (expected one of {}, a full label such as \
                     Dist-DA-F@1GHz, or a +SW/+A variant)",
                    ConfigKind::ALL.map(|k| k.label()).join(", ")
                )
            })?;
        Ok(cfg.with_topology(topo))
    }

    /// A copy of this configuration on a different machine shape.
    pub fn with_topology(self, topology: Topology) -> Self {
        Self { topology, ..self }
    }

    /// The Figure 14 `Dist-DA-IO+SW` variant: 4-issue with software
    /// prefetching.
    pub fn dist_da_io_sw() -> Self {
        Self {
            issue_width: 4,
            sw_prefetch: true,
            suffix: "+SW",
            ..Self::named(ConfigKind::DistDAIO)
        }
    }

    /// The Figure 14 `Dist-DA-F+A` variant: affinity-aware allocation.
    pub fn dist_da_f_alloc() -> Self {
        Self {
            alloc: AllocStrategy::Affinity,
            suffix: "+A",
            ..Self::named(ConfigKind::DistDAF)
        }
    }

    /// Checks the configuration for internal consistency.
    ///
    /// Decentralized-access and distributed configurations require
    /// cluster-anchored allocation: their access plans route requests to
    /// each object's home cluster, so `Interleaved` (no homes) would leave
    /// every partition with nowhere to run. This used to be an
    /// `unreachable!()` deep in allocation; now it is a typed error the
    /// runner reports before simulating anything.
    pub fn validate(&self) -> Result<(), crate::error::SimError> {
        let needs_homes = matches!(
            self.kind,
            ConfigKind::MonoDAIO | ConfigKind::MonoDAF | ConfigKind::DistDAIO | ConfigKind::DistDAF
        );
        if needs_homes && self.alloc == AllocStrategy::Interleaved {
            return Err(crate::error::SimError::InvalidConfig {
                detail: format!(
                    "{} requires cluster-anchored allocation (RoundRobin or Affinity), \
                     but alloc is Interleaved: decentralized access plans need a home \
                     cluster per object",
                    self.label()
                ),
            });
        }
        self.topology.validate()?;
        if self.topology.tenants > 1 && self.kind.partition_mode().is_none() {
            return Err(crate::error::SimError::InvalidConfig {
                detail: format!(
                    "{} cannot run {} tenants: multi-tenant co-scheduling needs an \
                     offload configuration (the single host core would serialize \
                     everything)",
                    self.label(),
                    self.topology.tenants
                ),
            });
        }
        Ok(())
    }

    /// Display label (`Dist-DA-F@1GHz` style), with `:`-separated topology
    /// segments appended for non-paper machine shapes
    /// (`Dist-DA-F@1GHz:4x4:fm150:t2` style, see
    /// [`Topology::label_suffix`]).
    pub fn label(&self) -> String {
        let base = if self.kind == ConfigKind::OoO {
            "OoO".to_string()
        } else {
            format!(
                "{}{}@{}GHz",
                self.kind.label(),
                self.suffix,
                if self.accel_ghz.fract() == 0.0 {
                    format!("{}", self.accel_ghz as u64)
                } else {
                    format!("{}", self.accel_ghz)
                }
            )
        };
        format!("{base}{}", self.topology.label_suffix())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = RunConfig::named(ConfigKind::DistDAF);
        assert_eq!(c.accel_ghz, 1.0);
        assert_eq!(c.label(), "Dist-DA-F@1GHz");
        let ca = RunConfig::named(ConfigKind::MonoCA);
        assert_eq!(ca.buffer_lines, 64);
        assert_eq!(RunConfig::named(ConfigKind::OoO).label(), "OoO");
    }

    #[test]
    fn partition_modes() {
        assert_eq!(ConfigKind::OoO.partition_mode(), None);
        assert_eq!(
            ConfigKind::MonoDAIO.partition_mode(),
            Some(PartitionMode::Monolithic)
        );
        assert_eq!(
            ConfigKind::DistDAF.partition_mode(),
            Some(PartitionMode::Distributed)
        );
        assert!(ConfigKind::MonoDAF.decentralize_accesses());
        assert!(!ConfigKind::DistDAIO.decentralize_accesses());
        assert!(ConfigKind::DistDAF.is_cgra());
    }

    #[test]
    fn variants_label_correctly() {
        assert_eq!(RunConfig::dist_da_io_sw().label(), "Dist-DA-IO+SW@2GHz");
        assert_eq!(RunConfig::dist_da_f_alloc().label(), "Dist-DA-F+A@1GHz");
    }

    #[test]
    fn interleaved_alloc_only_valid_without_decentralized_accesses() {
        use crate::error::SimError;
        for kind in ConfigKind::ALL {
            let cfg = RunConfig {
                alloc: AllocStrategy::Interleaved,
                ..RunConfig::named(kind)
            };
            let ok = matches!(kind, ConfigKind::OoO | ConfigKind::MonoCA);
            match cfg.validate() {
                Ok(()) => assert!(ok, "{} should reject Interleaved", cfg.label()),
                Err(SimError::InvalidConfig { detail }) => {
                    assert!(!ok, "{} should accept Interleaved", cfg.label());
                    assert!(detail.contains(&cfg.label()));
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
            // The paper defaults always validate.
            RunConfig::named(kind).validate().unwrap();
        }
    }

    #[test]
    fn paper_topology_matches_table_iii_and_labels_stay_bare() {
        let t = Topology::paper();
        assert_eq!((t.mesh_cols, t.mesh_rows), (4, 2));
        assert_eq!(t.clusters(), 8);
        assert_eq!(t.banks_per_cluster, 4);
        assert_eq!((t.host_node, t.memctrl_node), (0, 7));
        assert_eq!(t.label_suffix(), "");
        // The paper configs must keep their exact pre-parametric labels.
        assert_eq!(
            RunConfig::named(ConfigKind::DistDAF).label(),
            "Dist-DA-F@1GHz"
        );
        assert_eq!(RunConfig::named(ConfigKind::OoO).label(), "OoO");
    }

    #[test]
    fn topology_labels_round_trip_through_parse() {
        let mut t = Topology::mesh(8, 4);
        t.banks_per_cluster = 8;
        t.far_memory = Some(FarMemory {
            extra_latency: 150,
            bytes_per_cycle: 2,
        });
        t.tenants = 3;
        let cfg = RunConfig::named(ConfigKind::DistDAF).with_topology(t);
        let label = cfg.label();
        assert_eq!(label, "Dist-DA-F@1GHz:8x4:b8:fm150:t3");
        let (base, parsed) = parse_label_extension(&label).unwrap();
        assert_eq!(base, "Dist-DA-F@1GHz");
        assert_eq!(parsed, t);
        // Non-default far-memory bandwidth renders and parses too.
        t.far_memory = Some(FarMemory {
            extra_latency: 80,
            bytes_per_cycle: 1,
        });
        let label = cfg.with_topology(t).label();
        assert_eq!(label, "Dist-DA-F@1GHz:8x4:b8:fm80x1:t3");
        assert_eq!(parse_label_extension(&label).unwrap().1, t);
    }

    #[test]
    fn every_label_parses_back_to_its_config() {
        let mut wide = Topology::mesh(8, 4);
        wide.far_memory = Some(FarMemory {
            extra_latency: 150,
            bytes_per_cycle: 4,
        });
        wide.tenants = 2;
        let base = ConfigKind::ALL
            .into_iter()
            .map(RunConfig::named)
            .chain([RunConfig::dist_da_io_sw(), RunConfig::dist_da_f_alloc()]);
        for cfg in base.flat_map(|c| [c.clone(), c.with_topology(wide)]) {
            assert_eq!(RunConfig::from_label(&cfg.label()), Ok(cfg.clone()));
        }
        // Bare kinds and variant names resolve too, case-insensitively.
        assert_eq!(
            RunConfig::from_label("dist-da-f"),
            Ok(RunConfig::named(ConfigKind::DistDAF))
        );
        assert_eq!(
            RunConfig::from_label("Dist-DA-IO+SW:4x4"),
            Ok(RunConfig::dist_da_io_sw().with_topology(Topology::mesh(4, 4)))
        );
        for bad in ["Giga-DA", "Dist-DA-F@2GHz", "Dist-DA-IO:banana"] {
            assert!(RunConfig::from_label(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn mesh_derives_corner_controller() {
        let t = Topology::mesh(4, 4);
        assert_eq!(t.clusters(), 16);
        assert_eq!((t.host_node, t.memctrl_node), (0, 15));
        t.validate().unwrap();
        // 4x2 via the constructor is exactly the paper machine.
        assert_eq!(Topology::mesh(4, 2), Topology::paper());
    }

    #[test]
    fn invalid_topologies_are_typed_errors() {
        use crate::error::SimError;
        let reject = |t: Topology, needle: &str| match t.validate() {
            Err(SimError::InvalidConfig { detail }) => {
                assert!(detail.contains(needle), "{detail} should mention {needle}")
            }
            other => panic!("{t:?} should be rejected, got {other:?}"),
        };
        reject(Topology::mesh(0, 2), "1x1");
        reject(Topology::mesh(64, 64), "1024");
        reject(
            Topology {
                banks_per_cluster: 0,
                ..Topology::paper()
            },
            "banks_per_cluster",
        );
        reject(
            Topology {
                memctrl_node: 8,
                ..Topology::paper()
            },
            "out of range",
        );
        reject(
            Topology {
                tenants: 0,
                ..Topology::paper()
            },
            "tenants",
        );
        reject(
            Topology {
                far_memory: Some(FarMemory {
                    extra_latency: 10,
                    bytes_per_cycle: 0,
                }),
                ..Topology::paper()
            },
            "bytes_per_cycle",
        );
        // Multi-tenant needs an offload configuration.
        let mut cfg = RunConfig::named(ConfigKind::OoO);
        cfg.topology.tenants = 2;
        assert!(matches!(
            cfg.validate(),
            Err(SimError::InvalidConfig { .. })
        ));
        let mut cfg = RunConfig::named(ConfigKind::DistDAF);
        cfg.topology.tenants = 2;
        cfg.validate().unwrap();
    }

    #[test]
    fn malformed_segments_are_rejected() {
        let mut t = Topology::paper();
        assert!(t.apply_segment("4xq").is_err());
        assert!(t.apply_segment("fmx3").is_err());
        assert!(t.apply_segment("zz").is_err());
        assert!(parse_label_extension("Dist-DA-F@1GHz:what").is_err());
    }
}
