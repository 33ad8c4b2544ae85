//! The byte-identity contract for single-tenant runs as a table: for each
//! cell, the FNV-1a digest of the canonical `RunResult` encoding the serve
//! cache stores (every counter, byte count and report entry, f64 as bit
//! patterns), so equal digests mean byte-identical results. A change that
//! moves any simulated quantity of any cell fails here and names the cell;
//! only a deliberate model change may update a row.

use distda::system::{CheckPolicy, ConfigKind, RunConfig, RunSpec};
use distda::workloads::{pathfinder, suite, Scale, Workload};
use distda_serve::cache::{encode_result, fnv1a_hex};

/// (kernel, config label, digest of the encoded result).
const GOLDEN: &[(&str, &str, &str)] = &[
    ("disparity", "OoO", "8e06a51566dadfa9"),
    ("disparity", "Mono-CA@2GHz", "b32154746fd3001c"),
    ("disparity", "Mono-DA-IO@2GHz", "4200e370431f6a67"),
    ("disparity", "Mono-DA-F@1GHz", "01966c832d57a285"),
    ("disparity", "Dist-DA-IO@2GHz", "2b62bcfac2d91aa0"),
    ("disparity", "Dist-DA-F@1GHz", "ea0fac1945a8b8b4"),
    ("tracking", "OoO", "78084e3a602b7149"),
    ("tracking", "Mono-CA@2GHz", "9e4f51eb33e2d30b"),
    ("tracking", "Mono-DA-IO@2GHz", "7915d4211706a320"),
    ("tracking", "Mono-DA-F@1GHz", "42c56fcd5296fe47"),
    ("tracking", "Dist-DA-IO@2GHz", "32a6273dab73553a"),
    ("tracking", "Dist-DA-F@1GHz", "4ffd6d62726827ef"),
    ("fdtd-2d", "OoO", "860c21aee2a80dd4"),
    ("fdtd-2d", "Mono-CA@2GHz", "574933759bea36eb"),
    ("fdtd-2d", "Mono-DA-IO@2GHz", "d197b6bb8b6f689e"),
    ("fdtd-2d", "Mono-DA-F@1GHz", "1e6166c44a3f88cf"),
    ("fdtd-2d", "Dist-DA-IO@2GHz", "4894b7f23d6e93dd"),
    ("fdtd-2d", "Dist-DA-F@1GHz", "482767ed84ce30a8"),
    ("cholesky", "OoO", "dea4c8ab829e1e0b"),
    ("cholesky", "Mono-CA@2GHz", "c426d13b01818512"),
    ("cholesky", "Mono-DA-IO@2GHz", "cdaff575fc3cf87a"),
    ("cholesky", "Mono-DA-F@1GHz", "0d4a2157ebb7c1bd"),
    ("cholesky", "Dist-DA-IO@2GHz", "5e200eeab3373079"),
    ("cholesky", "Dist-DA-F@1GHz", "0d7fb889cf05642e"),
    ("adi", "OoO", "4533266a2233efe5"),
    ("adi", "Mono-CA@2GHz", "2509e0e61fdf21e3"),
    ("adi", "Mono-DA-IO@2GHz", "55062d9d276faeac"),
    ("adi", "Mono-DA-F@1GHz", "89422cfaf69b2482"),
    ("adi", "Dist-DA-IO@2GHz", "54bc4d010088b942"),
    ("adi", "Dist-DA-F@1GHz", "65b6947053d8ecd8"),
    ("seidel-2d", "OoO", "323b194c94eb8370"),
    ("seidel-2d", "Mono-CA@2GHz", "c0137211e4ae7908"),
    ("seidel-2d", "Mono-DA-IO@2GHz", "738722ca28c09f47"),
    ("seidel-2d", "Mono-DA-F@1GHz", "8d9c1da75bc26c89"),
    ("seidel-2d", "Dist-DA-IO@2GHz", "3df8509f64e1a138"),
    ("seidel-2d", "Dist-DA-F@1GHz", "b3d815f1766c7d99"),
    ("pathfinder", "OoO", "df2ab0eeb045c72a"),
    ("pathfinder", "Mono-CA@2GHz", "a9c90dd80bdf2c08"),
    ("pathfinder", "Mono-DA-IO@2GHz", "52252dd2007af9d6"),
    ("pathfinder", "Mono-DA-F@1GHz", "0f0f16d5f92e6490"),
    ("pathfinder", "Dist-DA-IO@2GHz", "a0820dbdb535c280"),
    ("pathfinder", "Dist-DA-F@1GHz", "7a8ba26eedb96af7"),
    ("nw", "OoO", "c433f913d270bbb8"),
    ("nw", "Mono-CA@2GHz", "e340dc4188d37847"),
    ("nw", "Mono-DA-IO@2GHz", "21ef375812bef6a2"),
    ("nw", "Mono-DA-F@1GHz", "f0ae27915f24c2e1"),
    ("nw", "Dist-DA-IO@2GHz", "90b724f86118a855"),
    ("nw", "Dist-DA-F@1GHz", "615f3b671654ef24"),
    ("bfs", "OoO", "cd5ea5e8597f08b9"),
    ("bfs", "Mono-CA@2GHz", "b13ebf2f6adcc3ba"),
    ("bfs", "Mono-DA-IO@2GHz", "96198f0bd69eb4d3"),
    ("bfs", "Mono-DA-F@1GHz", "188fb3f1a229ce74"),
    ("bfs", "Dist-DA-IO@2GHz", "fd86430d15577d1a"),
    ("bfs", "Dist-DA-F@1GHz", "dc56da63def71fb3"),
    ("pagerank", "OoO", "67fae37ad1f605a8"),
    ("pagerank", "Mono-CA@2GHz", "96dac8ba58a9b84a"),
    ("pagerank", "Mono-DA-IO@2GHz", "9b3c0e23b586b0fd"),
    ("pagerank", "Mono-DA-F@1GHz", "7bf3a0deefe38ee0"),
    ("pagerank", "Dist-DA-IO@2GHz", "30617dca1f8329b0"),
    ("pagerank", "Dist-DA-F@1GHz", "ffc2081363eec61b"),
    ("pointer-chase", "OoO", "d626c757d49fe4ed"),
    ("pointer-chase", "Mono-CA@2GHz", "1fd002fa257cb786"),
    ("pointer-chase", "Mono-DA-IO@2GHz", "e2f29bf1fb5ff1be"),
    ("pointer-chase", "Mono-DA-F@1GHz", "d0578ab19371671c"),
    ("pointer-chase", "Dist-DA-IO@2GHz", "9519094e53059f71"),
    ("pointer-chase", "Dist-DA-F@1GHz", "87857de3b772d599"),
    ("pca", "OoO", "9b0b1b6f28d5c788"),
    ("pca", "Mono-CA@2GHz", "286e07e22cf5b3e6"),
    ("pca", "Mono-DA-IO@2GHz", "d51fcf97a3dfdd59"),
    ("pca", "Mono-DA-F@1GHz", "57756de7579c517c"),
    ("pca", "Dist-DA-IO@2GHz", "ba4edff33b75c91b"),
    ("pca", "Dist-DA-F@1GHz", "335c6c46c6a7c75f"),
    ("pathfinder", "Dist-DA-IO+SW@2GHz", "17947b2ddc82279d"),
    ("pathfinder", "Dist-DA-F+A@1GHz", "54549fa93c157a03"),
    ("pathfinder", "Dist-DA-F@1GHz", "7a8ba26eedb96af7"),
];

/// The pinned cells: the suite under the six paper configurations at tiny
/// scale, plus the Figure 14 variants on pathfinder and the full label
/// `run` prints for Dist-DA-F, which must parse back to the paper cell.
fn cells() -> Vec<(Workload, Vec<RunConfig>)> {
    let scale = Scale::tiny();
    let paper: Vec<RunConfig> = ConfigKind::ALL.map(RunConfig::named).into();
    let variants = ["Dist-DA-IO+SW", "Dist-DA-F+A", "Dist-DA-F@1GHz"]
        .map(|l| RunConfig::from_label(l).unwrap())
        .into();
    let mut cells: Vec<_> = suite(&scale)
        .into_iter()
        .map(|w| (w, paper.clone()))
        .collect();
    cells.push((pathfinder(&scale), variants));
    cells
}

#[test]
fn single_tenant_results_are_pinned() {
    let spec = || RunSpec {
        policy: CheckPolicy::full(),
        ..RunSpec::default()
    };
    let mut got = Vec::new();
    for (w, configs) in cells() {
        for cfg in configs {
            let r = w.try_simulate_with(&cfg, spec()).unwrap().result;
            assert!(r.validated, "{} / {} must validate", w.name, r.config);
            let digest = fnv1a_hex(encode_result(&r).as_bytes());
            got.push((r.kernel, r.config, digest));
        }
    }
    let row = |(k, c, d): &(String, String, String)| format!("    (\"{k}\", \"{c}\", \"{d}\"),");
    let mismatched: Vec<String> = got
        .iter()
        .filter(|(k, c, d)| !GOLDEN.contains(&(k.as_str(), c.as_str(), d.as_str())))
        .map(row)
        .collect();
    assert!(
        mismatched.is_empty() && got.len() == GOLDEN.len(),
        "{} of {} cells differ from the table (pinned {}); their rows now:\n{}",
        mismatched.len(),
        got.len(),
        GOLDEN.len(),
        mismatched.join("\n")
    );
}
