//! The byte-identity contract for single-tenant runs as tables.
//!
//! `GOLDEN` holds, for each cell, the FNV-1a digest of the canonical
//! `RunResult` encoding the serve cache stores (every counter, byte count
//! and report entry, f64 as bit patterns), so equal digests mean
//! byte-identical results, and next to it the scheduler's counts for the
//! run: executed ticks, skip spans and a digest of each stage's
//! `(name, active_ticks, wakes)`. A wake that comes too early changes no
//! byte of a result, only these counts. `RUN_OUTPUTS` holds the digest of
//! each file `run --trace --explain` writes for pathfinder under
//! Dist-DA-IO and Dist-DA-F. A change that moves any simulated quantity
//! fails here and names the cell (and the file or the counts); only a
//! deliberate model change may update a row, and a change that lowers the
//! counts on purpose re-records them.

use distda::explain::{render_json, render_text};

use distda::sim::sample::{DEFAULT_WINDOW_CAP, DEFAULT_WINDOW_TICKS};
use distda::sim::{ProfileSnapshot, Profiler, Sampler};
use distda::system::{slug, CheckPolicy, ConfigKind, RunConfig, RunSpec};
use distda::trace::{chrome, csvout, Tracer};
use distda::workloads::{pathfinder, suite, Scale, Workload};
use distda_serve::cache::{encode_result, fnv1a_hex};

/// (kernel, config label, digest of the encoded result, scheduler counts
/// as `executed spans stage-digest`).
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, &str, &str)] = &[
    ("disparity", "OoO", "8e06a51566dadfa9", "23613 16727 73fd3eccb91bc14d"),
    ("disparity", "Mono-CA@2GHz", "b32154746fd3001c", "11770 10399 f218b83cf600d208"),
    ("disparity", "Mono-DA-IO@2GHz", "4200e370431f6a67", "25282 19623 2b721308a03c7ae4"),
    ("disparity", "Mono-DA-F@1GHz", "01966c832d57a285", "20115 14737 dd35662a1932619f"),
    ("disparity", "Dist-DA-IO@2GHz", "2b62bcfac2d91aa0", "36347 30466 bc5e78aa4791a2bb"),
    ("disparity", "Dist-DA-F@1GHz", "ea0fac1945a8b8b4", "28082 22339 c875f22957c377aa"),
    ("tracking", "OoO", "78084e3a602b7149", "14516 10214 828af92f05eb594e"),
    ("tracking", "Mono-CA@2GHz", "9e4f51eb33e2d30b", "9566 8136 8114ea9f5edae73a"),
    ("tracking", "Mono-DA-IO@2GHz", "7915d4211706a320", "17033 13505 43eb605431e2a3cb"),
    ("tracking", "Mono-DA-F@1GHz", "42c56fcd5296fe47", "9877 6813 e12dce8738a90959"),
    ("tracking", "Dist-DA-IO@2GHz", "32a6273dab73553a", "15024 12058 5b7877e053c92106"),
    ("tracking", "Dist-DA-F@1GHz", "4ffd6d62726827ef", "7351 4647 6a127e6f09ccdd9e"),
    ("fdtd-2d", "OoO", "860c21aee2a80dd4", "27484 20525 f3ab5505afe290d4"),
    ("fdtd-2d", "Mono-CA@2GHz", "574933759bea36eb", "13843 12548 921326c60a521faf"),
    ("fdtd-2d", "Mono-DA-IO@2GHz", "d197b6bb8b6f689e", "34955 30090 df7d5cc94574a12d"),
    ("fdtd-2d", "Mono-DA-F@1GHz", "1e6166c44a3f88cf", "21252 16514 e6dcb1577c8dcdfb"),
    ("fdtd-2d", "Dist-DA-IO@2GHz", "4894b7f23d6e93dd", "21272 17974 addfe6c2819bf9a7"),
    ("fdtd-2d", "Dist-DA-F@1GHz", "482767ed84ce30a8", "9919 7018 5047dd46e8f2d759"),
    ("cholesky", "OoO", "dea4c8ab829e1e0b", "3478 2609 5e73de0291763cdb"),
    ("cholesky", "Mono-CA@2GHz", "c426d13b01818512", "2997 2791 c73a93bb58c05cb5"),
    ("cholesky", "Mono-DA-IO@2GHz", "cdaff575fc3cf87a", "4064 3911 02c343af465a80e4"),
    ("cholesky", "Mono-DA-F@1GHz", "0d4a2157ebb7c1bd", "2875 2718 70f2f9fab8d46fc7"),
    ("cholesky", "Dist-DA-IO@2GHz", "5e200eeab3373079", "3904 3751 deadcfb258991c39"),
    ("cholesky", "Dist-DA-F@1GHz", "0d7fb889cf05642e", "1891 1739 1ed76c075e8d46cd"),
    ("adi", "OoO", "4533266a2233efe5", "20936 15664 db4bceb894726928"),
    ("adi", "Mono-CA@2GHz", "2509e0e61fdf21e3", "13440 11308 f0ff9672a85f1893"),
    ("adi", "Mono-DA-IO@2GHz", "55062d9d276faeac", "21402 18312 2a0bdb5f136d57c4"),
    ("adi", "Mono-DA-F@1GHz", "89422cfaf69b2482", "12912 9876 7a53e6ab42f5532d"),
    ("adi", "Dist-DA-IO@2GHz", "54bc4d010088b942", "19094 15994 5d6de13c8f2d3f27"),
    ("adi", "Dist-DA-F@1GHz", "65b6947053d8ecd8", "8435 5645 271fb108c79e2088"),
    ("seidel-2d", "OoO", "323b194c94eb8370", "16212 12148 30fbe15c526aeaa4"),
    ("seidel-2d", "Mono-CA@2GHz", "c0137211e4ae7908", "5952 5706 d0f46fb9afcf7be6"),
    ("seidel-2d", "Mono-DA-IO@2GHz", "738722ca28c09f47", "11660 11456 851bff9e96b18b4b"),
    ("seidel-2d", "Mono-DA-F@1GHz", "8d9c1da75bc26c89", "9265 9047 8d676c0becb09b6d"),
    ("seidel-2d", "Dist-DA-IO@2GHz", "3df8509f64e1a138", "10482 10278 b7ce97c4f0313605"),
    ("seidel-2d", "Dist-DA-F@1GHz", "b3d815f1766c7d99", "1602 1425 514a23baf25c3f71"),
    ("pathfinder", "OoO", "df2ab0eeb045c72a", "7400 5291 fa3e6b1b275c38bb"),
    ("pathfinder", "Mono-CA@2GHz", "a9c90dd80bdf2c08", "4520 3877 51b6cd4c2388f7c2"),
    ("pathfinder", "Mono-DA-IO@2GHz", "52252dd2007af9d6", "8034 6324 794cdbe2cad02233"),
    ("pathfinder", "Mono-DA-F@1GHz", "0f0f16d5f92e6490", "6156 4532 7dc734842f459d94"),
    ("pathfinder", "Dist-DA-IO@2GHz", "a0820dbdb535c280", "6583 4875 abe4834d5ebee5dc"),
    ("pathfinder", "Dist-DA-F@1GHz", "7a8ba26eedb96af7", "5586 3899 6cf2d3de1f1aec47"),
    ("nw", "OoO", "c433f913d270bbb8", "12361 9151 44d02faf7ed20480"),
    ("nw", "Mono-CA@2GHz", "e340dc4188d37847", "6395 5685 28cb4a6076d1c9c8"),
    ("nw", "Mono-DA-IO@2GHz", "21ef375812bef6a2", "14788 12883 e63549f61c1f7ba7"),
    ("nw", "Mono-DA-F@1GHz", "f0ae27915f24c2e1", "8412 6537 a92453b00423aa66"),
    ("nw", "Dist-DA-IO@2GHz", "90b724f86118a855", "10350 8501 8f29663c4211ccee"),
    ("nw", "Dist-DA-F@1GHz", "615f3b671654ef24", "4782 3248 01cf213b83a361a9"),
    ("bfs", "OoO", "cd5ea5e8597f08b9", "20417 13938 df260b138929cd8c"),
    ("bfs", "Mono-CA@2GHz", "b13ebf2f6adcc3ba", "15912 12534 8272c9fc1c2055a6"),
    ("bfs", "Mono-DA-IO@2GHz", "96198f0bd69eb4d3", "41945 33962 d357c5326a4d3ec9"),
    ("bfs", "Mono-DA-F@1GHz", "188fb3f1a229ce74", "34379 26326 51fa51ce6f7c626a"),
    ("bfs", "Dist-DA-IO@2GHz", "fd86430d15577d1a", "24567 17345 96c78f1681f319f0"),
    ("bfs", "Dist-DA-F@1GHz", "dc56da63def71fb3", "21605 14682 86828fc90025e6b3"),
    ("pagerank", "OoO", "67fae37ad1f605a8", "10735 7457 b79f893a26d6fd2f"),
    ("pagerank", "Mono-CA@2GHz", "96dac8ba58a9b84a", "10121 9440 fde0df51f42fe342"),
    ("pagerank", "Mono-DA-IO@2GHz", "9b3c0e23b586b0fd", "16330 13199 8d8895fae8f026a6"),
    ("pagerank", "Mono-DA-F@1GHz", "7bf3a0deefe38ee0", "11353 8235 9eca977b0dbd2123"),
    ("pagerank", "Dist-DA-IO@2GHz", "30617dca1f8329b0", "19129 15774 080be899d1884097"),
    ("pagerank", "Dist-DA-F@1GHz", "ffc2081363eec61b", "13953 10629 8787390a7841f00a"),
    ("pointer-chase", "OoO", "d626c757d49fe4ed", "4166 3058 175f9f7f8337ec07"),
    ("pointer-chase", "Mono-CA@2GHz", "1fd002fa257cb786", "5923 5107 734c6b3dcaa217dc"),
    ("pointer-chase", "Mono-DA-IO@2GHz", "e2f29bf1fb5ff1be", "5509 4711 20f3e99c57d97000"),
    ("pointer-chase", "Mono-DA-F@1GHz", "d0578ab19371671c", "4404 3606 d266e102b041fe87"),
    ("pointer-chase", "Dist-DA-IO@2GHz", "9519094e53059f71", "5509 4711 20f3e99c57d97000"),
    ("pointer-chase", "Dist-DA-F@1GHz", "87857de3b772d599", "4404 3606 d266e102b041fe87"),
    ("pca", "OoO", "9b0b1b6f28d5c788", "20589 15433 57ca794a8bbf894e"),
    ("pca", "Mono-CA@2GHz", "286e07e22cf5b3e6", "18332 18177 98e3fea3d91edd0a"),
    ("pca", "Mono-DA-IO@2GHz", "d51fcf97a3dfdd59", "38431 32545 b01c8e045c5d46c5"),
    ("pca", "Mono-DA-F@1GHz", "57756de7579c517c", "19771 13961 8796ca288d62f0be"),
    ("pca", "Dist-DA-IO@2GHz", "ba4edff33b75c91b", "38388 32645 0f6a1a6d06b9f348"),
    ("pca", "Dist-DA-F@1GHz", "335c6c46c6a7c75f", "19448 13803 93ae0b5a2c02c35d"),
    ("disparity", "Dist-DA-IO@2GHz:4x4", "d710ec854ec7739c", "36437 30532 cd2b6f6d07507cac"),
    ("disparity", "Dist-DA-F@1GHz:8x4", "fcbb660f8b69896f", "20837 15261 3206b05e27c84782"),
    ("disparity", "Dist-DA-F@1GHz:4x4:fm150", "baf5d14f16d3bf46", "28787 22992 4d66e23b483e359e"),
    ("disparity", "Dist-DA-IO@2GHz:fm300x4", "ac5d3cdd3c05898b", "36536 30652 a4d2e2f541a7a148"),
    ("tracking", "Dist-DA-IO@2GHz:4x4", "f5df84e8d287e3cd", "15223 12162 3d0ef0f4872c436c"),
    ("tracking", "Dist-DA-F@1GHz:8x4", "40e02d7a2adb1480", "7946 5221 4f90ca18a1882f26"),
    ("tracking", "Dist-DA-F@1GHz:4x4:fm150", "990610fe5d0f8e11", "8236 5529 936a7eb50abcfede"),
    ("tracking", "Dist-DA-IO@2GHz:fm300x4", "6e2f5588b380310b", "15199 12240 494943c5e6182236"),
    ("fdtd-2d", "Dist-DA-IO@2GHz:4x4", "07ae13047c716e4c", "21540 18211 db196b86cb8fda68"),
    ("fdtd-2d", "Dist-DA-F@1GHz:8x4", "12941e9f168f093d", "10672 7725 f4265f54eccf75a0"),
    ("fdtd-2d", "Dist-DA-F@1GHz:4x4:fm150", "86a41ab836d32bc0", "10326 7452 c05ba1f0ad4286a6"),
    ("fdtd-2d", "Dist-DA-IO@2GHz:fm300x4", "fc789903d7cf72c3", "21304 18022 2f6d421ac875cb9b"),
    ("cholesky", "Dist-DA-IO@2GHz:4x4", "e6ae254a4fdcba87", "3974 3811 8a8e732b73afcb2e"),
    ("cholesky", "Dist-DA-F@1GHz:8x4", "81f4c744371444d9", "2052 1902 695895a2cc8830da"),
    ("cholesky", "Dist-DA-F@1GHz:4x4:fm150", "20d836c4b3e67414", "1938 1789 b7418776a97ab5f5"),
    ("cholesky", "Dist-DA-IO@2GHz:fm300x4", "9f3831405057db79", "3914 3754 dcc23754dabb2a29"),
    ("adi", "Dist-DA-IO@2GHz:4x4", "3549dc3e4c251ba0", "19242 16126 e1b7a5970e0a2e39"),
    ("adi", "Dist-DA-F@1GHz:8x4", "6ca24476a613ae87", "8965 6143 88ec0603156a9fe1"),
    ("adi", "Dist-DA-F@1GHz:4x4:fm150", "42258484c62e4280", "9175 6387 de71e90e94c10a9d"),
    ("adi", "Dist-DA-IO@2GHz:fm300x4", "bf232314136ebd48", "19094 15994 5d6de13c8f2d3f27"),
    ("seidel-2d", "Dist-DA-IO@2GHz:4x4", "edc564c99681ccd2", "10606 10402 8d60f7863959f810"),
    ("seidel-2d", "Dist-DA-F@1GHz:8x4", "46deaea9d19c4a87", "1980 1801 26f3e456525f26e4"),
    ("seidel-2d", "Dist-DA-F@1GHz:4x4:fm150", "e902439086087004", "1704 1545 c66c23697504030e"),
    ("seidel-2d", "Dist-DA-IO@2GHz:fm300x4", "619d43ee5d1ddfa1", "10482 10278 b7ce97c4f0313605"),
    ("pathfinder", "Dist-DA-IO@2GHz:4x4", "f38d067451e8774e", "6758 5049 ce7e69c37f3fa3a5"),
    ("pathfinder", "Dist-DA-F@1GHz:8x4", "1accf0738bdd1152", "6017 4288 8047507921617a6c"),
    ("pathfinder", "Dist-DA-F@1GHz:4x4:fm150", "b2d5705b628bdcd0", "6252 4503 c273d8bf865cfcc8"),
    ("pathfinder", "Dist-DA-IO@2GHz:fm300x4", "3dc862b295cc7b8c", "7765 6019 b90968ddd4e09c7a"),
    ("nw", "Dist-DA-IO@2GHz:4x4", "b55933389d54057f", "10340 8534 5c908ccda221fe27"),
    ("nw", "Dist-DA-F@1GHz:8x4", "f1ba261d12dbbb15", "5289 3750 4f2ed9e9288c9005"),
    ("nw", "Dist-DA-F@1GHz:4x4:fm150", "91e641bc353ffc89", "5032 3528 5a798a06277e33a1"),
    ("nw", "Dist-DA-IO@2GHz:fm300x4", "a4c2d928ac63d697", "10682 8945 99fa20eb9adce2bc"),
    ("bfs", "Dist-DA-IO@2GHz:4x4", "37f55a82937f0595", "24937 17684 a786c504b3fe65a1"),
    ("bfs", "Dist-DA-F@1GHz:8x4", "3aef7b6be9ca9fd6", "24931 17453 7811432858667de0"),
    ("bfs", "Dist-DA-F@1GHz:4x4:fm150", "4b5d58cfc84950b6", "22275 15361 49e30aed90d30a46"),
    ("bfs", "Dist-DA-IO@2GHz:fm300x4", "ffe06739934c1cfb", "24885 17661 94ebb4306c996e73"),
    ("pagerank", "Dist-DA-IO@2GHz:4x4", "5571747cb4beee1b", "19434 16072 261935d453f61104"),
    ("pagerank", "Dist-DA-F@1GHz:8x4", "a6ab37aa0fc23e81", "15711 11843 0e8ad579a1836d46"),
    ("pagerank", "Dist-DA-F@1GHz:4x4:fm150", "a1c13bd015660055", "14271 10983 a552e054d7e9c0b9"),
    ("pagerank", "Dist-DA-IO@2GHz:fm300x4", "1ea09c3ecba50921", "19142 15791 222c969b1d31fd53"),
    ("pointer-chase", "Dist-DA-IO@2GHz:4x4", "273fd32adacaf334", "6025 5227 245531e83a2145ee"),
    ("pointer-chase", "Dist-DA-F@1GHz:8x4", "7f381708b9f303aa", "5952 5154 bea2abbf251bf2bf"),
    ("pointer-chase", "Dist-DA-F@1GHz:4x4:fm150", "e4db3015199e9729", "4920 4122 36eddc9836b78155"),
    ("pointer-chase", "Dist-DA-IO@2GHz:fm300x4", "95f9a8d5f4990c9d", "5509 4711 20f3e99c57d97000"),
    ("pca", "Dist-DA-IO@2GHz:4x4", "805f594716442708", "38463 32734 642f0c0d4af309ff"),
    ("pca", "Dist-DA-F@1GHz:8x4", "f741208e439846e5", "19797 14140 c057e9f31850994c"),
    ("pca", "Dist-DA-F@1GHz:4x4:fm150", "4f77e39e1631c72c", "19612 13985 15f8b1f56839f93d"),
    ("pca", "Dist-DA-IO@2GHz:fm300x4", "558e3c2dba3652bd", "38418 32689 30512f4c42766531"),
    ("pathfinder", "Dist-DA-IO+SW@2GHz", "17947b2ddc82279d", "5899 4162 99a37b8164ace4c5"),
    ("pathfinder", "Dist-DA-F+A@1GHz", "54549fa93c157a03", "5586 3899 6cf2d3de1f1aec47"),
    ("pathfinder", "Dist-DA-F@1GHz", "7a8ba26eedb96af7", "5586 3899 6cf2d3de1f1aec47"),
];

/// The pinned cells: the suite under the six paper configurations and the
/// four rack labels CI validates, at tiny scale, plus the Figure 14
/// variants on pathfinder and the full label `run` prints for Dist-DA-F,
/// which must parse back to the paper cell.
fn cells() -> Vec<(Workload, Vec<RunConfig>)> {
    let scale = Scale::tiny();
    let labels = |ls: &[&str]| -> Vec<RunConfig> {
        ls.iter()
            .map(|l| RunConfig::from_label(l).unwrap())
            .collect()
    };
    let mut suite_cfgs: Vec<RunConfig> = ConfigKind::ALL.map(RunConfig::named).into();
    suite_cfgs.extend(labels(&[
        "Dist-DA-IO:4x4",
        "Dist-DA-F:8x4",
        "Dist-DA-F:4x4:fm150",
        "Dist-DA-IO:fm300x4",
    ]));
    let mut cells: Vec<_> = suite(&scale)
        .into_iter()
        .map(|w| (w, suite_cfgs.clone()))
        .collect();
    let variants = labels(&["Dist-DA-IO+SW", "Dist-DA-F+A", "Dist-DA-F@1GHz"]);
    cells.push((pathfinder(&scale), variants));
    cells
}

/// The scheduler's counts for one run as pinned in [`GOLDEN`] (executed
/// ticks, skip spans and the digest of every stage's
/// `(name, active_ticks, wakes)`, in registration order), and the stage
/// list behind the digest, for mismatch reports.
fn counts(snap: &ProfileSnapshot) -> (String, String) {
    let stages: String = snap
        .comps
        .iter()
        .map(|c| format!("{} {} {}\n", c.name, c.active_ticks, c.wakes))
        .collect();
    let digest = fnv1a_hex(stages.as_bytes());
    let pinned = format!("{} {} {digest}", snap.ticks_executed, snap.skip_spans);
    (pinned, stages.trim_end().replace('\n', ", "))
}

/// Every cell's result digest, and with skip-ahead on (the default; not
/// under `DISTDA_SKIP=0`, whose runs execute every tick) its scheduler
/// counts. A printed row carries the run's counts, so re-record rows with
/// skip-ahead on.
#[test]
fn single_tenant_results_are_pinned() {
    let skip = distda::sim::env::skip();
    let mut results = Vec::new();
    let mut moved = Vec::new();
    let mut n = 0;
    for (w, configs) in cells() {
        for cfg in configs {
            let profiler = Profiler::enabled();
            let spec = RunSpec {
                policy: CheckPolicy::full(),
                profiler: profiler.clone(),
                ..RunSpec::default()
            };
            let r = w.try_simulate_with(&cfg, spec).unwrap().result;
            assert!(r.validated, "{} / {} must validate", w.name, r.config);
            n += 1;
            let digest = fnv1a_hex(encode_result(&r).as_bytes());
            let (now, stages) = counts(&profiler.snapshot_at(r.ticks).unwrap());
            let (k, c) = (r.kernel.as_str(), r.config.as_str());
            match GOLDEN.iter().find(|g| (g.0, g.1, g.2) == (k, c, &digest)) {
                None => results.push(format!("    (\"{k}\", \"{c}\", \"{digest}\", \"{now}\"),")),
                Some(g) if skip && g.3 != now => moved.push(format!(
                    "{k} / {c}: counts pinned \"{}\", now \"{now}\" ({stages})",
                    g.3
                )),
                Some(_) => {}
            }
        }
    }
    assert!(
        results.is_empty() && n == GOLDEN.len(),
        "{} of {n} cells differ from the table (pinned {}); their rows now:\n{}",
        results.len(),
        GOLDEN.len(),
        results.join("\n")
    );
    assert!(
        moved.is_empty(),
        "{} of {n} cells keep their results but moved their scheduler counts \
         (executed ticks, skip spans, stage digest):\n{}",
        moved.len(),
        moved.join("\n")
    );
}

/// (config label, file `run --trace --explain` writes for pathfinder at
/// tiny scale, digest of its bytes).
#[rustfmt::skip]
const RUN_OUTPUTS: &[(&str, &str, &str)] = &[
    ("Dist-DA-IO", "trace_pathfinder_Dist-DA-IO-2GHz.json", "2424649eb4cc852d"),
    ("Dist-DA-IO", "trace_pathfinder_Dist-DA-IO-2GHz.csv", "78cc270719ee6058"),
    ("Dist-DA-IO", "explain_pathfinder_Dist-DA-IO-2GHz.txt", "669b207f8e145dbe"),
    ("Dist-DA-IO", "explain_pathfinder_Dist-DA-IO-2GHz.json", "666a3be5d79c6dd5"),
    ("Dist-DA-F", "trace_pathfinder_Dist-DA-F-1GHz.json", "6624917e75120b0c"),
    ("Dist-DA-F", "trace_pathfinder_Dist-DA-F-1GHz.csv", "7e9a66936951e103"),
    ("Dist-DA-F", "explain_pathfinder_Dist-DA-F-1GHz.txt", "4112ba7a11732ae8"),
    ("Dist-DA-F", "explain_pathfinder_Dist-DA-F-1GHz.json", "56746df77270f7fb"),
];

/// The files `run --trace --explain --kernel pf --config LABEL` writes,
/// built in-process with the tracer and sampler `run` attaches.
fn run_outputs(label: &str) -> Vec<(String, String)> {
    let w = pathfinder(&Scale::tiny());
    let tracer = Tracer::with_filter("all");
    let spec = RunSpec {
        tracer: tracer.clone(),
        sampler: Sampler::enabled(DEFAULT_WINDOW_TICKS, DEFAULT_WINDOW_CAP),
        ..RunSpec::default()
    };
    let cfg = RunConfig::from_label(label).unwrap();
    let run = w.try_simulate_with(&cfg, spec).unwrap();
    let (r, x) = (&run.result, run.explanation.as_ref().unwrap());
    let comps = tracer.components();
    let stem = format!("{}_{}", slug(&r.kernel), slug(&r.config));
    vec![
        (
            format!("trace_{stem}.json"),
            chrome::export_components(&comps),
        ),
        (
            format!("trace_{stem}.csv"),
            csvout::export_components(&comps),
        ),
        (format!("explain_{stem}.txt"), render_text(x)),
        (format!("explain_{stem}.json"), render_json(x)),
    ]
}

#[test]
fn traced_explained_run_outputs_are_pinned() {
    let mut got = Vec::new();
    for label in ["Dist-DA-IO", "Dist-DA-F"] {
        for (file, body) in run_outputs(label) {
            got.push((label, file, fnv1a_hex(body.as_bytes())));
        }
    }
    let mismatched: Vec<String> = got
        .iter()
        .filter(|(l, f, d)| !RUN_OUTPUTS.contains(&(*l, f.as_str(), d.as_str())))
        .map(|(l, f, d)| format!("    (\"{l}\", \"{f}\", \"{d}\"),"))
        .collect();
    assert!(
        mismatched.is_empty() && got.len() == RUN_OUTPUTS.len(),
        "{} of {} outputs differ from the table (pinned {}); their rows now:\n{}",
        mismatched.len(),
        got.len(),
        RUN_OUTPUTS.len(),
        mismatched.join("\n")
    );
}
