//! The `run` command end to end: what it writes is byte for byte what the
//! library's one pipeline and exporters produce in-process, and a bad
//! selection fails the command.

use distda::explain::{render_json, render_text};
use distda::sim::sample::{DEFAULT_WINDOW_CAP, DEFAULT_WINDOW_TICKS};
use distda::sim::Sampler;
use distda::system::{slug, RunConfig, RunSpec};
use distda::trace::{chrome, csvout, Tracer};
use distda::workloads::{suite, Scale};
use std::path::PathBuf;
use std::process::{Command, Output};

/// A fresh directory for one test's outputs.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("distda-run-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the command in `dir`, so nothing lands in the repository.
fn run(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_run"))
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap()
}

#[test]
fn traced_explained_checked_run_writes_the_in_process_bytes() {
    let dir = scratch("pf");
    let out = run(
        &dir,
        &[
            "--trace",
            "--explain",
            "--kernel",
            "pf",
            "--config",
            "Dist-DA-F",
            "--check",
            "--out",
            "out",
        ],
    );
    assert!(
        out.status.success(),
        "run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let w = suite(&Scale::tiny())
        .into_iter()
        .find(|w| w.name == "pf")
        .unwrap();
    let tracer = Tracer::with_filter("all");
    let mut spec = RunSpec {
        tracer: tracer.clone(),
        sampler: Sampler::enabled(DEFAULT_WINDOW_TICKS, DEFAULT_WINDOW_CAP),
        ..RunSpec::from_env()
    };
    spec.policy.sanitize = true;
    let cfg = RunConfig::from_label("Dist-DA-F").unwrap();
    let run = w.try_simulate_with(&cfg, spec).unwrap();
    let (r, x) = (&run.result, run.explanation.as_ref().unwrap());
    let comps = tracer.components();
    let stem = format!("{}_{}", slug(&r.kernel), slug(&r.config));
    for (file, want) in [
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
    ] {
        let got = std::fs::read_to_string(dir.join("out").join(&file)).unwrap();
        assert!(got == want, "{file} differs from the in-process export");
    }

    let stdout = String::from_utf8(out.stdout).unwrap();
    let header = format!(
        "=== {} / {} — {} ticks, validated=true ===\n",
        r.kernel, r.config, r.ticks
    );
    assert!(stdout.starts_with(&header), "{stdout}");
    assert!(stdout.contains("check: JSON ok (") && stdout.contains("verdict: "));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_kernel_fails_and_lists_the_available_ones() {
    let dir = scratch("unknown");
    let out = run(&dir, &["--kernel", "nope", "--trace"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown kernel: nope (available: "), "{err}");
    assert!(err.contains("pf"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
