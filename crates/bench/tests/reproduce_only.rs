//! `reproduce --only` writes just the named artifacts, byte for byte the
//! committed ones, and none of a full run's logs or manifests.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs `reproduce` with `args` in a fresh directory, which it returns.
fn reproduce(name: &str, args: &[&str]) -> (PathBuf, Output) {
    let dir = std::env::temp_dir().join(format!("distda-reproduce-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .current_dir(&dir)
        .output()
        .unwrap();
    (dir, out)
}

#[test]
fn only_table_area_matches_the_committed_file_and_writes_no_log() {
    let (dir, out) = reproduce("table-area", &["--only", "table_area"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let committed = include_str!("../../../results/table_area.txt");
    let results = dir.join("results");
    assert_eq!(
        std::fs::read_to_string(results.join("table_area.txt")).unwrap(),
        committed
    );
    assert_eq!(String::from_utf8(out.stdout).unwrap(), committed);
    let written: Vec<String> = std::fs::read_dir(&results)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(
        written,
        ["table_area.txt"],
        "no reproduce.log, timing log or manifests"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_name_fails_and_lists_the_valid_ones() {
    let (dir, out) = reproduce("unknown", &["--only", "fig99"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown artifact: fig99"), "{err}");
    assert!(
        err.contains("table_area") && err.contains("ablation_placement"),
        "{err}"
    );
    assert!(!dir.join("results").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
