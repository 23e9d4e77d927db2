//! Golden experiment outputs: every virtual-time experiment binary must
//! print exactly what its `results/<bin>.txt` file holds.
//!
//! These binaries run on simulated clocks with fixed seeds, so their
//! tables are a behavioural contract: a change to a trader query, an
//! observer attachment or a strategy shows up here as a changed byte.
//! A changed golden file is a result; regenerate it from the binary
//! and record the reason.
//!
//! E7's "swap wall time" column is measured in real time, so it is
//! masked on both sides before the comparison.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `exe` in a fresh working directory (each binary writes
/// `BENCH_<bin>.json` into its working directory) and returns stdout.
fn run(bin: &str, exe: &str) -> String {
    let dir = std::env::temp_dir().join(format!("adapta-golden-{bin}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the working directory");
    let out = Command::new(exe)
        .current_dir(&dir)
        .output()
        .unwrap_or_else(|e| panic!("run {bin}: {e}"));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        out.status.success(),
        "{bin} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

fn golden(bin: &str) -> String {
    let path: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(format!("{bin}.txt"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn check(bin: &str, exe: &str, mask: fn(&str) -> String) {
    let (got, want) = (mask(&run(bin, exe)), mask(&golden(bin)));
    assert!(
        got == want,
        "{bin} no longer prints results/{bin}.txt\n--- printed\n{got}\n--- results/{bin}.txt\n{want}"
    );
}

fn verbatim(text: &str) -> String {
    text.to_string()
}

/// Replaces the third column (the swap wall time) of E7's phase rows.
/// Columns are separated by runs of two or more spaces.
fn mask_swap_time(text: &str) -> String {
    text.lines()
        .map(|line| {
            if !line.starts_with("phase ") {
                return line.to_string();
            }
            let mut cols: Vec<&str> = line
                .split("  ")
                .map(str::trim)
                .filter(|c| !c.is_empty())
                .collect();
            if cols.len() > 2 {
                cols[2] = "*";
            }
            cols.join(" | ")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn e1_load_sharing_prints_its_golden_file() {
    check(
        "exp_load_sharing",
        env!("CARGO_BIN_EXE_exp_load_sharing"),
        verbatim,
    );
}

#[test]
fn e2_monitoring_prints_its_golden_file() {
    check(
        "exp_monitoring",
        env!("CARGO_BIN_EXE_exp_monitoring"),
        verbatim,
    );
}

#[test]
fn e3_remote_eval_prints_its_golden_file() {
    check(
        "exp_remote_eval",
        env!("CARGO_BIN_EXE_exp_remote_eval"),
        verbatim,
    );
}

#[test]
fn e6_postponed_prints_its_golden_file() {
    check(
        "exp_postponed",
        env!("CARGO_BIN_EXE_exp_postponed"),
        verbatim,
    );
}

#[test]
fn e7_hot_swap_prints_its_golden_file_but_the_wall_time() {
    check(
        "exp_hot_swap",
        env!("CARGO_BIN_EXE_exp_hot_swap"),
        mask_swap_time,
    );
}

#[test]
fn e9_failover_prints_its_golden_file() {
    check("exp_failover", env!("CARGO_BIN_EXE_exp_failover"), verbatim);
}
