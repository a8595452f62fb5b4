//! End-to-end test of `vrd-exp fig14`'s scale flags: zero mixes or zero
//! simulated nanoseconds are parse errors (exit 2), and a small valid
//! run writes a `fig14.json` with the requested mix count.

use std::process::{Command, Output};

use vrd_experiments::memsim_exp::Fig14Result;

fn vrd_exp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vrd-exp")).args(args).output().expect("spawn vrd-exp")
}

#[test]
fn zero_cycles_is_rejected() {
    let run = vrd_exp(&["fig14", "--cycles", "0"]);
    assert_eq!(run.status.code(), Some(2), "zero --cycles must exit 2: {run:?}");
    assert!(String::from_utf8_lossy(&run.stderr).contains("--cycles"));
}

#[test]
fn zero_mixes_is_rejected() {
    let run = vrd_exp(&["fig14", "--mixes", "0"]);
    assert_eq!(run.status.code(), Some(2), "zero --mixes must exit 2: {run:?}");
    assert!(String::from_utf8_lossy(&run.stderr).contains("--mixes"));
}

#[test]
fn small_run_writes_the_requested_mixes() {
    let out = std::env::temp_dir().join(format!("vrd-fig14-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let run =
        vrd_exp(&["fig14", "--mixes", "2", "--cycles", "4000", "--out", out.to_str().unwrap()]);
    assert!(run.status.success(), "fig14 run failed: {run:?}");
    let json = std::fs::read_to_string(out.join("fig14.json")).expect("fig14.json written");
    let result: Fig14Result = serde_json::from_str(&json).expect("fig14.json parses");
    assert_eq!(result.mixes, 2);
    assert_eq!(result.points.len(), 32);
    let _ = std::fs::remove_dir_all(&out);
}
