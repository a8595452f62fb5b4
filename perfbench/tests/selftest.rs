//! The benchmark's self-test: at a tiny scale every workload completes
//! with correct outputs, emits exactly the metrics `BENCHMARK.json`
//! names with their units (untraced and traced), and its outputs move
//! with the seed.

use std::path::Path;
use std::process::Command;

use serde::Value;
use vrd_perfbench::harness::Args;
use vrd_perfbench::{characterize, threads, Scale, END_TO_END, PER_LAYER, WORKLOADS};

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Map(m) => {
            &m.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("no key {key}")).1
        }
        other => panic!("{key}: not a map: {other:?}"),
    }
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("not a string: {other:?}"),
    }
}

/// `(name, unit)` of the `section` metrics in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let bench: Value = serde_json::from_str(&json).expect("BENCHMARK.json parses");
    let Value::Seq(metrics) = field(&bench, section) else { panic!("{section} is not a list") };
    metrics
        .iter()
        .map(|m| (text(field(m, "name")).to_owned(), text(field(m, "unit")).to_owned()))
        .collect()
}

/// Runs one tiny workload; returns its stdout lines and parsed result.
fn run(workload: &str, seed: u64, trace: bool) -> (Vec<String>, Value) {
    let dir =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("selftest-{workload}-{seed}-{trace}"));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_vrd-perfbench"))
        .current_dir(&dir)
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "tiny"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<String> = stdout.lines().map(str::to_owned).collect();
    let result =
        serde_json::from_str(lines.last().expect("a result line")).expect("result line is JSON");
    (lines, result)
}

fn digest_line(lines: &[String]) -> String {
    lines
        .iter()
        .find(|l| l.contains("outputs digest"))
        .expect("a digest line")
        .rsplit(' ')
        .next()
        .unwrap()
        .to_owned()
}

fn check_workload(workload: &str) {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let (_, result) = run(workload, 1, trace);
        assert!(
            matches!(field(&result, "correct"), Value::Bool(true)),
            "{workload}: incorrect outputs"
        );
        assert!(
            matches!(field(&result, "failed"), Value::UInt(0) | Value::Int(0)),
            "{workload}: failures"
        );
        assert!(
            !matches!(field(&result, "attempted"), Value::UInt(0) | Value::Int(0)),
            "{workload}: no attempts"
        );
        let Value::Map(metrics) = field(&result, "metrics") else { panic!("metrics is not a map") };
        let emitted: Vec<(String, String)> = metrics
            .iter()
            .map(|(name, m)| (name.clone(), text(field(m, "unit")).to_owned()))
            .collect();
        assert_eq!(
            emitted,
            declared(section),
            "{workload} --trace {trace}: metrics differ from BENCHMARK.json"
        );
    }
    let (one, _) = run(workload, 1, false);
    let (two, _) = run(workload, 2, false);
    assert_ne!(
        digest_line(&one),
        digest_line(&two),
        "{workload}: the seed does not change the inputs"
    );
}

#[test]
fn fig14_completes_and_emits_every_metric() {
    check_workload("fig14");
}

#[test]
fn characterize_completes_and_emits_every_metric() {
    check_workload("characterize");
}

#[test]
fn attack_completes_and_emits_every_metric() {
    check_workload("attack");
}

#[test]
fn service_completes_and_emits_every_metric() {
    check_workload("service");
}

#[test]
fn catalog_matches_benchmark_json() {
    let own = |t: &[(&str, &str)]| {
        t.iter().map(|(n, u)| ((*n).to_owned(), (*u).to_owned())).collect::<Vec<_>>()
    };
    assert_eq!(own(&END_TO_END), declared("end_to_end"));
    assert_eq!(own(&PER_LAYER), declared("per_layer"));
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let bench: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    let Value::Seq(workloads) = field(&bench, "workloads") else {
        panic!("workloads is not a list")
    };
    let names: Vec<&str> = workloads.iter().map(|w| text(field(w, "name"))).collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn threads_never_exceed_nproc() {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert!(threads() <= nproc && threads() <= 2);
    let args = Args {
        workload: "characterize".into(),
        seed: 1,
        seconds: 1.0,
        trace: false,
        scale: Scale::Full,
    };
    assert!(characterize::options(&args).threads <= nproc);
}
