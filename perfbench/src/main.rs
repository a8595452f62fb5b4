//! `vrd-perfbench`: runs one benchmark workload and prints its metrics,
//! the last stdout line being the JSON result.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig14|characterize|attack|service|all \
//!     [--seed N] [--seconds S] [--trace 0|1] [--scale full|tiny]
//! ```
//!
//! `--workload all` runs the four workloads one after another, each in
//! its own process (so peak memory is per workload).

use std::process::{Command, ExitCode, Stdio};

use serde::Value;

use vrd_perfbench::harness::Args;
use vrd_perfbench::{attack, characterize, fig14, service, Scale, COMMITTED_SEED, WORKLOADS};

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: COMMITTED_SEED,
        seconds: 20.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--scale" => {
                args.scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    other => return Err(format!("--scale takes full or tiny, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {} or all", WORKLOADS.join(", ")));
    }
    Ok(args)
}

/// Runs every workload in a child process, forwarding its output, and
/// ends with one result line over all of them (metric names prefixed
/// by the workload).
fn run_all(argv: &[String]) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return 2;
        }
    };
    let (mut correct, mut attempted, mut failed, mut metrics) = (true, 0u64, 0u64, Vec::new());
    for workload in WORKLOADS {
        let mut child_args: Vec<String> = Vec::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if a == "--workload" {
                it.next();
            } else {
                child_args.push(a.clone());
            }
        }
        child_args.extend(["--workload".to_owned(), workload.to_owned()]);
        let out = Command::new(&exe).args(&child_args).stderr(Stdio::inherit()).output();
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                eprintln!("perfbench: cannot run {workload}: {e}");
                return 2;
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for line in lines {
            println!("{line}");
        }
        let result: Result<Value, _> = serde_json::from_str(last);
        let Ok(Value::Map(map)) = result else {
            eprintln!("perfbench: {workload} printed no result line");
            correct = false;
            failed += 1;
            continue;
        };
        let get = |key: &str| map.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        correct &= out.status.success() && matches!(get("correct"), Some(Value::Bool(true)));
        attempted += number(get("attempted"));
        failed += number(get("failed"));
        if let Some(Value::Map(m)) = get("metrics") {
            for (name, v) in m {
                let v = serde_json::to_string(v).expect("values serialize");
                metrics.push(format!("\"{workload}.{name}\": {v}"));
            }
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    i32::from(!correct)
}

fn number(v: Option<&Value>) -> u64 {
    match v {
        Some(Value::UInt(n)) => *n,
        Some(Value::Int(n)) => u64::try_from(*n).unwrap_or(0),
        _ => 0,
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let code = match args.workload.as_str() {
        "all" => run_all(&argv),
        "fig14" => fig14::run(&args),
        "characterize" => characterize::run(&args),
        "attack" => attack::run(&args),
        _ => service::run(&args),
    };
    ExitCode::from(u8::try_from(code).unwrap_or(1))
}
