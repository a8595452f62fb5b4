//! The measurement loop shared by every workload: repeated set-up,
//! timed repetitions, output checks, and the result line.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::recorder::Recorder;
use crate::stats::{median, peak_rss_mb, quantile};
use crate::{Scale, COMMITTED_SEED, END_TO_END, PER_LAYER};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Output digests at [`COMMITTED_SEED`] and full scale.
const DIGESTS: &str = include_str!("../digests.json");

/// Parsed command line of one workload run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (one of [`crate::WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured time per run, in seconds.
    pub seconds: f64,
    /// Attach the recorder and report per-layer metrics.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
}

/// What one repetition of a workload's timed body produced.
#[derive(Debug, Default)]
pub struct Rep {
    /// Host seconds of the repetition.
    pub wall_s: f64,
    /// Work done, in the workload's unit (simulated ns, measurements,
    /// attacker activations, jobs).
    pub work: f64,
    /// Latency of every job the repetition served (a batch workload is
    /// one job per repetition).
    pub latencies_s: Vec<f64>,
    /// Operations attempted: experiment calls, executor units, jobs, checks.
    pub attempted: u64,
    /// Operations failed: panicked units, failed or cancelled jobs,
    /// failed output checks.
    pub failed: u64,
    /// Why each failed check failed.
    pub errors: Vec<String>,
    /// Digest of the repetition's serialized outputs.
    pub digest: u64,
}

impl Rep {
    /// Records one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
    }
}

/// Everything a run measured.
pub struct Measured<S> {
    /// The live state of the last set-up.
    pub state: S,
    /// Seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Repetitions without observation.
    pub untraced: Vec<Rep>,
    /// Repetitions with the recorder attached (`--trace 1` only).
    pub traced: Vec<Rep>,
}

/// Sets up [`SETUPS`] times (tearing down all but the last), then
/// repeats the timed body for `args.seconds`: untraced, or with
/// `--trace 1` alternating untraced and traced repetitions. `rep`
/// receives the time the repetition may fill (a batch body ignores it;
/// the service sizes its open-loop session by it).
///
/// # Errors
///
/// Returns the first set-up error.
pub fn measure<S>(
    args: &Args,
    recorder: &Recorder,
    mut setup: impl FnMut() -> Result<S, String>,
    mut teardown: impl FnMut(S),
    mut rep: impl FnMut(&mut S, Option<&Recorder>, f64) -> Rep,
) -> Result<Measured<S>, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        if let Some(old) = state.take() {
            teardown(old);
        }
        let t = Instant::now();
        state = Some(setup()?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut state = state.expect("SETUPS > 0");
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        if args.trace {
            untraced.push(rep(&mut state, None, args.seconds / 2.0));
            traced.push(rep(&mut state, Some(recorder), args.seconds / 2.0));
        } else {
            untraced.push(rep(&mut state, None, args.seconds));
        }
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    Ok(Measured { state, setup_s, untraced, traced })
}

/// Times `f`, returning its value and host seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Runs `f` in a recorder span when tracing.
pub fn traced<T>(rec: Option<&Recorder>, name: &str, f: impl FnOnce() -> T) -> T {
    match rec {
        Some(r) => r.span(name, f),
        None => f(),
    }
}

/// The committed digest of `workload`, if any.
fn committed_digest(workload: &str) -> Option<String> {
    let map: BTreeMap<String, String> =
        serde_json::from_str(DIGESTS).expect("digests.json is a string map");
    map.get(workload).cloned()
}

/// Checks, reports and prints a run: human lines, then the result line
/// as the last line of stdout. `layers` holds the workload's per-layer
/// metrics. Returns the process exit code (non-zero when any check
/// failed).
pub fn finish<S>(
    args: &Args,
    m: &Measured<S>,
    recorder: &Recorder,
    mut layers: BTreeMap<&'static str, f64>,
    mut errors: Vec<String>,
) -> i32 {
    let all: Vec<&Rep> = m.untraced.iter().chain(&m.traced).collect();
    let mut attempted: u64 = all.iter().map(|r| r.attempted).sum();
    let mut failed: u64 = all.iter().map(|r| r.failed).sum::<u64>() + errors.len() as u64;
    attempted += errors.len() as u64;
    for r in &all {
        errors.extend(r.errors.iter().cloned());
    }

    // Identical inputs must give identical outputs in every repetition,
    // and at the committed seed the outputs the committed bytes.
    let digest = all[0].digest;
    attempted += 1;
    if let Some(r) = all.iter().find(|r| r.digest != digest) {
        failed += 1;
        errors.push(format!(
            "outputs differ between repetitions: {digest:016x} vs {:016x}",
            r.digest
        ));
    }
    println!("{} seed {} outputs digest {digest:016x}", args.workload, args.seed);
    if args.seed == COMMITTED_SEED && args.scale == Scale::Full {
        attempted += 1;
        match committed_digest(&args.workload) {
            Some(want) if want == format!("{digest:016x}") => {}
            Some(want) => {
                failed += 1;
                errors.push(format!("outputs digest {digest:016x} != committed {want}"));
            }
            None => {
                failed += 1;
                errors.push(format!("digests.json has no entry for {}", args.workload));
            }
        }
    }

    let wall: Vec<f64> = m.untraced.iter().map(|r| r.wall_s).collect();
    let rates: Vec<f64> = m.untraced.iter().map(|r| r.work / r.wall_s).collect();
    let jobs: Vec<f64> = m.untraced.iter().flat_map(|r| r.latencies_s.iter().copied()).collect();
    let mut e2e: BTreeMap<&'static str, f64> = BTreeMap::new();
    e2e.insert("wall_s", median(&wall));
    e2e.insert("setup_s", median(&m.setup_s));
    e2e.insert("peak_rss_mb", peak_rss_mb());
    e2e.insert("work_per_s", median(&rates));
    e2e.insert("job_p50_s", quantile(&jobs, 0.5));
    e2e.insert("job_p90_s", quantile(&jobs, 0.9));
    e2e.insert("success_rate", 1.0 - failed as f64 / attempted as f64);
    println!(
        "{} seed {}: {} untraced + {} traced repetitions, {} jobs, {} set-ups",
        args.workload,
        args.seed,
        m.untraced.len(),
        m.traced.len(),
        jobs.len(),
        m.setup_s.len(),
    );

    if args.trace {
        let traced_wall: Vec<f64> = m.traced.iter().map(|r| r.wall_s).collect();
        layers.insert("trace.overhead_ratio", median(&traced_wall) / median(&wall));
        let spans = std::path::Path::new(".bench_out")
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        match recorder.write_jsonl(&spans) {
            Ok(()) => println!("spans written to {}", spans.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", spans.display()),
        }
    }

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let source = if args.trace { &layers } else { &e2e };
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = source.get(name).copied().unwrap_or(0.0);
        attempted += 1;
        if !value.is_finite() {
            failed += 1;
            errors.push(format!("metric {name} is not finite"));
        }
        println!("  {name:<44} {value:>16.6} {unit}");
        let value = if value.is_finite() { value } else { 0.0 };
        metrics.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
    }
    for e in &errors {
        eprintln!("perfbench: {}: check failed: {e}", args.workload);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    );
    i32::from(failed != 0)
}
