//! `characterize`: the foundational, in-depth, discovery and guardband
//! studies on a DDR4 + HBM2 roster (M1, S0, Chip1), without a
//! checkpoint.
//!
//! The device model, the Alg.-1 search and the executor dominate,
//! including the scalar `guess_rdt` select phase that ROADMAP items 1
//! and 3 target; memsim does nothing here. Campaigns run through their
//! `run_with` entry points, the guardband study through `run` (it has
//! no `run_with`).

use std::collections::BTreeMap;

use serde::Serialize;
use vrd_core::exec::Progress;
use vrd_core::run::RunOptions;
use vrd_dram::ModuleSpec;
use vrd_experiments::discovery_exp::{self, DiscoveryStudy};
use vrd_experiments::foundational::{self, FoundationalStudy};
use vrd_experiments::guardband_exp::{self, GuardbandStudy};
use vrd_experiments::indepth::{self, InDepthStudy};
use vrd_experiments::Options;

use crate::harness::{self, timed, traced, Args, Rep};
use crate::recorder::Recorder;
use crate::stats::digest;
use crate::Scale;

/// DDR4 (M1, S0) and HBM2 (Chip1) modules.
pub const ROSTER: [&str; 3] = ["M1", "S0", "Chip1"];

/// The studies one repetition returns.
#[derive(Serialize)]
struct Studies {
    foundational: FoundationalStudy,
    in_depth: InDepthStudy,
    discovery: DiscoveryStudy,
    guardband: GuardbandStudy,
}

/// Default experiment scale on [`ROSTER`] (the smoke scale when tiny).
pub fn options(args: &Args) -> Options {
    let base = match args.scale {
        Scale::Full => Options::default(),
        Scale::Tiny => Options::smoke(),
    };
    Options {
        modules: ROSTER.iter().map(|m| (*m).to_owned()).collect(),
        seed: args.seed,
        threads: crate::threads(),
        ..base
    }
}

/// RDT measurements the studies hold: foundational and in-depth series
/// values plus discovery epochs.
fn measurements(s: &Studies) -> u64 {
    let f: usize = s.foundational.per_module.iter().map(|m| m.series.len()).sum();
    let i: usize = s
        .in_depth
        .per_module
        .iter()
        .flat_map(|m| &m.rows)
        .flat_map(|r| &r.per_condition)
        .map(|c| c.series.len())
        .sum();
    let d: u64 =
        s.discovery.per_module.iter().flat_map(|m| &m.rows).map(|r| u64::from(r.epochs_used)).sum();
    (f + i) as u64 + d
}

fn run_studies(
    opts: &Options,
    specs: &[ModuleSpec],
    run_opts: &RunOptions<'_>,
    rec: Option<&Recorder>,
) -> Result<Studies, String> {
    let e = |e: vrd_core::checkpoint::CheckpointError| e.to_string();
    Ok(Studies {
        foundational: traced(rec, "exp.foundational", || {
            foundational::run_with(opts, specs, run_opts)
        })
        .map_err(e)?,
        in_depth: traced(rec, "exp.in_depth", || indepth::run_with(opts, specs, run_opts))
            .map_err(e)?,
        discovery: traced(rec, "exp.discovery", || discovery_exp::run_with(opts, specs, run_opts))
            .map_err(e)?,
        guardband: traced(rec, "exp.guardband", || guardband_exp::run(opts)),
    })
}

fn rep(opts: &Options, specs: &[ModuleSpec], rec: Option<&Recorder>) -> Rep {
    let progress = Progress::new();
    let mut run_opts = RunOptions::new(opts.exec_config()).progress(&progress);
    if let Some(r) = rec {
        run_opts = run_opts.observer(r);
    }
    let (studies, wall_s) = timed(|| run_studies(opts, specs, &run_opts, rec));
    let snap = progress.snapshot();
    let mut rep = Rep {
        wall_s,
        latencies_s: vec![wall_s],
        attempted: 4 + snap.units_total as u64,
        failed: snap.units_panicked as u64,
        ..Rep::default()
    };
    if let Some(r) = rec {
        r.add("device.hammer_sessions", snap.hammer_sessions as f64);
        r.add("device.measurement_epochs", snap.measurement_epochs as f64);
    }
    let studies = match studies {
        Ok(s) => s,
        Err(e) => {
            rep.check(false, || format!("campaign failed: {e}"));
            return rep;
        }
    };
    rep.work = measurements(&studies) as f64;
    rep.digest = digest(&studies);
    check(opts, &studies, &mut rep);
    rep
}

/// Structural invariants that hold at any seed.
fn check(opts: &Options, s: &Studies, rep: &mut Rep) {
    let f = &s.foundational.per_module;
    rep.check(!f.is_empty(), || "foundational study measured no module".into());
    for m in f {
        let n = m.series.len();
        rep.check(n > 0 && n <= opts.foundational_measurements as usize, || {
            format!("foundational {}: {n} measurements", m.module)
        });
    }
    rep.check(s.in_depth.per_module.iter().any(|m| !m.rows.is_empty()), || {
        "in-depth study measured no row".into()
    });
    for m in &s.discovery.per_module {
        for r in &m.rows {
            rep.check(
                r.epochs_used <= opts.discovery_max_epochs && r.bound <= r.min_observed,
                || {
                    format!(
                        "discovery {} row {}: {} epochs, bound {} > min {}",
                        m.module, r.row, r.epochs_used, r.bound, r.min_observed
                    )
                },
            );
        }
    }
    let ddr4 = s.guardband.per_module.iter().filter(|(_, rows)| !rows.is_empty()).count();
    rep.check(ddr4 == 2, || format!("guardband covered {ddr4} DDR4 modules, want 2"));
}

/// Runs the workload; returns the exit code.
pub fn run(args: &Args) -> i32 {
    let rec = Recorder::default();
    let opts = options(args);
    let warmup = options(&Args { scale: Scale::Tiny, ..args.clone() });
    let measured = harness::measure(
        args,
        &rec,
        || {
            let specs = opts.specs();
            if specs.len() != ROSTER.len() {
                return Err(format!("roster resolved to {} modules", specs.len()));
            }
            let progress = Progress::new();
            run_studies(
                &warmup,
                &specs,
                &RunOptions::new(warmup.exec_config()).progress(&progress),
                None,
            )?;
            Ok(specs)
        },
        |_| {},
        |specs, r, _| rep(&opts, specs, r),
    );
    let m = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: characterize set-up failed: {e}");
            return 1;
        }
    };
    let mut layers = BTreeMap::new();
    if args.trace {
        let n = m.traced.len() as f64;
        for (exp, name) in [
            ("exp.foundational", "exp.foundational.wall_s"),
            ("exp.in_depth", "exp.in_depth.wall_s"),
            ("exp.discovery", "exp.discovery.wall_s"),
            ("exp.guardband", "exp.guardband.wall_s"),
        ] {
            layers.insert(name, rec.span_s(exp) / n);
        }
        rec.exec_layers(n, crate::threads(), &mut layers);
        let sessions = rec.counter("device.hammer_sessions");
        let epochs = rec.counter("device.measurement_epochs");
        layers.insert("device.hammer_sessions", sessions / n);
        layers.insert("device.measurement_epochs", epochs / n);
        layers.insert("device.sessions_per_epoch", sessions / epochs);
        layers
            .insert("device.host_ns_per_session", layers["exec.unit_busy_s"] * n * 1e9 / sessions);
    }
    harness::finish(args, &m, &rec, layers, Vec::new())
}
