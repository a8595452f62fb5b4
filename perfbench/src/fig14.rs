//! `fig14`: the Fig.-14 mitigation-overhead sweep (`memsim_exp::run`)
//! at reduced mixes and simulated time.
//!
//! The memsim system loop does nearly all the work and the device model
//! none, so ROADMAP item 2 (baseline dedupe, exec parallelism,
//! idle-cycle skipping) shows here and nowhere else. The traced run
//! re-simulates each *distinct* (mechanism, threshold, mix) once
//! through `System::run_mix` and checks that those runs reproduce the
//! sweep's points bit for bit; `fig14.driver_ratio` is the sweep's wall
//! time over theirs.

use std::collections::BTreeMap;

use vrd_experiments::memsim_exp::{self, Fig14Result, MARGINS, RDT_VALUES};
use vrd_experiments::Options;
use vrd_memsim::system::{SimConfig, SimStats, System};
use vrd_memsim::workload::WorkloadParams;
use vrd_memsim::MitigationKind;

use crate::harness::{self, timed, traced, Args, Rep};
use crate::recorder::Recorder;
use crate::stats::{digest, median};
use crate::Scale;

/// Fig.-14 points: 2 RDTs × 4 margins × 4 mechanisms.
const POINTS: usize = 32;

fn options(args: &Args, cycles_full: u64) -> Options {
    let (mixes, cycles) = match args.scale {
        Scale::Full => (2, cycles_full),
        Scale::Tiny => (1, 2_000),
    };
    Options {
        mixes,
        sim_cycles: cycles,
        seed: args.seed,
        threads: crate::threads(),
        ..Options::default()
    }
}

fn rep(opts: &Options, rec: Option<&Recorder>) -> (Rep, Fig14Result) {
    let (result, wall_s) = timed(|| traced(rec, "exp.fig14", || memsim_exp::run(opts)));
    let mut rep = Rep {
        wall_s,
        work: (POINTS * result.mixes) as f64 * opts.sim_cycles as f64,
        latencies_s: vec![wall_s],
        attempted: 1,
        digest: digest(&result),
        ..Rep::default()
    };
    rep.check(result.points.len() == POINTS, || {
        format!("{} fig14 points, want {POINTS}", result.points.len())
    });
    for p in &result.points {
        let np = p.normalized_performance;
        rep.check(np.is_finite() && np > 0.0, || {
            format!(
                "{} at RDT {} margin {}: normalized performance {np}",
                p.mitigation.name(),
                p.rdt,
                p.margin
            )
        });
    }
    (rep, result)
}

/// Simulates every distinct (mechanism, threshold, mix) of the sweep
/// once, timing each `System::run_mix`, and checks the runs reproduce
/// `result`'s points exactly.
fn probe(opts: &Options, result: &Fig14Result, rec: &Recorder, errors: &mut Vec<String>) {
    let mixes: Vec<[WorkloadParams; 4]> =
        WorkloadParams::paper_mixes().into_iter().take(opts.mixes.max(1)).collect();
    let mut sums: BTreeMap<(usize, usize, usize), f64> = BTreeMap::new();
    let run = |kind: MitigationKind, threshold: u32, cfg: &SimConfig, seed: u64| -> SimStats {
        let (stats, s) =
            timed(|| rec.span("memsim.run_mix", || System::run_mix(cfg, kind, threshold, seed)));
        let key = crate::kind_key(kind);
        rec.add("memsim.run_mix.calls", 1.0);
        rec.add("memsim.run_mix.busy_s", s);
        rec.add(&format!("memsim.run_mix.{key}.busy_s"), s);
        rec.add(&format!("memsim.run_mix.{key}.sim_ns"), cfg.cycles as f64);
        rec.add("memsim.activations", stats.activations as f64);
        rec.add("memsim.preventive_ops", stats.preventive_ops as f64);
        rec.add("memsim.refreshes", stats.refreshes as f64);
        stats
    };
    for (mix_idx, mix) in mixes.iter().enumerate() {
        let cfg = SimConfig { cycles: opts.sim_cycles, banks: 16, mix: *mix };
        let seed = opts.seed ^ ((mix_idx as u64) << 16);
        // The unmitigated baseline ignores the threshold.
        let baseline = run(MitigationKind::None, 1, &cfg, seed);
        for (ri, &rdt) in RDT_VALUES.iter().enumerate() {
            for (mi, &margin) in MARGINS.iter().enumerate() {
                let effective = (f64::from(rdt) * (1.0 - margin)).round().max(1.0) as u32;
                for (ki, &kind) in MitigationKind::EVALUATED.iter().enumerate() {
                    let mitigated = run(kind, effective, &cfg, seed);
                    *sums.entry((ri, mi, ki)).or_default() += mitigated.weighted_ipc(&baseline);
                }
            }
        }
    }
    let mut i = 0;
    for (ri, _) in RDT_VALUES.iter().enumerate() {
        for (mi, _) in MARGINS.iter().enumerate() {
            for (ki, _) in MitigationKind::EVALUATED.iter().enumerate() {
                let want = sums[&(ri, mi, ki)] / mixes.len() as f64;
                let got = result.points.get(i).map(|p| p.normalized_performance);
                if got != Some(want) {
                    errors.push(format!(
                        "run_mix probe gives {want} for point {i}, fig14 gave {got:?}"
                    ));
                }
                i += 1;
            }
        }
    }
}

/// Runs the workload; returns the exit code.
pub fn run(args: &Args) -> i32 {
    let rec = Recorder::default();
    let opts = options(args, 50_000);
    let warmup = options(args, 5_000);
    let mut last = None;
    let measured = harness::measure(
        args,
        &rec,
        || {
            memsim_exp::run(&warmup);
            Ok(())
        },
        |()| {},
        |(), r, _| {
            let (rep, result) = rep(&opts, r);
            last = Some(result);
            rep
        },
    );
    let m = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: fig14 set-up failed: {e}");
            return 1;
        }
    };
    let mut layers = BTreeMap::new();
    let mut errors = Vec::new();
    if args.trace {
        let result = last.as_ref().expect("measure runs at least one repetition");
        probe(&opts, result, &rec, &mut errors);
        let traced_wall: Vec<f64> = m.traced.iter().map(|r| r.wall_s).collect();
        let untraced_wall: Vec<f64> = m.untraced.iter().map(|r| r.wall_s).collect();
        let calls = rec.counter("memsim.run_mix.calls");
        let busy = rec.counter("memsim.run_mix.busy_s");
        layers.insert("exp.fig14.wall_s", median(&traced_wall));
        layers.insert("memsim.run_mix.calls", calls);
        layers.insert("memsim.run_mix.busy_s", busy);
        layers.insert(
            "memsim.run_mix.host_ns_per_sim_ns",
            busy * 1e9 / (calls * opts.sim_cycles as f64),
        );
        for (kind, name) in [
            ("none", "memsim.run_mix.none.host_ns_per_sim_ns"),
            ("graphene", "memsim.run_mix.graphene.host_ns_per_sim_ns"),
            ("prac", "memsim.run_mix.prac.host_ns_per_sim_ns"),
            ("para", "memsim.run_mix.para.host_ns_per_sim_ns"),
            ("mint", "memsim.run_mix.mint.host_ns_per_sim_ns"),
        ] {
            let busy = rec.counter(&format!("memsim.run_mix.{kind}.busy_s"));
            let sim = rec.counter(&format!("memsim.run_mix.{kind}.sim_ns"));
            layers.insert(name, busy * 1e9 / sim);
        }
        for name in ["memsim.activations", "memsim.preventive_ops", "memsim.refreshes"] {
            layers.insert(name, rec.counter(name));
        }
        layers.insert("fig14.driver_ratio", median(&untraced_wall) / busy);
    }
    harness::finish(args, &m, &rec, layers, errors)
}
