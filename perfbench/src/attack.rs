//! `attack`: the security sweep (`extensions::security`) and the
//! spatial-aware defenses sweep (`sweep_exp::run_with`).
//!
//! Both pit memsim mitigations against adversarial activations, with no
//! cores or queues — the other use of the mitigation layer than
//! `fig14`'s, so a mitigation change that helps one and costs the
//! other shows. Their foundational and in-depth inputs are built during
//! set-up. The traced run repeats every `simulate_attack` and
//! `simulate_spatial_attack` call the sweeps make, timing each, and
//! checks the calls reproduce the sweeps' rows exactly.

use std::collections::BTreeMap;

use vrd_core::run::RunOptions;
use vrd_dram::spatial::SpatialProfile;
use vrd_dram::ModuleSpec;
use vrd_experiments::extensions::{self, SecurityRow};
use vrd_experiments::foundational::{self, FoundationalStudy};
use vrd_experiments::indepth::{self, InDepthStudy};
use vrd_experiments::sweep_exp::{self, SweepStudy, GUARDBANDS, RDT_TARGETS};
use vrd_experiments::{findings, Options};
use vrd_memsim::security::{
    simulate_attack, simulate_spatial_attack, AttackConfig, SpatialAttackConfig,
};
use vrd_memsim::{MitigationConfig, MitigationKind, MitigationProfile};

use crate::harness::{self, timed, traced, Args, Rep};
use crate::recorder::Recorder;
use crate::stats::digest;
use crate::Scale;

/// Attacker activations per `simulate_attack` in the security sweep
/// (fixed by `extensions::security`).
const SECURITY_ACTS: u64 = 4_000_000;

/// Inputs built during set-up.
pub struct Inputs {
    specs: Vec<ModuleSpec>,
    foundational: FoundationalStudy,
    in_depth: InDepthStudy,
}

/// Default experiment scale on one DDR4 module (the smoke scale when
/// tiny), with 100k activations per spatial attack.
pub fn options(args: &Args) -> Options {
    let base = match args.scale {
        Scale::Full => Options { sweep_activations: 100_000, ..Options::default() },
        Scale::Tiny => Options { foundational_measurements: 100, ..Options::smoke() },
    };
    Options { modules: vec!["M1".to_owned()], seed: args.seed, threads: crate::threads(), ..base }
}

fn setup(opts: &Options) -> Result<Inputs, String> {
    let specs = opts.specs();
    let run_opts = RunOptions::new(opts.exec_config());
    let e = |e: vrd_core::checkpoint::CheckpointError| e.to_string();
    Ok(Inputs {
        foundational: foundational::run_with(opts, &specs, &run_opts).map_err(e)?,
        in_depth: indepth::run_with(opts, &specs, &run_opts).map_err(e)?,
        specs,
    })
}

fn rep(
    opts: &Options,
    inputs: &Inputs,
    rec: Option<&Recorder>,
) -> (Rep, Vec<SecurityRow>, SweepStudy) {
    let ((rows, sweep), wall_s) = timed(|| {
        let rows = traced(rec, "exp.security", || extensions::security(&inputs.foundational, opts));
        let sweep = traced(rec, "exp.memsim_sweep", || {
            sweep_exp::run_with(opts, &inputs.specs, &inputs.in_depth)
        });
        (rows, sweep)
    });
    let security_acts: usize = rows.iter().map(|r| r.points.len()).sum();
    let mut rep = Rep {
        wall_s,
        work: security_acts as f64 * SECURITY_ACTS as f64
            + (sweep.points.len() * 3) as f64 * sweep.activations as f64,
        latencies_s: vec![wall_s],
        attempted: 2,
        digest: digest(&(&rows, &sweep)),
        ..Rep::default()
    };
    rep.check(!rows.is_empty(), || "security sweep produced no row".into());
    for row in &rows {
        rep.check(row.points.len() == 4 && row.points.iter().all(|p| p.2.is_finite()), || {
            format!("security row {} {}: {:?}", row.module, row.mitigation.name(), row.points)
        });
    }
    let cells = RDT_TARGETS.len() * GUARDBANDS.len() * MitigationKind::EVALUATED.len();
    rep.check(sweep.points.len() == cells, || {
        format!("{} defenses-sweep cells, want {cells}", sweep.points.len())
    });
    // F19 holds at every seed. F18 does not: on M1 at seed 12 the
    // profiled variant leaks in one of the 29 cells the uniform worst
    // case covers (at the default 300k activations too), so F18 is
    // gated only at the committed seed.
    for check in findings::check_sweep(&sweep) {
        if check.id == 19 || opts.seed == crate::COMMITTED_SEED {
            rep.check(check.passed, || format!("F{} failed: {}", check.id, check.detail));
        } else if !check.passed {
            println!("attack seed {}: F{} does not hold: {}", opts.seed, check.id, check.detail);
        }
    }
    (rep, rows, sweep)
}

/// Times one attack call under `layer` and the mechanism's key.
fn attack_call<T>(
    rec: &Recorder,
    layer: &str,
    kind: MitigationKind,
    acts: u64,
    f: impl FnOnce() -> T,
) -> T {
    let (out, s) = timed(|| rec.span(layer, f));
    let key = crate::kind_key(kind);
    rec.add(&format!("{layer}.calls"), 1.0);
    rec.add(&format!("{layer}.busy_s"), s);
    rec.add(&format!("{layer}.acts"), acts as f64);
    rec.add(&format!("{layer}.{key}.busy_s"), s);
    rec.add(&format!("{layer}.{key}.acts"), acts as f64);
    out
}

/// Repeats the security sweep's `simulate_attack` calls (plus MINT,
/// which the sweep leaves out, on the first row's thresholds) and the
/// defenses sweep's `simulate_spatial_attack` calls, checking both
/// reproduce the sweeps' outputs.
fn probe(
    opts: &Options,
    inputs: &Inputs,
    rows: &[SecurityRow],
    sweep: &SweepStudy,
    rec: &Recorder,
    errors: &mut Vec<String>,
) {
    for (i, row) in rows.iter().enumerate() {
        let Some(result) = inputs.foundational.per_module.iter().find(|r| r.module == row.module)
        else {
            errors
                .push(format!("security row module {} not in the foundational study", row.module));
            continue;
        };
        let config = AttackConfig {
            activations: SECURITY_ACTS,
            rdt_distribution: result.series.values().to_vec(),
            seed: opts.seed,
        };
        let mut kinds = vec![row.mitigation];
        if i == 0 {
            kinds.push(MitigationKind::Mint);
        }
        for kind in kinds {
            for &(margin, configured, escapes) in &row.points {
                let got = attack_call(rec, "memsim.attack", kind, SECURITY_ACTS, || {
                    simulate_attack(kind, configured, &config)
                });
                if kind == row.mitigation && got.escapes_per_million() != escapes {
                    errors.push(format!(
                        "simulate_attack {} margin {margin}: {} escapes/M, security sweep gave {escapes}",
                        kind.name(),
                        got.escapes_per_million()
                    ));
                }
            }
        }
    }

    let dist: Vec<u32> = inputs
        .in_depth
        .per_module
        .iter()
        .find(|m| m.module == sweep.module)
        .map(|m| {
            m.rows
                .iter()
                .flat_map(|r| &r.per_condition)
                .flat_map(|c| c.series.values().iter().copied())
                .collect()
        })
        .unwrap_or_default();
    let spatial = SpatialProfile::wide();
    let mut points = sweep.points.iter();
    for &target in &RDT_TARGETS {
        let scaled: Vec<u32> = dist
            .iter()
            .map(|&v| {
                (f64::from(v) * f64::from(target) / f64::from(sweep.measured_min_rdt))
                    .round()
                    .max(1.0) as u32
            })
            .collect();
        for (gi, &guardband) in GUARDBANDS.iter().enumerate() {
            let profiled = MitigationProfile::from_characterization(
                sweep.module.clone(),
                target,
                &spatial,
                sweep.device_seed,
                sweep.rows_covered,
                sweep.region_rows,
                guardband,
            );
            let uniform = MitigationProfile::flat(profiled.min_threshold());
            let naive = MitigationProfile::flat(profiled.max_region_threshold());
            for (ki, &kind) in MitigationKind::EVALUATED.iter().enumerate() {
                let seed = opts.seed ^ (u64::from(target) << 32) ^ ((gi as u64) << 8) ^ (ki as u64);
                let mut attack =
                    SpatialAttackConfig::new(scaled.clone(), sweep.victims.clone(), seed);
                attack.activations = sweep.activations;
                let Some(point) = points.next() else {
                    errors.push("defenses sweep has fewer points than its grid".into());
                    return;
                };
                for (profile, want) in
                    [(&naive, point.naive), (&uniform, point.uniform), (&profiled, point.profiled)]
                {
                    let cfg = MitigationConfig::builder()
                        .threshold(profile.min_threshold())
                        .banks(1)
                        .seed(seed)
                        .build();
                    let mut mitigation = kind.build_with_profile(&cfg, profile);
                    let got =
                        attack_call(rec, "memsim.spatial_attack", kind, attack.activations, || {
                            simulate_spatial_attack(mitigation.as_mut(), &attack)
                        });
                    if (got.escapes, got.actions) != (want.escapes, want.actions) {
                        errors.push(format!(
                            "simulate_spatial_attack {} RDT {target} guardband {guardband}: ({}, {}) escapes/actions, sweep gave ({}, {})",
                            kind.name(),
                            got.escapes,
                            got.actions,
                            want.escapes,
                            want.actions
                        ));
                    }
                }
            }
        }
    }
}

/// Runs the workload; returns the exit code.
pub fn run(args: &Args) -> i32 {
    let rec = Recorder::default();
    let opts = options(args);
    let mut last = None;
    let measured = harness::measure(
        args,
        &rec,
        || setup(&opts),
        |_| {},
        |inputs, r, _| {
            let (rep, rows, sweep) = rep(&opts, inputs, r);
            last = Some((rows, sweep));
            rep
        },
    );
    let m = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: attack set-up failed: {e}");
            return 1;
        }
    };
    let mut layers = BTreeMap::new();
    let mut errors = Vec::new();
    if args.trace {
        let n = m.traced.len() as f64;
        layers.insert("exp.security.wall_s", rec.span_s("exp.security") / n);
        layers.insert("exp.memsim_sweep.wall_s", rec.span_s("exp.memsim_sweep") / n);
        let (rows, sweep) = last.as_ref().expect("measure runs at least one repetition");
        probe(&opts, &m.state, rows, sweep, &rec, &mut errors);
        for (layer, calls, busy, per_act) in [
            (
                "memsim.attack",
                "memsim.attack.calls",
                "memsim.attack.busy_s",
                "memsim.attack.host_ns_per_act",
            ),
            (
                "memsim.spatial_attack",
                "memsim.spatial_attack.calls",
                "memsim.spatial_attack.busy_s",
                "memsim.spatial_attack.host_ns_per_act",
            ),
        ] {
            layers.insert(calls, rec.counter(calls));
            layers.insert(busy, rec.counter(busy));
            layers.insert(per_act, rec.counter(busy) * 1e9 / rec.counter(&format!("{layer}.acts")));
        }
        for (kind, name) in [
            ("graphene", "memsim.attack.graphene.host_ns_per_act"),
            ("prac", "memsim.attack.prac.host_ns_per_act"),
            ("para", "memsim.attack.para.host_ns_per_act"),
            ("mint", "memsim.attack.mint.host_ns_per_act"),
        ] {
            let busy = rec.counter(&format!("memsim.attack.{kind}.busy_s"));
            layers.insert(name, busy * 1e9 / rec.counter(&format!("memsim.attack.{kind}.acts")));
        }
    }
    harness::finish(args, &m, &rec, layers, errors)
}
