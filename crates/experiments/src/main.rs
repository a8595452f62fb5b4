//! `vrd-exp`: regenerate the VRD paper's tables and figures.
//!
//! ```text
//! vrd-exp <id>... [flags]
//! vrd-exp serve --state-dir DIR [flags]   (fleet campaign service;
//!                                          see vrd_experiments::serve)
//!
//! ids: fig1 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13
//!      fig14 fig15 fig16 fig17-20 fig21-24 fig25 tab3 tab7 findings
//!      discovery memsim-sweep family all
//!
//! flags:
//!   --paper               paper-scale measurement counts (slow!)
//!   --measurements N      foundational measurements per row
//!   --indepth N           in-depth measurements per row per condition
//!   --rows N              rows selected per segment (in-depth)
//!   --trials N            guardband trials per margin
//!   --confidence C        discovery stopping-rule confidence target in
//!                         (0, 1) (default 0.9)
//!   --min-epochs N        discovery epoch floor: no row stops earlier
//!   --max-epochs N        discovery epoch ceiling: every row stops
//!                         here at the latest (also the fixed budget
//!                         savings are quoted against)
//!   --mixes N             Fig.-14 workload mixes
//!   --cycles N            Fig.-14 simulated nanoseconds
//!   --region-rows N       rows per mitigation-profile region in the
//!                         spatial-aware defenses sweep (default 512,
//!                         one device-model subarray per region)
//!   --sweep-acts N        attacker activations per defenses-sweep
//!                         attack simulation
//!   --modules A,B,...     restrict the module roster
//!   --family F            restrict the roster to one device family:
//!                         ddr4, hbm2, or all (default); composes with
//!                         --modules as an intersection
//!   --seed N              root RNG seed
//!   --threads N           worker threads (0 = all cores); results are
//!                         identical at any thread count
//!   --shard I/N           run only the I-th of N round-robin roster
//!                         shards (for spreading a campaign across
//!                         processes; per-module results are unchanged)
//!   --out DIR             JSON output directory (default: results)
//!   --checkpoint-dir DIR  journal finished campaign units under DIR so
//!                         a killed run can be resumed; each campaign
//!                         uses its own subdirectory
//!   --resume              continue from an existing checkpoint (same
//!                         config/seed/shard required; resumed output is
//!                         byte-identical to an uninterrupted run)
//!   --fail-after-units N  fault injection: simulate a crash (exit 3)
//!                         after N units commit (needs --checkpoint-dir)
//!   --trace-out FILE      write every campaign observability event
//!                         (unit lifecycle, checkpoint commits, phase
//!                         boundaries) as JSONL to FILE
//!   --log-format FMT      terminal output encoding: human (default;
//!                         [vrd-exp] status lines + plain tables) or
//!                         json (one serialized event per line)
//! ```

use std::sync::OnceLock;

use vrd_experiments::{
    discovery_exp, ecc_exp, estimate_exp, extensions, family_exp, findings, foundational,
    guardband_exp, indepth, mc, memsim_exp, runner::save_json, sinks, sweep_exp, Options,
};

/// Lazily computed shared studies so `all` runs each campaign once.
#[derive(Default)]
struct Ctx {
    foundational: OnceLock<foundational::FoundationalStudy>,
    indepth: OnceLock<indepth::InDepthStudy>,
    guardband: OnceLock<guardband_exp::GuardbandStudy>,
    discovery: OnceLock<discovery_exp::DiscoveryStudy>,
    sweep: OnceLock<sweep_exp::SweepStudy>,
    family: OnceLock<family_exp::FamilyStudy>,
}

impl Ctx {
    fn foundational(&self, opts: &Options) -> &foundational::FoundationalStudy {
        self.foundational.get_or_init(|| {
            sinks::status(format!(
                "running foundational campaign ({} measurements/row)...",
                opts.foundational_measurements
            ));
            foundational::run(opts)
        })
    }

    fn indepth(&self, opts: &Options) -> &indepth::InDepthStudy {
        self.indepth.get_or_init(|| {
            sinks::status(format!(
                "running in-depth campaign ({} meas/row/cond, {} conds)...",
                opts.indepth_measurements,
                opts.condition_grid().len()
            ));
            indepth::run(opts)
        })
    }

    fn guardband(&self, opts: &Options) -> &guardband_exp::GuardbandStudy {
        self.guardband.get_or_init(|| {
            sinks::status(format!(
                "running guardband experiment ({} trials/margin)...",
                opts.guardband_trials
            ));
            guardband_exp::run(opts)
        })
    }

    fn discovery(&self, opts: &Options) -> &discovery_exp::DiscoveryStudy {
        self.discovery.get_or_init(|| {
            sinks::status(format!(
                "running discovery campaign ({:.0}% confidence, <= {} epochs/row)...",
                100.0 * opts.discovery_confidence,
                opts.discovery_max_epochs
            ));
            discovery_exp::run(opts)
        })
    }

    fn sweep(&self, opts: &Options) -> &sweep_exp::SweepStudy {
        self.sweep.get_or_init(|| {
            let study = self.indepth(opts);
            sinks::status(format!(
                "running spatial-aware defenses sweep ({} activations/attack)...",
                opts.sweep_activations
            ));
            sweep_exp::run(opts, study)
        })
    }

    fn family(&self, opts: &Options) -> &family_exp::FamilyStudy {
        self.family.get_or_init(|| {
            sinks::status("running device-family bank-variation study...");
            family_exp::run(opts)
        })
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        vrd_experiments::serve::main(&args[1..]);
    }
    match parse(&args) {
        Ok((ids, opts)) => {
            sinks::set_log_format(opts.log_format);
            if ids.is_empty() {
                sinks::error("usage: vrd-exp <id>... [flags]; see --help");
                std::process::exit(2);
            }
            let ctx = Ctx::default();
            for id in ids {
                run_experiment(&id, &opts, &ctx);
            }
        }
        Err(message) => {
            sinks::error(message);
            std::process::exit(2);
        }
    }
}

const ALL_IDS: &[&str] = &[
    "fig1",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17-20",
    "fig21-24",
    "fig25",
    "tab3",
    "tab7",
    "findings",
    "discovery",
    "memsim-sweep",
    "family",
    "ablation",
    "security",
    "online",
    "takeaways",
];

fn parse(args: &[String]) -> Result<(Vec<String>, Options), String> {
    let mut opts = Options::default();
    let mut ids = Vec::new();
    let mut iter = args.iter().peekable();
    let need = |iter: &mut std::iter::Peekable<std::slice::Iter<String>>,
                flag: &str|
     -> Result<String, String> {
        iter.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                sinks::artifact(
                    "help",
                    format!("vrd-exp <id>... [flags]\nids: {} all", ALL_IDS.join(" ")),
                );
                std::process::exit(0);
            }
            "--paper" => {
                let keep_modules = std::mem::take(&mut opts.modules);
                let keep_family = opts.family;
                opts = Options::paper();
                opts.modules = keep_modules;
                opts.family = keep_family;
            }
            "--measurements" => {
                opts.foundational_measurements =
                    need(&mut iter, arg)?.parse().map_err(|e| format!("{arg}: {e}"))?
            }
            "--indepth" => {
                opts.indepth_measurements =
                    need(&mut iter, arg)?.parse().map_err(|e| format!("{arg}: {e}"))?
            }
            "--rows" => {
                opts.picks_per_segment =
                    need(&mut iter, arg)?.parse().map_err(|e| format!("{arg}: {e}"))?
            }
            "--trials" => {
                opts.guardband_trials =
                    need(&mut iter, arg)?.parse().map_err(|e| format!("{arg}: {e}"))?
            }
            "--confidence" => {
                opts.discovery_confidence =
                    need(&mut iter, arg)?.parse().map_err(|e| format!("{arg}: {e}"))?;
                if !(opts.discovery_confidence > 0.0 && opts.discovery_confidence < 1.0) {
                    return Err(format!("{arg}: must be in (0, 1)"));
                }
            }
            "--min-epochs" => {
                opts.discovery_min_epochs =
                    need(&mut iter, arg)?.parse().map_err(|e| format!("{arg}: {e}"))?
            }
            "--max-epochs" => {
                opts.discovery_max_epochs =
                    need(&mut iter, arg)?.parse().map_err(|e| format!("{arg}: {e}"))?
            }
            "--mixes" => {
                opts.mixes = need(&mut iter, arg)?.parse().map_err(|e| format!("{arg}: {e}"))?;
                if opts.mixes == 0 {
                    return Err(format!("{arg}: must be positive"));
                }
            }
            "--cycles" => {
                opts.sim_cycles =
                    need(&mut iter, arg)?.parse().map_err(|e| format!("{arg}: {e}"))?;
                if opts.sim_cycles == 0 {
                    return Err(format!("{arg}: must be positive"));
                }
            }
            "--region-rows" => {
                opts.region_rows =
                    need(&mut iter, arg)?.parse().map_err(|e| format!("{arg}: {e}"))?;
                if opts.region_rows == 0 {
                    return Err(format!("{arg}: must be positive"));
                }
            }
            "--sweep-acts" => {
                opts.sweep_activations =
                    need(&mut iter, arg)?.parse().map_err(|e| format!("{arg}: {e}"))?;
                if opts.sweep_activations == 0 {
                    return Err(format!("{arg}: must be positive"));
                }
            }
            "--modules" => {
                opts.modules =
                    need(&mut iter, arg)?.split(',').map(|s| s.trim().to_owned()).collect()
            }
            "--family" => {
                let value = need(&mut iter, arg)?;
                opts.family = value.parse().map_err(|_| {
                    format!("{arg}: expected ddr4|hbm2|all, got {:?}", value.to_ascii_lowercase())
                })?;
            }
            "--seed" => {
                opts.seed = need(&mut iter, arg)?.parse().map_err(|e| format!("{arg}: {e}"))?
            }
            "--threads" => {
                opts.threads = need(&mut iter, arg)?.parse().map_err(|e| format!("{arg}: {e}"))?
            }
            "--shard" => {
                let value = need(&mut iter, arg)?;
                let (index, count) = value
                    .split_once('/')
                    .ok_or_else(|| format!("{arg}: expected I/N, got {value:?}"))?;
                opts.shard_index = index.parse().map_err(|e| format!("{arg}: {e}"))?;
                opts.shard_count = count.parse().map_err(|e| format!("{arg}: {e}"))?;
                if opts.shard_count == 0 || opts.shard_index >= opts.shard_count {
                    return Err(format!("{arg}: index must be < count, got {value}"));
                }
            }
            "--out" => opts.out_dir = need(&mut iter, arg)?,
            "--checkpoint-dir" => opts.checkpoint_dir = Some(need(&mut iter, arg)?),
            "--resume" => opts.resume = true,
            "--trace-out" => opts.trace_out = Some(need(&mut iter, arg)?),
            "--log-format" => {
                opts.log_format =
                    need(&mut iter, arg)?.parse().map_err(|e| format!("{arg}: {e}"))?
            }
            "--fail-after-units" => {
                opts.fail_after_units =
                    Some(need(&mut iter, arg)?.parse().map_err(|e| format!("{arg}: {e}"))?)
            }
            "all" => ids.extend(ALL_IDS.iter().map(|s| s.to_string())),
            id if ALL_IDS.contains(&id) => ids.push(id.to_owned()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    ids.dedup();
    if opts.fail_after_units.is_some() && opts.checkpoint_dir.is_none() {
        return Err("--fail-after-units needs --checkpoint-dir (nothing survives otherwise)".into());
    }
    if opts.resume && opts.checkpoint_dir.is_none() {
        return Err("--resume needs --checkpoint-dir".into());
    }
    Ok((ids, opts))
}

fn run_experiment(id: &str, opts: &Options, ctx: &Ctx) {
    match id {
        "fig1" => {
            let study = ctx.foundational(opts);
            sinks::artifact(id, foundational::render_fig1(study));
            let _ = save_json(opts, "fig1", &study.per_module);
        }
        "fig3" => {
            let study = ctx.foundational(opts);
            sinks::artifact(id, foundational::render_fig3(study));
            let _ = save_json(opts, "fig3", &foundational::fig3_summaries(study));
        }
        "fig4" => {
            let study = ctx.foundational(opts);
            sinks::artifact(id, foundational::render_fig4(study));
        }
        "fig5" => {
            let study = ctx.foundational(opts);
            sinks::artifact(id, foundational::render_fig5(study));
        }
        "fig6" => {
            let study = ctx.foundational(opts);
            sinks::artifact(id, foundational::render_fig6(study));
            let _ = save_json(opts, "fig6", &foundational::fig6_reports(study));
        }
        "fig7" => {
            let study = ctx.indepth(opts);
            sinks::artifact(id, indepth::render_fig7(study));
            let _ = save_json(opts, "fig7", &indepth::max_cv_per_row(study));
        }
        "fig8" => {
            let study = ctx.indepth(opts);
            sinks::artifact(id, mc::render_fig8(study));
            let _ = save_json(opts, "fig8", &mc::fig8_stats(study));
        }
        "fig9" => {
            let study = ctx.indepth(opts);
            sinks::artifact(id, indepth::render_fig9(study));
            let _ = save_json(opts, "fig9", &indepth::fig9_groups(study));
        }
        "fig10" => {
            let study = ctx.indepth(opts);
            sinks::artifact(id, indepth::render_fig10(study));
            let _ = save_json(opts, "fig10", &indepth::fig10_groups(study));
        }
        "fig11" => {
            let study = ctx.indepth(opts);
            sinks::artifact(id, indepth::render_fig11(study));
            let _ = save_json(opts, "fig11", &indepth::fig11_groups(study));
        }
        "fig12" => {
            let study = ctx.indepth(opts);
            sinks::artifact(id, indepth::render_fig12(study));
            let _ = save_json(opts, "fig12", &indepth::fig12_groups(study));
        }
        "fig13" => {
            let study = ctx.indepth(opts);
            sinks::artifact(id, indepth::render_fig13(study));
        }
        "fig14" => {
            sinks::status("running Fig.-14 mitigation sweep...");
            let result = memsim_exp::run(opts);
            sinks::artifact(id, memsim_exp::render(&result));
            let _ = save_json(opts, "fig14", &result);
        }
        "fig15" => {
            let study = ctx.indepth(opts);
            sinks::artifact(id, mc::render_fig15(study));
            let _ = save_json(opts, "fig15", &mc::fig15_stats(study));
        }
        "fig16" => {
            let study = ctx.guardband(opts);
            sinks::artifact(id, guardband_exp::render_fig16(study));
            let _ = save_json(opts, "fig16", study);
        }
        "fig17-20" => {
            let sweep = estimate_exp::rowhammer_sweep();
            sinks::artifact(id, estimate_exp::render(&sweep));
            let _ = save_json(opts, "fig17-20", &sweep);
        }
        "fig21-24" => {
            let sweep = estimate_exp::rowpress_sweep();
            sinks::artifact(id, estimate_exp::render(&sweep));
            let _ = save_json(opts, "fig21-24", &sweep);
        }
        "fig25" => {
            let study = ctx.indepth(opts);
            sinks::artifact(id, mc::render_fig25(study));
        }
        "tab3" => {
            let ber = {
                let study = ctx.guardband(opts);
                let measured = guardband_exp::worst_margin_ber(study, 0.1);
                if measured > 0.0 {
                    measured
                } else {
                    vrd_ecc::analysis::PAPER_WORST_BER
                }
            };
            let result = ecc_exp::run(ber, 20_000, opts.seed);
            sinks::artifact(id, ecc_exp::render(&result));
            // Also emit the paper's exact operating point for reference.
            let paper = ecc_exp::run_paper(20_000, opts.seed);
            sinks::artifact("tab3-paper", ecc_exp::render(&paper));
            let _ = save_json(opts, "tab3", &paper);
        }
        "tab7" => {
            let study = ctx.indepth(opts);
            sinks::artifact(id, indepth::render_table7(study));
            let _ = save_json(opts, "tab7", &indepth::table7(study));
        }
        "takeaways" => {
            let foundational = ctx.foundational(opts);
            let indepth = ctx.indepth(opts);
            sinks::artifact(id, extensions::render_takeaways(foundational, indepth));
        }
        "ablation" => {
            sinks::status("running model ablation...");
            let rows = extensions::ablation(opts);
            sinks::artifact(id, extensions::render_ablation(&rows));
            let _ = save_json(opts, "ablation", &rows);
        }
        "security" => {
            let study = ctx.foundational(opts);
            sinks::status("running guardband security sweep...");
            let rows = extensions::security(study, opts);
            sinks::artifact(id, extensions::render_security(&rows));
            let _ = save_json(opts, "security", &rows);
        }
        "online" => {
            sinks::status("running online-profiling experiment...");
            match extensions::online(opts) {
                Some(result) => {
                    sinks::artifact(id, extensions::render_online(&result));
                    let _ = save_json(opts, "online", &result);
                }
                None => sinks::message(
                    vrd_core::obs::Level::Warn,
                    "no module in scope produced profilable rows",
                ),
            }
        }
        "discovery" => {
            let study = ctx.discovery(opts);
            sinks::artifact(id, discovery_exp::render(study));
            let _ = save_json(opts, "discovery", study);
        }
        "memsim-sweep" => {
            let study = ctx.sweep(opts);
            sinks::artifact(id, sweep_exp::render(study));
            let _ = save_json(opts, "memsim-sweep", study);
            let profile_path = std::path::Path::new(&opts.out_dir).join("mitigation_profile.json");
            match study.profile.save(&profile_path) {
                Ok(()) => sinks::status(format!(
                    "mitigation profile artifact written to {}",
                    profile_path.display()
                )),
                Err(e) => sinks::error(format!("cannot write mitigation profile: {e}")),
            }
        }
        "family" => {
            let study = ctx.family(opts);
            sinks::artifact(id, family_exp::render_family(study));
            let _ = save_json(opts, "family", study);
        }
        "findings" => {
            let mut checks = findings::check_foundational(ctx.foundational(opts));
            checks.extend(findings::check_indepth(ctx.indepth(opts)));
            checks.extend(findings::check_cells(ctx.indepth(opts)));
            checks.extend(findings::check_sweep(ctx.sweep(opts)));
            checks.extend(findings::check_family(ctx.family(opts)));
            sinks::artifact(id, findings::render(&checks));
            let _ = save_json(opts, "findings", &checks);
        }
        other => sinks::error(format!("unknown experiment {other:?}")),
    }
}
