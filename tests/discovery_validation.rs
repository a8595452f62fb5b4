//! Statistical validation suite for the DiscoRD-style early-stopping
//! discovery campaign (`vrd::core::discovery`).
//!
//! Four properties are proven:
//!
//! 1. **Soundness** — on every golden seed × module, the discovery
//!    campaign's measurement stream is a strict *prefix* of the
//!    in-depth campaign's condition-0 stream for the same cell (same
//!    selection, same guess, same epochs), and the guardbanded bound
//!    lower-bounds the minimum the full fixed-budget characterization
//!    observes. At a 300-epoch budget the campaign spends at most half
//!    the fixed budget's epochs, with undercut bounds inside the
//!    advertised miss rate.
//! 2. **Determinism** — campaign output is byte-identical at 1/2/8
//!    threads, and a run killed *mid-row* (the fault plan counts
//!    mid-row stash commits) resumes to byte-identical output.
//! 3. **Calibration** — across hundreds of simulated rows with known
//!    distributions, the fraction of rows whose stopped bound is
//!    undercut with probability above `epsilon` stays within the
//!    advertised `1 - confidence` (plus binomial slack), and a matched
//!    design confirms a stricter confidence yields fewer violations.
//! 4. **Stopping-rule properties** — the rule never stops before
//!    `min_epochs`, always stops by `max_epochs`, and its stop epoch is
//!    monotone in the confidence target on any fixed stream.

use proptest::prelude::*;
use rand::SeedableRng;

use vrd::core::campaign::{in_depth_campaign, InDepthConfig, InDepthResult};
use vrd::core::checkpoint::{self, Checkpoint, CheckpointManifest};
use vrd::core::discovery::{discovery_campaign, DiscoveryConfig, DiscoveryResult, DISCOVERY};
use vrd::core::exec::faults::FaultPlan;
use vrd::core::exec::ExecConfig;
use vrd::core::run::RunOptions;
use vrd::dram::fleet::roster_fingerprint;
use vrd::dram::ModuleSpec;
use vrd::stats::normal::{normal_cdf, sample_normal};
use vrd::stats::{SequentialMin, StoppingRule};

// ----- fixtures ------------------------------------------------------

fn modules(names: &[&str]) -> Vec<ModuleSpec> {
    names.iter().map(|n| ModuleSpec::by_name(n).expect("Table-1 module")).collect()
}

fn quick_cfg(seed: u64) -> DiscoveryConfig {
    DiscoveryConfig::quick().to_builder().seed(seed).build()
}

fn discovery_json(results: &[DiscoveryResult]) -> String {
    serde_json::to_string_pretty(&results.to_vec()).expect("serializable results")
}

fn run_discovery(
    specs: &[ModuleSpec],
    cfg: &DiscoveryConfig,
    threads: usize,
) -> Vec<DiscoveryResult> {
    discovery_campaign(specs, cfg, &RunOptions::new(ExecConfig::new(threads, cfg.seed)))
        .expect("plain campaign run cannot fail")
}

/// The fixed-budget reference for a discovery run on one module: the
/// in-depth campaign at `epochs` measurements with the same seed and
/// selection parameters, so its condition-0 stream extends the
/// discovery stream.
fn fixed_budget_reference(spec: &ModuleSpec, seed: u64, epochs: u32) -> InDepthResult {
    let cfg = InDepthConfig::quick().to_builder().seed(seed).measurements(epochs).build();
    in_depth_campaign(std::slice::from_ref(spec), &cfg, &RunOptions::new(ExecConfig::serial(seed)))
        .expect("plain campaign run cannot fail")
        .pop()
        .expect("one module in, one result out")
}

// ----- property 1: soundness against the in-depth characterization ---

/// The discovery campaign must never report a bound above what the
/// fixed-budget in-depth characterization observes: discovery's stream
/// is a prefix of the in-depth stream (identical unit seeds), and the
/// guardband absorbs the post-stop tail.
#[test]
fn discovery_bound_is_sound_against_in_depth_minima() {
    for seed in [5025u64, 7133] {
        for module in ["M1", "H3"] {
            let specs = modules(&[module]);
            let cfg = quick_cfg(seed);
            let discovery = run_discovery(&specs, &cfg, 1).pop().unwrap();
            let indepth = fixed_budget_reference(&specs[0], seed, cfg.max_epochs);

            assert!(!discovery.rows.is_empty(), "{module}/{seed}: no rows bounded");
            for row in &discovery.rows {
                let reference =
                    indepth.rows.iter().find(|r| r.row == row.row).unwrap_or_else(|| {
                        panic!("{module}/{seed}: row {} not selected by in-depth", row.row)
                    });
                assert_eq!(
                    row.selection_guess, reference.selection_guess,
                    "{module}/{seed}: selection must be identical"
                );
                let cell = reference.per_condition.first().unwrap_or_else(|| {
                    panic!("{module}/{seed}: row {} has no reference series", row.row)
                });
                assert_eq!(
                    row.rdt_guess, cell.rdt_guess,
                    "{module}/{seed}: per-row re-guess must be identical"
                );
                // Prefix property: both streams are pure functions of
                // (unit seed, epoch) and the unit keys match, so the
                // discovery series is the first `len` values of the
                // reference series.
                let len = row.series.len();
                assert_eq!(
                    row.series.values(),
                    &cell.series.values()[..len],
                    "{module}/{seed}: discovery stream must be a prefix of the in-depth stream"
                );
                // Soundness: the guardbanded bound lower-bounds the
                // minimum of the full fixed-budget characterization.
                let reference_min = cell.series.min().expect("reference series is non-empty");
                assert!(
                    row.bound <= reference_min,
                    "{module}/{seed}: row {} bound {} exceeds in-depth minimum {}",
                    row.row,
                    row.bound,
                    reference_min
                );
            }

            // The point of early stopping: the campaign spends far
            // fewer epochs than the fixed budget it is sound against.
            // (The headline 2x savings is gated at a 300-epoch budget
            // by `early_stopping_halves_the_fixed_budget_within_the_miss_rate`;
            // here the reference ceiling is only 120 epochs, so demand
            // a 25% saving.)
            let spent: u64 = discovery.rows.iter().map(|r| u64::from(r.epochs_used)).sum();
            let fixed = discovery.rows.len() as u64 * u64::from(cfg.max_epochs);
            assert!(
                spent * 4 <= fixed * 3,
                "{module}/{seed}: expected >= 25% epoch savings, spent {spent} of {fixed}"
            );
        }
    }
}

/// The headline cost claim, at a 300-epoch fixed budget on one module
/// per vendor at seed 2025: every module bounds a row, early stopping
/// spends at most half the fixed budget's epochs, and the fixed-budget
/// replay undercuts the guardbanded bound on no more rows than the
/// advertised miss rate `1 - confidence` plus 3-sigma binomial slack.
/// Measured: 2,456 of 10,800 epochs (4.40x), 2 of 36 rows undercut.
#[test]
fn early_stopping_halves_the_fixed_budget_within_the_miss_rate() {
    const FIXED_BUDGET: u32 = 300;
    const SEED: u64 = 2025;
    let cfg = DiscoveryConfig::quick().to_builder().seed(SEED).max_epochs(FIXED_BUDGET).build();
    let (mut rows, mut spent, mut violations) = (0usize, 0u64, 0usize);
    for module in ["M1", "S0", "Chip1"] {
        let specs = modules(&[module]);
        let discovery = run_discovery(&specs, &cfg, 1).pop().unwrap();
        let reference = fixed_budget_reference(&specs[0], SEED, FIXED_BUDGET);
        assert!(!discovery.rows.is_empty(), "{module}: no rows bounded");
        rows += discovery.rows.len();
        spent += discovery.rows.iter().map(|r| u64::from(r.epochs_used)).sum::<u64>();
        violations += discovery
            .rows
            .iter()
            .filter(|r| {
                let reference_min = reference
                    .rows
                    .iter()
                    .find(|reference| reference.row == r.row)
                    .and_then(|reference| reference.per_condition.first())
                    .and_then(|cell| cell.series.min());
                reference_min.is_none_or(|min| r.bound > min)
            })
            .count();
    }

    let fixed = rows as u64 * u64::from(FIXED_BUDGET);
    let savings = fixed as f64 / spent.max(1) as f64;
    assert!(savings >= 2.0, "early stopping saves only {savings:.2}x ({spent} of {fixed} epochs)");

    let miss = 1.0 - cfg.confidence;
    let allowed = miss + 3.0 * (miss * cfg.confidence / rows as f64).sqrt();
    let rate = violations as f64 / rows as f64;
    assert!(
        rate <= allowed,
        "{violations}/{rows} bounds undercut by the fixed-budget replay ({rate:.3} > {allowed:.3})"
    );
}

// ----- property 2: determinism and mid-row crash-resume --------------

#[test]
fn discovery_is_byte_identical_across_thread_counts() {
    let specs = modules(&["M1", "H3"]);
    let cfg = quick_cfg(5025);
    let golden = discovery_json(&run_discovery(&specs, &cfg, 1));
    for threads in [2usize, 8] {
        assert_eq!(
            discovery_json(&run_discovery(&specs, &cfg, threads)),
            golden,
            "threads={threads}: thread count must not change the results"
        );
    }
}

fn discovery_manifest(cfg: &DiscoveryConfig, specs: &[ModuleSpec]) -> CheckpointManifest {
    CheckpointManifest {
        format_version: checkpoint::FORMAT_VERSION,
        campaign: DISCOVERY.to_owned(),
        config_hash: checkpoint::config_hash(cfg),
        campaign_seed: cfg.seed,
        shard_index: 0,
        shard_count: 1,
        roster_fingerprint: roster_fingerprint(specs),
    }
}

/// Kill the campaign *mid-row* — the fault plan counts every stash
/// commit, so small kill thresholds land between a row's start and its
/// final commit — then resume and demand byte-identical output. The
/// stashed observation prefix plus epoch fast-forwarding must
/// reconstruct the sequential state exactly.
#[test]
fn discovery_killed_mid_row_and_resumed_is_byte_identical() {
    let specs = modules(&["M1"]);
    let cfg = quick_cfg(5025).to_builder().stash_every(4).build();
    let golden = discovery_json(&run_discovery(&specs, &cfg, 1));

    for threads in [1usize, 2, 8] {
        for kill_after in [1u64, 3, 9] {
            let dir = std::env::temp_dir().join(format!(
                "vrd-discovery-resume-{}-{threads}-{kill_after}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let exec_cfg = ExecConfig::new(threads, cfg.seed);

            let plan = FaultPlan::kill_after(kill_after);
            let ckpt = Checkpoint::open(&dir, discovery_manifest(&cfg, &specs)).unwrap();
            let first = discovery_campaign(
                &specs,
                &cfg,
                &RunOptions::new(exec_cfg).checkpoint(&ckpt).hooks(&plan),
            );
            assert!(plan.fired(), "threads={threads}, kill_after={kill_after}: kill must fire");
            assert!(first.is_err(), "a mid-campaign kill must interrupt the run");
            drop(ckpt);

            // `completed_units` counts distinct journal keys; repeated
            // stashes of one row supersede each other, so only demand
            // that *something* was journaled before the kill.
            let ckpt = Checkpoint::open(&dir, discovery_manifest(&cfg, &specs)).unwrap();
            assert!(ckpt.completed_units() >= 1);
            let resumed =
                discovery_campaign(&specs, &cfg, &RunOptions::new(exec_cfg).checkpoint(&ckpt))
                    .expect("resume completes");
            assert_eq!(
                discovery_json(&resumed),
                golden,
                "threads={threads}, kill_after={kill_after}: resumed output must be \
                 byte-identical to an uninterrupted run"
            );

            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

// ----- property 3: calibration of the advertised confidence ----------

/// One simulated row: quantized draws from `N(mean, sd)` judged by
/// `rule`, returning `(stopped_early, true undercut probability of the
/// running minimum at stop)`.
fn simulate_row(
    rule: &StoppingRule,
    rng: &mut rand::rngs::StdRng,
    mean: f64,
    sd: f64,
) -> (bool, f64) {
    let mut state = SequentialMin::new();
    while !rule.should_stop(&state) {
        let draw = sample_normal(rng, mean, sd).round().max(1.0) as u32;
        state.observe(Some(draw));
    }
    let min = f64::from(state.min().expect("uncensored stream always has a minimum"));
    // Quantized draws undercut the running minimum `m` iff the
    // underlying normal falls below `m - 0.5` (round-to-nearest).
    let undercut_p = normal_cdf(min - 0.5, mean, sd);
    let stopped_early = state.epochs() < u64::from(rule.max_epochs());
    (stopped_early, undercut_p)
}

/// Runs `rows` simulated rows at the given confidence and counts the
/// rows whose stopped minimum is still undercut with probability above
/// `epsilon` — the event the rule claims happens with probability at
/// most `1 - confidence`.
fn violations(confidence: f64, rows: usize, seed: u64) -> usize {
    let epsilon = 0.05;
    let rule = StoppingRule::new(confidence, epsilon, 10, 100_000).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut count = 0usize;
    for i in 0..rows {
        // Vary the row physics: RDT scales and spreads like the device
        // model's (tens of thousands, CV of a few percent).
        let mean = 20_000.0 + 50.0 * i as f64;
        let sd = 200.0 + 10.0 * (i % 40) as f64;
        let (stopped_early, undercut_p) = simulate_row(&rule, &mut rng, mean, sd);
        assert!(stopped_early, "ceiling must not bind in the calibration design");
        if undercut_p > epsilon {
            count += 1;
        }
    }
    count
}

#[test]
fn advertised_confidence_is_calibrated_across_simulated_rows() {
    const ROWS: usize = 400;
    let miss_budget = 1.0 - 0.9; // the advertised violation probability
    let at_90 = violations(0.9, ROWS, 0xD15C0);
    // Three-sigma binomial slack on 400 trials at p = 0.1.
    let slack = 3.0 * (miss_budget * (1.0 - miss_budget) / ROWS as f64).sqrt();
    let observed = at_90 as f64 / ROWS as f64;
    assert!(
        observed <= miss_budget + slack,
        "violation rate {observed:.3} exceeds advertised {miss_budget} (+{slack:.3} slack)"
    );

    // Matched design: the same streams judged at a stricter confidence
    // must violate no more often.
    let at_99 = violations(0.99, ROWS, 0xD15C0);
    assert!(at_99 <= at_90, "stricter confidence must not violate more often ({at_99} > {at_90})");
}

// ----- property 4: stopping-rule properties --------------------------

/// Stop epoch of `rule` on a synthetic stream (deterministic in `seed`).
fn stop_epoch(rule: &StoppingRule, seed: u64, mean: f64, sd: f64) -> u64 {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut state = SequentialMin::new();
    while !rule.should_stop(&state) {
        let draw = sample_normal(&mut rng, mean, sd).round().max(1.0) as u32;
        state.observe(Some(draw));
    }
    state.epochs()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The rule never stops before `min_epochs` and always stops by
    // `max_epochs`, whatever the stream.
    #[test]
    fn stop_epoch_respects_the_configured_bounds(
        seed in 0u64..1_000_000,
        min_epochs in 1u32..60,
        extra in 0u32..120,
    ) {
        let max_epochs = min_epochs + extra;
        let rule = StoppingRule::new(0.9, 0.05, min_epochs, max_epochs).unwrap();
        let at = stop_epoch(&rule, seed, 10_000.0, 300.0);
        prop_assert!(at >= u64::from(min_epochs), "stopped at {at} before floor {min_epochs}");
        prop_assert!(at <= u64::from(max_epochs), "stopped at {at} after ceiling {max_epochs}");
    }

    // On any fixed stream, a stricter confidence target never stops
    // earlier: the required quiet streak is monotone in confidence.
    #[test]
    fn stop_epoch_is_monotone_in_confidence(seed in 0u64..1_000_000) {
        let confidences = [0.5, 0.8, 0.9, 0.99];
        let mut last = 0u64;
        for c in confidences {
            let rule = StoppingRule::new(c, 0.05, 5, 100_000).unwrap();
            let at = stop_epoch(&rule, seed, 10_000.0, 300.0);
            prop_assert!(
                at >= last,
                "confidence {c} stopped at {at}, earlier than a weaker target ({last})"
            );
            last = at;
        }
    }
}
