//! Fixed-seed golden snapshots for the extension experiments (ablation,
//! security sweep, online profiling) and the ECC Table-3 path.
//!
//! The parallel-determinism suite pins the two core campaigns; these
//! goldens extend the same byte-level regression net over the
//! evaluation's remaining entry points, so a model or RNG change that
//! shifts any downstream number is caught at review time, not after.
//!
//! To bless after an intentional model change:
//!
//! ```text
//! UPDATE_GOLDEN=golden_extensions cargo test --test golden_extensions
//! ```

#[path = "util/golden.rs"]
mod golden;

use vrd::memsim::security::{security_sweep, AttackConfig};
use vrd::memsim::MitigationKind;
use vrd_experiments::extensions::SecurityRow;
use vrd_experiments::foundational::FoundationalStudy;
use vrd_experiments::{ecc_exp, extensions, foundational, Options};

/// Compares `actual` against `tests/golden/<name>`, or rewrites the
/// file when `UPDATE_GOLDEN` names this suite (see `tests/util/golden.rs`).
fn assert_golden(name: &str, actual: &str) {
    golden::assert_golden("golden_extensions", name, actual);
}

/// Fixed-scale options shared by the extension goldens. Smoke scale
/// but with an explicit roster and enough measurements for the security
/// sweep's `len() >= 100` candidate filter.
fn golden_opts() -> Options {
    Options {
        foundational_measurements: 300,
        modules: vec!["M1".into(), "S2".into()],
        seed: 2025,
        threads: 1,
        ..Options::smoke()
    }
}

fn pretty<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("serializable result")
}

#[test]
fn golden_ablation_seed_2025() {
    assert_golden("ablation_seed_2025.json", &pretty(&extensions::ablation(&golden_opts())));
}

#[test]
fn golden_security_seed_2025() {
    let opts = golden_opts();
    let study = foundational::run(&opts);
    assert_golden("security_seed_2025.json", &pretty(&extensions::security(&study, &opts)));
}

#[test]
fn golden_online_seed_2025() {
    let result = extensions::online(&golden_opts()).expect("online profiling finds a victim");
    assert_golden("online_seed_2025.json", &pretty(&result));
}

#[test]
fn golden_ecc_table3_seed_2025() {
    assert_golden("ecc_table3_seed_2025.json", &pretty(&ecc_exp::run_paper(5_000, 2025)));
}

#[test]
fn extension_goldens_are_thread_invariant() {
    // The goldens above run serial; the same entry points at 4 threads
    // must not drift (they share the deterministic executor contract).
    let mut opts = golden_opts();
    opts.threads = 4;
    assert_golden(
        "security_seed_2025.json",
        &pretty(&extensions::security(&foundational::run(&opts), &opts)),
    );
}

/// The security rows as the serial loop computes them: the candidates
/// with at least 100 measurements, widest max/min ratio first, at most
/// four, each swept with `security_sweep` for Graphene, PARA and PRAC in
/// turn on one thread.
fn serial_security(study: &FoundationalStudy, opts: &Options) -> Vec<SecurityRow> {
    let mut candidates: Vec<_> =
        study.per_module.iter().filter(|r| r.series.len() >= 100).collect();
    candidates.sort_by(|a, b| {
        let ra = a.series.max_over_min().unwrap_or(1.0);
        let rb = b.series.max_over_min().unwrap_or(1.0);
        rb.partial_cmp(&ra).expect("finite ratios")
    });
    let mut rows = Vec::new();
    for result in candidates.into_iter().take(4) {
        let config = AttackConfig {
            activations: 4_000_000,
            rdt_distribution: result.series.values().to_vec(),
            seed: opts.seed,
        };
        for kind in [MitigationKind::Graphene, MitigationKind::Para, MitigationKind::Prac] {
            let sweep = security_sweep(kind, &config, 1);
            rows.push(SecurityRow {
                module: result.module.clone(),
                mitigation: kind,
                estimate_n: 1,
                points: sweep.points,
                true_min: sweep.true_min,
                estimated_min: sweep.estimated_min,
            });
        }
    }
    rows
}

#[test]
fn security_matches_the_serial_sweep_at_any_thread_count() {
    // `extensions::security` runs each attack as an executor unit; every
    // field of every row must equal the serial loop's at any thread
    // count. One module keeps the debug-build run short; the two-module
    // row order is pinned by the security golden at 1 and 4 threads.
    let mut opts = Options { modules: vec!["M1".into()], ..golden_opts() };
    let study = foundational::run(&opts);
    let oracle = serial_security(&study, &opts);
    assert_eq!(oracle.len(), 3, "M1 is a candidate, swept with three mechanisms");
    for threads in [1, 2, 8] {
        opts.threads = threads;
        assert_eq!(extensions::security(&study, &opts), oracle, "{threads} threads");
    }
}
