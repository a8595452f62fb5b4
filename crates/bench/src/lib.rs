//! Shared fixtures for the bench targets.
//!
//! The crate keeps the Criterion benches of the layers
//! `perfbench --trace 1` does not trace (ECC, the estimator, the series
//! statistics, the subsampling analysis) and two emitters with
//! wall-time gates, `bench_batch_json` and `bench_fleet_service_json`.

use vrd_bender::TestPlatform;
use vrd_core::algorithm::{find_victim, test_loop_using, EvalStrategy, SearchStrategy, SweepSpec};
use vrd_core::RdtSeries;
use vrd_dram::{ModuleSpec, TestConditions};

/// Builds a ready-to-hammer platform for a Table-1 module with a located
/// victim row and its sweep.
fn prepared_platform(module: &str, seed: u64) -> (TestPlatform, u32, SweepSpec) {
    let spec = ModuleSpec::by_name(module).expect("module exists in Table 1");
    let mut platform = TestPlatform::for_module_with_row_bytes(spec, seed, 512);
    platform.set_temperature_c(50.0);
    let conditions = TestConditions::foundational();
    let (row, guess) =
        find_victim(&mut platform, 0, &conditions, 40_000, 2..20_000).expect("vulnerable row");
    (platform, row, SweepSpec::from_guess(guess))
}

/// One evaluation strategy's measured cost on a fresh, identically-seeded
/// platform: the series it measured plus the hammer sessions and wall
/// time `test_loop` spent (victim search excluded). Both strategies run
/// the adaptive search, so the session counts are identical and the
/// interesting ratio is sessions per second of wall time.
#[derive(Debug)]
pub struct EvalCost {
    /// The measured RDT series.
    pub series: RdtSeries,
    /// Hammer sessions spent by the `test_loop` alone.
    pub sessions: u64,
    /// Wall-clock time of the `test_loop`.
    pub wall: std::time::Duration,
}

/// Runs the foundational `test_loop` under one [`EvalStrategy`] and
/// reports its cost. Identical `(module, seed, measurements)` inputs
/// measure the identical series under either strategy.
pub fn eval_cost(module: &str, seed: u64, measurements: u32, eval: EvalStrategy) -> EvalCost {
    let (mut platform, row, sweep) = prepared_platform(module, seed);
    let conditions = TestConditions::foundational();
    let before = platform.hammer_sessions();
    let started = std::time::Instant::now();
    let series = test_loop_using(
        &mut platform,
        0,
        row,
        &conditions,
        measurements,
        &sweep,
        SearchStrategy::Adaptive,
        eval,
    );
    EvalCost { series, sessions: platform.hammer_sessions() - before, wall: started.elapsed() }
}

/// A deterministic synthetic series (no device in the loop) for
/// statistics benchmarks.
pub fn synthetic_series(len: usize) -> RdtSeries {
    let values: Vec<u32> =
        (0..len).map(|i| 4_000 + ((i * 2_654_435_761) % 37) as u32 * 20).collect();
    RdtSeries::new(values, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let (platform, row, sweep) = prepared_platform("M1", 3);
        assert!(row > 0);
        assert!(!sweep.is_empty());
        assert!(platform.spec().is_some());
        let series = synthetic_series(100);
        assert_eq!(series.len(), 100);
    }
}
