//! Experiment scale options.
//!
//! Defaults finish each experiment in seconds to a few minutes in
//! `--release`; `--paper` switches every knob to the paper's full scale
//! (expect long runs, exactly like the paper's 29-day footnote warns).

use crate::sinks::LogFormat;

/// Scale and scope configuration shared by all experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Measurements per row for the foundational study (paper: 100,000).
    pub foundational_measurements: u32,
    /// Measurements per row per condition for the in-depth study
    /// (paper: 1,000).
    pub indepth_measurements: u32,
    /// Rows selected per segment in the in-depth study (paper: 50).
    pub picks_per_segment: usize,
    /// Confidence target of the discovery study's stopping rule.
    pub discovery_confidence: f64,
    /// Epoch floor of the discovery study (no row stops earlier).
    pub discovery_min_epochs: u32,
    /// Epoch ceiling of the discovery study (every row stops here at
    /// the latest; also the fixed budget the savings are quoted
    /// against).
    pub discovery_max_epochs: u32,
    /// Rows scanned per segment (paper: 1,024).
    pub segment_rows: u32,
    /// Use the paper's full 4×3×3 condition grid instead of the reduced
    /// 4×2×2 default.
    pub full_grid: bool,
    /// Guardbanded hammer trials per margin (paper: 10,000).
    pub guardband_trials: u32,
    /// Rows per module in the guardband experiment (paper: 50).
    pub guardband_rows: usize,
    /// Workload mixes for Fig. 14 (paper: 15).
    pub mixes: usize,
    /// Simulated nanoseconds per Fig.-14 run (paper: full workloads).
    pub sim_cycles: u64,
    /// Rows per mitigation-profile region in the spatial-aware defenses
    /// sweep (`--region-rows`; the default matches the device model's
    /// subarray size, so each region carries one subarray's spatial
    /// factor).
    pub region_rows: u32,
    /// Attacker activations per spatial-attack simulation in the
    /// defenses sweep (`--sweep-acts`).
    pub sweep_activations: u64,
    /// Module names to test; empty = the full Table-1 roster.
    pub modules: Vec<String>,
    /// Device-family scope (`--family ddr4|hbm2|all`), applied on top of
    /// the `--modules` filter.
    pub family: vrd_dram::fleet::FleetScope,
    /// Root RNG seed.
    pub seed: u64,
    /// Device-model row size in bytes (smaller is faster; the paper's
    /// rows are 8,192 bytes).
    pub row_bytes: u32,
    /// Output directory for JSON results.
    pub out_dir: String,
    /// Worker threads for campaign parallelism (0 = all cores).
    pub threads: usize,
    /// This process's shard of the module roster (with
    /// [`shard_count`](Self::shard_count); default `0` of `1` = no
    /// sharding). Sharding is round-robin over the roster and does not
    /// change any module's results — unit seeds derive from module
    /// names, not roster positions.
    pub shard_index: usize,
    /// Total shards the roster is split across.
    pub shard_count: usize,
    /// Root directory for crash-safe campaign checkpoints (`None` = no
    /// checkpointing). Each campaign keeps its journal in its own
    /// subdirectory (`<dir>/foundational`, `<dir>/in_depth`).
    pub checkpoint_dir: Option<String>,
    /// Continue from an existing checkpoint instead of refusing to
    /// touch it.
    pub resume: bool,
    /// Fault injection: simulate a crash (process exit) after this many
    /// units have been committed to the journal. Requires
    /// [`checkpoint_dir`](Self::checkpoint_dir).
    pub fail_after_units: Option<u64>,
    /// Write every campaign observability event as JSONL to this path
    /// (`--trace-out`; `None` = no trace).
    pub trace_out: Option<String>,
    /// Terminal output encoding (`--log-format human|json`).
    pub log_format: LogFormat,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            foundational_measurements: 10_000,
            indepth_measurements: 300,
            picks_per_segment: 10,
            discovery_confidence: 0.9,
            discovery_min_epochs: 10,
            discovery_max_epochs: 400,
            segment_rows: 256,
            full_grid: false,
            guardband_trials: 1_500,
            guardband_rows: 8,
            mixes: 5,
            sim_cycles: 400_000,
            region_rows: 512,
            sweep_activations: 300_000,
            modules: Vec::new(),
            family: vrd_dram::fleet::FleetScope::All,
            seed: 2025,
            row_bytes: 2048,
            out_dir: "results".to_owned(),
            threads: 0,
            shard_index: 0,
            shard_count: 1,
            checkpoint_dir: None,
            resume: false,
            fail_after_units: None,
            trace_out: None,
            log_format: LogFormat::Human,
        }
    }
}

impl Options {
    /// The paper's full scale.
    pub fn paper() -> Self {
        Options {
            foundational_measurements: 100_000,
            indepth_measurements: 1_000,
            picks_per_segment: 50,
            segment_rows: 1_024,
            full_grid: true,
            guardband_trials: 10_000,
            guardband_rows: 50,
            mixes: 15,
            sim_cycles: 2_000_000,
            sweep_activations: 2_000_000,
            discovery_max_epochs: 1_000,
            row_bytes: 8_192,
            ..Options::default()
        }
    }

    /// A minimal scale for integration tests.
    pub fn smoke() -> Self {
        Options {
            foundational_measurements: 60,
            indepth_measurements: 40,
            picks_per_segment: 2,
            segment_rows: 48,
            full_grid: false,
            guardband_trials: 60,
            guardband_rows: 2,
            mixes: 1,
            sim_cycles: 60_000,
            sweep_activations: 60_000,
            discovery_max_epochs: 120,
            modules: vec!["M1".into(), "S0".into(), "Chip1".into()],
            row_bytes: 512,
            threads: 2,
            ..Options::default()
        }
    }

    /// The module specs in scope: the roster (or `--modules` subset)
    /// restricted to the `--family` scope, reduced to this process's
    /// shard.
    pub fn specs(&self) -> Vec<vrd_dram::ModuleSpec> {
        let all = vrd_dram::ModuleSpec::table1();
        let scoped: Vec<vrd_dram::ModuleSpec> = all
            .into_iter()
            .filter(|s| self.modules.is_empty() || self.modules.iter().any(|m| m == &s.name))
            .filter(|s| self.family.admits(s.standard))
            .collect();
        vrd_dram::fleet::shard_specs(&scoped, self.shard_index, self.shard_count)
    }

    /// The executor configuration for campaign parallelism.
    pub fn exec_config(&self) -> vrd_core::exec::ExecConfig {
        vrd_core::exec::ExecConfig::new(self.threads, self.seed)
    }

    /// The discovery-campaign configuration at this scale. Selection
    /// parameters (segments, picks, seed, row size) match the in-depth
    /// campaign's, so both select identical rows.
    pub fn discovery_config(&self) -> vrd_core::discovery::DiscoveryConfig {
        vrd_core::discovery::DiscoveryConfig::builder()
            .confidence(self.discovery_confidence)
            .min_epochs(self.discovery_min_epochs)
            .max_epochs(self.discovery_max_epochs)
            .segment_rows(self.segment_rows)
            .picks_per_segment(self.picks_per_segment)
            .seed(self.seed)
            .row_bytes(self.row_bytes)
            .build()
    }

    /// The in-depth condition grid at this scale.
    pub fn condition_grid(&self) -> Vec<vrd_dram::TestConditions> {
        use vrd_dram::conditions::{T_AGG_ON_MIN_TRAS_NS, T_AGG_ON_TREFI_NS};
        use vrd_dram::{DataPattern, TestConditions};
        if self.full_grid {
            return TestConditions::full_grid();
        }
        let mut grid = Vec::new();
        for pattern in DataPattern::ALL {
            for t in [T_AGG_ON_MIN_TRAS_NS, T_AGG_ON_TREFI_NS] {
                for temp in [50.0, 80.0] {
                    grid.push(TestConditions { pattern, t_agg_on_ns: t, temperature_c: temp });
                }
            }
        }
        grid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scope_is_full_roster() {
        assert_eq!(Options::default().specs().len(), 25);
    }

    #[test]
    fn module_filter_applies() {
        let o = Options { modules: vec!["M1".into(), "Chip0".into()], ..Options::default() };
        let specs = o.specs();
        assert_eq!(specs.len(), 2);
    }

    #[test]
    fn family_filter_applies() {
        use vrd_dram::fleet::FleetScope;
        let ddr4 = Options { family: FleetScope::Ddr4, ..Options::default() };
        assert_eq!(ddr4.specs().len(), 21);
        let hbm2 = Options { family: FleetScope::Hbm2, ..Options::default() };
        assert_eq!(hbm2.specs().len(), 4);
        assert!(hbm2.specs().iter().all(|s| s.name.starts_with("Chip")));
        // Composes with --modules: intersection, not union.
        let mixed = Options {
            family: FleetScope::Hbm2,
            modules: vec!["M1".into(), "Chip0".into()],
            ..Options::default()
        };
        assert_eq!(mixed.specs().len(), 1);
        assert_eq!(mixed.specs()[0].name, "Chip0");
    }

    #[test]
    fn grids() {
        assert_eq!(Options::default().condition_grid().len(), 16);
        assert_eq!(Options::paper().condition_grid().len(), 36);
    }

    #[test]
    fn shard_options_split_the_scope() {
        let shards: Vec<Vec<String>> = (0..3)
            .map(|i| {
                let o = Options { shard_index: i, shard_count: 3, ..Options::default() };
                o.specs().into_iter().map(|s| s.name).collect()
            })
            .collect();
        assert_eq!(shards.iter().map(Vec::len).sum::<usize>(), 25);
        assert!(shards.iter().all(|s| !s.is_empty()));
    }

    #[test]
    fn paper_scale_matches_paper() {
        let p = Options::paper();
        assert_eq!(p.foundational_measurements, 100_000);
        assert_eq!(p.indepth_measurements, 1_000);
        assert_eq!(p.picks_per_segment, 50);
        assert_eq!(p.guardband_trials, 10_000);
        assert_eq!(p.mixes, 15);
    }
}
