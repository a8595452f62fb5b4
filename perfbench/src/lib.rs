//! The repository benchmark: end-to-end and per-layer cost of four
//! workloads driven in-process through the experiment crate's public
//! entry points.
//!
//! | Workload | What it drives | Layer it stresses |
//! |---|---|---|
//! | [`fig14`] | `memsim_exp::run` (Fig. 14 overhead sweep) | memsim system loop |
//! | [`characterize`] | foundational, in-depth, discovery, guardband | device path + executor |
//! | [`attack`] | `extensions::security` + `sweep_exp::run_with` | memsim mitigation under attack |
//! | [`service`] | `Service::boot` + `worker_loop` + HTTP `POST /jobs` | scheduler, checkpoint, HTTP, event fan-out |
//!
//! Every workload measures untraced (the default `NullObserver`) unless
//! `--trace 1` asks for the per-layer ledger, which attaches a
//! [`recorder::Recorder`] and probes each layer's public API.

pub mod attack;
pub mod characterize;
pub mod fig14;
pub mod harness;
pub mod recorder;
pub mod service;
pub mod stats;

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["fig14", "characterize", "attack", "service"];

/// The seed whose output digests are committed in `digests.json`.
pub const COMMITTED_SEED: u64 = 2025;

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("success_rate", "ratio"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run. A
/// layer a workload does not reach reports 0.
pub const PER_LAYER: [(&str, &str); 55] = [
    // vrd-experiments: one span per experiment call.
    ("exp.fig14.wall_s", "s"),
    ("exp.foundational.wall_s", "s"),
    ("exp.in_depth.wall_s", "s"),
    ("exp.discovery.wall_s", "s"),
    ("exp.guardband.wall_s", "s"),
    ("exp.security.wall_s", "s"),
    ("exp.memsim_sweep.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    // vrd-memsim system: the distinct Fig.-14 simulations.
    ("memsim.run_mix.calls", "count"),
    ("memsim.run_mix.busy_s", "s"),
    ("memsim.run_mix.host_ns_per_sim_ns", "ns/ns"),
    ("memsim.run_mix.none.host_ns_per_sim_ns", "ns/ns"),
    ("memsim.run_mix.graphene.host_ns_per_sim_ns", "ns/ns"),
    ("memsim.run_mix.prac.host_ns_per_sim_ns", "ns/ns"),
    ("memsim.run_mix.para.host_ns_per_sim_ns", "ns/ns"),
    ("memsim.run_mix.mint.host_ns_per_sim_ns", "ns/ns"),
    ("memsim.activations", "count"),
    ("memsim.preventive_ops", "count"),
    ("memsim.refreshes", "count"),
    ("fig14.driver_ratio", "ratio"),
    // vrd-memsim security/profile: mitigations under attack.
    ("memsim.attack.calls", "count"),
    ("memsim.attack.busy_s", "s"),
    ("memsim.attack.host_ns_per_act", "ns"),
    ("memsim.spatial_attack.calls", "count"),
    ("memsim.spatial_attack.busy_s", "s"),
    ("memsim.spatial_attack.host_ns_per_act", "ns"),
    ("memsim.attack.graphene.host_ns_per_act", "ns"),
    ("memsim.attack.prac.host_ns_per_act", "ns"),
    ("memsim.attack.para.host_ns_per_act", "ns"),
    ("memsim.attack.mint.host_ns_per_act", "ns"),
    // vrd-core::exec: from Observer unit and phase events.
    ("exec.units", "count"),
    ("exec.unit_busy_s", "s"),
    ("exec.utilization", "ratio"),
    ("exec.critical_unit_s", "s"),
    ("exec.phase.foundational.measure.wall_s", "s"),
    ("exec.phase.in_depth.select.wall_s", "s"),
    ("exec.phase.in_depth.measure.wall_s", "s"),
    ("exec.phase.discovery.select.wall_s", "s"),
    ("exec.phase.discovery.discover.wall_s", "s"),
    // Device path (vrd-core::algorithm, vrd-bender, vrd-dram): Progress.
    ("device.hammer_sessions", "count"),
    ("device.measurement_epochs", "count"),
    ("device.sessions_per_epoch", "ratio"),
    ("device.host_ns_per_session", "ns"),
    ("device.sim_test_s", "s"),
    // vrd-core::checkpoint: commit events and on-disk journals.
    ("checkpoint.commits", "count"),
    ("checkpoint.commit_p50_us", "us"),
    ("checkpoint.commit_p99_us", "us"),
    ("checkpoint.journal_bytes", "bytes"),
    // vrd-core::scheduler + serve: the front end as a client sees it.
    ("service.submit_p50_ms", "ms"),
    ("service.submit_p99_ms", "ms"),
    ("service.queue_wait_p50_s", "s"),
    ("service.run_p50_s", "s"),
    ("service.state_dir_bytes", "bytes"),
    ("service.events", "count"),
    ("loadgen.late_p90_ms", "ms"),
];

/// Input size of a run: `Full` is what the benchmark measures, `Tiny`
/// only proves in the self-test that every workload completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// A seconds-long smoke size for the self-test.
    Tiny,
}

/// Compute threads a workload may use: two, or fewer on a smaller host.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

/// Lower-case metric key of a mitigation mechanism.
pub fn kind_key(kind: vrd_memsim::MitigationKind) -> &'static str {
    use vrd_memsim::MitigationKind as K;
    match kind {
        K::None => "none",
        K::Graphene => "graphene",
        K::Para => "para",
        K::Prac => "prac",
        K::Mint => "mint",
        K::BlockHammer => "blockhammer",
    }
}
