//! Differential oracle for the memory-system loop.
//!
//! [`SteppedSystem`] is the plain per-ns loop: every simulated
//! nanosecond it offers every bank with a queued request one command,
//! whether or not that bank can issue. It is built only from the
//! crate's public API. [`System`] visits a bank only once
//! [`DramChannel::next_issue_at`] says it could issue; both must report
//! exactly the same [`SimStats`] for every mix, bank count, mitigation,
//! threshold, seed and run chunking.

use proptest::prelude::*;

use vrd_memsim::cpu::Core;
use vrd_memsim::dram::{DramChannel, DramTiming};
use vrd_memsim::mitigation::{Mitigation, MitigationAction};
use vrd_memsim::system::{SimConfig, SimStats, System};
use vrd_memsim::workload::{AccessStream, WorkloadParams};
use vrd_memsim::{MitigationConfig, MitigationKind, MitigationProfile};

/// Every mechanism, the baseline included.
const ALL_KINDS: [MitigationKind; 6] = [
    MitigationKind::None,
    MitigationKind::Graphene,
    MitigationKind::Para,
    MitigationKind::Prac,
    MitigationKind::Mint,
    MitigationKind::BlockHammer,
];

/// One queued request: (core, row, arrival ns).
type Request = (usize, u32, u64);

/// The reference loop: scans every bank's queue on every simulated ns.
struct SteppedSystem {
    cores: Vec<Core>,
    channel: DramChannel,
    queues: Vec<Vec<Request>>,
    completions: Vec<(u64, usize)>,
    mitigation: Box<dyn Mitigation>,
    now: u64,
}

impl SteppedSystem {
    fn new(cfg: &SimConfig, kind: MitigationKind, profile: &MitigationProfile, seed: u64) -> Self {
        let cores = cfg
            .mix
            .iter()
            .enumerate()
            .map(|(i, p)| Core::new(AccessStream::new(*p, cfg.banks, seed ^ (i as u64) << 32)))
            .collect();
        let mitigation_cfg = MitigationConfig::builder()
            .threshold(profile.min_threshold())
            .banks(cfg.banks)
            .seed(seed)
            .build();
        SteppedSystem {
            cores,
            channel: DramChannel::new(cfg.banks, DramTiming::default()),
            queues: vec![Vec::new(); cfg.banks],
            completions: Vec::new(),
            mitigation: kind.build_with_profile(&mitigation_cfg, profile),
            now: 0,
        }
    }

    fn run_for(&mut self, cycles: u64) {
        let end = self.now + cycles;
        while self.now < end {
            self.step();
        }
    }

    fn stats(&self) -> SimStats {
        SimStats {
            instructions: self.cores.iter().map(|c| c.instructions).collect(),
            cycles: self.now,
            activations: self.channel.total_activations(),
            preventive_ops: self.channel.preventive_ops,
            refreshes: self.channel.refreshes,
        }
    }

    fn step(&mut self) {
        let now = self.now;
        if self.channel.maybe_refresh(now) {
            let actions = self.mitigation.on_refresh(now);
            self.apply_actions(actions, now);
        }
        let mut i = 0;
        while i < self.completions.len() {
            if self.completions[i].0 <= now {
                let (_, core) = self.completions.swap_remove(i);
                self.cores[core].complete_miss();
            } else {
                i += 1;
            }
        }
        for (core_idx, core) in self.cores.iter_mut().enumerate() {
            core.step();
            if let Some(access) = core.take_request() {
                self.queues[access.bank].push((core_idx, access.row, now));
            }
        }
        for bank in 0..self.queues.len() {
            let Some(pick) = self.pick_request(bank) else {
                continue;
            };
            let row = self.queues[bank][pick].1;
            let was_hit = self.channel.is_row_hit(bank, row);
            if let Some(done_at) = self.channel.service(bank, row, now) {
                let (core, _, _) = self.queues[bank].swap_remove(pick);
                self.completions.push((done_at, core));
            } else if !was_hit && self.channel.is_row_hit(bank, row) {
                let actions = self.mitigation.on_activate(bank, row, now);
                self.apply_actions(actions, now);
            }
        }
        self.now += 1;
    }

    /// FR-FCFS: the oldest row hit, else the oldest request.
    fn pick_request(&self, bank: usize) -> Option<usize> {
        let queue = &self.queues[bank];
        let mut best: Option<(usize, bool, u64)> = None;
        for (i, &(_, row, arrival)) in queue.iter().enumerate() {
            let hit = self.channel.is_row_hit(bank, row);
            let better = match best {
                None => true,
                Some((_, best_hit, best_arrival)) => {
                    (hit && !best_hit) || (hit == best_hit && arrival < best_arrival)
                }
            };
            if better {
                best = Some((i, hit, arrival));
            }
        }
        best.map(|(i, _, _)| i)
    }

    fn apply_actions(&mut self, actions: Vec<MitigationAction>, now: u64) {
        let t_rfm = self.channel.timing().t_rfm;
        for action in actions {
            match action {
                MitigationAction::RefreshNeighbors { bank, .. } => {
                    self.channel.block_bank(bank, now, t_rfm)
                }
                MitigationAction::BlockBank { bank, duration } => {
                    self.channel.block_bank(bank, now, duration)
                }
                MitigationAction::BlockChannel { duration } => {
                    self.channel.block_all(now, duration)
                }
            }
        }
    }
}

fn stepped(
    cfg: &SimConfig,
    kind: MitigationKind,
    profile: &MitigationProfile,
    seed: u64,
) -> SimStats {
    let mut system = SteppedSystem::new(cfg, kind, profile, seed);
    system.run_for(cfg.cycles);
    system.stats()
}

fn config(mix: usize, banks: usize, cycles: u64) -> SimConfig {
    SimConfig { cycles, banks, mix: WorkloadParams::paper_mixes()[mix] }
}

/// A non-flat profile: `regions` thresholds of `region_rows` rows each.
fn profile(region_rows: u32, regions: Vec<u32>, fallback: u32) -> MitigationProfile {
    MitigationProfile {
        region_rows,
        regions,
        fallback_threshold: fallback,
        ..MitigationProfile::flat(fallback)
    }
}

/// Every mix × both bank counts × every mechanism, once each, at a
/// threshold and seed that vary with the combination.
#[test]
fn every_mix_bank_count_and_mechanism_matches_the_stepped_loop() {
    for mix in 0..15 {
        for banks in [8, 16] {
            for (k, kind) in ALL_KINDS.into_iter().enumerate() {
                let cfg = config(mix, banks, 6_000);
                let threshold = [1, 7, 64, 128, 500, 1024][(mix + k) % 6];
                let seed = (mix * 31 + banks * 7 + k) as u64;
                let want = stepped(&cfg, kind, &MitigationProfile::flat(threshold), seed);
                let got = System::run_mix(&cfg, kind, threshold, seed);
                assert_eq!(
                    got,
                    want,
                    "mix {mix}, {banks} banks, {} at threshold {threshold}, seed {seed}",
                    kind.name()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn run_mix_matches_the_stepped_loop(
        mix in 0usize..15,
        banks in prop_oneof![Just(8usize), Just(16usize)],
        kind in 0usize..6,
        threshold in 1u32..=1024,
        seed in any::<u64>(),
        cycles in 1u64..12_000,
    ) {
        let kind = ALL_KINDS[kind];
        let cfg = config(mix, banks, cycles);
        let want = stepped(&cfg, kind, &MitigationProfile::flat(threshold), seed);
        prop_assert_eq!(System::run_mix(&cfg, kind, threshold, seed), want);
    }

    #[test]
    fn run_mix_with_profile_matches_the_stepped_loop(
        mix in 0usize..15,
        banks in prop_oneof![Just(8usize), Just(16usize)],
        kind in 0usize..6,
        region_rows in 16u32..512,
        regions in prop::collection::vec(1u32..=1024, 1..6),
        fallback in 1u32..=1024,
        seed in any::<u64>(),
        cycles in 1u64..12_000,
    ) {
        let kind = ALL_KINDS[kind];
        let cfg = config(mix, banks, cycles);
        let profile = profile(region_rows, regions, fallback);
        let want = stepped(&cfg, kind, &profile, seed);
        prop_assert_eq!(System::run_mix_with_profile(&cfg, kind, &profile, seed), want);
    }

    #[test]
    fn chunked_run_for_matches_the_stepped_loop(
        mix in 0usize..15,
        banks in prop_oneof![Just(8usize), Just(16usize)],
        kind in 0usize..6,
        threshold in 1u32..=1024,
        seed in any::<u64>(),
        chunks in prop::collection::vec(0u64..4_000, 1..6),
    ) {
        let kind = ALL_KINDS[kind];
        let cfg = config(mix, banks, 0);
        let mut system = System::new(&cfg, kind, threshold, seed);
        let mut oracle = SteppedSystem::new(&cfg, kind, &MitigationProfile::flat(threshold), seed);
        for &chunk in &chunks {
            system.run_for(chunk);
            oracle.run_for(chunk);
            prop_assert_eq!(system.stats(), oracle.stats());
        }
    }
}
