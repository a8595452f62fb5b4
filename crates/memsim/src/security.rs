//! Security analysis: do mitigations configured with a *measured* RDT
//! actually prevent bitflips when the row's true threshold varies?
//!
//! This operationalizes the paper's central claim (§6.1): "the RDT value
//! used to configure a mitigation technique cannot be larger than the
//! one experienced (at any time) by any victim DRAM row … otherwise the
//! mitigation's security guarantees are compromised."
//!
//! The model: an attacker hammers one aggressor row continuously. The
//! victim's *instantaneous* RDT for each inter-refresh epoch is drawn
//! from an empirical VRD distribution (e.g. a measured
//! `vrd-core` series). The mitigation — configured with some threshold —
//! occasionally refreshes the victim, resetting the accumulated hammer
//! count. An **escape** occurs whenever the accumulated count reaches
//! the epoch's true RDT before a preventive refresh lands.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

use crate::mitigation::{Mitigation, MitigationAction, MitigationConfig, MitigationKind};

/// Configuration of one attack simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackConfig {
    /// Total aggressor activations the attacker issues.
    pub activations: u64,
    /// The victim row's empirical RDT distribution (drawn per epoch).
    pub rdt_distribution: Vec<u32>,
    /// RNG seed.
    pub seed: u64,
}

impl AttackConfig {
    /// A default attack of 2M activations against the given measured
    /// distribution.
    pub fn new(rdt_distribution: Vec<u32>, seed: u64) -> Self {
        assert!(!rdt_distribution.is_empty(), "need a non-empty RDT distribution");
        AttackConfig { activations: 2_000_000, rdt_distribution, seed }
    }
}

/// Result of one attack simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AttackResult {
    /// Activations issued.
    pub activations: u64,
    /// Preventive refreshes the mitigation performed on the victim.
    pub preventive_refreshes: u64,
    /// Escapes: epochs in which the accumulated count reached the true
    /// RDT before a preventive refresh.
    pub escapes: u64,
}

impl AttackResult {
    /// Escapes per million attacker activations.
    pub fn escapes_per_million(&self) -> f64 {
        self.escapes as f64 / (self.activations as f64 / 1e6)
    }

    /// Whether the mitigation held (no escape at all).
    pub fn secure(&self) -> bool {
        self.escapes == 0
    }
}

/// Simulates a continuous one-row hammer attack against a mitigation
/// configured with `configured_threshold`.
///
/// The victim's true RDT is redrawn from the empirical distribution
/// after every restoration of the victim (preventive refresh or escape),
/// modelling VRD's unpredictable epoch-to-epoch threshold changes.
pub fn simulate_attack(
    kind: MitigationKind,
    configured_threshold: u32,
    config: &AttackConfig,
) -> AttackResult {
    let mut rng = ChaCha12Rng::seed_from_u64(config.seed);
    let mut mitigation = kind.build_with(
        &MitigationConfig::builder()
            .threshold(configured_threshold)
            .banks(1)
            .seed(config.seed)
            .build(),
    );
    let dist = &config.rdt_distribution;
    let draw_rdt = |rng: &mut ChaCha12Rng| -> u64 { u64::from(dist[rng.gen_range(0..dist.len())]) };

    let bank = 0usize;
    let aggressor_row = 7u32;
    let mut accumulated = 0u64;
    let mut true_rdt = draw_rdt(&mut rng);
    let mut escapes = 0u64;
    let mut preventive = 0u64;
    // The attacker saturates one bank: one ACT per tRC (46 ns), slowed
    // down by any blocking actions (throttling, back-offs). The victim
    // is restored by periodic refresh once per tREFW of wall-clock time.
    const T_RC_NS: u64 = 46;
    const T_REFW_NS: u64 = 32_000_000;
    let mut time_ns = 0u64;
    let mut next_periodic = T_REFW_NS;

    for act in 0..config.activations {
        time_ns += T_RC_NS;
        accumulated += 1;
        let mut restored = false;
        if accumulated >= true_rdt {
            escapes += 1;
            restored = true;
        }
        for action in mitigation.on_activate(bank, aggressor_row, act) {
            match action {
                MitigationAction::RefreshNeighbors { .. } => {
                    preventive += 1;
                    restored = true;
                }
                // Blocking actions slow the attacker down but do not
                // restore the victim directly.
                MitigationAction::BlockBank { duration, .. }
                | MitigationAction::BlockChannel { duration } => {
                    time_ns += duration;
                }
            }
        }
        while time_ns >= next_periodic {
            next_periodic += T_REFW_NS;
            restored = true;
            // MINT's REF-time mitigation also lands here.
            for action in mitigation.on_refresh(act) {
                if matches!(action, MitigationAction::RefreshNeighbors { .. }) {
                    preventive += 1;
                }
            }
        }
        if restored {
            accumulated = 0;
            true_rdt = draw_rdt(&mut rng);
        }
    }
    AttackResult { activations: config.activations, preventive_refreshes: preventive, escapes }
}

/// Sweeps configured thresholds derived from N-measurement estimates of
/// the distribution's minimum with different guardbands, reporting the
/// escape rate of each — the "inaccurate RDT ⇒ insecure" curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SecuritySweep {
    /// `(margin, configured threshold, escapes per million)` rows.
    pub points: Vec<(f64, u32, f64)>,
    /// The distribution's true minimum.
    pub true_min: u32,
    /// The N-measurement estimate the margins were applied to.
    pub estimated_min: u32,
}

/// The configurations a [`security_sweep`] attacks: the N-measurement
/// estimate of the distribution's minimum and the thresholds its
/// margins derive from it. Independent of the mitigation, so one plan
/// serves every mechanism swept against the same distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPlan {
    /// `(margin, configured threshold)` pairs, narrowest margin first.
    pub configured: [(f64, u32); 4],
    /// The distribution's true minimum.
    pub true_min: u32,
    /// The N-measurement estimate the margins were applied to.
    pub estimated_min: u32,
}

/// Plans a security sweep: estimates the minimum from `estimate_n`
/// random draws (as a vendor with limited test time would), then
/// configures with margins `0%, 10%, 25%, 50%` below that estimate.
pub fn plan_security_sweep(config: &AttackConfig, estimate_n: usize) -> SweepPlan {
    let mut rng = ChaCha12Rng::seed_from_u64(config.seed ^ 0xEC0);
    let dist = &config.rdt_distribution;
    let estimated_min = (0..estimate_n.max(1))
        .map(|_| dist[rng.gen_range(0..dist.len())])
        .min()
        .expect("estimate_n >= 1");
    let true_min = *dist.iter().min().expect("non-empty");
    let configured = [0.0f64, 0.10, 0.25, 0.50].map(|margin| {
        (margin, ((f64::from(estimated_min)) * (1.0 - margin)).floor().max(1.0) as u32)
    });
    SweepPlan { configured, true_min, estimated_min }
}

/// Runs the sweep for one mitigation: attacks every configuration of
/// [`plan_security_sweep`] in margin order.
pub fn security_sweep(
    kind: MitigationKind,
    config: &AttackConfig,
    estimate_n: usize,
) -> SecuritySweep {
    let plan = plan_security_sweep(config, estimate_n);
    let points = plan
        .configured
        .iter()
        .map(|&(margin, configured)| {
            (margin, configured, simulate_attack(kind, configured, config).escapes_per_million())
        })
        .collect();
    SecuritySweep { points, true_min: plan.true_min, estimated_min: plan.estimated_min }
}

/// One victim in a spatial multi-row attack.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpatialVictim {
    /// The victim's row number (its aggressor hammers the same row
    /// address in this single-aggressor model).
    pub row: u32,
    /// True-RDT multiplier relative to the weakest victim (≥ 1 for
    /// spatially stronger rows; the weakest victim has factor 1).
    pub factor: f64,
}

/// Configuration of a spatial multi-row attack: the attacker round-robin
/// hammers one representative victim per bank region, so a defense pays
/// for every region it guards while only the weakest region constrains
/// security.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpatialAttackConfig {
    /// Total attacker activations (spread round-robin over the victims).
    pub activations: u64,
    /// Empirical RDT distribution of the *weakest* victim; each victim's
    /// epoch RDT is a draw scaled by its spatial factor.
    pub rdt_distribution: Vec<u32>,
    /// The victims under attack.
    pub victims: Vec<SpatialVictim>,
    /// RNG seed.
    pub seed: u64,
}

impl SpatialAttackConfig {
    /// A default attack of 2M activations.
    pub fn new(rdt_distribution: Vec<u32>, victims: Vec<SpatialVictim>, seed: u64) -> Self {
        assert!(!rdt_distribution.is_empty(), "need a non-empty RDT distribution");
        assert!(!victims.is_empty(), "need at least one victim");
        assert!(victims.iter().all(|v| v.factor >= 1.0), "factors are relative to the weakest");
        SpatialAttackConfig { activations: 2_000_000, rdt_distribution, victims, seed }
    }
}

/// Result of one spatial multi-row attack simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpatialAttackResult {
    /// Activations issued.
    pub activations: u64,
    /// Preventive victim refreshes the mitigation performed.
    pub preventive_refreshes: u64,
    /// Total mitigation actions issued (refreshes + blocking actions) —
    /// the overhead axis of the attack-vs-defense tradeoff.
    pub actions: u64,
    /// Attacker time lost to blocking actions (ns).
    pub blocked_ns: u64,
    /// Escapes across all victims.
    pub escapes: u64,
    /// Escapes per victim, in `victims` order.
    pub per_victim_escapes: Vec<u64>,
}

impl SpatialAttackResult {
    /// Escapes per million attacker activations.
    pub fn escapes_per_million(&self) -> f64 {
        self.escapes as f64 / (self.activations as f64 / 1e6)
    }

    /// Whether the mitigation held everywhere (no escape on any victim).
    pub fn secure(&self) -> bool {
        self.escapes == 0
    }
}

/// Simulates a round-robin multi-row hammer attack against an already
/// built mitigation (use [`MitigationKind::build_with_profile`] for the
/// profile-driven variants).
///
/// Timing follows [`simulate_attack`] (one ACT per tRC, blocking actions
/// slow the attacker, periodic refresh restores every victim once per
/// tREFW) with one refinement: the mitigation's `on_refresh` hook runs
/// once per tREFI rather than once per tREFW, which models MINT's
/// REF-time mitigation at its real cadence.
pub fn simulate_spatial_attack(
    mitigation: &mut dyn Mitigation,
    config: &SpatialAttackConfig,
) -> SpatialAttackResult {
    simulate_spatial_attack_seeded(mitigation, config, config.seed)
}

/// [`simulate_spatial_attack`] with the attack's RNG seeded from `seed`
/// instead of `config.seed`, so attacks that differ only in their seed
/// share one configuration (and its distribution) instead of each
/// cloning it.
pub fn simulate_spatial_attack_seeded(
    mitigation: &mut dyn Mitigation,
    config: &SpatialAttackConfig,
    seed: u64,
) -> SpatialAttackResult {
    const T_RC_NS: u64 = 46;
    const T_REFI_NS: u64 = 3_900;
    const T_REFW_NS: u64 = 32_000_000;

    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let dist = &config.rdt_distribution;
    let draw_rdt = |rng: &mut ChaCha12Rng, factor: f64| -> u64 {
        let base = f64::from(dist[rng.gen_range(0..dist.len())]);
        (base * factor).round().max(1.0) as u64
    };

    let n = config.victims.len();
    let mut accumulated = vec![0u64; n];
    let mut true_rdt: Vec<u64> =
        config.victims.iter().map(|v| draw_rdt(&mut rng, v.factor)).collect();
    let mut per_victim_escapes = vec![0u64; n];
    let mut escapes = 0u64;
    let mut preventive = 0u64;
    let mut actions = 0u64;
    let mut blocked_ns = 0u64;
    let mut time_ns = 0u64;
    let mut next_refi = T_REFI_NS;
    let mut next_periodic = T_REFW_NS;

    let bank = 0usize;
    let victim_index =
        |row: u32| -> Option<usize> { config.victims.iter().position(|v| v.row == row) };

    let mut restore = vec![false; n];
    for act in 0..config.activations {
        let v = (act % n as u64) as usize;
        time_ns += T_RC_NS;
        accumulated[v] += 1;
        restore.iter_mut().for_each(|r| *r = false);
        if accumulated[v] >= true_rdt[v] {
            escapes += 1;
            per_victim_escapes[v] += 1;
            restore[v] = true;
        }
        for action in mitigation.on_activate(bank, config.victims[v].row, act) {
            actions += 1;
            match action {
                MitigationAction::RefreshNeighbors { row, .. } => {
                    preventive += 1;
                    if let Some(i) = victim_index(row) {
                        restore[i] = true;
                    }
                }
                MitigationAction::BlockBank { duration, .. }
                | MitigationAction::BlockChannel { duration } => {
                    time_ns += duration;
                    blocked_ns += duration;
                }
            }
        }
        while time_ns >= next_refi {
            next_refi += T_REFI_NS;
            for action in mitigation.on_refresh(act) {
                actions += 1;
                if let MitigationAction::RefreshNeighbors { row, .. } = action {
                    preventive += 1;
                    if let Some(i) = victim_index(row) {
                        restore[i] = true;
                    }
                }
            }
        }
        while time_ns >= next_periodic {
            next_periodic += T_REFW_NS;
            restore.iter_mut().for_each(|r| *r = true);
        }
        for (i, flagged) in restore.iter().enumerate() {
            if *flagged {
                accumulated[i] = 0;
                true_rdt[i] = draw_rdt(&mut rng, config.victims[i].factor);
            }
        }
    }
    SpatialAttackResult {
        activations: config.activations,
        preventive_refreshes: preventive,
        actions,
        blocked_ns,
        escapes,
        per_victim_escapes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A VRD-like distribution: bulk near 5000, rare dips to 3500.
    fn vrd_distribution() -> Vec<u32> {
        let mut d: Vec<u32> = (0..990).map(|i| 4_800 + (i % 17) * 25).collect();
        d.extend([3_500, 3_520, 3_540, 3_560, 3_580, 3_600, 3_650, 3_700, 3_750, 3_800]);
        d
    }

    #[test]
    fn correctly_configured_graphene_is_secure() {
        // Configured at the true minimum: Graphene refreshes at
        // threshold/4, far before any epoch's RDT.
        let config = AttackConfig::new(vrd_distribution(), 1);
        let result = simulate_attack(MitigationKind::Graphene, 3_500, &config);
        assert!(result.secure(), "true-min config must hold, {} escapes", result.escapes);
        assert!(result.preventive_refreshes > 0);
    }

    #[test]
    fn overconfigured_graphene_leaks() {
        // Configured with the *bulk* RDT (as a few measurements would
        // suggest): rare low-RDT epochs escape.
        let config = AttackConfig::new(vrd_distribution(), 2);
        let result = simulate_attack(MitigationKind::Graphene, 3_500 * 5, &config);
        assert!(
            !result.secure(),
            "a 5x-too-high configuration must leak (trigger = threshold/4 > low epochs)"
        );
    }

    #[test]
    fn guardband_reduces_escapes_monotonically() {
        let config = AttackConfig::new(vrd_distribution(), 3);
        // Estimate from only 3 measurements: almost surely misses the
        // 1% low tail.
        let sweep = security_sweep(MitigationKind::Graphene, &config, 3);
        assert!(sweep.estimated_min >= sweep.true_min);
        let rates: Vec<f64> = sweep.points.iter().map(|(_, _, r)| *r).collect();
        for pair in rates.windows(2) {
            assert!(pair[1] <= pair[0] + 1e-9, "wider margins must not leak more: {rates:?}");
        }
    }

    #[test]
    fn prac_secure_when_configured_at_true_min() {
        let config = AttackConfig::new(vrd_distribution(), 4);
        let result = simulate_attack(MitigationKind::Prac, 3_500, &config);
        assert!(result.secure(), "{} escapes", result.escapes);
    }

    #[test]
    fn para_escape_rate_shrinks_with_lower_threshold() {
        let config = AttackConfig::new(vrd_distribution(), 5);
        let loose = simulate_attack(MitigationKind::Para, 12_000, &config);
        let tight = simulate_attack(MitigationKind::Para, 3_500, &config);
        assert!(tight.escapes <= loose.escapes);
    }

    #[test]
    fn blockhammer_throttling_is_secure_at_true_min() {
        // Throttling never refreshes the victim, but it stretches the
        // attack across refresh windows so the threshold is unreachable.
        let config = AttackConfig::new(vrd_distribution(), 7);
        let result = simulate_attack(MitigationKind::BlockHammer, 3_500, &config);
        assert!(result.secure(), "{} escapes", result.escapes);
    }

    #[test]
    fn baseline_always_leaks() {
        let config = AttackConfig::new(vrd_distribution(), 6);
        let result = simulate_attack(MitigationKind::None, 3_500, &config);
        assert!(result.escapes > 100, "no mitigation ⇒ steady escapes, got {}", result.escapes);
    }

    #[test]
    fn escape_rate_units() {
        let r = AttackResult { activations: 2_000_000, preventive_refreshes: 0, escapes: 4 };
        assert!((r.escapes_per_million() - 2.0).abs() < 1e-12);
    }

    use crate::profile::MitigationProfile;

    /// Four regions of 100 rows whose spatial strength doubles per
    /// region; one victim (the region's weakest row) per region.
    fn spatial_scenario(seed: u64) -> (SpatialAttackConfig, MitigationProfile) {
        let victims = vec![
            SpatialVictim { row: 0, factor: 1.0 },
            SpatialVictim { row: 100, factor: 2.0 },
            SpatialVictim { row: 200, factor: 4.0 },
            SpatialVictim { row: 300, factor: 8.0 },
        ];
        let mut attack = SpatialAttackConfig::new(vrd_distribution(), victims, seed);
        attack.activations = 400_000;
        let profile = MitigationProfile {
            region_rows: 100,
            regions: vec![3_500, 7_000, 14_000, 28_000],
            fallback_threshold: 3_500,
            ..MitigationProfile::flat(3_500)
        };
        (attack, profile)
    }

    #[test]
    fn spatial_profile_matches_uniform_coverage_at_lower_overhead() {
        let (attack, profile) = spatial_scenario(11);
        let cfg = MitigationConfig::builder().threshold(3_500).banks(1).seed(11).build();
        for kind in [MitigationKind::Graphene, MitigationKind::Prac] {
            let mut uniform = kind.build_with(&cfg);
            let mut profiled = kind.build_with_profile(&cfg, &profile);
            let u = simulate_spatial_attack(uniform.as_mut(), &attack);
            let p = simulate_spatial_attack(profiled.as_mut(), &attack);
            assert!(u.secure(), "{}: uniform worst-case must hold", kind.name());
            assert!(p.secure(), "{}: profile-driven must hold", kind.name());
            assert!(
                p.actions < u.actions,
                "{}: profile must act less ({} vs {})",
                kind.name(),
                p.actions,
                u.actions
            );
        }
    }

    #[test]
    fn seeded_spatial_attack_matches_a_config_with_that_seed() {
        let (mut attack, _) = spatial_scenario(11);
        attack.activations = 50_000;
        let cfg = MitigationConfig::builder().threshold(3_500).banks(1).seed(23).build();
        let mut shared = MitigationKind::Para.build_with(&cfg);
        let seeded = simulate_spatial_attack_seeded(shared.as_mut(), &attack, 23);
        attack.seed = 23;
        let mut own = MitigationKind::Para.build_with(&cfg);
        assert_eq!(simulate_spatial_attack(own.as_mut(), &attack), seeded);
    }

    #[test]
    fn spatially_unaware_estimate_leaks_on_the_weak_region() {
        // A characterization that sampled only the strongest region
        // would configure threshold 28000 everywhere.
        let (attack, _) = spatial_scenario(13);
        let cfg = MitigationConfig::builder().threshold(28_000).banks(1).seed(13).build();
        let mut naive = MitigationKind::Graphene.build_with(&cfg);
        let result = simulate_spatial_attack(naive.as_mut(), &attack);
        assert!(!result.secure(), "an 8x-too-high uniform threshold must leak");
        assert!(
            result.per_victim_escapes[0] > 0,
            "escapes concentrate on the weakest region: {:?}",
            result.per_victim_escapes
        );
    }

    #[test]
    fn spatial_baseline_leaks_everywhere() {
        let (attack, _) = spatial_scenario(17);
        let mut baseline = MitigationKind::None
            .build_with(&MitigationConfig::builder().threshold(3_500).banks(1).build());
        let result = simulate_spatial_attack(baseline.as_mut(), &attack);
        assert!(result.escapes > 0);
        assert!(
            result.per_victim_escapes.iter().all(|&e| e > 0),
            "every victim must flip without mitigation: {:?}",
            result.per_victim_escapes
        );
    }
}
