//! The assembled test platform: device + timing + thermal rig +
//! interference controls (paper §3).
//!
//! A [`TestPlatform`] is the software analogue of the paper's
//! host-machine + FPGA + heater setup: it owns one device under test,
//! executes programs with JEDEC timing, regulates temperature, and
//! implements the §3.1 methodology of disabling interference sources
//! (periodic refresh → TRR, on-die ECC).

use vrd_dram::device::{DeviceConfig, DramDevice};
use vrd_dram::spec::ModuleSpec;
use vrd_dram::{DramError, RowBatchProfile, TestConditions};

use crate::estimate::EnergyModel;
use crate::program::{execute, ExecStats, Program, ProgramCache, ProgramKey};
use crate::routines::BURSTS_PER_ROW;
use crate::thermal::ThermalController;
use crate::timing::TimingParams;

/// One measurement epoch prepared for batched hammer sessions.
///
/// Wraps the device-side [`RowBatchProfile`] together with the
/// platform-side constants a session charges: the pre-folded per-program
/// time/energy figures, accumulated in the same `f64` operation order as
/// [`crate::program::execute`] so batched bookkeeping stays bitwise
/// identical to running the programs. No command program is built or
/// fetched.
#[derive(Debug, Clone)]
pub struct BatchMeasurement {
    profile: RowBatchProfile,
    /// Elapsed time of one init program (Act + 128 write bursts + Pre).
    init_elapsed_ns: f64,
    /// Energy of one init program.
    init_energy_nj: f64,
    /// Elapsed time per hammer activation (`max(t_AggOn, t_RAS) + t_RP`).
    hammer_per_act_ns: f64,
}

impl BatchMeasurement {
    /// The prepared device-side row profile.
    pub fn profile(&self) -> &RowBatchProfile {
        &self.profile
    }

    /// Measurement epoch the batch was prepared for.
    pub fn epoch(&self) -> u64 {
        self.profile.epoch()
    }
}

/// A DRAM module under test, with timing, thermal control, and
/// interference configuration.
#[derive(Debug)]
pub struct TestPlatform {
    device: DramDevice,
    spec: Option<ModuleSpec>,
    timing: TimingParams,
    thermal: ThermalController,
    refresh_enabled: bool,
    elapsed_ns: f64,
    next_refresh_ns: f64,
    energy: EnergyModel,
    energy_nj: f64,
    programs: ProgramCache,
    hammer_sessions: u64,
    measurement_epoch: u64,
}

impl TestPlatform {
    /// Assembles a platform around an existing device.
    pub fn new(device: DramDevice, timing: TimingParams) -> Self {
        let ambient = 25.0;
        TestPlatform {
            thermal: ThermalController::new(ambient, device.temperature_c()),
            device,
            spec: None,
            timing,
            refresh_enabled: false,
            elapsed_ns: 0.0,
            next_refresh_ns: 0.0,
            energy: EnergyModel::default(),
            energy_nj: 0.0,
            programs: ProgramCache::new(),
            hammer_sessions: 0,
            measurement_epoch: 0,
        }
    }

    /// Instantiates the platform for one of the paper's Table-1 modules.
    pub fn for_module(spec: ModuleSpec, seed: u64) -> Self {
        let module = vrd_dram::Module::new(spec.clone(), seed);
        let timing = TimingParams::for_family(&spec.family());
        let mut p = Self::new(module_into_device(module), timing);
        p.spec = Some(spec);
        p
    }

    /// Like [`for_module`](Self::for_module) with a reduced row size for
    /// fast tests and campaigns.
    pub fn for_module_with_row_bytes(spec: ModuleSpec, seed: u64, row_bytes: u32) -> Self {
        let module = vrd_dram::Module::new_with_row_bytes(spec.clone(), seed, row_bytes);
        let timing = TimingParams::for_family(&spec.family());
        let mut p = Self::new(module_into_device(module), timing);
        p.spec = Some(spec);
        p
    }

    /// A small self-contained platform for unit tests.
    pub fn small_test(seed: u64) -> Self {
        let mut cfg = DeviceConfig::small_test();
        cfg.vrd.median_rdt = 4_000.0;
        cfg.vrd.weak_cells_per_row = 3.0;
        Self::new(DramDevice::new(cfg, seed), TimingParams::ddr4())
    }

    /// The device under test.
    pub fn device(&self) -> &DramDevice {
        &self.device
    }

    /// Mutable access to the device under test.
    pub fn device_mut(&mut self) -> &mut DramDevice {
        &mut self.device
    }

    /// The module spec, when the platform was built from Table 1.
    pub fn spec(&self) -> Option<&ModuleSpec> {
        self.spec.as_ref()
    }

    /// Reseeds the device's dynamics RNG (see
    /// [`DramDevice::reseed_dynamics`]). The weak-cell layout is
    /// unaffected; only the stochastic measurement dynamics restart from
    /// the given seed.
    pub fn reseed_dynamics(&mut self, seed: u64) {
        self.device.reseed_dynamics(seed);
    }

    /// The active timing parameters.
    pub fn timing(&self) -> &TimingParams {
        &self.timing
    }

    /// Total simulated test time so far (ns).
    pub fn elapsed_ns(&self) -> f64 {
        self.elapsed_ns
    }

    /// Total simulated test energy so far (joules), from the Appendix-A
    /// per-command energy model plus background power over the elapsed
    /// time.
    pub fn energy_j(&self) -> f64 {
        (self.energy_nj + self.elapsed_ns * self.energy.background_mw * 1e-6) * 1e-9
    }

    /// Enables or disables periodic refresh. The paper's methodology
    /// disables it, which also disables on-die TRR (§3.1); enabling it
    /// here re-enables the TRR emulation as a real chip would.
    pub fn set_refresh_enabled(&mut self, enabled: bool) {
        self.refresh_enabled = enabled;
        self.device.set_trr_enabled(enabled);
        if enabled {
            self.next_refresh_ns = self.elapsed_ns + self.timing.t_refi;
        }
    }

    /// Whether periodic refresh is currently issued.
    pub fn refresh_enabled(&self) -> bool {
        self.refresh_enabled
    }

    /// Sets the target temperature and blocks until the thermal rig
    /// settles within ±0.5 °C (the settling time is *not* charged to the
    /// DRAM test time, matching how the paper heats before testing).
    pub fn set_temperature_c(&mut self, target_c: f64) {
        self.thermal.set_target_c(target_c);
        self.thermal.settle();
        self.device.set_temperature_c(self.thermal.temperature_c());
    }

    /// The chip temperature as reported by the thermal rig.
    pub fn temperature_c(&self) -> f64 {
        self.thermal.temperature_c()
    }

    /// Executes a program, charging its time to the platform clock and
    /// issuing any periodic refreshes that became due (when enabled).
    ///
    /// # Errors
    ///
    /// Propagates device command errors.
    pub fn run(&mut self, program: &Program) -> Result<ExecStats, DramError> {
        let stats = execute(&mut self.device, &self.timing, program)?;
        self.elapsed_ns += stats.elapsed_ns;
        self.energy_nj += stats.activations as f64 * self.energy.act_pre_nj
            + stats.column_bursts as f64 * self.energy.write_nj;
        if self.refresh_enabled {
            // Issue overdue refreshes (coarse: after the program, which
            // is accurate enough for programs shorter than tREFI and
            // conservative for longer ones).
            while self.next_refresh_ns <= self.elapsed_ns {
                self.device.refresh();
                self.elapsed_ns += self.timing.t_rfc;
                self.next_refresh_ns += self.timing.t_refi;
            }
        }
        Ok(stats)
    }

    /// Runs a row-initialization program through the program cache, so
    /// repeated measurements with identical parameters reuse the compiled
    /// command stream instead of rebuilding it.
    ///
    /// # Errors
    ///
    /// Propagates device command errors.
    pub fn run_init_row(
        &mut self,
        bank: usize,
        row: u32,
        fill: u8,
        bursts: u32,
    ) -> Result<ExecStats, DramError> {
        let program = self.programs.get_or_build(ProgramKey::Init { bank, row, fill, bursts });
        self.run(&program)
    }

    /// Runs a double-sided hammer program through the program cache (see
    /// [`run_init_row`](Self::run_init_row)).
    ///
    /// # Errors
    ///
    /// Propagates device command errors.
    pub fn run_double_sided_hammer(
        &mut self,
        bank: usize,
        aggr1: u32,
        aggr2: u32,
        count: u32,
        t_on_ns: f64,
    ) -> Result<ExecStats, DramError> {
        let key = ProgramKey::Hammer { bank, aggr1, aggr2, count, t_on_bits: t_on_ns.to_bits() };
        let program = self.programs.get_or_build(key);
        self.run(&program)
    }

    /// `(hits, builds)` counters of the internal program cache.
    pub fn program_cache_stats(&self) -> (u64, u64) {
        self.programs.stats()
    }

    /// Records one completed hammer session (init + hammer + read of a
    /// victim). The RDT search layers use this to compare how many
    /// sessions each search strategy spends per measurement.
    pub fn note_hammer_session(&mut self) {
        self.hammer_sessions += 1;
    }

    /// Total hammer sessions recorded on this platform.
    pub fn hammer_sessions(&self) -> u64 {
        self.hammer_sessions
    }

    /// Starts a new measurement epoch and returns its number (1-based).
    ///
    /// Epochs number the RDT measurements on this platform in order; the
    /// keyed dynamics mode draws per-measurement thresholds and trap
    /// catch-up steps from the epoch number, which is identical no matter
    /// which search strategy performs the measurement. The counter is
    /// *not* reset by [`reseed_dynamics`](Self::reseed_dynamics): a
    /// campaign reseeds per unit but epochs keep advancing, and the
    /// keyed draws depend on (seed, epoch) jointly.
    pub fn begin_measurement(&mut self) -> u64 {
        self.measurement_epoch += 1;
        self.measurement_epoch
    }

    /// Total measurement epochs begun on this platform.
    pub fn measurement_epochs(&self) -> u64 {
        self.measurement_epoch
    }

    /// Enters keyed-dynamics mode on the device for one hammer session of
    /// the given measurement epoch (see
    /// [`DramDevice::begin_keyed_session`]).
    pub fn begin_keyed_session(&mut self, epoch: u64, session: u64) {
        self.device.begin_keyed_session(epoch, session);
    }

    /// Prepares one measurement epoch for batched hammer sessions (see
    /// [`DramDevice::prepare_batch_epoch`]).
    ///
    /// On success the platform is left in keyed-dynamics mode for
    /// `epoch` and the returned [`BatchMeasurement`] drives
    /// [`run_batched_session`](Self::run_batched_session); callers end
    /// the keyed session when the measurement completes, exactly as on
    /// the scalar path. Returns `None` — leaving keyed mode untouched —
    /// whenever the scalar command path must be used instead (refresh
    /// interference enabled, or any device-side gate).
    pub fn prepare_batch_epoch(
        &mut self,
        epoch: u64,
        bank: usize,
        victim: u32,
        conditions: &TestConditions,
    ) -> Option<BatchMeasurement> {
        if self.refresh_enabled {
            return None;
        }
        self.begin_keyed_session(epoch, 0);
        let t_eff = conditions.t_agg_on_ns.max(self.timing.t_ras);
        let Some(profile) =
            self.device.prepare_batch_epoch(bank, victim, conditions.pattern, t_eff)
        else {
            self.end_keyed_session();
            return None;
        };
        // Fold one init program's stats in execute()'s exact `f64` order:
        // Act, first write burst, remaining bursts, Pre.
        let mut init_elapsed_ns = 0.0;
        init_elapsed_ns += self.timing.t_rcd;
        init_elapsed_ns += self.timing.t_ccd_l_wr;
        init_elapsed_ns += self.timing.t_ccd_l_wr * f64::from(BURSTS_PER_ROW - 1);
        init_elapsed_ns += self.timing.t_rp;
        let init_energy_nj =
            1.0 * self.energy.act_pre_nj + f64::from(BURSTS_PER_ROW) * self.energy.write_nj;
        Some(BatchMeasurement {
            profile,
            init_elapsed_ns,
            init_energy_nj,
            hammer_per_act_ns: t_eff + self.timing.t_rp,
        })
    }

    /// Runs one double-sided hammer session of a prepared batch epoch:
    /// the session counter, time, and energy advance exactly as the
    /// scalar init/hammer/read sequence would advance them, and the
    /// device replays the session's end state in one lane-compare pass.
    /// Builds no command program. Returns whether the read observed any
    /// (post-ECC) bitflip.
    pub fn run_batched_session(&mut self, batch: &BatchMeasurement, hammer_count: u32) -> bool {
        self.note_hammer_session();
        // Three init programs per session: victim, below aggressor, above.
        for _ in 0..3 {
            self.elapsed_ns += batch.init_elapsed_ns;
            self.energy_nj += batch.init_energy_nj;
        }
        if hammer_count > 0 {
            let per_side = f64::from(hammer_count) * batch.hammer_per_act_ns;
            self.elapsed_ns += per_side + per_side;
            self.energy_nj += (2 * u64::from(hammer_count)) as f64 * self.energy.act_pre_nj;
        }
        self.device.batch_hammer_session(&batch.profile, hammer_count)
    }

    /// Leaves keyed-dynamics mode (see [`DramDevice::end_keyed_session`]).
    pub fn end_keyed_session(&mut self) {
        self.device.end_keyed_session();
    }

    /// Verifies the §3.1 preconditions for interference-free RDT
    /// measurement: refresh (and thus TRR) disabled and a test budget
    /// within one refresh window so no retention failures occur.
    pub fn interference_free(&self, planned_test_ns: f64) -> bool {
        !self.refresh_enabled && planned_test_ns <= self.timing.t_refw
    }
}

fn module_into_device(module: vrd_dram::Module) -> DramDevice {
    // Module exposes owned access through its parts.
    module.into_device()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrd_dram::{DataPattern, ModuleSpec};

    #[test]
    fn small_platform_runs_program() {
        let mut p = TestPlatform::small_test(1);
        let prog = Program::init_row(0, 10, 0x55, 128);
        let stats = p.run(&prog).unwrap();
        assert!(stats.elapsed_ns > 0.0);
        assert_eq!(p.elapsed_ns(), stats.elapsed_ns);
        assert!(p.energy_j() > 0.0);
    }

    #[test]
    fn energy_grows_with_hammering() {
        let mut p = TestPlatform::small_test(1);
        p.run(&Program::double_sided_hammer(0, 50, 52, 1_000, 35.0)).unwrap();
        let after_1k = p.energy_j();
        p.run(&Program::double_sided_hammer(0, 50, 52, 10_000, 35.0)).unwrap();
        assert!(p.energy_j() > after_1k * 5.0);
    }

    #[test]
    fn for_module_uses_standard_timing() {
        let spec = ModuleSpec::by_name("Chip0").unwrap();
        let p = TestPlatform::for_module_with_row_bytes(spec, 1, 256);
        assert_eq!(*p.timing(), TimingParams::hbm2());
        assert!(p.spec().is_some());
    }

    #[test]
    fn temperature_control_settles() {
        let mut p = TestPlatform::small_test(1);
        p.set_temperature_c(80.0);
        assert!((p.temperature_c() - 80.0).abs() <= 0.5);
        assert!((p.device().temperature_c() - 80.0).abs() <= 0.5);
    }

    #[test]
    fn refresh_fires_when_enabled() {
        let mut p = TestPlatform::small_test(1);
        p.set_refresh_enabled(true);
        // A hammer long enough to cross several tREFI intervals.
        let prog = Program::double_sided_hammer(0, 50, 52, 2_000, 35.0);
        p.run(&prog).unwrap();
        // 2000 hammers × 2 × ~48.75ns ≈ 195 µs → ~25 refreshes at 7.8 µs.
        assert!(p.elapsed_ns() > 150_000.0);
    }

    #[test]
    fn interference_free_requires_refresh_off() {
        let mut p = TestPlatform::small_test(1);
        assert!(p.interference_free(1_000_000.0));
        p.set_refresh_enabled(true);
        assert!(!p.interference_free(1_000_000.0));
        p.set_refresh_enabled(false);
        // Longer than a refresh window: retention failures possible.
        assert!(!p.interference_free(100_000_000_000.0));
    }

    #[test]
    fn refresh_prevents_flips_like_a_real_chip() {
        // With refresh enabled, a slow hammer (interrupted by refreshes)
        // must not flip; with refresh disabled it may.
        let spec = ModuleSpec::by_name("M1").unwrap();
        let mut p = TestPlatform::for_module_with_row_bytes(spec, 3, 256);
        p.set_refresh_enabled(true);
        let pattern = DataPattern::Checkered0;
        let victim = 1000u32;
        p.device_mut().write_row(0, victim, pattern.victim_byte());
        // Hammer in small chunks so refresh interleaves.
        for _ in 0..200 {
            let prog = Program::double_sided_hammer(0, victim - 1, victim + 1, 500, 35.0);
            p.run(&prog).unwrap();
        }
        let flips = p.device_mut().read_and_compare(0, victim, pattern.victim_byte());
        assert!(flips.is_empty(), "refresh must prevent slow-hammer flips");
    }
}
