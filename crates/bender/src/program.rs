//! Test programs: command sequences with waits and hardware repeat loops,
//! and their timed executor.
//!
//! DRAM Bender exposes an instruction set with loop support so hammering
//! loops run at line rate on the FPGA. [`Program`] mirrors that: a list of
//! [`Instr`] (commands, waits, repeats). The executor charges JEDEC
//! timings per command and recognizes pure ACT/PRE hammer loops, applying
//! them through the device's bulk-activation fast path so paper-scale
//! campaigns (10⁵ measurements × 10³–10⁵ hammers each) remain tractable.

use serde::{Deserialize, Serialize};

use vrd_dram::{DramDevice, DramError};

use crate::command::DramCommand;
use crate::timing::TimingParams;

/// One test-program instruction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Instr {
    /// Issue a DRAM command.
    Cmd(DramCommand),
    /// Idle for the given number of nanoseconds.
    WaitNs(f64),
    /// Repeat a body `count` times (hardware loop).
    Repeat {
        /// Loop trip count.
        count: u32,
        /// Loop body.
        body: Vec<Instr>,
    },
}

/// A DRAM test program.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Program {
    instrs: Vec<Instr>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Appends a command.
    pub fn cmd(&mut self, cmd: DramCommand) -> &mut Self {
        self.instrs.push(Instr::Cmd(cmd));
        self
    }

    /// Appends an idle wait.
    pub fn wait_ns(&mut self, ns: f64) -> &mut Self {
        self.instrs.push(Instr::WaitNs(ns));
        self
    }

    /// Appends a repeat loop.
    pub fn repeat(&mut self, count: u32, body: Vec<Instr>) -> &mut Self {
        self.instrs.push(Instr::Repeat { count, body });
        self
    }

    /// The instruction list.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Builds the canonical double-sided hammer loop: `count` iterations
    /// of ACT/wait/PRE on each of the two aggressors, holding each open
    /// `t_on_ns` (a wait beyond `t_RAS` turns RowHammer into RowPress).
    pub fn double_sided_hammer(
        bank: usize,
        aggr1: u32,
        aggr2: u32,
        count: u32,
        t_on_ns: f64,
    ) -> Self {
        let mut p = Program::new();
        p.repeat(
            count,
            vec![
                Instr::Cmd(DramCommand::Act { bank, row: aggr1 }),
                Instr::WaitNs(t_on_ns),
                Instr::Cmd(DramCommand::Pre { bank }),
                Instr::Cmd(DramCommand::Act { bank, row: aggr2 }),
                Instr::WaitNs(t_on_ns),
                Instr::Cmd(DramCommand::Pre { bank }),
            ],
        );
        p
    }

    /// Builds a row-initialization sequence: ACT, 128 write bursts, PRE.
    pub fn init_row(bank: usize, row: u32, fill: u8, bursts: u32) -> Self {
        let mut p = Program::new();
        p.cmd(DramCommand::Act { bank, row });
        p.repeat(bursts, vec![Instr::Cmd(DramCommand::Wr { bank, fill })]);
        p.cmd(DramCommand::Pre { bank });
        p
    }
}

/// Cache key for a memoizable test program. Hammer programs embed the
/// on-time as raw bits so the key stays `Eq + Hash` (`f64` is not).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProgramKey {
    /// A [`Program::double_sided_hammer`] build.
    Hammer {
        /// Bank index.
        bank: usize,
        /// First aggressor row.
        aggr1: u32,
        /// Second aggressor row.
        aggr2: u32,
        /// Hammer count per aggressor.
        count: u32,
        /// `t_AggOn` in nanoseconds, as `f64::to_bits`.
        t_on_bits: u64,
    },
    /// A [`Program::init_row`] build.
    Init {
        /// Bank index.
        bank: usize,
        /// Row to initialize.
        row: u32,
        /// Fill byte.
        fill: u8,
        /// Write bursts to fill the row.
        bursts: u32,
    },
}

impl ProgramKey {
    /// Builds the program this key describes.
    pub fn build(&self) -> Program {
        match *self {
            ProgramKey::Hammer { bank, aggr1, aggr2, count, t_on_bits } => {
                Program::double_sided_hammer(bank, aggr1, aggr2, count, f64::from_bits(t_on_bits))
            }
            ProgramKey::Init { bank, row, fill, bursts } => {
                Program::init_row(bank, row, fill, bursts)
            }
        }
    }
}

/// Memoizes built command programs per [`ProgramKey`].
///
/// An RDT campaign re-issues the same few hundred programs (one init per
/// row fill, one hammer per grid point) tens of thousands of times;
/// caching skips re-building the instruction vectors. Entries are shared
/// [`std::sync::Arc`]s, so a cached program can be executed while the
/// cache itself stays borrowed mutably elsewhere.
#[derive(Debug, Default)]
pub struct ProgramCache {
    map: vrd_dram::hashing::FxHashMap<ProgramKey, std::sync::Arc<Program>>,
    hits: u64,
    builds: u64,
}

/// A campaign's working set is a few hundred programs; past this the
/// cache is dropped wholesale (simpler than LRU, and refilling costs one
/// build per key).
const PROGRAM_CACHE_CAP: usize = 1024;

impl ProgramCache {
    /// An empty cache.
    pub fn new() -> Self {
        ProgramCache::default()
    }

    /// The cached program for `key`, building and inserting it on miss.
    pub fn get_or_build(&mut self, key: ProgramKey) -> std::sync::Arc<Program> {
        if let Some(p) = self.map.get(&key) {
            self.hits += 1;
            return std::sync::Arc::clone(p);
        }
        if self.map.len() >= PROGRAM_CACHE_CAP {
            self.map.clear();
        }
        self.builds += 1;
        let p = std::sync::Arc::new(key.build());
        self.map.insert(key, std::sync::Arc::clone(&p));
        p
    }

    /// `(hits, builds)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.builds)
    }
}

/// Outcome of executing a [`Program`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ExecStats {
    /// Simulated elapsed time in nanoseconds.
    pub elapsed_ns: f64,
    /// Number of ACT commands issued (including unrolled loops).
    pub activations: u64,
    /// Number of column bursts issued (reads + writes).
    pub column_bursts: u64,
    /// Number of refresh commands issued.
    pub refreshes: u64,
}

impl ExecStats {
    fn add(&mut self, other: &ExecStats) {
        self.elapsed_ns += other.elapsed_ns;
        self.activations += other.activations;
        self.column_bursts += other.column_bursts;
        self.refreshes += other.refreshes;
    }

    /// Multiplies all statistics by `count` (loop projection).
    pub fn scaled(&self, count: u32) -> ExecStats {
        ExecStats {
            elapsed_ns: self.elapsed_ns * f64::from(count),
            activations: self.activations * u64::from(count),
            column_bursts: self.column_bursts * u64::from(count),
            refreshes: self.refreshes * u64::from(count),
        }
    }
}

/// Executes `program` against `device` with `timing`, returning timing and
/// command statistics.
///
/// Pure ACT/wait/PRE repeat loops (hammer loops) execute through the
/// device's bulk-activation fast path; all other instructions execute one
/// by one.
///
/// # Errors
///
/// Propagates device command errors (bad addresses, activate without
/// precharge).
pub fn execute(
    device: &mut DramDevice,
    timing: &TimingParams,
    program: &Program,
) -> Result<ExecStats, DramError> {
    let mut stats = ExecStats::default();
    exec_instrs(device, timing, program.instrs(), &mut stats)?;
    Ok(stats)
}

fn exec_instrs(
    device: &mut DramDevice,
    timing: &TimingParams,
    instrs: &[Instr],
    stats: &mut ExecStats,
) -> Result<(), DramError> {
    for instr in instrs {
        match instr {
            Instr::Cmd(cmd) => exec_cmd(device, timing, *cmd, stats)?,
            Instr::WaitNs(ns) => stats.elapsed_ns += ns,
            Instr::Repeat { count, body } => {
                if *count == 0 {
                    continue;
                }
                if let Some(loop_stats) = try_hammer_fast_path(device, timing, *count, body)? {
                    stats.add(&loop_stats);
                } else if let Some(burst) = try_burst_fast_path(body) {
                    // Pure column-burst loop on the open row: one device
                    // write/read carries the data; remaining bursts only
                    // cost time.
                    exec_cmd(device, timing, burst, stats)?;
                    let per = burst_time(timing, &burst);
                    stats.elapsed_ns += per * f64::from(count - 1);
                    stats.column_bursts += u64::from(count - 1);
                } else {
                    let mut once = ExecStats::default();
                    exec_instrs(device, timing, body, &mut once)?;
                    // Re-execute remaining iterations (stateful); loops
                    // that matter for performance hit the fast paths.
                    stats.add(&once);
                    for _ in 1..*count {
                        let mut iter = ExecStats::default();
                        exec_instrs(device, timing, body, &mut iter)?;
                        stats.add(&iter);
                    }
                }
            }
        }
    }
    Ok(())
}

fn burst_time(timing: &TimingParams, cmd: &DramCommand) -> f64 {
    match cmd {
        DramCommand::Wr { .. } => timing.t_ccd_l_wr,
        DramCommand::Rd { .. } => timing.t_ccd_l,
        _ => 0.0,
    }
}

fn exec_cmd(
    device: &mut DramDevice,
    timing: &TimingParams,
    cmd: DramCommand,
    stats: &mut ExecStats,
) -> Result<(), DramError> {
    match cmd {
        DramCommand::Act { bank, row } => {
            device.activate(bank, row)?;
            stats.elapsed_ns += timing.t_rcd;
            stats.activations += 1;
        }
        DramCommand::Pre { bank } => {
            device.precharge(bank)?;
            stats.elapsed_ns += timing.t_rp;
        }
        DramCommand::Wr { bank, fill } => {
            // A burst covers 64 bytes; the init routines repeat bursts to
            // fill the row — the model's fill write is row-wide, so the
            // burst repetition only affects timing.
            let row = open_row(device, bank)?;
            device.write_open_row(bank, row, fill)?;
            stats.elapsed_ns += timing.t_ccd_l_wr;
            stats.column_bursts += 1;
        }
        DramCommand::Rd { bank } => {
            let row = open_row(device, bank)?;
            let _ = device.read_open_row(bank, row)?;
            stats.elapsed_ns += timing.t_ccd_l;
            stats.column_bursts += 1;
        }
        DramCommand::Ref => {
            device.refresh();
            stats.elapsed_ns += timing.t_rfc;
            stats.refreshes += 1;
        }
    }
    Ok(())
}

fn open_row(device: &DramDevice, bank: usize) -> Result<u32, DramError> {
    if bank >= device.config().banks() as usize {
        return Err(DramError::BankOutOfRange { bank, banks: device.config().banks() as usize });
    }
    device.open_row(bank).ok_or(DramError::RowNotOpen { bank, row: u32::MAX })
}

/// Recognizes the canonical hammer loop
/// `[ACT a1, wait t, PRE, ACT a2, wait t, PRE]` (or the single-sided
/// 3-instruction variant) and applies it via bulk activation.
fn try_hammer_fast_path(
    device: &mut DramDevice,
    timing: &TimingParams,
    count: u32,
    body: &[Instr],
) -> Result<Option<ExecStats>, DramError> {
    let parse_side = |chunk: &[Instr]| -> Option<(usize, u32, f64)> {
        match chunk {
            [Instr::Cmd(DramCommand::Act { bank, row }), Instr::WaitNs(t), Instr::Cmd(DramCommand::Pre { bank: pb })]
                if pb == bank =>
            {
                Some((*bank, *row, *t))
            }
            _ => None,
        }
    };
    let sides: Option<Vec<(usize, u32, f64)>> = match body.len() {
        3 => parse_side(body).map(|s| vec![s]),
        6 => match (parse_side(&body[..3]), parse_side(&body[3..])) {
            (Some(a), Some(b)) if a.0 == b.0 => Some(vec![a, b]),
            _ => None,
        },
        _ => None,
    };
    let Some(sides) = sides else {
        return Ok(None);
    };
    let mut stats = ExecStats::default();
    for &(bank, row, t_on) in &sides {
        device.precharge(bank)?;
        device.activate_n(bank, row, count, t_on.max(timing.t_ras))?;
        device.precharge(bank)?;
        stats.activations += u64::from(count);
        // Per iteration: tRCD-equivalent issue latency is hidden inside
        // the on-time; the loop costs (on_time + tRP) per activation.
        stats.elapsed_ns += f64::from(count) * (t_on.max(timing.t_ras) + timing.t_rp);
    }
    Ok(Some(stats))
}

/// Recognizes a pure single-command column-burst loop.
fn try_burst_fast_path(body: &[Instr]) -> Option<DramCommand> {
    match body {
        [Instr::Cmd(cmd @ (DramCommand::Wr { .. } | DramCommand::Rd { .. }))] => Some(*cmd),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrd_dram::device::DeviceConfig;

    fn device() -> DramDevice {
        DramDevice::new(DeviceConfig::small_test(), 11)
    }

    #[test]
    fn empty_program_is_free() {
        let mut dev = device();
        let stats = execute(&mut dev, &TimingParams::ddr4(), &Program::new()).unwrap();
        assert_eq!(stats.elapsed_ns, 0.0);
        assert_eq!(stats.activations, 0);
    }

    #[test]
    fn init_row_program_writes_data() {
        let mut dev = device();
        let p = Program::init_row(0, 42, 0xAA, 128);
        let stats = execute(&mut dev, &TimingParams::ddr4(), &p).unwrap();
        assert_eq!(stats.activations, 1);
        assert_eq!(stats.column_bursts, 128);
        dev.activate(0, 42).unwrap();
        assert!(dev.read_open_row(0, 42).unwrap().iter().all(|&b| b == 0xAA));
        dev.precharge(0).unwrap();
    }

    #[test]
    fn hammer_program_uses_fast_path_and_disturbs() {
        let mut dev = device();
        let p = Program::double_sided_hammer(0, 99, 101, 50_000, 35.0);
        let stats = execute(&mut dev, &TimingParams::ddr4(), &p).unwrap();
        assert_eq!(stats.activations, 100_000);
        assert_eq!(dev.total_activations(), 100_000);
        // Elapsed: 100k × (tRAS + tRP) = 100k × 48.75 ns.
        let expected = 100_000.0 * (35.0 + 13.75);
        assert!((stats.elapsed_ns - expected).abs() < 1e-6);
    }

    #[test]
    fn hammer_time_scales_with_on_time() {
        let mut dev = device();
        let short = execute(
            &mut dev,
            &TimingParams::ddr4(),
            &Program::double_sided_hammer(0, 9, 11, 100, 35.0),
        )
        .unwrap();
        let mut dev = device();
        let long = execute(
            &mut dev,
            &TimingParams::ddr4(),
            &Program::double_sided_hammer(0, 9, 11, 100, 7_800.0),
        )
        .unwrap();
        assert!(long.elapsed_ns > short.elapsed_ns * 100.0);
    }

    #[test]
    fn general_repeat_falls_back_to_iteration() {
        let mut dev = device();
        let mut p = Program::new();
        p.repeat(
            3,
            vec![
                Instr::Cmd(DramCommand::Act { bank: 0, row: 1 }),
                Instr::Cmd(DramCommand::Rd { bank: 0 }),
                Instr::Cmd(DramCommand::Pre { bank: 0 }),
            ],
        );
        let stats = execute(&mut dev, &TimingParams::ddr4(), &p).unwrap();
        assert_eq!(stats.activations, 3);
        assert_eq!(stats.column_bursts, 3);
    }

    #[test]
    fn read_requires_open_row() {
        let mut dev = device();
        let mut p = Program::new();
        p.cmd(DramCommand::Rd { bank: 0 });
        assert!(matches!(
            execute(&mut dev, &TimingParams::ddr4(), &p),
            Err(DramError::RowNotOpen { .. })
        ));
    }

    #[test]
    fn refresh_command_counts() {
        let mut dev = device();
        let mut p = Program::new();
        p.cmd(DramCommand::Ref).cmd(DramCommand::Ref);
        let stats = execute(&mut dev, &TimingParams::ddr4(), &p).unwrap();
        assert_eq!(stats.refreshes, 2);
        assert!((stats.elapsed_ns - 700.0).abs() < 1e-9);
    }

    #[test]
    fn wait_adds_time_only() {
        let mut dev = device();
        let mut p = Program::new();
        p.wait_ns(123.0);
        let stats = execute(&mut dev, &TimingParams::ddr4(), &p).unwrap();
        assert_eq!(stats.elapsed_ns, 123.0);
        assert_eq!(dev.total_activations(), 0);
    }

    #[test]
    fn burst_loop_fast_path_charges_time() {
        let mut dev = device();
        dev.activate(0, 5).unwrap();
        let mut p = Program::new();
        p.repeat(127, vec![Instr::Cmd(DramCommand::Wr { bank: 0, fill: 0x55 })]);
        let stats = execute(&mut dev, &TimingParams::ddr4(), &p).unwrap();
        assert_eq!(stats.column_bursts, 127);
        assert!((stats.elapsed_ns - 127.0 * 10.0).abs() < 1e-9);
    }

    #[test]
    fn program_cache_returns_identical_programs() {
        let mut cache = ProgramCache::new();
        let key = ProgramKey::Hammer {
            bank: 0,
            aggr1: 9,
            aggr2: 11,
            count: 500,
            t_on_bits: 35.0f64.to_bits(),
        };
        let a = cache.get_or_build(key);
        let b = cache.get_or_build(key);
        assert_eq!(*a, Program::double_sided_hammer(0, 9, 11, 500, 35.0));
        assert_eq!(*a, *b);
        assert_eq!(cache.stats(), (1, 1), "second lookup must hit");
        let init =
            cache.get_or_build(ProgramKey::Init { bank: 0, row: 3, fill: 0xAA, bursts: 128 });
        assert_eq!(*init, Program::init_row(0, 3, 0xAA, 128));
        assert_eq!(cache.stats(), (1, 2));
    }

    #[test]
    fn program_cache_bounds_its_size() {
        let mut cache = ProgramCache::new();
        for count in 0..3_000u32 {
            let _ = cache.get_or_build(ProgramKey::Hammer {
                bank: 0,
                aggr1: 1,
                aggr2: 3,
                count,
                t_on_bits: 35.0f64.to_bits(),
            });
        }
        assert!(cache.map.len() <= super::PROGRAM_CACHE_CAP);
        let (hits, builds) = cache.stats();
        assert_eq!(hits, 0);
        assert_eq!(builds, 3_000);
    }

    #[test]
    fn scaled_stats() {
        let s = ExecStats { elapsed_ns: 2.0, activations: 3, column_bursts: 1, refreshes: 0 };
        let t = s.scaled(4);
        assert_eq!(t.elapsed_ns, 8.0);
        assert_eq!(t.activations, 12);
    }
}
