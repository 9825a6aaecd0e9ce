//! Shared measurement harness for the paper-reproduction benchmarks.
//!
//! The paper's methodology (§7.2): for every benchmark and parameter
//! combination, run the block on the **serial miner**, the **parallel
//! miner** and the **(parallel) validator**, collect the running time five
//! times after three warm-up runs, and report the mean and standard
//! deviation; speedups are relative to the serial miner on the same
//! machine. This crate implements that loop once so the `repro` binary
//! and the tests measure the same thing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod contention;
pub mod json;
pub mod micro;
pub mod schedule;
pub mod state_root;
pub mod table;

use cc_core::engine::{Engine, EngineConfig, ExecutionStrategy};
use cc_core::MinerStats;
use cc_workload::Workload;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Number of measured repetitions (paper: "the running time is collected
/// five times").
pub const REPETITIONS: usize = 5;
/// Number of warm-up runs before measuring (paper: "all runs are given
/// three warm-up runs").
pub const WARMUPS: usize = 3;
/// Worker threads for the parallel miner and validator (paper: "a fixed
/// pool of three threads"). The value itself lives in
/// [`EngineConfig::DEFAULT_THREADS`]; this re-export keeps bench-side
/// call sites short.
pub const DEFAULT_THREADS: usize = EngineConfig::DEFAULT_THREADS;

/// Mean and standard deviation of a set of timings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Mean running time.
    pub mean: Duration,
    /// Standard deviation of the running time.
    pub stddev: Duration,
}

impl Timing {
    /// Computes mean and standard deviation of raw samples.
    pub fn from_samples(samples: &[Duration]) -> Timing {
        assert!(!samples.is_empty(), "at least one sample required");
        let mean_nanos =
            samples.iter().map(|d| d.as_nanos() as f64).sum::<f64>() / samples.len() as f64;
        let variance = samples
            .iter()
            .map(|d| {
                let x = d.as_nanos() as f64 - mean_nanos;
                x * x
            })
            .sum::<f64>()
            / samples.len() as f64;
        Timing {
            mean: Duration::from_nanos(mean_nanos as u64),
            stddev: Duration::from_nanos(variance.sqrt() as u64),
        }
    }

    /// Mean in fractional milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.mean.as_secs_f64() * 1_000.0
    }

    /// Standard deviation in fractional milliseconds.
    pub fn stddev_ms(&self) -> f64 {
        self.stddev.as_secs_f64() * 1_000.0
    }
}

/// The three timings measured for one parameter combination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// The serial miner (the baseline).
    pub serial: Timing,
    /// The speculative parallel miner.
    pub miner: Timing,
    /// The deterministic fork-join validator.
    pub validator: Timing,
}

impl Measurement {
    /// Parallel-miner speedup over the serial baseline.
    pub fn miner_speedup(&self) -> f64 {
        self.serial.mean.as_secs_f64() / self.miner.mean.as_secs_f64()
    }

    /// Validator speedup over the serial baseline.
    pub fn validator_speedup(&self) -> f64 {
        self.serial.mean.as_secs_f64() / self.validator.mean.as_secs_f64()
    }
}

/// Measures one workload: serial mining, parallel mining and parallel
/// validation, each with [`WARMUPS`] warm-ups and `repetitions` measured
/// runs on fresh worlds.
pub fn measure(workload: &Workload, threads: usize, repetitions: usize) -> Measurement {
    measure_with(
        workload,
        ExecutionStrategy::SpeculativeStm,
        threads,
        repetitions,
    )
}

/// Like [`measure`], but the concurrent side (miner and validator) runs
/// under an explicit [`ExecutionStrategy`] instead of the default
/// speculative STM. The serial baseline is measured identically either
/// way, so speedups from different strategies are directly comparable.
///
/// Because the optimistic miner publishes the same schedule metadata as
/// the speculative one, the validator leg needs no per-strategy code:
/// whatever block the strategy mines, the fork-join validator replays it.
pub fn measure_with(
    workload: &Workload,
    strategy: ExecutionStrategy,
    threads: usize,
    repetitions: usize,
) -> Measurement {
    let serial_engine = engine(ExecutionStrategy::Serial, threads);
    let speculative_engine = engine(strategy, threads);

    // A reference block for the validator runs (any honest parallel block
    // will do; we mine one up front).
    let reference = speculative_engine
        .mine(&workload.build_world(), workload.transactions())
        .expect("reference mining succeeds");

    let serial = time_runs(repetitions, || {
        let world = workload.build_world();
        let txs = workload.transactions();
        let start = Instant::now();
        serial_engine
            .mine(&world, txs)
            .expect("serial mining succeeds");
        start.elapsed()
    });
    let miner = time_runs(repetitions, || {
        let world = workload.build_world();
        let txs = workload.transactions();
        let start = Instant::now();
        speculative_engine
            .mine(&world, txs)
            .expect("parallel mining succeeds");
        start.elapsed()
    });
    let validator_timing = time_runs(repetitions, || {
        let world = workload.build_world();
        let start = Instant::now();
        speculative_engine
            .validate(&world, &reference.block)
            .expect("honest block validates");
        start.elapsed()
    });

    Measurement {
        serial,
        miner,
        validator: validator_timing,
    }
}

/// Measures the serial validator instead of the parallel one (used by the
/// `ablation` section).
pub fn measure_serial_validation(
    workload: &Workload,
    threads: usize,
    repetitions: usize,
) -> Timing {
    let reference = engine(ExecutionStrategy::SpeculativeStm, threads)
        .mine(&workload.build_world(), workload.transactions())
        .expect("reference mining succeeds");
    let serial_engine = engine(ExecutionStrategy::Serial, threads);
    time_runs(repetitions, || {
        let world = workload.build_world();
        let start = Instant::now();
        serial_engine
            .validate(&world, &reference.block)
            .expect("honest block validates");
        start.elapsed()
    })
}

/// The engine used for one side of a measurement: the given strategy at
/// the given thread count, everything else at the paper's defaults.
///
/// # Panics
///
/// Panics on a configuration [`EngineConfig::build`] rejects (e.g. zero
/// threads) — benchmark thread counts are caller-validated inputs.
pub fn engine(strategy: ExecutionStrategy, threads: usize) -> Engine {
    EngineConfig::new()
        .strategy(strategy)
        .threads(threads)
        .build()
        .expect("benchmark engine config must be valid (threads >= 1)")
}

/// One engine-level read-heavy measurement: a block of `readers` pure
/// reads of one hot tally key plus `writers` additive updates of the same
/// key, mined speculatively.
///
/// This is where shared-mode reads show up even on a single-core host:
/// the miner holds abstract locks for the whole contract execution, so
/// exclusive reads of a hot key would serialize the entire block
/// (`critical_path == readers + writers`, one blocking wait per
/// preempted hold), while shared reads leave the readers mutually
/// unordered.
#[derive(Debug, Clone, Copy)]
pub struct ReadHeavyPoint {
    /// Number of read-only transactions in the block.
    pub readers: usize,
    /// Number of (additive) writer transactions in the block.
    pub writers: usize,
    /// Miner worker threads.
    pub threads: usize,
    /// Mean speculative mining time.
    pub miner_ms: f64,
    /// Mean lock-manager blocking waits per mined block.
    pub waits_per_block: f64,
    /// Mean deadlock retries per mined block.
    pub retries_per_block: f64,
    /// Happens-before edges of the last mined schedule (readers never
    /// produce read-read edges, so this is bounded by `readers × writers`
    /// instead of the all-exclusive `n·(n−1)/2`).
    pub hb_edges: usize,
    /// Critical path of the last mined schedule.
    pub critical_path: usize,
}

impl ReadHeavyPoint {
    /// The critical path the same block would have if reads took their
    /// locks exclusively: every transaction touches the hot key in a
    /// non-commuting mode, so the schedule degenerates to a chain.
    pub fn exclusive_read_critical_path(&self) -> usize {
        self.readers + self.writers
    }
}

/// The read-heavy block [`measure_read_heavy`] mines: exactly `readers`
/// read-only `total` calls and `writers` `increment` calls against the
/// counter contract at `contract_address`, with the writers spread evenly
/// through the block (Bresenham spacing: position `i` is a writer
/// whenever the running writer quota crosses an integer there, which
/// yields the exact counts for any readers/writers ratio).
pub fn read_heavy_transactions(
    readers: usize,
    writers: usize,
    contract_address: cc_vm::Address,
) -> Vec<cc_ledger::Transaction> {
    use cc_vm::{Address, ArgValue, CallData};
    let n = readers + writers;
    let is_writer = |i: usize| n > 0 && (i + 1) * writers / n > i * writers / n;
    (0..n)
        .map(|i| {
            if is_writer(i) {
                cc_ledger::Transaction::new(
                    i as u64,
                    Address::from_index(i as u64),
                    contract_address,
                    CallData::new("increment", vec![ArgValue::Uint(1)]),
                    1_000_000,
                )
            } else {
                cc_ledger::Transaction::new(
                    i as u64,
                    Address::from_index(i as u64),
                    contract_address,
                    CallData::nullary("total"),
                    1_000_000,
                )
            }
        })
        .collect()
}

/// Measures the read-heavy hot-key block described on
/// [`ReadHeavyPoint`].
pub fn measure_read_heavy(
    readers: usize,
    writers: usize,
    threads: usize,
    repetitions: usize,
) -> ReadHeavyPoint {
    use cc_vm::testing::CounterContract;
    use cc_vm::Address;

    let contract_address = Address::from_name("bench.read-heavy.counter");
    let build_world = || {
        let world = cc_vm::World::new();
        world.deploy(Arc::new(CounterContract::new(contract_address)));
        world
    };
    let txs = read_heavy_transactions(readers, writers, contract_address);

    let speculative = engine(ExecutionStrategy::SpeculativeStm, threads);
    let mut elapsed = Vec::new();
    let mut waits = Vec::new();
    let mut retries = Vec::new();
    let mut hb_edges = 0;
    let mut critical_path = 0;
    // One warm-up run plus the measured repetitions.
    for _ in 0..repetitions.max(1) + 1 {
        let world = build_world();
        let mined = speculative
            .mine(&world, txs.clone())
            .expect("read-heavy block mines");
        elapsed.push(mined.stats.elapsed);
        waits.push(mined.stats.locks.waits as f64);
        retries.push(mined.stats.retries as f64);
        hb_edges = mined.stats.hb_edges;
        critical_path = mined.stats.critical_path;
    }
    // Drop the warm-up run.
    elapsed.remove(0);
    waits.remove(0);
    retries.remove(0);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    ReadHeavyPoint {
        readers,
        writers,
        threads,
        miner_ms: Timing::from_samples(&elapsed).mean_ms(),
        waits_per_block: mean(&waits),
        retries_per_block: mean(&retries),
        hb_edges,
        critical_path,
    }
}

/// One point of the abort-rate comparison: the same workload mined under
/// the pessimistic (speculative STM) and the optimistic (MVCC) strategy,
/// reporting how often each one aborts and what it costs next to the
/// serial miner on the same block.
///
/// The two strategies abort for different reasons — speculative
/// transactions die as deadlock victims while holding abstract locks,
/// optimistic ones fail first-committer-wins read-set validation — but
/// both surface as `retries` in [`cc_core::stats::MinerStats`], so the
/// rates are directly comparable. `optimistic_read_only_per_block` counts
/// the commits the optimistic strategy finished without validation at
/// all: its structurally abort-free reads.
#[derive(Debug, Clone, Copy)]
pub struct AbortRatePoint {
    /// Block size (number of transactions).
    pub block_size: usize,
    /// Data-conflict fraction (0.0–1.0).
    pub conflict: f64,
    /// Mean deadlock-victim retries per speculatively-mined block.
    pub speculative_retries_per_block: f64,
    /// Mean lock-manager blocking waits per speculatively-mined block
    /// (deadlock victims waiting on the lock they lost on included).
    pub speculative_waits_per_block: f64,
    /// Mean validation-failure retries per optimistically-mined block.
    pub optimistic_retries_per_block: f64,
    /// Mean read-only (validation-free, abort-free) commits per
    /// optimistically-mined block.
    pub optimistic_read_only_per_block: f64,
    /// Mean serial mining time of the same block (ms).
    pub serial_ms: f64,
    /// Mean speculative mining time (ms).
    pub speculative_ms: f64,
    /// Mean optimistic mining time (ms).
    pub optimistic_ms: f64,
}

impl AbortRatePoint {
    /// Speculative aborts per transaction.
    pub fn speculative_abort_rate(&self) -> f64 {
        self.speculative_retries_per_block / self.block_size.max(1) as f64
    }

    /// Optimistic aborts per transaction.
    pub fn optimistic_abort_rate(&self) -> f64 {
        self.optimistic_retries_per_block / self.block_size.max(1) as f64
    }
}

/// Mines `workload` repeatedly under the serial and both concurrent
/// strategies and averages each one's abort accounting (one warm-up run
/// plus `repetitions` measured runs per strategy, each on a fresh world).
pub fn measure_abort_rate(
    workload: &Workload,
    threads: usize,
    repetitions: usize,
) -> AbortRatePoint {
    let mine = |strategy: ExecutionStrategy| -> Vec<MinerStats> {
        let engine = engine(strategy, threads);
        let mut runs: Vec<MinerStats> = (0..repetitions.max(1) + 1)
            .map(|_| {
                engine
                    .mine(&workload.build_world(), workload.transactions())
                    .expect("abort-rate block mines")
                    .stats
            })
            .collect();
        runs.remove(0); // the warm-up run
        runs
    };
    let mean = |runs: &[MinerStats], metric: fn(&MinerStats) -> f64| {
        runs.iter().map(metric).sum::<f64>() / runs.len() as f64
    };
    fn ms(d: Duration) -> f64 {
        d.as_secs_f64() * 1_000.0
    }
    let serial = mine(ExecutionStrategy::Serial);
    let speculative = mine(ExecutionStrategy::SpeculativeStm);
    let optimistic = mine(ExecutionStrategy::OptimisticMvcc);
    AbortRatePoint {
        block_size: workload.transactions().len(),
        conflict: workload.spec().conflict,
        speculative_retries_per_block: mean(&speculative, |s| s.retries as f64),
        speculative_waits_per_block: mean(&speculative, |s| s.locks.waits as f64),
        optimistic_retries_per_block: mean(&optimistic, |s| s.retries as f64),
        optimistic_read_only_per_block: mean(&optimistic, |s| s.read_only as f64),
        serial_ms: mean(&serial, |s| ms(s.elapsed)),
        speculative_ms: mean(&speculative, |s| ms(s.elapsed)),
        optimistic_ms: mean(&optimistic, |s| ms(s.elapsed)),
    }
}

fn time_runs(repetitions: usize, mut run: impl FnMut() -> Duration) -> Timing {
    for _ in 0..WARMUPS {
        run();
    }
    let samples: Vec<Duration> = (0..repetitions.max(1)).map(|_| run()).collect();
    Timing::from_samples(&samples)
}

/// The block sizes of the paper's left-hand Figure 1 panels (10–400
/// transactions at 15% conflict).
pub fn figure1_block_sizes() -> Vec<usize> {
    vec![10, 50, 100, 150, 200, 250, 300, 350, 400]
}

/// The conflict percentages of the paper's right-hand Figure 1 panels
/// (0%–100% at 200 transactions).
pub fn figure1_conflicts() -> Vec<f64> {
    (0..=10).map(|i| f64::from(i) / 10.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_workload::{Benchmark, WorkloadSpec};

    #[test]
    fn timing_statistics() {
        let t = Timing::from_samples(&[
            Duration::from_millis(10),
            Duration::from_millis(12),
            Duration::from_millis(14),
        ]);
        assert_eq!(t.mean, Duration::from_millis(12));
        assert!(t.stddev >= Duration::from_millis(1));
        assert!(t.mean_ms() > 11.9 && t.mean_ms() < 12.1);
        assert!(t.stddev_ms() > 0.0);
    }

    #[test]
    fn sweep_parameter_lists_match_the_paper() {
        assert_eq!(figure1_block_sizes().first(), Some(&10));
        assert_eq!(figure1_block_sizes().last(), Some(&400));
        assert_eq!(figure1_conflicts().len(), 11);
        assert_eq!(figure1_conflicts()[0], 0.0);
        assert_eq!(*figure1_conflicts().last().unwrap(), 1.0);
    }

    #[test]
    fn measurement_speedups() {
        let m = Measurement {
            serial: Timing::from_samples(&[Duration::from_millis(30)]),
            miner: Timing::from_samples(&[Duration::from_millis(20)]),
            validator: Timing::from_samples(&[Duration::from_millis(15)]),
        };
        assert!((m.miner_speedup() - 1.5).abs() < 0.01);
        assert!((m.validator_speedup() - 2.0).abs() < 0.01);
    }

    #[test]
    fn read_heavy_transactions_hit_exact_counts_for_any_ratio() {
        let addr = cc_vm::Address::from_name("bench.mix.test");
        for (readers, writers) in [(0, 0), (6, 4), (2, 8), (7, 3), (1, 1), (10, 0), (0, 5)] {
            let txs = read_heavy_transactions(readers, writers, addr);
            assert_eq!(txs.len(), readers + writers);
            let actual_writers = txs
                .iter()
                .filter(|t| t.call.function == "increment")
                .count();
            assert_eq!(
                actual_writers, writers,
                "r{readers}/w{writers} produced {actual_writers} writers"
            );
        }
    }

    #[test]
    fn read_heavy_measurement_shows_flat_schedule() {
        let point = measure_read_heavy(24, 2, 2, 1);
        assert_eq!(point.readers, 24);
        assert_eq!(point.writers, 2);
        assert!(point.miner_ms > 0.0);
        // The structural claim: shared reads keep the schedule flat. An
        // alternating reader/writer chain can stretch the critical path,
        // but it must stay far below the all-exclusive full serialization.
        assert!(
            point.critical_path < point.exclusive_read_critical_path() / 2,
            "critical path {} should be well below the serialized {}",
            point.critical_path,
            point.exclusive_read_critical_path()
        );
        // No read-read edges: the edge count is bounded by readers×writers
        // plus nothing else (writer-writer pairs commute additively).
        assert!(point.hb_edges <= point.readers * point.writers);
    }

    #[test]
    fn strategies_measure_through_the_same_harness() {
        let workload = WorkloadSpec::new(Benchmark::EtherDoc, 16, 0.2).generate();
        let m = measure_with(&workload, ExecutionStrategy::OptimisticMvcc, 2, 1);
        assert!(m.serial.mean > Duration::ZERO);
        assert!(m.miner.mean > Duration::ZERO);
        assert!(m.validator.mean > Duration::ZERO);
    }

    #[test]
    fn abort_rate_point_compares_the_two_strategies() {
        let workload = WorkloadSpec::new(Benchmark::SimpleAuction, 20, 0.5).generate();
        let point = measure_abort_rate(&workload, 2, 1);
        assert_eq!(point.block_size, 20);
        assert!((point.conflict - 0.5).abs() < f64::EPSILON);
        assert!(point.serial_ms > 0.0);
        assert!(point.speculative_ms > 0.0);
        assert!(point.optimistic_ms > 0.0);
        assert!(point.optimistic_retries_per_block <= 4.0 * 20.0);
        assert!(point.speculative_abort_rate() >= 0.0);
        assert!(point.optimistic_abort_rate() >= 0.0);
    }

    #[test]
    fn small_measurement_end_to_end() {
        // A tiny end-to-end measurement to keep the harness itself under
        // test without taking benchmark-scale time.
        let workload = WorkloadSpec::new(Benchmark::Ballot, 20, 0.2).generate();
        let m = measure(&workload, 2, 1);
        assert!(m.serial.mean > Duration::ZERO);
        assert!(m.miner.mean > Duration::ZERO);
        assert!(m.validator.mean > Duration::ZERO);
        let sv = measure_serial_validation(&workload, 2, 1);
        assert!(sv.mean > Duration::ZERO);
    }
}
