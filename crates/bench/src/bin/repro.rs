//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [--threads N] [--reps R] [--quick] [--strategy NAME] [--json PATH] \
//!       [figure1-blocksize|figure1-conflict|table1|appendix-b|ablation|contention|micro|schedule|read-heavy|abort-rate|durability|pipeline|state-root|perf|all]
//! repro diff OLD.json NEW.json [--tolerance PCT] [--strict] [--section NAME]
//! ```
//!
//! * `figure1-blocksize` — Figure 1, left column: speedup vs. block size at
//!   15% conflict, for each of the four benchmarks.
//! * `figure1-conflict` — Figure 1, right column: speedup vs. conflict
//!   percentage at 200 transactions.
//! * `table1` — Table 1: per-benchmark average speedups for the two sweeps.
//! * `appendix-b` — the same sweeps reported as mean ± stddev running time
//!   (ms) for serial, miner and validator.
//! * `ablation` — design-choice ablations not in the paper: validator
//!   thread scaling, trace-check overhead, serial re-validation.
//! * `contention` — lock-manager throughput: threads × disjoint / hot /
//!   read-heavy (shared-mode) mixes, sharded manager vs. the pre-sharding
//!   global-mutex baseline.
//! * `micro` — per-operation cost of the boosted-storage hot path
//!   (insert/get/update/add and a read-heavy transaction, plus the
//!   pre-typed-undo boxed-closure baseline).
//! * `schedule` — the schedule pipeline itself: happens-before graph
//!   build time, published edge count (vs. the pre-reduction all-pairs
//!   count) and encoded metadata bytes on chain / antichain / hot-key /
//!   mixed-mode block shapes.
//! * `read-heavy` — engine-level read-heavy hot-key blocks: miner time,
//!   blocking waits and schedule shape (shared reads keep the critical
//!   path flat where exclusive reads serialized the block).
//! * `abort-rate` — pessimistic vs optimistic abort accounting across the
//!   conflict sweep: deadlock-victim retries (speculative STM) against
//!   first-committer-wins validation failures (optimistic MVCC), plus the
//!   optimistic strategy's validation-free read-only commit count.
//! * `durability` — per-block commit latency of a durable node under
//!   each WAL mode (`off` / `buffered` / `fsync`): what group commit
//!   costs, and proof the `Off` mode stays free.
//! * `pipeline` — ingestion-to-commit throughput from a prefilled
//!   mempool: durability `off/buffered/fsync` × production `seq/pipe`
//!   (sequential `mine_pending` loop vs. the pipelined producer that
//!   overlaps each block's WAL seal/fsync with mining the next). Also
//!   verifies the pipeline's persist-failure path end to end (WAL fault
//!   injection → stale + rollback → recovery) and exits non-zero if any
//!   of those invariants break, which is what the CI smoke step runs.
//! * `state-root` — `World::state_root()` after one 200-transaction
//!   Mixed block at 1 k / 20 k / 100 k accounts: first (cold) root vs.
//!   incremental root, with the work counts (`cc_vm::StateRootStats`)
//!   that say where the time went.
//! * `perf` — `micro` + `schedule` + `read-heavy` + `abort-rate` +
//!   `contention` + `durability` + `pipeline` + `state-root`: the
//!   sections the committed baseline (`BENCH_BASELINE.json`) and the CI
//!   smoke diff track.
//! * `all` (default) — everything above.
//! * `diff OLD.json NEW.json` — compares two `--json` outputs
//!   per-benchmark and flags deltas beyond `--tolerance` (default 25%);
//!   with `--strict`, regressions make the exit status non-zero, and
//!   `--section NAME` restricts the comparison to one section (e.g.
//!   `--section stm_micro`), which is how CI gates the per-op hot-path
//!   numbers strictly while keeping the full-suite diff informational.
//!
//! `--strategy NAME` selects the concurrent strategy the Figure-1 sweeps
//! measure against the serial baseline (`speculative-stm` by default;
//! `optimistic-mvcc` benchmarks the multi-version back-end through the
//! identical harness). The `abort-rate` section always measures both
//! concurrent strategies, whatever `--strategy` says.
//!
//! `--quick` shrinks the sweeps (fewer points, 2 repetitions) so the whole
//! run finishes in a couple of minutes; the full run mirrors the paper's
//! 5 repetitions + 3 warm-ups. The `stm_micro` section is exempt from the
//! shrinking: its numbers are strictly CI-gated against the committed
//! baseline, so quick runs must not bias them (see `micro_ops`).
//!
//! `--json PATH` additionally writes the run's sweep data — the Figure-1
//! block-size/conflict sweeps, the contention suite and the micro suite,
//! whichever the command produced (ablation output is print-only) — to
//! `PATH` as a JSON document. A perf PR regenerates the committed
//! `BENCH_BASELINE.json` from a quiet `perf` run; git history is the
//! trajectory.

use cc_bench::contention::{contention_threads, measure_contention, Backend, ContentionPoint, Mix};
use cc_bench::durability::{run_durability, DurabilityPoint};
use cc_bench::json::Json;
use cc_bench::micro::{run_micro, MicroPoint};
use cc_bench::pipeline::{
    run_follower, run_pipeline, verify_failure_path, verify_follower_failure_path, PipelinePoint,
};
use cc_bench::schedule::{run_schedule, SchedulePoint};
use cc_bench::state_root::{run_state_root, StateRootPoint, BLOCK_SIZE};
use cc_bench::{
    average_speedups, engine, figure1_block_sizes, figure1_conflicts, measure, measure_abort_rate,
    measure_read_heavy, measure_serial_validation, measure_with, AbortRatePoint, ReadHeavyPoint,
    SweepPoint, DEFAULT_THREADS, REPETITIONS,
};
use cc_core::engine::{Engine, EngineConfig, ExecutionStrategy};
use cc_workload::{Benchmark, WorkloadSpec};

#[derive(Debug, Clone)]
struct Options {
    threads: usize,
    repetitions: usize,
    quick: bool,
    /// The concurrent strategy the Figure-1 sweeps measure against the
    /// serial baseline (`--strategy serial` is accepted but degenerate:
    /// it measures the baseline against itself).
    strategy: ExecutionStrategy,
    command: String,
    /// Positional arguments after the command (used by `diff`).
    operands: Vec<String>,
    json_path: Option<String>,
    /// `diff`: relative delta (percent) beyond which a worse result is
    /// flagged as a regression.
    tolerance: f64,
    /// `diff`: exit non-zero when regressions are flagged.
    strict: bool,
    /// `diff`: restrict the comparison to one section's metrics
    /// (label prefix, e.g. `stm_micro`).
    section: Option<String>,
}

fn parse_args() -> Options {
    let mut options = Options {
        threads: DEFAULT_THREADS,
        repetitions: REPETITIONS,
        quick: false,
        strategy: ExecutionStrategy::SpeculativeStm,
        command: "all".to_string(),
        operands: Vec::new(),
        json_path: None,
        tolerance: 25.0,
        strict: false,
        section: None,
    };
    let mut saw_command = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => {
                options.threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(DEFAULT_THREADS);
                if options.threads == 0 {
                    eprintln!("--threads must be at least 1");
                    std::process::exit(2);
                }
            }
            "--reps" => {
                options.repetitions = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(REPETITIONS);
            }
            "--quick" => options.quick = true,
            "--strict" => options.strict = true,
            "--strategy" => match args.next().map(|v| v.parse::<ExecutionStrategy>()) {
                Some(Ok(strategy)) => options.strategy = strategy,
                Some(Err(err)) => {
                    eprintln!("--strategy: {err}");
                    std::process::exit(2);
                }
                None => {
                    eprintln!(
                        "--strategy requires a name (serial, speculative-stm or optimistic-mvcc)"
                    );
                    std::process::exit(2);
                }
            },
            "--tolerance" => match args.next().and_then(|v| v.parse().ok()) {
                Some(pct) => options.tolerance = pct,
                None => {
                    eprintln!("--tolerance requires a percentage");
                    std::process::exit(2);
                }
            },
            "--section" => match args.next() {
                Some(name) => options.section = Some(name),
                None => {
                    eprintln!("--section requires a section name (e.g. stm_micro)");
                    std::process::exit(2);
                }
            },
            "--json" => match args.next() {
                Some(path) => options.json_path = Some(path),
                None => {
                    eprintln!("--json requires a file path");
                    std::process::exit(2);
                }
            },
            other if !other.starts_with("--") => {
                if saw_command {
                    options.operands.push(other.to_string());
                } else {
                    options.command = other.to_string();
                    saw_command = true;
                }
            }
            other => eprintln!("ignoring unknown flag {other}"),
        }
    }
    if options.quick {
        options.repetitions = options.repetitions.min(2);
    }
    options
}

fn block_sizes(quick: bool) -> Vec<usize> {
    if quick {
        vec![10, 100, 200, 400]
    } else {
        figure1_block_sizes()
    }
}

fn conflicts(quick: bool) -> Vec<f64> {
    if quick {
        vec![0.0, 0.3, 0.6, 1.0]
    } else {
        figure1_conflicts()
    }
}

fn sweep_blocksize_points(benchmark: Benchmark, opts: &Options) -> Vec<SweepPoint> {
    block_sizes(opts.quick)
        .into_iter()
        .map(|block_size| {
            let workload = WorkloadSpec::new(benchmark, block_size, 0.15).generate();
            SweepPoint {
                block_size,
                conflict: 0.15,
                measurement: measure_with(&workload, opts.strategy, opts.threads, opts.repetitions),
            }
        })
        .collect()
}

fn sweep_conflict_points(benchmark: Benchmark, opts: &Options) -> Vec<SweepPoint> {
    conflicts(opts.quick)
        .into_iter()
        .map(|conflict| {
            let workload = WorkloadSpec::new(benchmark, 200, conflict).generate();
            SweepPoint {
                block_size: 200,
                conflict,
                measurement: measure_with(&workload, opts.strategy, opts.threads, opts.repetitions),
            }
        })
        .collect()
}

fn print_figure1_blocksize(opts: &Options) -> Vec<(Benchmark, Vec<SweepPoint>)> {
    println!(
        "\n== Figure 1 (left column): speedup vs. block size, 15% conflict, {} threads, {} ==",
        opts.threads, opts.strategy
    );
    let mut all = Vec::new();
    for benchmark in Benchmark::ALL {
        println!("\n-- {benchmark} --");
        println!(
            "{:>8} {:>14} {:>18}",
            "txns", "miner speedup", "validator speedup"
        );
        let points = sweep_blocksize_points(benchmark, opts);
        for p in &points {
            println!(
                "{:>8} {:>14.2} {:>18.2}",
                p.block_size,
                p.measurement.miner_speedup(),
                p.measurement.validator_speedup()
            );
        }
        all.push((benchmark, points));
    }
    all
}

fn print_figure1_conflict(opts: &Options) -> Vec<(Benchmark, Vec<SweepPoint>)> {
    println!(
        "\n== Figure 1 (right column): speedup vs. conflict %, 200 transactions, {} threads, {} ==",
        opts.threads, opts.strategy
    );
    let mut all = Vec::new();
    for benchmark in Benchmark::ALL {
        println!("\n-- {benchmark} --");
        println!(
            "{:>10} {:>14} {:>18}",
            "conflict", "miner speedup", "validator speedup"
        );
        let points = sweep_conflict_points(benchmark, opts);
        for p in &points {
            println!(
                "{:>9.0}% {:>14.2} {:>18.2}",
                p.conflict * 100.0,
                p.measurement.miner_speedup(),
                p.measurement.validator_speedup()
            );
        }
        all.push((benchmark, points));
    }
    all
}

fn print_table1(
    blocksize: &[(Benchmark, Vec<SweepPoint>)],
    conflict: &[(Benchmark, Vec<SweepPoint>)],
) {
    println!("\n== Table 1: average speedups per benchmark ==");
    println!(
        "{:>15} {:>16} {:>16} {:>20} {:>20}",
        "benchmark",
        "miner(conflict)",
        "miner(blocksize)",
        "validator(conflict)",
        "validator(blocksize)"
    );
    let mut overall_miner = Vec::new();
    let mut overall_validator = Vec::new();
    for (benchmark, bs_points) in blocksize {
        let conflict_points = conflict
            .iter()
            .find(|(b, _)| b == benchmark)
            .map(|(_, p)| p.as_slice())
            .unwrap_or(&[]);
        let (miner_conf, val_conf) = average_speedups(conflict_points);
        let (miner_bs, val_bs) = average_speedups(bs_points);
        println!(
            "{:>15} {:>15.2}x {:>15.2}x {:>19.2}x {:>19.2}x",
            benchmark.to_string(),
            miner_conf,
            miner_bs,
            val_conf,
            val_bs
        );
        overall_miner.extend([miner_conf, miner_bs]);
        overall_validator.extend([val_conf, val_bs]);
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "\nOverall average speedup: miner {:.2}x, validator {:.2}x (paper: 1.33x and 1.69x with 3 threads)",
        avg(&overall_miner),
        avg(&overall_validator)
    );
}

fn print_appendix_b(
    blocksize: &[(Benchmark, Vec<SweepPoint>)],
    conflict: &[(Benchmark, Vec<SweepPoint>)],
) {
    println!("\n== Appendix B: mean ± stddev running time (ms) ==");
    for (label, sweeps) in [
        ("block-size sweep (15% conflict)", blocksize),
        ("conflict sweep (200 txns)", conflict),
    ] {
        println!("\n-- {label} --");
        for (benchmark, points) in sweeps {
            println!("\n{benchmark}");
            println!(
                "{:>10} {:>10} {:>22} {:>22} {:>22}",
                "txns", "conflict", "serial (ms)", "miner (ms)", "validator (ms)"
            );
            for p in points {
                println!(
                    "{:>10} {:>9.0}% {:>13.2} ± {:>6.2} {:>13.2} ± {:>6.2} {:>13.2} ± {:>6.2}",
                    p.block_size,
                    p.conflict * 100.0,
                    p.measurement.serial.mean_ms(),
                    p.measurement.serial.stddev_ms(),
                    p.measurement.miner.mean_ms(),
                    p.measurement.miner.stddev_ms(),
                    p.measurement.validator.mean_ms(),
                    p.measurement.validator.stddev_ms(),
                );
            }
        }
    }
}

fn print_ablation(opts: &Options) {
    println!("\n== Ablation (not in the paper's tables) ==");
    let workload = WorkloadSpec::new(Benchmark::Mixed, 200, 0.15).generate();
    let base = measure(&workload, opts.threads, opts.repetitions);
    println!(
        "Mixed, 200 txns, 15% conflict, {} threads: serial {:.2} ms, parallel miner {:.2} ms, fork-join validator {:.2} ms",
        opts.threads,
        base.serial.mean_ms(),
        base.miner.mean_ms(),
        base.validator.mean_ms()
    );

    // (a) Serial re-validation (what validators do today).
    let serial_validation = measure_serial_validation(&workload, opts.threads, opts.repetitions);
    println!(
        "  serial re-validation: {:.2} ms ({:.2}x vs fork-join validator)",
        serial_validation.mean_ms(),
        serial_validation.mean_ms() / base.validator.mean_ms()
    );

    // (b) Validator thread scaling (the fork-join program does not need to
    // match the miner's parallelism).
    let reference = engine(ExecutionStrategy::SpeculativeStm, opts.threads)
        .mine(&workload.build_world(), workload.transactions())
        .expect("reference block");
    let time_validator = |v: &Engine| {
        let mut samples = Vec::new();
        for _ in 0..opts.repetitions.max(1) {
            let world = workload.build_world();
            let start = std::time::Instant::now();
            v.validate(&world, &reference.block).expect("valid");
            samples.push(start.elapsed());
        }
        cc_bench::Timing::from_samples(&samples)
    };
    println!("  validator thread scaling (same block):");
    for threads in [1usize, 2, 3, 4, 6, 8] {
        let validator = engine(ExecutionStrategy::SpeculativeStm, threads);
        let timing = time_validator(&validator);
        println!("    {threads} thread(s): {:.2} ms", timing.mean_ms());
    }

    // (c) Trace-check overhead.
    let with_checks = engine(ExecutionStrategy::SpeculativeStm, opts.threads);
    let without_checks = EngineConfig::new()
        .threads(opts.threads)
        .check_traces(false)
        .build()
        .expect("valid config");
    let checked = time_validator(&with_checks);
    let unchecked = time_validator(&without_checks);
    println!(
        "  trace/race checking overhead: {:.2} ms with checks vs {:.2} ms without ({:.1}% overhead)",
        checked.mean_ms(),
        unchecked.mean_ms(),
        (checked.mean_ms() / unchecked.mean_ms() - 1.0) * 100.0
    );
}

fn contention_ops(quick: bool) -> usize {
    if quick {
        2_000
    } else {
        10_000
    }
}

fn print_contention(opts: &Options) -> Vec<ContentionPoint> {
    println!("\n== Lock-manager contention: committed lock txns/s ==");
    let ops = contention_ops(opts.quick);
    let mut points = Vec::new();
    for mix in [Mix::Disjoint, Mix::Hot, Mix::ReadHeavy] {
        println!("\n-- {mix} mix --");
        println!(
            "{:>8} {:>16} {:>16} {:>16}",
            "threads",
            Backend::Global.to_string(),
            Backend::Sharded1.to_string(),
            Backend::Sharded.to_string()
        );
        for &threads in &contention_threads() {
            let row: Vec<ContentionPoint> = [Backend::Global, Backend::Sharded1, Backend::Sharded]
                .into_iter()
                .map(|b| measure_contention(b, threads, ops, mix))
                .collect();
            println!(
                "{:>8} {:>16.0} {:>16.0} {:>16.0}",
                threads, row[0].ops_per_sec, row[1].ops_per_sec, row[2].ops_per_sec
            );
            points.extend(row);
        }
    }
    let find = |mix: Mix, backend: Backend, threads: usize| {
        points
            .iter()
            .find(|p| p.mix == mix && p.backend == backend && p.threads == threads)
            .map(|p| p.ops_per_sec)
    };
    if let (Some(global), Some(sharded)) = (
        find(Mix::Disjoint, Backend::Global, 8),
        find(Mix::Disjoint, Backend::Sharded, 8),
    ) {
        println!(
            "\n8-thread disjoint workload: sharded manager {:.2}x the global-mutex baseline",
            sharded / global
        );
    }
    let find_waits = |mix: Mix, backend: Backend, threads: usize| {
        points
            .iter()
            .find(|p| p.mix == mix && p.backend == backend && p.threads == threads)
            .map(|p| p.waits_per_1k)
    };
    if let (Some(hot), Some(read_heavy)) = (
        find(Mix::Hot, Backend::Sharded, 8),
        find(Mix::ReadHeavy, Backend::Sharded, 8),
    ) {
        println!(
            "8-thread hot key: shared-mode read-heavy mix {:.2}x the all-exclusive mix's throughput",
            read_heavy / hot
        );
    }
    if let (Some(hot), Some(read_heavy)) = (
        find_waits(Mix::Hot, Backend::Sharded, 8),
        find_waits(Mix::ReadHeavy, Backend::Sharded, 8),
    ) {
        println!(
            "8-thread hot key conflict rate: {hot:.1} waits/1k txns all-exclusive vs \
             {read_heavy:.1} waits/1k txns read-heavy (shared readers do not block)"
        );
    }
    points
}

fn micro_ops(_quick: bool) -> usize {
    // Deliberately NOT shrunk by --quick: the stm_micro section is the
    // strictly CI-gated hot-path scoreboard, and fewer iterations bias
    // every case 30–50% high (worse warm-up, worse amortization of the
    // timing loop) — the gate would then compare a quick smoke run
    // against the committed full-run baseline and flag phantom
    // regressions. The full iteration count costs only a few seconds.
    100_000
}

fn print_micro(opts: &Options) -> Vec<MicroPoint> {
    println!("\n== Boosted-storage per-operation cost ==");
    let points = run_micro(micro_ops(opts.quick));
    println!("{:>28} {:>12}", "case", "ns/op");
    for p in &points {
        println!("{:>28} {:>12.0}", p.name, p.ns_per_op);
    }
    let find = |name: &str| points.iter().find(|p| p.name == name).map(|p| p.ns_per_op);
    if let (Some(typed), Some(boxed)) =
        (find("map-insert-commit"), find("map-insert-boxed-baseline"))
    {
        println!(
            "\ntyped undo log: map insert {:.0} ns/op vs {:.0} ns/op for the \
             pre-PR boxed-closure path ({:.1}% cheaper)",
            typed,
            boxed,
            (1.0 - typed / boxed) * 100.0
        );
    }
    points
}

fn schedule_passes(quick: bool) -> usize {
    if quick {
        3
    } else {
        9
    }
}

fn print_schedule(opts: &Options) -> Vec<SchedulePoint> {
    println!("\n== Schedule pipeline: build time, edges, metadata bytes ==");
    let points = run_schedule(schedule_passes(opts.quick));
    println!(
        "{:>12} {:>8} {:>12} {:>10} {:>14} {:>10} {:>12}",
        "shape", "txns", "build (µs)", "edges", "all-pairs", "crit path", "meta bytes"
    );
    for p in &points {
        println!(
            "{:>12} {:>8} {:>12.1} {:>10} {:>14} {:>10} {:>12}",
            p.shape,
            p.txns,
            p.build_us,
            p.edges,
            p.all_pairs_edges,
            p.critical_path,
            p.metadata_bytes
        );
    }
    if let Some(chain) = points.iter().find(|p| p.shape == "chain") {
        println!(
            "\nchain reduction: {} published edges vs {} all-ordered-pairs ({:.0}x smaller)",
            chain.edges,
            chain.all_pairs_edges,
            chain.all_pairs_edges as f64 / chain.edges.max(1) as f64
        );
    }
    points
}

fn schedule_json(points: &[SchedulePoint]) -> Json {
    Json::Array(
        points
            .iter()
            .map(|p| {
                Json::object([
                    ("shape", Json::str(p.shape)),
                    ("txns", Json::num(p.txns as u32)),
                    ("build_us", Json::num(p.build_us)),
                    ("edges", Json::num(p.edges as u32)),
                    ("all_pairs_edges", Json::num(p.all_pairs_edges as u32)),
                    ("critical_path", Json::num(p.critical_path as u32)),
                    ("metadata_bytes", Json::num(p.metadata_bytes as u32)),
                ])
            })
            .collect(),
    )
}

fn timing_json(t: &cc_bench::Timing) -> Json {
    Json::object([
        ("mean_ms", Json::num(t.mean_ms())),
        ("stddev_ms", Json::num(t.stddev_ms())),
    ])
}

fn sweeps_json(sweeps: &[(Benchmark, Vec<SweepPoint>)]) -> Json {
    Json::Array(
        sweeps
            .iter()
            .map(|(benchmark, points)| {
                Json::object([
                    ("benchmark", Json::str(benchmark.to_string())),
                    (
                        "points",
                        Json::Array(
                            points
                                .iter()
                                .map(|p| {
                                    Json::object([
                                        ("block_size", Json::num(p.block_size as u32)),
                                        ("conflict", Json::num(p.conflict)),
                                        ("serial", timing_json(&p.measurement.serial)),
                                        ("miner", timing_json(&p.measurement.miner)),
                                        ("validator", timing_json(&p.measurement.validator)),
                                        ("miner_speedup", Json::num(p.measurement.miner_speedup())),
                                        (
                                            "validator_speedup",
                                            Json::num(p.measurement.validator_speedup()),
                                        ),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}

fn contention_json(points: &[ContentionPoint]) -> Json {
    Json::Array(
        points
            .iter()
            .map(|p| {
                Json::object([
                    ("mix", Json::str(p.mix.to_string())),
                    ("backend", Json::str(p.backend.to_string())),
                    ("threads", Json::num(p.threads as u32)),
                    ("txns_per_sec", Json::num(p.ops_per_sec)),
                    ("waits_per_1k", Json::num(p.waits_per_1k)),
                ])
            })
            .collect(),
    )
}

/// The `(readers, writers)` block shapes the read-heavy sweep measures.
fn read_heavy_shapes(quick: bool) -> Vec<(usize, usize)> {
    if quick {
        vec![(60, 4), (48, 16)]
    } else {
        vec![(126, 2), (120, 8), (96, 32)]
    }
}

fn print_read_heavy(opts: &Options) -> Vec<ReadHeavyPoint> {
    println!(
        "\n== Read-heavy blocks (shared-mode reads of one hot key, {} threads) ==",
        opts.threads
    );
    println!(
        "{:>8} {:>8} {:>12} {:>12} {:>12} {:>10} {:>16}",
        "readers", "writers", "miner (ms)", "waits/blk", "retries/blk", "hb edges", "critical path"
    );
    let mut points = Vec::new();
    for (readers, writers) in read_heavy_shapes(opts.quick) {
        let p = measure_read_heavy(readers, writers, opts.threads, opts.repetitions);
        println!(
            "{:>8} {:>8} {:>12.2} {:>12.1} {:>12.1} {:>10} {:>9} (vs {})",
            p.readers,
            p.writers,
            p.miner_ms,
            p.waits_per_block,
            p.retries_per_block,
            p.hb_edges,
            p.critical_path,
            p.exclusive_read_critical_path()
        );
        points.push(p);
    }
    println!(
        "\n(\"vs N\": the critical path the same block had when reads took their \
         abstract locks exclusively — the whole block serialized)"
    );
    points
}

fn read_heavy_json(points: &[ReadHeavyPoint]) -> Json {
    Json::Array(
        points
            .iter()
            .map(|p| {
                Json::object([
                    ("readers", Json::num(p.readers as u32)),
                    ("writers", Json::num(p.writers as u32)),
                    ("threads", Json::num(p.threads as u32)),
                    ("miner_ms", Json::num(p.miner_ms)),
                    ("waits_per_block", Json::num(p.waits_per_block)),
                    ("retries_per_block", Json::num(p.retries_per_block)),
                    ("hb_edges", Json::num(p.hb_edges as u32)),
                    ("critical_path", Json::num(p.critical_path as u32)),
                    (
                        "exclusive_read_critical_path",
                        Json::num(p.exclusive_read_critical_path() as u32),
                    ),
                ])
            })
            .collect(),
    )
}

/// The conflict fractions the abort-rate sweep measures (a subset of the
/// Figure-1 conflict axis; abort behaviour changes slowly with conflict,
/// so fewer points suffice).
fn abort_rate_conflicts(quick: bool) -> Vec<f64> {
    if quick {
        vec![0.0, 0.5, 1.0]
    } else {
        vec![0.0, 0.15, 0.3, 0.6, 1.0]
    }
}

fn abort_rate_block_size(quick: bool) -> usize {
    if quick {
        100
    } else {
        200
    }
}

fn print_abort_rate(opts: &Options) -> Vec<(Benchmark, Vec<AbortRatePoint>)> {
    println!(
        "\n== Abort rates: pessimistic (deadlock victims) vs optimistic (validation failures), {} threads ==",
        opts.threads
    );
    let block_size = abort_rate_block_size(opts.quick);
    let mut all = Vec::new();
    for benchmark in Benchmark::ALL {
        println!("\n-- {benchmark} ({block_size} txns) --");
        println!(
            "{:>10} {:>14} {:>12} {:>14} {:>12} {:>12} {:>12}",
            "conflict",
            "spec aborts",
            "spec waits",
            "opt aborts",
            "opt r/o",
            "spec (ms)",
            "opt (ms)"
        );
        let mut points = Vec::new();
        for conflict in abort_rate_conflicts(opts.quick) {
            let workload = WorkloadSpec::new(benchmark, block_size, conflict).generate();
            let p = measure_abort_rate(&workload, opts.threads, opts.repetitions);
            println!(
                "{:>9.0}% {:>14.1} {:>12.1} {:>14.1} {:>12.1} {:>12.2} {:>12.2}",
                p.conflict * 100.0,
                p.speculative_retries_per_block,
                p.speculative_waits_per_block,
                p.optimistic_retries_per_block,
                p.optimistic_read_only_per_block,
                p.speculative_ms,
                p.optimistic_ms,
            );
            points.push(p);
        }
        all.push((benchmark, points));
    }
    println!(
        "\n(\"spec aborts\": deadlock-victim retries per block under speculative STM; \
         \"opt aborts\": first-committer-wins validation failures per block under \
         optimistic MVCC; \"opt r/o\": optimistic commits that skipped validation \
         entirely — read-only transactions never abort)"
    );
    all
}

fn abort_rate_json(sweeps: &[(Benchmark, Vec<AbortRatePoint>)]) -> Json {
    Json::Array(
        sweeps
            .iter()
            .map(|(benchmark, points)| {
                Json::object([
                    ("benchmark", Json::str(benchmark.to_string())),
                    (
                        "points",
                        Json::Array(
                            points
                                .iter()
                                .map(|p| {
                                    Json::object([
                                        ("block_size", Json::num(p.block_size as u32)),
                                        ("conflict", Json::num(p.conflict)),
                                        (
                                            "speculative_retries_per_block",
                                            Json::num(p.speculative_retries_per_block),
                                        ),
                                        (
                                            "speculative_waits_per_block",
                                            Json::num(p.speculative_waits_per_block),
                                        ),
                                        (
                                            "optimistic_retries_per_block",
                                            Json::num(p.optimistic_retries_per_block),
                                        ),
                                        (
                                            "optimistic_read_only_per_block",
                                            Json::num(p.optimistic_read_only_per_block),
                                        ),
                                        ("speculative_ms", Json::num(p.speculative_ms)),
                                        ("optimistic_ms", Json::num(p.optimistic_ms)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}

/// The `(blocks, block_size)` shape the durability sweep mines per mode.
fn durability_shape(quick: bool) -> (u64, u64) {
    if quick {
        (3, 16)
    } else {
        (8, 32)
    }
}

fn print_durability(opts: &Options) -> Vec<DurabilityPoint> {
    println!(
        "\n== Durable block commit: WAL cost per sealed block, {} threads ==",
        opts.threads
    );
    let (blocks, block_size) = durability_shape(opts.quick);
    let points = run_durability(blocks, block_size, opts.threads, opts.repetitions);
    println!("{:>24} {:>14}", "case", "ms/block");
    for p in &points {
        println!("{:>24} {:>14.3}", p.name, p.ms_per_block);
    }
    let find = |name: &str| {
        points
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.ms_per_block)
    };
    if let (Some(off), Some(fsync)) = (find("block-commit-off"), find("block-commit-fsync")) {
        println!(
            "\ngroup commit: one fsync per {block_size}-txn block costs {:.3} ms/block \
             over the in-memory baseline ({:.3} µs amortized per txn)",
            fsync - off,
            (fsync - off) * 1000.0 / block_size as f64
        );
    }
    points
}

/// The `(blocks, block_size)` shape each pipeline case drains. Blocks
/// are deliberately small: mining an 8-transaction block still takes
/// longer than one fdatasync (so the overlap can hide the sync fully)
/// but the sync is a measurable fraction of per-block cost, instead of
/// noise under tens of milliseconds of mining. Many blocks per run
/// amortize pipeline spin-up and give the overlap many samples.
fn pipeline_shape(quick: bool) -> (u64, u64) {
    if quick {
        (4, 8)
    } else {
        (16, 8)
    }
}

fn print_pipeline(opts: &Options) -> Vec<PipelinePoint> {
    println!(
        "\n== Ingestion → commit: sequential vs. pipelined production, {} threads ==",
        opts.threads
    );
    let (blocks, block_size) = pipeline_shape(opts.quick);
    let points = run_pipeline(blocks, block_size, opts.threads, opts.repetitions);
    println!("{:>22} {:>14} {:>14}", "case", "ms/block", "txns/s");
    for p in &points {
        println!(
            "{:>22} {:>14.3} {:>14.0}",
            p.name, p.ms_per_block, p.txns_per_sec
        );
    }
    let find = |name: &str| {
        points
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.ms_per_block)
    };
    if let (Some(seq), Some(pipe)) = (find("ingest-fsync-seq"), find("ingest-fsync-pipe")) {
        println!(
            "\npipelining under fsync: {seq:.3} ms/block sequential vs {pipe:.3} ms/block \
             pipelined ({:.1}% of the per-block fsync hidden behind mining)",
            (1.0 - pipe / seq) * 100.0
        );
    }
    print!("\npersist-failure path (WAL fault injection → stale + rollback → recovery): ");
    match verify_failure_path(opts.threads) {
        Ok(()) => println!("ok"),
        Err(reason) => {
            println!("FAILED");
            eprintln!("pipeline failure-path invariant violated: {reason}");
            std::process::exit(1);
        }
    }

    println!(
        "\n== Follower: sequential vs. speculative validation, {} threads ==",
        opts.threads
    );
    let mut points = points;
    let follower = run_follower(blocks, block_size, opts.threads, opts.repetitions);
    println!("{:>22} {:>14} {:>14}", "case", "ms/block", "txns/s");
    for p in &follower {
        println!(
            "{:>22} {:>14.3} {:>14.0}",
            p.name, p.ms_per_block, p.txns_per_sec
        );
    }
    let find = |name: &str| {
        follower
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.ms_per_block)
    };
    if let (Some(seq), Some(spec)) = (find("follower-fsync-seq"), find("follower-fsync-spec")) {
        println!(
            "\nspeculation under fsync: {seq:.3} ms/block sequential vs {spec:.3} ms/block \
             speculative ({:.1}% of the per-block fsync hidden behind validation)",
            (1.0 - spec / seq) * 100.0
        );
    }
    print!("\nfollower persist-failure path (seal fault → stale + discard pending + rollback → recovery): ");
    match verify_follower_failure_path(opts.threads) {
        Ok(()) => println!("ok"),
        Err(reason) => {
            println!("FAILED");
            eprintln!("follower failure-path invariant violated: {reason}");
            std::process::exit(1);
        }
    }
    points.extend(follower);
    points
}

fn pipeline_json(points: &[PipelinePoint]) -> Json {
    Json::Array(
        points
            .iter()
            .map(|p| {
                Json::object([
                    ("name", Json::str(p.name)),
                    ("txns_per_sec", Json::num(p.txns_per_sec)),
                    ("ms_per_block", Json::num(p.ms_per_block)),
                ])
            })
            .collect(),
    )
}

fn durability_json(points: &[DurabilityPoint]) -> Json {
    Json::Array(
        points
            .iter()
            .map(|p| {
                Json::object([
                    ("name", Json::str(p.name)),
                    ("ms_per_block", Json::num(p.ms_per_block)),
                ])
            })
            .collect(),
    )
}

/// World sizes (accounts) of the state-root section. The quick run drops
/// the 100 k world: generating it dominates a smoke run.
fn state_root_accounts(quick: bool) -> &'static [usize] {
    if quick {
        &[1_000, 20_000]
    } else {
        &[1_000, 20_000, 100_000]
    }
}

fn print_state_root(opts: &Options) -> Vec<StateRootPoint> {
    println!("\n== State root after one {BLOCK_SIZE}-txn Mixed block: cold vs. incremental ==");
    let points = run_state_root(state_root_accounts(opts.quick), opts.repetitions);
    println!(
        "{:>9} {:>12} {:>12} {:>8} | {:>7} {:>9} {:>11} | {:>9} {:>11}",
        "accounts",
        "cold µs",
        "incr µs",
        "ratio",
        "leaves",
        "entries",
        "bytes",
        "cold ent.",
        "cold bytes"
    );
    for p in &points {
        println!(
            "{:>9} {:>12.1} {:>12.1} {:>7.1}x | {:>7} {:>9} {:>11} | {:>9} {:>11}",
            p.accounts,
            p.cold_us,
            p.incremental_us,
            p.cold_us / p.incremental_us,
            p.incremental.dirty_leaves,
            p.incremental.entries_rehashed,
            p.incremental.bytes_hashed,
            p.cold.entries_rehashed,
            p.cold.bytes_hashed,
        );
    }
    points
}

fn state_root_json(points: &[StateRootPoint]) -> Json {
    Json::Array(
        points
            .iter()
            .map(|p| {
                Json::object([
                    ("accounts", Json::num(p.accounts as u32)),
                    ("cold_us", Json::num(p.cold_us)),
                    ("incremental_us", Json::num(p.incremental_us)),
                    ("dirty_leaves", Json::num(p.incremental.dirty_leaves as f64)),
                    (
                        "entries_rehashed",
                        Json::num(p.incremental.entries_rehashed as f64),
                    ),
                    ("bytes_hashed", Json::num(p.incremental.bytes_hashed as f64)),
                    (
                        "cold_entries_rehashed",
                        Json::num(p.cold.entries_rehashed as f64),
                    ),
                    ("cold_bytes_hashed", Json::num(p.cold.bytes_hashed as f64)),
                ])
            })
            .collect(),
    )
}

fn micro_json(points: &[MicroPoint]) -> Json {
    Json::Array(
        points
            .iter()
            .map(|p| {
                Json::object([
                    ("name", Json::str(p.name)),
                    ("ns_per_op", Json::num(p.ns_per_op)),
                ])
            })
            .collect(),
    )
}

// ---- `repro diff`: compare two --json outputs ---------------------------

/// Whether larger values of a metric are better (throughput) or worse
/// (latency / per-op cost).
#[derive(Clone, Copy, PartialEq)]
enum Direction {
    HigherIsBetter,
    LowerIsBetter,
}

/// One comparable metric extracted from a bench JSON: a stable label and
/// its value.
struct Metric {
    label: String,
    value: f64,
    direction: Direction,
}

/// Flattens every known section of a bench JSON into labelled metrics.
fn extract_metrics(doc: &Json) -> Vec<Metric> {
    let mut out = Vec::new();
    if let Some(points) = doc.get("stm_micro").and_then(Json::as_array) {
        for p in points {
            if let (Some(name), Some(value)) = (
                p.get("name").and_then(Json::as_str),
                p.get("ns_per_op").and_then(Json::as_f64),
            ) {
                out.push(Metric {
                    label: format!("stm_micro/{name} (ns/op)"),
                    value,
                    direction: Direction::LowerIsBetter,
                });
            }
        }
    }
    if let Some(points) = doc.get("schedule").and_then(Json::as_array) {
        for p in points {
            let Some(shape) = p.get("shape").and_then(Json::as_str) else {
                continue;
            };
            for metric in ["build_us", "edges", "metadata_bytes"] {
                if let Some(value) = p.get(metric).and_then(Json::as_f64) {
                    out.push(Metric {
                        label: format!("schedule/{shape}/{metric}"),
                        value,
                        direction: Direction::LowerIsBetter,
                    });
                }
            }
        }
    }
    if let Some(points) = doc.get("read_heavy").and_then(Json::as_array) {
        for p in points {
            let (Some(readers), Some(writers)) = (
                p.get("readers").and_then(Json::as_f64),
                p.get("writers").and_then(Json::as_f64),
            ) else {
                continue;
            };
            for (metric, direction) in [
                ("miner_ms", Direction::LowerIsBetter),
                ("waits_per_block", Direction::LowerIsBetter),
                ("critical_path", Direction::LowerIsBetter),
            ] {
                if let Some(value) = p.get(metric).and_then(Json::as_f64) {
                    out.push(Metric {
                        label: format!("read_heavy/r{readers}-w{writers}/{metric}"),
                        value,
                        direction,
                    });
                }
            }
        }
    }
    if let Some(sweeps) = doc.get("abort_rate").and_then(Json::as_array) {
        for sweep in sweeps {
            let Some(benchmark) = sweep.get("benchmark").and_then(Json::as_str) else {
                continue;
            };
            let Some(points) = sweep.get("points").and_then(Json::as_array) else {
                continue;
            };
            for p in points {
                let Some(conflict) = p.get("conflict").and_then(Json::as_f64) else {
                    continue;
                };
                for metric in [
                    "speculative_retries_per_block",
                    "optimistic_retries_per_block",
                    "speculative_ms",
                    "optimistic_ms",
                ] {
                    if let Some(value) = p.get(metric).and_then(Json::as_f64) {
                        out.push(Metric {
                            label: format!("abort_rate/{benchmark}/c{conflict:.2}/{metric}"),
                            value,
                            direction: Direction::LowerIsBetter,
                        });
                    }
                }
            }
        }
    }
    if let Some(points) = doc.get("contention").and_then(Json::as_array) {
        for p in points {
            if let (Some(mix), Some(backend), Some(threads), Some(value)) = (
                p.get("mix").and_then(Json::as_str),
                p.get("backend").and_then(Json::as_str),
                p.get("threads").and_then(Json::as_f64),
                p.get("txns_per_sec").and_then(Json::as_f64),
            ) {
                out.push(Metric {
                    label: format!("contention/{mix}/{backend}/{threads}t (txns/s)"),
                    value,
                    direction: Direction::HigherIsBetter,
                });
            }
        }
    }
    if let Some(points) = doc.get("durability").and_then(Json::as_array) {
        for p in points {
            if let (Some(name), Some(value)) = (
                p.get("name").and_then(Json::as_str),
                p.get("ms_per_block").and_then(Json::as_f64),
            ) {
                out.push(Metric {
                    label: format!("durability/{name} (ms/block)"),
                    value,
                    direction: Direction::LowerIsBetter,
                });
            }
        }
    }
    if let Some(points) = doc.get("pipeline").and_then(Json::as_array) {
        for p in points {
            let Some(name) = p.get("name").and_then(Json::as_str) else {
                continue;
            };
            if let Some(value) = p.get("txns_per_sec").and_then(Json::as_f64) {
                out.push(Metric {
                    label: format!("pipeline/{name} (txns/s)"),
                    value,
                    direction: Direction::HigherIsBetter,
                });
            }
            if let Some(value) = p.get("ms_per_block").and_then(Json::as_f64) {
                out.push(Metric {
                    label: format!("pipeline/{name} (ms/block)"),
                    value,
                    direction: Direction::LowerIsBetter,
                });
            }
        }
    }
    if let Some(points) = doc.get("state_root").and_then(Json::as_array) {
        for p in points {
            let Some(accounts) = p.get("accounts").and_then(Json::as_f64) else {
                continue;
            };
            for metric in [
                "cold_us",
                "incremental_us",
                "dirty_leaves",
                "entries_rehashed",
                "bytes_hashed",
            ] {
                if let Some(value) = p.get(metric).and_then(Json::as_f64) {
                    out.push(Metric {
                        label: format!("state_root/a{accounts}/{metric}"),
                        value,
                        direction: Direction::LowerIsBetter,
                    });
                }
            }
        }
    }
    for section in ["figure1_blocksize", "figure1_conflict"] {
        if let Some(sweeps) = doc.get(section).and_then(Json::as_array) {
            for sweep in sweeps {
                let Some(benchmark) = sweep.get("benchmark").and_then(Json::as_str) else {
                    continue;
                };
                let Some(points) = sweep.get("points").and_then(Json::as_array) else {
                    continue;
                };
                for p in points {
                    let (Some(block_size), Some(conflict)) = (
                        p.get("block_size").and_then(Json::as_f64),
                        p.get("conflict").and_then(Json::as_f64),
                    ) else {
                        continue;
                    };
                    for role in ["serial", "miner", "validator"] {
                        if let Some(mean) = p
                            .get(role)
                            .and_then(|t| t.get("mean_ms"))
                            .and_then(Json::as_f64)
                        {
                            out.push(Metric {
                                label: format!(
                                    "{section}/{benchmark}/b{block_size}/c{conflict:.2}/{role} (ms)"
                                ),
                                value: mean,
                                direction: Direction::LowerIsBetter,
                            });
                        }
                    }
                }
            }
        }
    }
    out
}

fn load_bench_json(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|err| {
        eprintln!("cannot read {path}: {err}");
        std::process::exit(2);
    });
    Json::parse(&text).unwrap_or_else(|err| {
        eprintln!("cannot parse {path}: {err}");
        std::process::exit(2);
    })
}

/// Compares two bench JSONs and prints per-benchmark deltas. Returns the
/// number of regressions beyond the tolerance. `section` restricts the
/// comparison to metrics whose label lives under `section/`.
fn run_diff(old_path: &str, new_path: &str, tolerance: f64, section: Option<&str>) -> usize {
    let old_doc = load_bench_json(old_path);
    let new_doc = load_bench_json(new_path);
    let in_section = |m: &Metric| match section {
        Some(name) => m.label.starts_with(&format!("{name}/")),
        None => true,
    };
    let old_metrics: Vec<Metric> = extract_metrics(&old_doc)
        .into_iter()
        .filter(in_section)
        .collect();
    let new_metrics: Vec<Metric> = extract_metrics(&new_doc)
        .into_iter()
        .filter(in_section)
        .collect();
    if let Some(name) = section {
        // An empty gate would silently pass: regressions are only counted
        // over the label intersection, so a typo'd section name OR a
        // baseline missing the section (stale / generated by a different
        // command) must both fail loudly instead.
        for (metrics, path) in [(&new_metrics, new_path), (&old_metrics, old_path)] {
            if metrics.is_empty() {
                eprintln!("section {name} matched no metrics in {path}");
                std::process::exit(2);
            }
        }
    }

    let scope = section.unwrap_or("all sections");
    println!("== bench diff: {old_path} → {new_path} ({scope}, tolerance ±{tolerance:.0}%) ==\n");
    println!(
        "{:<64} {:>12} {:>12} {:>9}",
        "metric", "old", "new", "delta"
    );

    let mut regressions = 0usize;
    let mut improvements = 0usize;
    let mut compared = 0usize;
    for new_metric in &new_metrics {
        let Some(old_metric) = old_metrics.iter().find(|m| m.label == new_metric.label) else {
            continue;
        };
        compared += 1;
        if old_metric.value == 0.0 {
            continue;
        }
        let delta_pct = (new_metric.value - old_metric.value) / old_metric.value * 100.0;
        // A positive delta is worse for latency metrics and better for
        // throughput metrics.
        let worse_pct = match new_metric.direction {
            Direction::LowerIsBetter => delta_pct,
            Direction::HigherIsBetter => -delta_pct,
        };
        let verdict = if worse_pct > tolerance {
            regressions += 1;
            "REGRESSION"
        } else if worse_pct < -tolerance {
            improvements += 1;
            "improved"
        } else {
            ""
        };
        println!(
            "{:<64} {:>12.1} {:>12.1} {:>+8.1}% {}",
            new_metric.label, old_metric.value, new_metric.value, delta_pct, verdict
        );
    }

    let only_new = new_metrics
        .iter()
        .filter(|m| !old_metrics.iter().any(|o| o.label == m.label))
        .count();
    let only_old = old_metrics
        .iter()
        .filter(|m| !new_metrics.iter().any(|n| n.label == m.label))
        .count();
    println!(
        "\n{compared} metrics compared: {regressions} regression(s), {improvements} improvement(s) \
         beyond ±{tolerance:.0}%; {only_new} only in new, {only_old} only in old"
    );
    regressions
}

fn main() {
    let opts = parse_args();

    if opts.command == "diff" {
        let [old_path, new_path] = opts.operands.as_slice() else {
            eprintln!(
                "usage: repro diff OLD.json NEW.json [--tolerance PCT] [--strict] [--section NAME]"
            );
            std::process::exit(2);
        };
        let regressions = run_diff(old_path, new_path, opts.tolerance, opts.section.as_deref());
        if opts.strict && regressions > 0 {
            std::process::exit(1);
        }
        return;
    }
    println!(
        "concurrent-contracts reproduction harness — {} threads, {} repetitions, {} strategy{}",
        opts.threads,
        opts.repetitions,
        opts.strategy,
        if opts.quick { " (quick mode)" } else { "" }
    );

    let mut blocksize: Option<Vec<(Benchmark, Vec<SweepPoint>)>> = None;
    let mut conflict: Option<Vec<(Benchmark, Vec<SweepPoint>)>> = None;
    let mut contention: Option<Vec<ContentionPoint>> = None;
    let mut micro: Option<Vec<MicroPoint>> = None;
    let mut schedule: Option<Vec<SchedulePoint>> = None;
    let mut read_heavy: Option<Vec<ReadHeavyPoint>> = None;
    let mut abort_rate: Option<Vec<(Benchmark, Vec<AbortRatePoint>)>> = None;
    let mut durability: Option<Vec<DurabilityPoint>> = None;
    let mut pipeline: Option<Vec<PipelinePoint>> = None;
    let mut state_root: Option<Vec<StateRootPoint>> = None;

    match opts.command.as_str() {
        "figure1-blocksize" => {
            blocksize = Some(print_figure1_blocksize(&opts));
        }
        "figure1-conflict" => {
            conflict = Some(print_figure1_conflict(&opts));
        }
        "table1" => {
            let bs = print_figure1_blocksize(&opts);
            let cf = print_figure1_conflict(&opts);
            print_table1(&bs, &cf);
            blocksize = Some(bs);
            conflict = Some(cf);
        }
        "appendix-b" => {
            let bs = print_figure1_blocksize(&opts);
            let cf = print_figure1_conflict(&opts);
            print_appendix_b(&bs, &cf);
            blocksize = Some(bs);
            conflict = Some(cf);
        }
        "ablation" => {
            print_ablation(&opts);
        }
        "contention" => {
            contention = Some(print_contention(&opts));
        }
        "micro" => {
            micro = Some(print_micro(&opts));
        }
        "schedule" => {
            schedule = Some(print_schedule(&opts));
        }
        "read-heavy" => {
            read_heavy = Some(print_read_heavy(&opts));
        }
        "abort-rate" => {
            abort_rate = Some(print_abort_rate(&opts));
        }
        "durability" => {
            durability = Some(print_durability(&opts));
        }
        "pipeline" => {
            pipeline = Some(print_pipeline(&opts));
        }
        "state-root" => {
            state_root = Some(print_state_root(&opts));
        }
        "perf" => {
            micro = Some(print_micro(&opts));
            schedule = Some(print_schedule(&opts));
            read_heavy = Some(print_read_heavy(&opts));
            abort_rate = Some(print_abort_rate(&opts));
            contention = Some(print_contention(&opts));
            durability = Some(print_durability(&opts));
            pipeline = Some(print_pipeline(&opts));
            state_root = Some(print_state_root(&opts));
        }
        "all" => {
            let bs = print_figure1_blocksize(&opts);
            let cf = print_figure1_conflict(&opts);
            print_table1(&bs, &cf);
            print_appendix_b(&bs, &cf);
            print_ablation(&opts);
            blocksize = Some(bs);
            conflict = Some(cf);
            micro = Some(print_micro(&opts));
            schedule = Some(print_schedule(&opts));
            read_heavy = Some(print_read_heavy(&opts));
            abort_rate = Some(print_abort_rate(&opts));
            contention = Some(print_contention(&opts));
            durability = Some(print_durability(&opts));
            pipeline = Some(print_pipeline(&opts));
            state_root = Some(print_state_root(&opts));
        }
        other => {
            eprintln!("unknown command `{other}`");
            eprintln!("usage: repro [--threads N] [--reps R] [--quick] [--strategy NAME] [--json PATH] [figure1-blocksize|figure1-conflict|table1|appendix-b|ablation|contention|micro|schedule|read-heavy|abort-rate|durability|pipeline|state-root|perf|all]");
            eprintln!(
                "       repro diff OLD.json NEW.json [--tolerance PCT] [--strict] [--section NAME]"
            );
            std::process::exit(2);
        }
    }

    if let Some(path) = &opts.json_path {
        let mut sections: Vec<(&'static str, Json)> = vec![
            ("command", Json::str(opts.command.clone())),
            ("threads", Json::num(opts.threads as u32)),
            ("repetitions", Json::num(opts.repetitions as u32)),
            ("quick", Json::Bool(opts.quick)),
        ];
        if let Some(bs) = &blocksize {
            sections.push(("figure1_blocksize", sweeps_json(bs)));
        }
        if let Some(cf) = &conflict {
            sections.push(("figure1_conflict", sweeps_json(cf)));
        }
        if let Some(points) = &micro {
            sections.push(("stm_micro", micro_json(points)));
        }
        if let Some(points) = &schedule {
            sections.push(("schedule", schedule_json(points)));
        }
        if let Some(points) = &read_heavy {
            sections.push(("read_heavy", read_heavy_json(points)));
        }
        if let Some(sweeps) = &abort_rate {
            sections.push(("abort_rate", abort_rate_json(sweeps)));
        }
        if let Some(points) = &contention {
            sections.push(("contention", contention_json(points)));
        }
        if let Some(points) = &durability {
            sections.push(("durability", durability_json(points)));
        }
        if let Some(points) = &pipeline {
            sections.push(("pipeline", pipeline_json(points)));
        }
        if let Some(points) = &state_root {
            sections.push(("state_root", state_root_json(points)));
        }
        let doc = Json::object(sections);
        match std::fs::write(path, doc.to_pretty()) {
            Ok(()) => println!("\nwrote {path}"),
            Err(err) => {
                eprintln!("failed to write {path}: {err}");
                std::process::exit(1);
            }
        }
    }
}
