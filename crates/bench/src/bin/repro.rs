//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [--threads N] [--reps R] [--quick] [--strategy speculative-stm|optimistic-mvcc] [--json PATH] [COMMAND]
//! repro diff OLD.json[,OLD2.json…] NEW.json[,NEW2.json…] [--tolerance PCT] [--strict] [--section NAME]
//! ```
//!
//! Every number belongs to one **section**, and every section measures one
//! [`Table`] (`cc_bench::table`): key columns that name a row, and metric
//! columns that carry a unit and say whether higher or lower is better.
//! The same table is printed, written by `--json` and read back by `diff`.
//! A command runs a list of sections ([`command_sections`]):
//!
//! * `figure1-blocksize` / `figure1-conflict` — Figure 1's left and right
//!   columns: serial / miner / validator ms ± stddev and both speedups,
//!   `--strategy` (`speculative-stm`, the default, or `optimistic-mvcc`)
//!   against the serial baseline, the speculative strategy on one worker.
//!   `appendix-b` runs both: their ms ± stddev columns are Appendix B.
//! * `table1` — both Figure-1 sections, then Table 1 derived from them,
//!   ending with the overall mean and the paper's 1.33× / 1.69×.
//! * `ablation`, `contention`, `micro` (section `stm_micro`), `schedule`,
//!   `read-heavy`, `abort-rate` (both concurrent strategies, whatever
//!   `--strategy` says) — one section each; `state-root` — sections
//!   `state_root` and `digest` (the short digests a world build hashes).
//! * `perf` — the seven sections from `stm_micro` on (`BENCH_BASELINE.json`
//!   holds all but `digest`, which enters with its next regeneration);
//!   `all` (default) — every section.
//! * `diff OLD.json NEW.json` — compares two `--json` outputs label by
//!   label and flags deltas beyond `--tolerance` (default 25%). With
//!   `--strict`, a regression — or a label of OLD missing from NEW — exits
//!   1; `--section NAME` restricts the comparison (CI gates `stm_micro`).
//!   Either side may be several runs of one build, comma-separated
//!   (`a1.json,a2.json,…`): each label is then its median over them, so
//!   alternating runs of two builds compare median against median
//!   (`scripts/paired_micro.sh`).
//!
//! The node paths (ingest → commit, WAL modes, the follower) are measured
//! by the node benchmark (`benchmark/`), not here. `--quick` shrinks the
//! sweeps and caps repetitions at 2, except `stm_micro` ([`MICRO_OPS`]).
//!
//! The header also prints the host's two-thread spin check
//! ([`cc_bench::spin_ratio`], [`SPIN_UNITS`]), measured at start-up: a
//! reading near 2.0 says the second core was parked or busy, so the run's
//! multi-threaded figures read as serial.
//!
//! `--json PATH` writes one object: `command`, `threads`, `repetitions`,
//! `quick`, `spin_ratio`, then, per section run, an array of flat row
//! objects holding the row's key and metric columns by name. `diff` labels each metric
//! `section/key…/metric`, e.g. `stm_micro/map-insert-commit/ns_per_op` or
//! `abort_rate/Ballot/200/0.3/speculative_ms`. A perf PR regenerates the
//! committed `BENCH_BASELINE.json` from a quiet `perf` run. `diff` reads
//! only the sections, so header fields such as `spin_ratio` are never
//! compared.

use cc_bench::contention::{contention_threads, measure_contention, Mix};
use cc_bench::json::Json;
use cc_bench::micro::run_micro;
use cc_bench::schedule::run_schedule;
use cc_bench::state_root::{run_digest_costs, run_state_root};
use cc_bench::table::{compare, higher, lower, medians, Labelled, Metric, Row, Schema, Table};
use cc_bench::{
    engine, figure1_block_sizes, figure1_conflicts, measure, measure_abort_rate,
    measure_read_heavy, measure_serial_validation, measure_with, Timing, DEFAULT_THREADS,
    REPETITIONS,
};
use cc_core::engine::{Engine, ExecutionStrategy};
use cc_workload::{Benchmark, WorkloadSpec};
use std::str::FromStr;

const USAGE: &str = "usage: repro [--threads N] [--reps R] [--quick] [--strategy speculative-stm|optimistic-mvcc] [--json PATH] \
[figure1-blocksize|figure1-conflict|table1|appendix-b|ablation|contention|micro|schedule|read-heavy|abort-rate|state-root|perf|all]
       repro diff OLD.json[,…] NEW.json[,…] [--tolerance PCT] [--strict] [--section NAME]";

#[derive(Debug, Clone)]
struct Options {
    threads: usize,
    repetitions: usize,
    quick: bool,
    /// The concurrent strategy (`speculative-stm` or `optimistic-mvcc`)
    /// the Figure-1 sweeps measure against the serial baseline, which is
    /// the speculative strategy on one worker.
    strategy: ExecutionStrategy,
    command: String,
    /// Positional arguments after the command (`diff`'s two files).
    operands: Vec<String>,
    json_path: Option<String>,
    /// `diff`: relative delta (percent) beyond which a worse result is
    /// flagged as a regression.
    tolerance: f64,
    /// `diff`: exit non-zero on regressions and vanished labels.
    strict: bool,
    /// `diff`: restrict the comparison to one section's labels.
    section: Option<String>,
}

/// The value after `flag`, parsed.
fn flag_value<T: FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let value = args.next().ok_or(format!("{flag} requires a value"))?;
    value
        .parse()
        .map_err(|err| format!("{flag} {value}: {err}"))
}

/// Parses the command line (without the program name). A flag or value
/// it does not understand is an error, never a silent default.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
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
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => options.threads = flag_value(&mut args, &arg)?,
            "--reps" => options.repetitions = flag_value(&mut args, &arg)?,
            "--quick" => options.quick = true,
            "--strict" => options.strict = true,
            "--strategy" => options.strategy = flag_value(&mut args, &arg)?,
            "--tolerance" => options.tolerance = flag_value(&mut args, &arg)?,
            "--section" => options.section = Some(flag_value(&mut args, &arg)?),
            "--json" => options.json_path = Some(flag_value(&mut args, &arg)?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            operand if saw_command => options.operands.push(operand.to_string()),
            command => {
                options.command = command.to_string();
                saw_command = true;
            }
        }
    }
    if options.threads == 0 {
        return Err("--threads must be at least 1".to_string());
    }
    if options.quick {
        options.repetitions = options.repetitions.min(2);
    }
    Ok(options)
}

/// One section: its table's schema and the function that measures its
/// rows, which sees the tables of the sections run before it.
struct Section {
    schema: Schema,
    measure: fn(&Options, &[Table]) -> Vec<Row>,
}

const FIGURE1_KEYS: &[&str] = &["benchmark", "block_size", "conflict"];

const FIGURE1_METRICS: &[Metric] = &[
    lower("serial_ms", "ms"),
    lower("serial_stddev_ms", "ms"),
    lower("miner_ms", "ms"),
    lower("miner_stddev_ms", "ms"),
    lower("validator_ms", "ms"),
    lower("validator_stddev_ms", "ms"),
    higher("miner_speedup", "x"),
    higher("validator_speedup", "x"),
];

static SECTIONS: [Section; 11] = [
    Section {
        schema: Schema {
            name: "figure1_blocksize",
            title: "Figure 1 (left column): vs. block size at 15% conflict \
                    (ms ± stddev: Appendix B)",
            keys: FIGURE1_KEYS,
            metrics: FIGURE1_METRICS,
        },
        measure: figure1_blocksize,
    },
    Section {
        schema: Schema {
            name: "figure1_conflict",
            title: "Figure 1 (right column): vs. conflict at 200 transactions \
                    (ms ± stddev: Appendix B)",
            keys: FIGURE1_KEYS,
            metrics: FIGURE1_METRICS,
        },
        measure: figure1_conflict,
    },
    Section {
        schema: Schema {
            name: "table1",
            title: "Table 1: mean speedups per benchmark and sweep, under the header's cost \
                    model (work_per_gas, ns per gas unit here, stand-in ≥ 97 % of serial)",
            keys: &["benchmark"],
            metrics: &[
                higher("miner_conflict", "x"),
                higher("miner_blocksize", "x"),
                higher("miner_overall", "x"),
                higher("validator_conflict", "x"),
                higher("validator_blocksize", "x"),
                higher("validator_overall", "x"),
            ],
        },
        measure: table1,
    },
    Section {
        schema: Schema {
            name: "ablation",
            title: "Ablation (not in the paper): Mixed, 200 txns, 15% conflict",
            keys: &["case"],
            metrics: &[lower("mean_ms", "ms")],
        },
        measure: ablation,
    },
    Section {
        schema: Schema {
            name: "stm_micro",
            title: "Boosted-storage per-operation cost",
            keys: &["name"],
            metrics: &[lower("ns_per_op", "ns")],
        },
        measure: stm_micro,
    },
    Section {
        schema: Schema {
            name: "schedule",
            title: "Schedule pipeline: build time, edges (vs. all pairs), metadata bytes",
            keys: &["shape", "txns"],
            metrics: &[
                lower("build_us", "us"),
                lower("edges", "count"),
                lower("all_pairs_edges", "count"),
                lower("critical_path", "count"),
                lower("metadata_bytes", "bytes"),
            ],
        },
        measure: schedule,
    },
    Section {
        schema: Schema {
            name: "read_heavy",
            title: "Read-heavy blocks: shared reads of one hot key \
                    (exclusive_read_critical_path: the block serialized)",
            keys: &["readers", "writers"],
            metrics: &[
                lower("miner_ms", "ms"),
                lower("waits_per_block", "count"),
                lower("retries_per_block", "count"),
                lower("hb_edges", "count"),
                lower("critical_path", "count"),
                lower("exclusive_read_critical_path", "count"),
            ],
        },
        measure: read_heavy,
    },
    Section {
        schema: Schema {
            name: "abort_rate",
            title: "Abort rates: deadlock victims (speculative, wait on the lock they lost \
                    on) vs. validation losers (optimistic, re-run at once holding the \
                    write intent of the lock they lost on); read-only optimistic commits \
                    never abort; serial_ms is the serial miner on the same block; times \
                    under the header's cost model (stand-in ≥ 97 % of a serial transaction)",
            keys: FIGURE1_KEYS,
            metrics: &[
                lower("speculative_retries_per_block", "count"),
                lower("speculative_waits_per_block", "count"),
                lower("optimistic_retries_per_block", "count"),
                higher("optimistic_read_only_per_block", "count"),
                lower("serial_ms", "ms"),
                lower("speculative_ms", "ms"),
                lower("optimistic_ms", "ms"),
            ],
        },
        measure: abort_rate,
    },
    Section {
        schema: Schema {
            name: "contention",
            title: "Lock-manager contention: committed lock txns/s",
            keys: &["mix", "threads"],
            metrics: &[
                higher("txns_per_sec", "1/s"),
                lower("waits_per_1k", "count"),
            ],
        },
        measure: contention,
    },
    Section {
        schema: Schema {
            name: "state_root",
            title: "State root after one 200-txn Mixed block: cold vs. incremental, \
                    and what generating the workload and building the world cost",
            keys: &["accounts"],
            metrics: &[
                lower("generate_ms", "ms"),
                lower("build_ms", "ms"),
                lower("cold_us", "us"),
                lower("incremental_us", "us"),
                lower("dirty_leaves", "count"),
                lower("entries_rehashed", "count"),
                lower("bytes_hashed", "bytes"),
                lower("slots_visited", "count"),
                lower("cold_entries_rehashed", "count"),
                lower("cold_bytes_hashed", "bytes"),
            ],
        },
        measure: state_root,
    },
    Section {
        schema: Schema {
            name: "digest",
            title: "Short digests a world build hashes: one-shot SHA-256, account derivation",
            keys: &["case"],
            metrics: &[lower("ns_per_op", "ns")],
        },
        measure: digest,
    },
];

/// The sections each command runs, in order.
fn command_sections(command: &str) -> Option<Vec<&'static str>> {
    let figure1 = ["figure1_blocksize", "figure1_conflict"];
    let perf = [
        "stm_micro",
        "schedule",
        "read_heavy",
        "abort_rate",
        "contention",
        "state_root",
        "digest",
    ];
    Some(match command {
        "figure1-blocksize" => vec![figure1[0]],
        "figure1-conflict" => vec![figure1[1]],
        "table1" => [&figure1[..], &["table1"]].concat(),
        "appendix-b" => figure1.to_vec(),
        "ablation" => vec!["ablation"],
        "contention" => vec!["contention"],
        "micro" => vec!["stm_micro"],
        "schedule" => vec!["schedule"],
        "read-heavy" => vec!["read_heavy"],
        "abort-rate" => vec!["abort_rate"],
        "state-root" => vec!["state_root", "digest"],
        "perf" => perf.to_vec(),
        "all" => [&figure1[..], &["table1", "ablation"], &perf].concat(),
        _ => return None,
    })
}

fn figure1_rows(opts: &Options, points: &[(usize, f64)]) -> Vec<Row> {
    let mut rows = Vec::new();
    for benchmark in Benchmark::ALL {
        for &(block_size, conflict) in points {
            let workload = WorkloadSpec::new(benchmark, block_size, conflict).generate();
            let m = measure_with(&workload, opts.strategy, opts.threads, opts.repetitions);
            let timings = [m.serial, m.miner, m.validator];
            let values = timings.iter().flat_map(|t| [t.mean_ms(), t.stddev_ms()]);
            let values = values.chain([m.miner_speedup(), m.validator_speedup()]);
            let keys = [
                benchmark.to_string(),
                block_size.to_string(),
                conflict.to_string(),
            ];
            rows.push(Row::new(keys, values));
        }
    }
    rows
}

fn figure1_blocksize(opts: &Options, _: &[Table]) -> Vec<Row> {
    let sizes = match opts.quick {
        true => vec![10, 100, 200, 400],
        false => figure1_block_sizes(),
    };
    let points: Vec<_> = sizes.into_iter().map(|size| (size, 0.15)).collect();
    figure1_rows(opts, &points)
}

fn figure1_conflict(opts: &Options, _: &[Table]) -> Vec<Row> {
    let conflicts = match opts.quick {
        true => vec![0.0, 0.3, 0.6, 1.0],
        false => figure1_conflicts(),
    };
    let points: Vec<_> = conflicts.into_iter().map(|c| (200, c)).collect();
    figure1_rows(opts, &points)
}

/// Table 1, derived from the two Figure-1 tables: each cell is the mean
/// speedup over one sweep, `*_overall` the mean of the two, and the
/// `overall` row the mean of the rows above it.
fn table1(_: &Options, earlier: &[Table]) -> Vec<Row> {
    let sweep = |name| {
        let table = earlier.iter().find(|t| t.schema.name == name);
        table.expect("table1 runs after both Figure-1 sections")
    };
    let sweeps = [sweep("figure1_conflict"), sweep("figure1_blocksize")];
    let mut rows = Vec::new();
    for benchmark in Benchmark::ALL.map(|b| b.to_string()) {
        let [mc, mb] = sweeps.map(|t| t.mean(&benchmark, "miner_speedup"));
        let [vc, vb] = sweeps.map(|t| t.mean(&benchmark, "validator_speedup"));
        let values = [mc, mb, (mc + mb) / 2.0, vc, vb, (vc + vb) / 2.0];
        rows.push(Row::new([benchmark], values));
    }
    let column_mean = |i: usize| rows.iter().map(|r| r.values[i]).sum::<f64>() / rows.len() as f64;
    let overall: Vec<f64> = (0..rows[0].values.len()).map(column_mean).collect();
    rows.push(Row::new(["overall"], overall));
    let paper = [f64::NAN, f64::NAN, 1.33, f64::NAN, f64::NAN, 1.69];
    rows.push(Row::new(["paper (3 threads)"], paper));
    rows
}

/// Serial re-validation and validator thread scaling (the fork-join
/// program need not match the miner's parallelism).
fn ablation(opts: &Options, _: &[Table]) -> Vec<Row> {
    let workload = WorkloadSpec::new(Benchmark::Mixed, 200, 0.15).generate();
    let base = measure(&workload, opts.threads, opts.repetitions);
    let serial_validation = measure_serial_validation(&workload, opts.threads, opts.repetitions);
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
        [Timing::from_samples(&samples).mean_ms()]
    };
    let mut rows = vec![
        Row::new(["serial-miner"], [base.serial.mean_ms()]),
        Row::new(["miner"], [base.miner.mean_ms()]),
        Row::new(["fork-join-validator"], [base.validator.mean_ms()]),
        Row::new(["serial-validator"], [serial_validation.mean_ms()]),
    ];
    for threads in [1usize, 2, 3, 4, 6, 8] {
        let validator = engine(ExecutionStrategy::SpeculativeStm, threads);
        let case = format!("validator-{threads}-threads");
        rows.push(Row::new([case], time_validator(&validator)));
    }
    rows
}

/// Iterations per `stm_micro` case, deliberately NOT shrunk by `--quick`:
/// the section is the strictly CI-gated hot-path scoreboard, and fewer
/// iterations bias every case 30–50% high (worse warm-up, worse
/// amortization of the timing loop) — the gate would then compare a quick
/// smoke run against the committed full-run baseline and flag phantom
/// regressions. The full count costs only a few seconds.
const MICRO_OPS: usize = 100_000;

fn stm_micro(_: &Options, _: &[Table]) -> Vec<Row> {
    let points = run_micro(MICRO_OPS).into_iter();
    points.map(|p| Row::new([p.name], [p.ns_per_op])).collect()
}

fn schedule(opts: &Options, _: &[Table]) -> Vec<Row> {
    let passes = if opts.quick { 3 } else { 9 };
    let mut rows = Vec::new();
    for p in run_schedule(passes) {
        let values = [
            p.build_us,
            p.edges as f64,
            p.all_pairs_edges as f64,
            p.critical_path as f64,
            p.metadata_bytes as f64,
        ];
        rows.push(Row::new([p.shape.to_string(), p.txns.to_string()], values));
    }
    rows
}

fn read_heavy(opts: &Options, _: &[Table]) -> Vec<Row> {
    let shapes = match opts.quick {
        true => vec![(60, 4), (48, 16)],
        false => vec![(126, 2), (120, 8), (96, 32)],
    };
    let mut rows = Vec::new();
    for (readers, writers) in shapes {
        let p = measure_read_heavy(readers, writers, opts.threads, opts.repetitions);
        let values = [
            p.miner_ms,
            p.waits_per_block,
            p.retries_per_block,
            p.hb_edges as f64,
            p.critical_path as f64,
            p.exclusive_read_critical_path() as f64,
        ];
        rows.push(Row::new([readers, writers], values));
    }
    rows
}

/// A subset of the Figure-1 conflict axis: abort behaviour changes slowly
/// with conflict, so fewer points suffice.
fn abort_rate(opts: &Options, _: &[Table]) -> Vec<Row> {
    let (block_size, conflicts) = match opts.quick {
        true => (100, vec![0.0, 0.5, 1.0]),
        false => (200, vec![0.0, 0.15, 0.3, 0.6, 1.0]),
    };
    let mut rows = Vec::new();
    for benchmark in Benchmark::ALL {
        for &conflict in &conflicts {
            let workload = WorkloadSpec::new(benchmark, block_size, conflict).generate();
            let p = measure_abort_rate(&workload, opts.threads, opts.repetitions);
            let keys = [
                benchmark.to_string(),
                block_size.to_string(),
                conflict.to_string(),
            ];
            let values = [
                p.speculative_retries_per_block,
                p.speculative_waits_per_block,
                p.optimistic_retries_per_block,
                p.optimistic_read_only_per_block,
                p.serial_ms,
                p.speculative_ms,
                p.optimistic_ms,
            ];
            rows.push(Row::new(keys, values));
        }
    }
    rows
}

fn contention(opts: &Options, _: &[Table]) -> Vec<Row> {
    let ops = if opts.quick { 2_000 } else { 10_000 };
    let mut rows = Vec::new();
    for mix in [Mix::Disjoint, Mix::Hot, Mix::ReadHeavy] {
        for threads in contention_threads() {
            let p = measure_contention(threads, ops, mix);
            let keys = [mix.to_string(), threads.to_string()];
            rows.push(Row::new(keys, [p.ops_per_sec, p.waits_per_1k]));
        }
    }
    rows
}

/// The quick run drops the 100 k world: generating it dominates a smoke
/// run.
fn state_root(opts: &Options, _: &[Table]) -> Vec<Row> {
    let accounts: &[usize] = match opts.quick {
        true => &[1_000, 20_000],
        false => &[1_000, 20_000, 100_000],
    };
    let mut rows = Vec::new();
    for p in run_state_root(accounts, opts.repetitions) {
        let values = [
            p.generate_ms,
            p.build_ms,
            p.cold_us,
            p.incremental_us,
            p.incremental.dirty_leaves as f64,
            p.incremental.entries_rehashed as f64,
            p.incremental.bytes_hashed as f64,
            p.incremental.slots_visited as f64,
            p.cold.entries_rehashed as f64,
            p.cold.bytes_hashed as f64,
        ];
        rows.push(Row::new([p.accounts], values));
    }
    rows
}

/// Calls per digest case, not shrunk by `--quick`: a case costs well
/// under a millisecond a pass.
const DIGEST_CALLS: usize = 20_000;

fn digest(_: &Options, _: &[Table]) -> Vec<Row> {
    let costs = run_digest_costs(DIGEST_CALLS);
    costs
        .into_iter()
        .map(|(name, ns)| Row::new([name], [ns]))
        .collect()
}

/// `repro diff`: the number of regressions, or an error that exits 2 (an
/// unreadable file, or a `--section` matching nothing — an empty gate
/// would silently pass).
fn run_diff(opts: &Options, old_path: &str, new_path: &str) -> Result<usize, String> {
    let in_scope = |s: &&Section| match &opts.section {
        Some(name) => s.schema.name == name,
        None => true,
    };
    let mut labels: Vec<Vec<Labelled>> = Vec::new();
    for paths in [old_path, new_path] {
        let mut runs = Vec::new();
        for path in paths.split(',') {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let doc = Json::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
            let tables = SECTIONS.iter().filter(in_scope);
            let tables = tables.filter_map(|s| Table::from_json(&s.schema, &doc));
            let found: Vec<Labelled> = tables.flat_map(|t| t.labels()).collect();
            if let (Some(name), true) = (&opts.section, found.is_empty()) {
                return Err(format!("section {name} matched no metrics in {path}"));
            }
            runs.push(found);
        }
        labels.push(medians(runs));
    }
    let scope = opts.section.as_deref().unwrap_or("all sections");
    let tolerance = opts.tolerance;
    println!("== bench diff: {old_path} → {new_path} ({scope}, tolerance ±{tolerance:.0}%) ==\n");
    let (report, regressions) = compare(&labels[0], &labels[1], tolerance, opts.strict);
    print!("{report}");
    Ok(regressions)
}

/// Units of [`cc_vm::load::synthetic_load`] each thread of the spin check
/// runs: ≈ 0.1 s a leg on a 2-vCPU x86-64 VM.
const SPIN_UNITS: u64 = 1 << 25;

fn usage_error(message: &str) -> ! {
    eprintln!("{message}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let opts = parse_args(std::env::args().skip(1)).unwrap_or_else(|err| usage_error(&err));
    if opts.command == "diff" {
        let [old_path, new_path] = opts.operands.as_slice() else {
            usage_error("diff takes two files: OLD.json NEW.json");
        };
        match run_diff(&opts, old_path, new_path) {
            Ok(regressions) => std::process::exit(i32::from(opts.strict && regressions > 0)),
            Err(err) => {
                eprintln!("{err}");
                std::process::exit(2);
            }
        }
    }
    let Some(names) = command_sections(&opts.command) else {
        usage_error(&format!("unknown command `{}`", opts.command));
    };
    println!(
        "concurrent-contracts reproduction harness — {} threads, {} repetitions, {} strategy{}",
        opts.threads,
        opts.repetitions,
        opts.strategy,
        if opts.quick { " (quick mode)" } else { "" }
    );
    // The cost model every timing below is taken under (`cc_vm::load`).
    let (work_per_gas, iterations) = (cc_vm::GasSchedule::default().work_per_gas, 1u32 << 22);
    let start = std::time::Instant::now();
    cc_vm::load::synthetic_load(u64::from(iterations));
    let unit_ns = work_per_gas as f64 * start.elapsed().as_nanos() as f64 / f64::from(iterations);
    println!(
        "cost model: work_per_gas = {work_per_gas} mix iterations per unit of non-base gas \
         (≈ {unit_ns:.1} ns per unit on this host); the stand-in is ≥ 97 % of a serial transaction"
    );
    let spin_ratio = cc_bench::spin_ratio(SPIN_UNITS);
    println!(
        "host: two threads spinning at once take {spin_ratio:.2}× one thread's time \
         (≈ 1.0: two cores ran them; ≈ 2.0: one did, and multi-threaded figures read as serial)"
    );
    let mut tables: Vec<Table> = Vec::new();
    for name in names {
        let section = SECTIONS.iter().find(|s| s.schema.name == name);
        let section = section.expect("commands name known sections");
        let rows = (section.measure)(&opts, &tables);
        let table = Table {
            schema: &section.schema,
            rows,
        };
        print!("{}", table.render());
        tables.push(table);
    }
    if let Some(path) = &opts.json_path {
        let header = [
            ("command", Json::str(opts.command.clone())),
            ("threads", Json::num(opts.threads as f64)),
            ("repetitions", Json::num(opts.repetitions as f64)),
            ("quick", Json::Bool(opts.quick)),
            ("spin_ratio", Json::num(spin_ratio)),
        ];
        let sections = tables.iter().map(|t| (t.schema.name, t.to_json()));
        let doc = Json::object(header.into_iter().chain(sections));
        if let Err(err) = std::fs::write(path, doc.to_pretty()) {
            eprintln!("failed to write {path}: {err}");
            std::process::exit(1);
        }
        println!("\nwrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn unknown_flags_and_unparsable_values_are_errors() {
        for line in [
            "diff a.json b.json --stirct",
            "--threads x perf",
            "--reps x",
            "--threads 0",
            // The serial baseline is a thread count, not a strategy.
            "--strategy serial table1",
        ] {
            assert!(parse_args(args(line)).is_err(), "`{line}` was accepted");
        }
        let opts = parse_args(args("--quick --reps 5 diff a b --strict")).unwrap();
        assert_eq!((opts.repetitions, opts.operands.len()), (2, 2));
        assert!(opts.strict);
    }

    #[test]
    fn every_command_runs_known_sections_in_dependency_order() {
        let commands = USAGE.split(['[', ']', '|', '\n']);
        let commands: Vec<&str> = commands.filter(|c| command_sections(c).is_some()).collect();
        assert_eq!(commands.len(), 13, "{commands:?}");
        for command in commands {
            let names = command_sections(command).unwrap();
            for (i, name) in names.iter().enumerate() {
                assert!(SECTIONS.iter().any(|s| s.schema.name == *name), "{name}");
                if *name == "table1" {
                    assert!(names[..i].contains(&"figure1_conflict"), "{command}");
                    assert!(names[..i].contains(&"figure1_blocksize"), "{command}");
                }
            }
        }
        assert!(command_sections("pipeline").is_none());
        assert!(command_sections("durability").is_none());
    }
}
