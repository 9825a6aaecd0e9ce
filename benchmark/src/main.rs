//! Command line of the benchmark (see `benchmark/README.md`).
//!
//! ```text
//! cc-benchmark [run] [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! cc-benchmark trace  [same flags]            # run with --trace 1
//! cc-benchmark repeat [--sets N] [--seed N] [--seconds S]
//! cc-benchmark manifest                       # print BENCHMARK.json
//! ```

use cc_benchmark::report::{manifest, run_workload, RunOptions, END_TO_END};
use cc_benchmark::stats::Summary;
use cc_benchmark::workloads::{self, WorkloadDef, WORKLOADS};
use std::path::Path;
use std::process::ExitCode;

/// `--seconds` when the flag is absent: six workloads fit in 90 s.
const DEFAULT_SECONDS: f64 = 10.0;
const DEFAULT_SEED: u64 = 0xC0FFEE;

struct Cli {
    command: String,
    workload: Option<&'static WorkloadDef>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    sets: u32,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: "run".into(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        sets: 10,
    };
    let mut args = args.iter().peekable();
    if let Some(first) = args.peek().filter(|a| !a.starts_with("--")) {
        cli.command = first.to_string();
        args.next();
    }
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let number = |text: &str| {
            text.parse::<f64>()
                .ok()
                .filter(|n| n.is_finite() && *n >= 0.0)
                .ok_or_else(|| format!("{flag}: {text:?} is not a non-negative number"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload = Some(workloads::find(name).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => {
                let text = value()?;
                cli.seed = text
                    .parse()
                    .map_err(|_| format!("--seed: {text:?} is not a whole number"))?;
            }
            "--seconds" => cli.seconds = number(value()?)?,
            "--sets" => cli.sets = (number(value()?)? as u32).max(2),
            "--trace" => {
                cli.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    match cli.command.as_str() {
        "run" | "repeat" | "manifest" => Ok(cli),
        "trace" => {
            cli.trace = true;
            Ok(cli)
        }
        other => Err(format!(
            "unknown command {other:?} (run, trace, repeat or manifest)"
        )),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(reason) => {
            eprintln!("{reason}");
            return ExitCode::from(2);
        }
    };
    // The benchmark's own directory, so every file it writes stays
    // inside the checkout it was built in.
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    match cli.command.as_str() {
        "manifest" => {
            print!("{}", manifest());
            ExitCode::SUCCESS
        }
        "repeat" => repeat(&cli, &out_dir),
        _ => run(&cli, &out_dir),
    }
}

/// Runs one workload (`--workload`) or all six, printing each one's
/// table and, last, its result line.
fn run(cli: &Cli, out_dir: &Path) -> ExitCode {
    let opts = RunOptions {
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        smoke: cli.smoke,
    };
    let mut all_correct = true;
    for def in WORKLOADS
        .iter()
        .filter(|def| cli.workload.is_none_or(|chosen| chosen.name == def.name))
    {
        let report = run_workload(def, &opts, out_dir);
        println!(
            "== {} | seed {} | {} x{} engine threads, 1 driver thread, {} cores | {} rounds of {} txns in {}-txn blocks{}",
            def.name,
            cli.seed,
            def.strategy,
            report.threads,
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            report.rounds,
            def.txns_per_round(),
            def.block_txns,
            if cli.smoke { " | SMOKE: numbers compare with nothing" } else { "" },
        );
        print!("{}", report.table());
        if let Some(path) = &report.trace_file {
            println!("trace written to {}", path.display());
        }
        println!("{}", report.result_line());
        all_correct &= report.correct();
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `--sets` full sets of all six workloads, each set on its own
/// seed and in the opposite order of the one before, and prints for
/// every end-to-end metric × workload the median over the sets and
/// their spread (interquartile range over median) beside its bound.
fn repeat(cli: &Cli, out_dir: &Path) -> ExitCode {
    let mut values = vec![vec![Vec::<f64>::new(); END_TO_END.len()]; WORKLOADS.len()];
    let mut all_correct = true;
    for set in 0..cli.sets {
        let mut order: Vec<usize> = (0..WORKLOADS.len()).collect();
        if set % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let opts = RunOptions {
                seed: cli.seed + u64::from(set),
                seconds: cli.seconds,
                trace: false,
                smoke: false,
            };
            let report = run_workload(&WORKLOADS[w], &opts, out_dir);
            all_correct &= report.correct();
            for failure in &report.failures {
                eprintln!("{}: CHECK FAILED: {failure}", report.workload);
            }
            for (m, (_, summary)) in report.metrics.iter().enumerate() {
                values[w][m].push(summary.median);
            }
            eprintln!("set {set}: {} done", report.workload);
        }
    }
    println!(
        "{:<22} {:<20} {:>14} {:>9} {:>7}  over {} sets",
        "workload", "metric", "median", "spread", "bound", cli.sets
    );
    let mut steady = true;
    for (w, def) in WORKLOADS.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let summary = Summary::of(&values[w][m]);
            let bound = metric.bound.unwrap_or(0.0);
            // The set-up spread is reported but not held to its bound.
            let within = summary.spread() <= bound || metric.name == "setup_s";
            steady &= within;
            println!(
                "{:<22} {:<20} {:>14.4} {:>8.1}% {:>6.0}%  {}",
                def.name,
                metric.name,
                summary.median,
                summary.spread() * 100.0,
                bound * 100.0,
                if within { "" } else { "SPREAD ABOVE BOUND" }
            );
            let runs: Vec<String> = values[w][m].iter().map(|v| format!("{v:.4}")).collect();
            println!("    runs: {}", runs.join(" "));
        }
    }
    if all_correct && steady {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
