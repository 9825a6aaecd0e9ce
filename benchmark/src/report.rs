//! One run of one workload: rounds until the time is up, then the
//! metrics by name with unit, median, quartiles and count, and the
//! result line the driver reads.

use crate::phases::{crash_cut_check, latency_phase};
use crate::round::{Harness, Recorder, RoundResult};
use crate::stats::{percentile_sorted, tail_percentile, Summary};
use crate::trace::{self, LayerSummary, Span};
use crate::workloads::{WorkloadDef, WORKLOADS};
use cc_ledger::wal::DurabilityMode;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// The metric's name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median it may worsen by (end-to-end only).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the node sees, on every workload (`--trace 0`).
pub const END_TO_END: [MetricDef; 3] = [
    e2e("commit_txns_per_s", "1/s", "higher", 0.25),
    e2e("follow_txns_per_s", "1/s", "higher", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Single layers, from the traced run (`--trace 1`); 0 where a layer
/// does no work on the workload.
pub const PER_LAYER: [MetricDef; 42] = [
    layer("recover.txns_per_s", "1/s", "higher"),
    layer("latency.commit_p50_ms", "ms", "lower"),
    layer("latency.commit_tail_ms", "ms", "lower"),
    layer("latency.tail_percentile", "%", "higher"),
    layer("latency.generator_late_ms", "ms", "lower"),
    layer("latency.final_pool_depth", "count", "lower"),
    layer("mempool.submit_us", "us", "lower"),
    layer("mempool.build_block_us", "us", "lower"),
    layer("mempool.rejected", "count", "lower"),
    layer("miner.exec_us_per_txn", "us", "lower"),
    layer("miner.retries_per_block", "count", "lower"),
    layer("miner.useful_ratio", "ratio", "higher"),
    layer("miner.read_only_per_block", "count", "higher"),
    layer("miner.speedup_vs_serial", "ratio", "higher"),
    layer("stm.acquisitions_per_txn", "count", "lower"),
    layer("stm.waits_per_block", "count", "lower"),
    layer("stm.deadlocks_per_block", "count", "lower"),
    layer("vm.serial_exec_us_per_txn", "us", "lower"),
    layer("vm.state_root_us", "us", "lower"),
    layer("vm.snapshot_us", "us", "lower"),
    layer("schedule.build_us", "us", "lower"),
    layer("schedule.edges", "count", "lower"),
    layer("schedule.critical_path", "count", "lower"),
    layer("schedule.metadata_bytes", "bytes", "lower"),
    layer("validator.exec_us_per_txn", "us", "lower"),
    layer("validator.speedup_vs_serial", "ratio", "higher"),
    layer("fork_join.handoff_us", "us", "lower"),
    layer("pending.speculate_us", "us", "lower"),
    layer("pending.commit_us", "us", "lower"),
    layer("ledger.encode_us", "us", "lower"),
    layer("ledger.block_bytes", "bytes", "lower"),
    layer("ledger.seal_us", "us", "lower"),
    layer("ledger.wal_bytes_per_txn", "bytes", "lower"),
    layer("ledger.snapshot_write_us", "us", "lower"),
    layer("ledger.snapshot_bytes", "bytes", "lower"),
    layer("ledger.scan_us", "us", "lower"),
    layer("node.mine_pending_us", "us", "lower"),
    layer("node.validate_append_us", "us", "lower"),
    layer("node.pipeline_stalled_share", "ratio", "lower"),
    layer("node.follower_stalled_share", "ratio", "lower"),
    layer("node.unattributed_share", "ratio", "lower"),
    layer("trace.overhead_ratio", "ratio", "lower"),
];

/// Seconds one driver run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 15;

/// The text of `BENCHMARK.json`, from the tables in this crate.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            m.better,
            m.bound.unwrap_or(0.0)
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name, m.unit, m.better
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// How one run is to be made.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Seed of the generators.
    pub seed: u64,
    /// How long to keep starting rounds.
    pub seconds: f64,
    /// The traced run (spans and probes on every other round).
    pub trace: bool,
    /// Three rounds, no warm-up: a check that everything runs, whose
    /// numbers compare with nothing.
    pub smoke: bool,
}

/// Fewest measured rounds of a run, however short `--seconds` is; a
/// smoke run stops there.
const MIN_ROUNDS: u32 = 3;

/// What one run of one workload measured.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The workload's name.
    pub workload: &'static str,
    /// Transactions submitted plus blocks offered to followers.
    pub attempted: u64,
    /// Rejections, missing transactions, failed checks.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Measured rounds (warm-up excluded).
    pub rounds: u32,
    /// Engine worker threads.
    pub threads: usize,
    /// The metrics this run reports, in declaration order.
    pub metrics: Vec<(MetricDef, Summary)>,
    /// Per-span-name summary (traced run only).
    pub layers: Vec<LayerSummary>,
    /// Where the trace was written (traced run only).
    pub trace_file: Option<PathBuf>,
}

impl RunReport {
    /// An empty report for `workload`.
    pub fn new(workload: &'static str) -> Self {
        RunReport {
            workload,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            rounds: 0,
            threads: Harness::engine_threads(),
            metrics: Vec::new(),
            layers: Vec::new(),
            trace_file: None,
        }
    }

    /// Whether every output check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// Counts one failed check.
    fn fail(&mut self, reason: String) {
        self.failed += 1;
        self.failures.push(reason);
    }

    /// Adds one round's operations and failed checks.
    pub fn absorb(&mut self, round: &RoundResult) {
        self.attempted += round.attempted;
        self.failed += round.failed;
        self.failures.extend(round.failures.iter().cloned());
    }

    /// The process exit code this report asks for.
    pub fn exit_code(&self) -> i32 {
        if self.correct() {
            0
        } else {
            1
        }
    }

    /// The median of metric `name`, if this run reports it.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(def, _)| def.name == name)
            .map(|(_, summary)| summary.median)
    }

    /// The result line the driver reads.
    pub fn result_line(&self) -> String {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (def, summary)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                line,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                json_number(summary.median),
                def.unit
            );
        }
        line.push_str("}}");
        line
    }

    /// The table a person reads.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<30} {:>14} {:>14} {:>14} {:>6}  unit",
            "metric", "median", "q1", "q3", "n"
        );
        for (def, s) in &self.metrics {
            let _ = writeln!(
                out,
                "{:<30} {:>14.4} {:>14.4} {:>14.4} {:>6}  {} ({} is better)",
                def.name, s.median, s.q1, s.q3, s.count, def.unit, def.better
            );
        }
        if !self.layers.is_empty() {
            let _ = writeln!(
                out,
                "\n{:<30} {:>8} {:>14} {:>12} {:>10} {:>14}",
                "span", "count", "busy_us", "us/op", "of parent", "self_us"
            );
            for l in &self.layers {
                let _ = writeln!(
                    out,
                    "{:<30} {:>8} {:>14.1} {:>12.2} {:>9.1}% {:>14.1}",
                    l.name,
                    l.count,
                    l.busy_us,
                    l.us_per_op,
                    l.share_of_parent * 100.0,
                    l.self_us
                );
            }
        }
        let _ = writeln!(
            out,
            "failed_ops / attempted_ops     {} / {}",
            self.failed, self.attempted
        );
        for failure in &self.failures {
            let _ = writeln!(out, "CHECK FAILED: {failure}");
        }
        out
    }
}

/// A finite JSON number with all its digits.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// The seed of round `round` of a run seeded `seed`: every round draws
/// its own inputs, so a run's median also averages over inputs.
pub fn round_seed(seed: u64, round: u32) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(round))
}

/// Node wall time per transaction of one round: the three timed phases.
fn node_us_per_txn(r: &RoundResult) -> f64 {
    (r.produce_s + r.follow_s + r.recover_s.unwrap_or(0.0)) * 1e6 / r.txns.max(1) as f64
}

/// Runs `def` once and reports. `out_dir` receives scratch directories
/// (removed again) and, for a traced run, `trace-<workload>.json`.
pub fn run_workload(def: &'static WorkloadDef, opts: &RunOptions, out_dir: &Path) -> RunReport {
    let mut report = RunReport::new(def.name);
    let scratch = out_dir.join("scratch");
    let harness = match Harness::new(def, &scratch) {
        Ok(harness) => harness,
        Err(reason) => {
            report.fail(reason);
            return report;
        }
    };

    let mut off = Recorder::new(false);
    let mut on = Recorder::new(opts.trace);
    if !opts.smoke {
        // One discarded round: allocator arenas, page cache and lazily
        // initialised state are warm before anything is timed.
        let warm = harness.round(round_seed(opts.seed, u32::MAX), u32::MAX, &mut off);
        report.absorb(&warm);
    }

    let mut plain: Vec<RoundResult> = Vec::new();
    let mut traced: Vec<RoundResult> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds.max(0.0));
    let mut longest_round = Duration::ZERO;
    let mut round = 0u32;
    loop {
        // A round that would end after the deadline is not started, so a
        // run measures for at most `--seconds` (three rounds at least).
        if round >= MIN_ROUNDS && (opts.smoke || Instant::now() + longest_round > deadline) {
            break;
        }
        let round_start = Instant::now();
        // A traced run alternates: odd rounds carry spans and probes, even
        // rounds are the untraced script, so one run yields both sides of
        // `trace.overhead_ratio`.
        let with_trace = opts.trace && round % 2 == 1;
        let rec = if with_trace { &mut on } else { &mut off };
        let result = harness.round(round_seed(opts.seed, round), round, rec);
        longest_round = longest_round.max(round_start.elapsed());
        report.absorb(&result);
        if with_trace {
            traced.push(result);
        } else {
            plain.push(result);
        }
        round += 1;
    }
    report.rounds = round;

    // Only an fsync'd log promises that an acknowledged block survives
    // the loss of everything unsynced.
    if def.durability == DurabilityMode::Fsync {
        let dir = scratch.join("crash-cut");
        if let Err(reason) = crash_cut_check(&harness, opts.seed, &dir) {
            report.fail(reason);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    let per_round = |rounds: &[RoundResult], f: &dyn Fn(&RoundResult) -> Option<f64>| {
        rounds.iter().filter_map(f).collect::<Vec<f64>>()
    };
    if !opts.trace {
        let values = [
            per_round(&plain, &|r| Some(r.txns as f64 / r.produce_s)),
            per_round(&plain, &|r| Some(r.txns as f64 / r.follow_s)),
            per_round(&plain, &|r| Some(r.setup_s)),
        ];
        report.metrics = END_TO_END
            .into_iter()
            .zip(values.iter().map(|v| Summary::of(v)))
            .collect();
    } else {
        // The run-level layer metrics join the per-block and per-round
        // samples the traced rounds recorded.
        on.extend(
            "recover.txns_per_s",
            per_round(&plain, &|r| r.recover_s.map(|s| r.txns as f64 / s)),
        );
        on.sample(
            "trace.overhead_ratio",
            Summary::of(&per_round(&traced, &|r| Some(node_us_per_txn(r)))).median
                / Summary::of(&per_round(&plain, &|r| Some(node_us_per_txn(r)))).median,
        );
        let submits = span_durations_us(on.tracer.spans(), "node.submit");
        on.extend("mempool.submit_us", submits);
        if def.latency_phase && report.failures.is_empty() {
            let dir = scratch.join("latency");
            match latency_phase(&harness, opts.seed, &dir) {
                Ok(latency) => {
                    report.attempted += latency.attempted;
                    report.failed += latency.failed;
                    if latency.failed > 0 {
                        report.failures.push(format!(
                            "latency phase: {} arrivals failed (pool depth {} when arrivals ended)",
                            latency.failed, latency.final_pool_depth
                        ));
                    }
                    let mut sorted = latency.log.latencies_ms();
                    sorted.sort_by(f64::total_cmp);
                    let tail = tail_percentile(sorted.len()).unwrap_or(50.0);
                    on.sample("latency.commit_tail_ms", percentile_sorted(&sorted, tail));
                    on.sample("latency.tail_percentile", tail);
                    on.extend("latency.commit_p50_ms", sorted);
                    on.extend("latency.generator_late_ms", latency.log.lateness_ms());
                    on.sample("latency.final_pool_depth", latency.final_pool_depth as f64);
                }
                Err(reason) => report.fail(reason),
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
        report.metrics = PER_LAYER
            .into_iter()
            .map(|def| {
                let samples = on.samples().get(def.name).map_or(&[][..], Vec::as_slice);
                (def, Summary::of(samples))
            })
            .collect();
        report.layers = trace::summarize(on.tracer.spans());
        let path = out_dir.join(format!("trace-{}.json", def.name));
        match write_trace(&path, &report, on.tracer.spans()) {
            Ok(()) => report.trace_file = Some(path),
            Err(e) => report.fail(format!("writing the trace failed: {e}")),
        }
    }
    let _ = std::fs::remove_dir(&scratch);
    report
}

/// Durations (µs) of every span named `name`.
fn span_durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect()
}

/// Writes the spans and their per-name summary as one JSON document.
fn write_trace(path: &Path, report: &RunReport, spans: &[Span]) -> std::io::Result<()> {
    let mut doc = String::with_capacity(spans.len() * 96 + 4096);
    let _ = write!(
        doc,
        "{{\"workload\": \"{}\", \"engine_threads\": {}, \"rounds\": {},\n \"layers\": [",
        report.workload, report.threads, report.rounds
    );
    for (i, l) in report.layers.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            doc,
            "{sep}\n  {{\"name\": \"{}\", \"count\": {}, \"busy_us\": {}, \"us_per_op\": {}, \"share_of_parent\": {}, \"self_us\": {}}}",
            l.name,
            l.count,
            json_number(l.busy_us),
            json_number(l.us_per_op),
            json_number(l.share_of_parent),
            json_number(l.self_us)
        );
    }
    doc.push_str("\n ],\n \"spans\": [");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let block = if s.block == trace::NO_BLOCK {
            "null".to_string()
        } else {
            s.block.to_string()
        };
        let _ = write!(
            doc,
            "{sep}\n  {{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"round\": {}, \"block\": {block}}}",
            s.name, s.start_ns, s.end_ns, s.round
        );
    }
    doc.push_str("\n ]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc)
}
