//! Tests of the harness itself: the summary rules, the open-loop
//! accounting, nonce renumbering, span arithmetic, and that a failed
//! output check fails the run.

use cc_benchmark::openloop::{LatencyLog, Schedule};
use cc_benchmark::report::{manifest, run_workload, RunOptions, RunReport, END_TO_END, PER_LAYER};
use cc_benchmark::round::{Harness, Recorder, RoundResult};
use cc_benchmark::stats::{percentile_sorted, tail_percentile, Summary};
use cc_benchmark::trace::{self_times_ns, summarize, Span, Tracer, NO_BLOCK};
use cc_benchmark::workloads::{self, renumber_per_sender, Inputs, WORKLOADS};
use cc_ledger::Transaction;
use cc_mempool::{Mempool, MempoolConfig, SubmitOutcome};
use cc_vm::{Address, CallData};
use std::collections::HashMap;
use std::path::PathBuf;

fn out_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{}-{tag}", std::process::id()))
}

#[test]
fn quartiles_follow_the_exclusive_rule() {
    // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
    let values: Vec<f64> = (1..=10).map(f64::from).collect();
    let s = Summary::of(&values);
    assert_eq!((s.q1, s.median, s.q3, s.count), (2.75, 5.5, 8.25, 10));
    assert!((s.spread() - 1.0).abs() < 1e-12);
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]; order is irrelevant.
    let s = Summary::of(&[3.0, 1.0, 2.0]);
    assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    // One sample is its own median; none is zero.
    assert_eq!(Summary::of(&[7.0]).median, 7.0);
    assert_eq!(Summary::of(&[]).median, 0.0);
    assert_eq!(Summary::of(&[]).spread(), 0.0);
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
    assert_eq!(tail_percentile(99), None);
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(199), Some(90.0));
    assert_eq!(tail_percentile(200), Some(95.0));
    assert_eq!(tail_percentile(1000), Some(99.0));
    assert_eq!(tail_percentile(6000), Some(99.0));
    assert_eq!(tail_percentile(10_000), Some(99.9));
    assert_eq!(tail_percentile(100_000), Some(99.99));

    let sorted: Vec<f64> = (0..=100).map(f64::from).collect();
    assert_eq!(percentile_sorted(&sorted, 99.0), 99.0);
    assert_eq!(percentile_sorted(&sorted, 50.0), 50.0);
    assert_eq!(percentile_sorted(&[1.0, 2.0], 50.0), 1.5);
}

#[test]
fn open_loop_times_from_the_due_time_and_reports_lateness() {
    let schedule = Schedule {
        rate_per_s: 4000.0,
        count: 8,
    };
    // 4000/s: one arrival every 250 µs, the first at zero.
    assert_eq!(schedule.due_ns(0), 0);
    assert_eq!(schedule.due_ns(4), 1_000_000);
    // At 600 µs arrivals 0, 1 and 2 are due; with two admitted, one is left.
    assert_eq!(schedule.due_by(600_000, 0), 3);
    assert_eq!(schedule.due_by(600_000, 2), 1);
    assert_eq!(schedule.due_by(600_000, 3), 0);
    // The schedule ends: never more than `count`.
    assert_eq!(schedule.due_by(u64::MAX, 5), 3);

    let mut log = LatencyLog::new(&schedule);
    // Arrival 1 (due at 250 µs) is sent 150 µs late, because the driver
    // was inside a stalled call, and is durable at 1 ms: the stall is
    // charged to it — latency 750 µs, not 600.
    log.admit(1, 400_000);
    log.complete(1, 1_000_000);
    log.admit(2, 500_000);
    assert_eq!(log.lateness_ms(), vec![0.15, 0.0]);
    assert_eq!(log.latencies_ms(), vec![0.75]);
    assert_eq!(log.unfinished(), 7);
}

fn tx(sender: u64) -> Transaction {
    Transaction::new(
        999,
        Address::from_index(sender),
        Address::from_name("nobody"),
        CallData::nullary("noop"),
        1,
    )
}

#[test]
fn nonces_are_renumbered_per_sender_in_list_order() {
    let mut txns = vec![tx(1), tx(2), tx(1), tx(3), tx(1)];
    assert_eq!(renumber_per_sender(&mut txns), 2);
    let nonces: Vec<u64> = txns.iter().map(|t| t.nonce).collect();
    assert_eq!(nonces, vec![0, 0, 1, 0, 2]);
}

#[test]
fn every_workload_generates_inputs_the_mempool_admits_as_ready() {
    for def in &WORKLOADS {
        let inputs = Inputs::generate(def, 7);
        assert_eq!(inputs.txns.len(), def.txns_per_round(), "{}", def.name);
        assert_eq!(
            inputs.txns,
            Inputs::generate(def, 7).txns,
            "{}: same seed, same inputs",
            def.name
        );
        assert_ne!(
            inputs.txns,
            Inputs::generate(def, 8).txns,
            "{}: the seed reaches the generator",
            def.name
        );
        let pool = Mempool::new(MempoolConfig {
            capacity: 8 * inputs.txns.len(),
            shards: 8,
        });
        let mut next: HashMap<Address, u64> = HashMap::new();
        for tx in &inputs.txns {
            let expected = next.entry(tx.sender).or_insert(0);
            assert_eq!(tx.nonce, *expected, "{}: contiguous per sender", def.name);
            *expected += 1;
            assert!(
                matches!(pool.submit(tx.clone()), Ok(SubmitOutcome::Ready { .. })),
                "{}: no submission parks behind a gap",
                def.name
            );
        }
    }
    // Mixed at 100% conflict: every Ballot voter votes twice, and the
    // second vote of each pair is expected to throw.
    let hot = Inputs::generate(workloads::find("hot.mixed.stm").unwrap(), 1);
    assert!(hot.expected_throws > 100);
    let reads = Inputs::generate(workloads::find("reads.etherdoc").unwrap(), 1);
    assert_eq!(reads.expected_throws, 0);
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        round: 0,
        block: NO_BLOCK,
    }
}

#[test]
fn self_time_is_the_span_minus_what_its_children_cover() {
    let spans = vec![
        span("node.call", 0, 100, None),      // 0
        span("layer.a", 10, 30, Some(0)),     // 1
        span("layer.b", 40, 80, Some(0)),     // 2
        span("layer.inner", 50, 60, Some(2)), // 3: reduces b, not the root
        span("layer.a", 85, 95, Some(0)),     // 4
    ];
    assert_eq!(self_times_ns(&spans), vec![30, 20, 30, 10, 10]);

    let rows = summarize(&spans);
    let row = |name: &str| rows.iter().find(|r| r.name == name).unwrap().clone();
    let a = row("layer.a");
    assert_eq!(a.count, 2);
    assert_eq!(a.busy_us, 0.03);
    assert_eq!(a.us_per_op, 0.015);
    // Both `layer.a` spans sit under the same 100 ns parent, counted once.
    assert!((a.share_of_parent - 0.3).abs() < 1e-12);
    assert_eq!(row("layer.b").self_us, 0.03);
    assert_eq!(row("node.call").share_of_parent, 1.0);
    assert_eq!(row("node.call").self_us, 0.03);
}

#[test]
fn tracer_nests_spans_and_a_disabled_tracer_records_nothing() {
    let mut tracer = Tracer::new(true);
    tracer.set_round(4);
    let outer = tracer.enter("outer", NO_BLOCK);
    let inner = tracer.enter("inner", 2);
    tracer.exit(inner);
    let dangling = tracer.enter("dangling", 3);
    let _ = dangling;
    // Closing the outer span closes what an error path left open inside it.
    tracer.exit(outer);
    let spans = tracer.spans();
    assert_eq!(spans.len(), 3);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[2].parent, Some(0));
    assert_eq!((spans[1].round, spans[1].block), (4, 2));
    assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    assert!(spans[0].end_ns >= spans[2].end_ns);

    let mut off = Tracer::new(false);
    let id = off.enter("anything", NO_BLOCK);
    off.exit(id);
    assert!(off.spans().is_empty());
}

#[test]
fn a_tampered_block_fails_the_follower_check_and_the_run() {
    let def = workloads::find("reads.etherdoc").unwrap();
    let dir = out_dir("tamper");
    let harness = Harness::new(def, &dir).unwrap();
    let inputs = Inputs::generate(def, 11);
    let mut rec = Recorder::new(false);
    let mut result = RoundResult::default();

    let producer = harness.node(inputs.build_world(), &dir).unwrap();
    let (_, produced) = harness
        .produce(producer, &inputs, &mut rec, &mut result)
        .unwrap();
    assert_eq!(result.failed, 0);

    // The honest chain is accepted …
    let mut honest = harness.node(inputs.build_world(), &dir).unwrap();
    harness.follow(&mut honest, &produced.blocks, &mut rec, &mut result);
    assert_eq!(result.failed, 0, "{:?}", result.failures);

    // … a chain whose second block commits to a forged state root is not:
    // that block and everything after it count as failed.
    let mut forged = produced.blocks.clone();
    // (Any other hash will do as the forgery; the workload is read-only,
    // so the neighbouring blocks' roots would be the honest one.)
    forged[1].header.state_root = forged[1].header.parent_hash;
    let mut follower = harness.node(inputs.build_world(), &dir).unwrap();
    harness.follow(&mut follower, &forged, &mut rec, &mut result);
    assert_eq!(result.failed, forged.len() as u64 - 1);
    assert!(result.failures[0].contains("rejected block 2"));

    let mut report = RunReport::new(def.name);
    report.absorb(&result);
    assert!(!report.correct());
    assert_ne!(report.exit_code(), 0);
    assert!(report.result_line().starts_with("{\"correct\": false"));
}

#[test]
fn smoke_runs_check_outputs_and_report_every_declared_metric() {
    // The durable, pipelined workload: produce, follow, recover and the
    // crash-cut check all run and pass.
    let dir = out_dir("smoke");
    let opts = RunOptions {
        seed: 5,
        seconds: 0.0,
        trace: false,
        smoke: true,
    };
    let report = run_workload(workloads::find("small.counter.fsync").unwrap(), &opts, &dir);
    assert!(report.correct(), "{:?}", report.failures);
    assert_eq!(report.exit_code(), 0);
    assert_eq!(report.rounds, 3);
    let names: Vec<&str> = report.metrics.iter().map(|(m, _)| m.name).collect();
    assert_eq!(names, END_TO_END.map(|m| m.name));
    assert!(report.metrics.iter().all(|(_, s)| s.median > 0.0));

    // A traced run reports every per-layer metric, zero where the layer
    // does no work (no WAL on this workload), and writes its trace.
    let traced = run_workload(
        workloads::find("reads.etherdoc").unwrap(),
        &RunOptions {
            trace: true,
            ..opts
        },
        &dir,
    );
    assert!(traced.correct(), "{:?}", traced.failures);
    let names: Vec<&str> = traced.metrics.iter().map(|(m, _)| m.name).collect();
    assert_eq!(names, PER_LAYER.map(|m| m.name));
    assert!(traced.value("vm.state_root_us").unwrap() > 0.0);
    assert!(traced.value("node.mine_pending_us").unwrap() > 0.0);
    assert_eq!(traced.value("miner.read_only_per_block"), Some(200.0));
    assert_eq!(traced.value("stm.waits_per_block"), Some(0.0));
    assert_eq!(traced.value("ledger.seal_us"), Some(0.0));
    assert!(traced.trace_file.as_ref().is_some_and(|p| p.exists()));

    // Scratch durability directories are gone again.
    assert!(!dir.join("scratch").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn benchmark_json_is_the_manifest_this_crate_prints() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    assert_eq!(committed, manifest());
    for w in &WORKLOADS {
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
}
