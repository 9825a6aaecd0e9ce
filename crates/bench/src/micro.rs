//! Per-operation microbenchmarks of the boosted-storage hot path.
//!
//! Where the contention harness measures the lock manager's raw
//! synchronization throughput, this module measures what one **storage
//! operation** costs end to end — acquire, mutate, log the inverse,
//! commit — which is the constant factor the typed undo log and the
//! single-pass mutators attack. The `repro micro` command prints these
//! numbers and `repro --json` records them in the `stm_micro` section of
//! the perf-trajectory files, so per-op regressions are diffable across
//! PRs (`repro diff OLD.json NEW.json`).

use cc_primitives::fnv::fnv1a_of;
use cc_primitives::fx::ShardedRawTable;
use cc_stm::{BoostedMap, Stm};
use std::hint::black_box;
use std::time::Instant;

/// One measured microbenchmark case.
#[derive(Debug, Clone)]
pub struct MicroPoint {
    /// Stable case name (the key used by `repro diff`).
    pub name: &'static str,
    /// Mean cost of one transaction of this case, in nanoseconds.
    pub ns_per_op: f64,
}

/// Number of timed passes per case; the **minimum** is reported, which
/// filters scheduler and frequency noise (anything above the minimum is
/// interference, not the code under test) — important on the single-core
/// CI container.
const PASSES: usize = 5;

/// Times `op` over `ops` iterations per pass (after one warm-up pass of
/// `ops / 8`) and returns the best-of-[`PASSES`] nanoseconds per
/// iteration.
pub(crate) fn time_case(ops: usize, mut op: impl FnMut(usize)) -> f64 {
    for i in 0..(ops / 8).max(1) {
        op(i);
    }
    let mut best = f64::INFINITY;
    for _ in 0..PASSES {
        let start = Instant::now();
        for i in 0..ops {
            op(i);
        }
        best = best.min(start.elapsed().as_nanos() as f64 / ops as f64);
    }
    best
}

/// Storage operations per transaction in the mutation-path cases: real
/// contract transactions perform several operations, and batching makes
/// the per-operation (undo-log) cost visible over the fixed
/// begin/acquire/commit overhead of the transaction itself.
const OPS_PER_TXN: u64 = 16;

/// Runs every microbenchmark case with `ops` measured iterations each.
pub fn run_micro(ops: usize) -> Vec<MicroPoint> {
    let ops = ops.max(64);
    let mut points = Vec::new();

    // -- mutation path: typed undo log, single write pass ----------------
    {
        let stm = Stm::new();
        let map: BoostedMap<u64, u64> = BoostedMap::new("micro.map.insert");
        let ns = time_case(ops / OPS_PER_TXN as usize, |i| {
            let base = (i as u64 * OPS_PER_TXN) % 1024;
            stm.run(|txn| {
                for j in 0..OPS_PER_TXN {
                    map.insert(txn, (base + j) % 1024, j)?;
                }
                Ok(())
            })
            .unwrap();
        }) / OPS_PER_TXN as f64;
        points.push(MicroPoint {
            name: "map-insert-commit",
            ns_per_op: ns,
        });
    }

    // -- read path: shared-mode get --------------------------------------
    // Batched at [`OPS_PER_TXN`] like the mutation cases, so the read and
    // write paths amortize the fixed begin/commit cost identically and
    // their ns/op are directly comparable (pre-PR-5 this case ran one get
    // per transaction, which is why shared-mode reads *appeared* slower
    // than exclusive inserts).
    {
        let stm = Stm::new();
        let map: BoostedMap<u64, u64> = BoostedMap::new("micro.map.get");
        for i in 0..1024u64 {
            map.seed(i, i);
        }
        let ns = time_case(ops / OPS_PER_TXN as usize, |i| {
            let base = (i as u64 * OPS_PER_TXN) % 1024;
            stm.run(|txn| {
                for j in 0..OPS_PER_TXN {
                    map.get(txn, &((base + j) % 1024))?;
                }
                Ok(())
            })
            .unwrap();
        }) / OPS_PER_TXN as f64;
        points.push(MicroPoint {
            name: "map-get-commit",
            ns_per_op: ns,
        });
    }

    // -- read path: borrowing get_with (no V: Clone per read) ------------
    {
        let stm = Stm::new();
        let map: BoostedMap<u64, u64> = BoostedMap::new("micro.map.getwith");
        for i in 0..1024u64 {
            map.seed(i, i);
        }
        let ns = time_case(ops / OPS_PER_TXN as usize, |i| {
            let base = (i as u64 * OPS_PER_TXN) % 1024;
            stm.run(|txn| {
                for j in 0..OPS_PER_TXN {
                    map.get_with(txn, &((base + j) % 1024), |v| v.is_some())?;
                }
                Ok(())
            })
            .unwrap();
        }) / OPS_PER_TXN as f64;
        points.push(MicroPoint {
            name: "map-get-with-commit",
            ns_per_op: ns,
        });
    }

    // -- read path: whole-transaction cost of a single get ---------------
    // One operation per transaction: dominated by the fixed
    // begin/acquire/release/commit machinery, tracked so per-transaction
    // overhead regressions stay visible.
    {
        let stm = Stm::new();
        let map: BoostedMap<u64, u64> = BoostedMap::new("micro.map.get1");
        for i in 0..1024u64 {
            map.seed(i, i);
        }
        let ns = time_case(ops, |i| {
            let key = (i as u64) % 1024;
            stm.run(|txn| map.get(txn, &key)).unwrap();
        });
        points.push(MicroPoint {
            name: "map-get-single-commit",
            ns_per_op: ns,
        });
    }

    // -- fixed cost: an empty transaction --------------------------------
    {
        let stm = Stm::new();
        let ns = time_case(ops, |_| {
            stm.run(|_txn| Ok(())).unwrap();
        });
        points.push(MicroPoint {
            name: "txn-begin-commit",
            ns_per_op: ns,
        });
    }

    // -- fixed cost: an empty transaction from a pooled arena ------------
    // Same shape as `txn-begin-commit`, but the block-scoped pool recycles
    // one transaction's undo sinks, lock vector and trace buffer across
    // every iteration instead of allocating fresh ones.
    {
        let stm = Stm::new();
        let scope = stm.begin_block();
        let ns = time_case(ops, |_| {
            scope.run(|_txn| Ok(())).unwrap();
        });
        points.push(MicroPoint {
            name: "txn-begin-commit-pooled",
            ns_per_op: ns,
        });
    }

    // -- raw backing-store read: the concrete cost under the abstract lock
    // What one boosted `get` pays *below* the lock layer: shard selection,
    // the word-sized latch, and the open-addressed probe. The gap between
    // this and `map-get-commit` is pure transaction machinery.
    {
        let table: ShardedRawTable<u64, u64> = ShardedRawTable::new();
        for i in 0..1024u64 {
            table.write(fnv1a_of(&i), |map| map.insert_hashed(fnv1a_of(&i), i, i));
        }
        let ns = time_case(ops, |i| {
            let key = (i as u64) % 1024;
            let h = fnv1a_of(&key);
            black_box(table.read(h, |map| map.get_hashed(h, &key).copied()));
        });
        points.push(MicroPoint {
            name: "map-get-raw",
            ns_per_op: ns,
        });
    }

    // -- upgrade path: same-key get → insert (Shared → Exclusive) --------
    // The shape contracts overwhelmingly produce (read a slot, then write
    // it); exercises the in-place lock upgrade and the transaction's
    // one-slot last-lock cache.
    {
        let stm = Stm::new();
        let map: BoostedMap<u64, u64> = BoostedMap::new("micro.map.upgrade");
        for i in 0..1024u64 {
            map.seed(i, i);
        }
        let ns = time_case(ops, |i| {
            let key = (i as u64) % 1024;
            stm.run(|txn| {
                let current = map.get(txn, &key)?.unwrap_or(0);
                map.insert(txn, key, current + 1)
            })
            .unwrap();
        });
        points.push(MicroPoint {
            name: "txn-get-then-insert",
            ns_per_op: ns,
        });
    }

    // -- read-modify-write: single-pass update_or ------------------------
    {
        let stm = Stm::new();
        let map: BoostedMap<u64, u64> = BoostedMap::new("micro.map.update");
        let ns = time_case(ops, |i| {
            let key = (i as u64) % 256;
            stm.run(|txn| map.update_or(txn, key, 0, |v| *v += 1))
                .unwrap();
        });
        points.push(MicroPoint {
            name: "map-update-or-commit",
            ns_per_op: ns,
        });
    }

    // -- additive tally add (`BoostedMap<_, u64>::add`) -------------------
    {
        let stm = Stm::new();
        let counter: BoostedMap<u64, u64> = BoostedMap::new("micro.counter.add");
        let ns = time_case(ops, |i| {
            let key = (i as u64) % 64;
            stm.run(|txn| counter.add(txn, key, 1)).unwrap();
        });
        points.push(MicroPoint {
            name: "counter-add-commit",
            ns_per_op: ns,
        });
    }

    // -- scalar cell write: an insert under the key `()` -----------------
    {
        let stm = Stm::new();
        let cell: BoostedMap<(), u64> = BoostedMap::new("micro.cell.set");
        cell.seed((), 0);
        let ns = time_case(ops, |i| {
            stm.run(|txn| cell.insert(txn, (), i as u64)).unwrap();
        });
        points.push(MicroPoint {
            name: "cell-set-commit",
            ns_per_op: ns,
        });
    }

    // -- the read/write-ratio transaction the Shared mode targets --------
    {
        let stm = Stm::new();
        let map: BoostedMap<u64, u64> = BoostedMap::new("micro.map.mix");
        for i in 0..1024u64 {
            map.seed(i, i);
        }
        let ns = time_case(ops, |i| {
            let base = (i as u64) % 512;
            stm.run(|txn| {
                for j in 0..8 {
                    map.get(txn, &((base + j * 61) % 1024))?;
                }
                map.insert(txn, base, base)
            })
            .unwrap();
        });
        points.push(MicroPoint {
            name: "txn-8-reads-1-write",
            ns_per_op: ns,
        });
    }

    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_suite_produces_positive_timings() {
        let points = run_micro(64);
        assert_eq!(points.len(), 12);
        for p in &points {
            assert!(p.ns_per_op > 0.0, "{} measured nothing", p.name);
        }
        // Case names are unique (repro diff matches on them).
        let mut names: Vec<_> = points.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), points.len());
    }
}
