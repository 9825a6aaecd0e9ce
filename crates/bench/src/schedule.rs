//! Microbenchmarks of the schedule pipeline itself.
//!
//! Schedules are consensus data: the miner builds the happens-before
//! graph, every validator rebuilds it from the published metadata, and the
//! metadata bytes travel inside the block. This module measures the three
//! per-op costs the transitively-reduced CSR pipeline attacks — **graph
//! build time**, **published edge count** and **encoded metadata size** —
//! on four synthetic block shapes, from lock profiles generated directly
//! (no contract execution, so the numbers isolate the schedule pipeline).
//!
//! The shapes:
//!
//! * `chain` — one hot lock held exclusively by every transaction: the
//!   worst case the reduction targets (h−1 edges instead of h(h−1)/2).
//! * `antichain` — every transaction touches only its own lock: the
//!   no-conflict floor (0 edges; measures pure build overhead).
//! * `hot-key` — one hot lock, mostly shared readers with periodic
//!   exclusive writers: writer→readers→writer fans.
//! * `mixed-mode` — several locks, each transaction touching a few in
//!   deterministic pseudo-random shared/additive/exclusive modes.
//!
//! `repro schedule` prints the table and `repro --json` records it in the
//! `schedule` section of the committed baseline (`BENCH_BASELINE.json`), so
//! `repro diff` flags regressions in any of the three metrics. The shapes
//! and sizes are identical in `--quick` mode (only the number of timing
//! passes shrinks) so quick CI runs diff cleanly against committed full
//! runs.

use cc_core::HappensBeforeGraph;
use cc_primitives::fx::FxHashSet;
use cc_stm::{LockMode, LockProfile, LockSpace, ProfileEntry};
use std::time::Instant;

/// One measured schedule-pipeline case.
#[derive(Debug, Clone)]
pub struct SchedulePoint {
    /// Stable shape name (the key used by `repro diff`).
    pub shape: &'static str,
    /// Transactions in the synthetic block.
    pub txns: usize,
    /// Best-of-passes wall time to build the happens-before graph from
    /// the block's profiles, in microseconds.
    pub build_us: f64,
    /// Edges the built graph publishes.
    pub edges: usize,
    /// Edges the pre-reduction all-ordered-pairs construction would have
    /// published (context for the reduction factor; not diffed).
    pub all_pairs_edges: usize,
    /// Critical path of the built graph.
    pub critical_path: usize,
    /// Canonical encoded size of the published [`ScheduleMetadata`],
    /// in bytes.
    ///
    /// [`ScheduleMetadata`]: cc_ledger::ScheduleMetadata
    pub metadata_bytes: usize,
}

/// Transactions per synthetic block. Kept identical between quick and
/// full runs so `repro diff` labels always match.
pub const SCHEDULE_TXNS: usize = 512;

/// A tiny deterministic generator (SplitMix64), so profile shapes are
/// reproducible without a `rand` dependency. Shared with the
/// schedule-reduction property tests, which seed it from proptest-drawn
/// values.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next pseudo-random 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// `h` exclusive holders of one hot lock — the reduction's headline case.
fn chain_profiles(n: usize) -> Vec<LockProfile> {
    let hot = LockSpace::new("sched.chain.hot").whole();
    (0..n)
        .map(|i| {
            LockProfile::new(vec![ProfileEntry {
                lock: hot,
                mode: LockMode::Exclusive,
                counter: i as u64 + 1,
            }])
        })
        .collect()
}

/// Every transaction touches only its own lock: zero edges.
fn antichain_profiles(n: usize) -> Vec<LockProfile> {
    let space = LockSpace::new("sched.antichain");
    (0..n)
        .map(|i| {
            LockProfile::new(vec![ProfileEntry {
                lock: space.lock_for(&(i as u64)),
                mode: LockMode::Exclusive,
                counter: 1,
            }])
        })
        .collect()
}

/// One hot lock, an exclusive writer every 16 transactions, shared
/// readers in between; each transaction also touches a private lock.
fn hot_key_profiles(n: usize) -> Vec<LockProfile> {
    let hot = LockSpace::new("sched.hotkey.hot").whole();
    let private = LockSpace::new("sched.hotkey.private");
    (0..n)
        .map(|i| {
            let mode = if i % 16 == 0 {
                LockMode::Exclusive
            } else {
                LockMode::Shared
            };
            LockProfile::new(vec![
                ProfileEntry {
                    lock: hot,
                    mode,
                    counter: i as u64 + 1,
                },
                ProfileEntry {
                    lock: private.lock_for(&(i as u64)),
                    mode: LockMode::Exclusive,
                    counter: 1,
                },
            ])
        })
        .collect()
}

/// 32 locks; each transaction touches three of them in pseudo-random
/// shared/additive/exclusive modes. Per-lock counters are assigned in
/// transaction order (one global commit order), which is what an actual
/// two-phase-locked execution produces, so the result is acyclic.
fn mixed_mode_profiles(n: usize) -> Vec<LockProfile> {
    const LOCKS: u64 = 32;
    let space = LockSpace::new("sched.mixed");
    let mut counters = vec![0u64; LOCKS as usize];
    let mut gen = SplitMix64(0x5eed);
    (0..n)
        .map(|_| {
            let mut entries = Vec::with_capacity(3);
            let mut used = [u64::MAX; 3];
            for slot in 0..3 {
                let mut key = gen.next_u64() % LOCKS;
                while used[..slot].contains(&key) {
                    key = gen.next_u64() % LOCKS;
                }
                used[slot] = key;
                let mode = match gen.next_u64() % 3 {
                    0 => LockMode::Shared,
                    1 => LockMode::Additive,
                    _ => LockMode::Exclusive,
                };
                counters[key as usize] += 1;
                entries.push(ProfileEntry {
                    lock: space.lock_for(&key),
                    mode,
                    counter: counters[key as usize],
                });
            }
            LockProfile::new(entries)
        })
        .collect()
}

/// The pre-reduction reference construction: every ordered conflicting
/// pair per lock, deduplicated across locks (self-pairs from duplicate
/// lock entries excluded, matching the reduced builder). Returned as an
/// explicit edge list so the schedule-reduction property tests can build
/// a reference graph from exactly the edges this suite counts.
pub fn all_pairs_edges(profiles: &[LockProfile]) -> Vec<(usize, usize)> {
    use cc_primitives::fx::FxHashMap;
    use cc_stm::LockId;
    let mut by_lock: FxHashMap<LockId, Vec<(u64, u32, LockMode)>> = FxHashMap::default();
    for (tx, profile) in profiles.iter().enumerate() {
        for entry in &profile.locks {
            by_lock
                .entry(entry.lock)
                .or_default()
                .push((entry.counter, tx as u32, entry.mode));
        }
    }
    let mut edges: FxHashSet<(u32, u32)> = FxHashSet::default();
    for holders in by_lock.values_mut() {
        holders.sort_unstable();
        for i in 0..holders.len() {
            for j in (i + 1)..holders.len() {
                if holders[i].1 != holders[j].1 && holders[i].2.conflicts(holders[j].2) {
                    edges.insert((holders[i].1, holders[j].1));
                }
            }
        }
    }
    let mut out: Vec<(usize, usize)> = edges
        .into_iter()
        .map(|(a, b)| (a as usize, b as usize))
        .collect();
    out.sort_unstable();
    out
}

/// Edge count of the pre-reduction all-pairs construction.
pub fn all_pairs_edge_count(profiles: &[LockProfile]) -> usize {
    all_pairs_edges(profiles).len()
}

/// Times one shape: best-of-`passes` build time plus the structural
/// numbers of the built schedule.
fn measure_shape(shape: &'static str, profiles: Vec<LockProfile>, passes: usize) -> SchedulePoint {
    let mut best = f64::INFINITY;
    for _ in 0..passes.max(1) {
        let start = Instant::now();
        let graph = HappensBeforeGraph::from_profiles(&profiles);
        best = best.min(start.elapsed().as_nanos() as f64 / 1_000.0);
        std::hint::black_box(&graph);
    }
    let graph = HappensBeforeGraph::from_profiles(&profiles);
    let edges = graph.edge_count();
    let critical_path = graph.critical_path();
    let all_pairs_edges = all_pairs_edge_count(&profiles);
    let txns = profiles.len();
    let metadata_bytes = graph
        .into_metadata(profiles)
        .expect("synthetic profiles are acyclic")
        .encoded_size();
    SchedulePoint {
        shape,
        txns,
        build_us: best,
        edges,
        all_pairs_edges,
        critical_path,
        metadata_bytes,
    }
}

/// Runs the schedule suite over all four shapes with `passes` timing
/// passes per shape (quick mode uses fewer passes, never smaller shapes).
pub fn run_schedule(passes: usize) -> Vec<SchedulePoint> {
    let n = SCHEDULE_TXNS;
    vec![
        measure_shape("chain", chain_profiles(n), passes),
        measure_shape("antichain", antichain_profiles(n), passes),
        measure_shape("hot-key", hot_key_profiles(n), passes),
        measure_shape("mixed-mode", mixed_mode_profiles(n), passes),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_have_the_expected_structure() {
        let points = run_schedule(1);
        assert_eq!(points.len(), 4);
        let find = |name: &str| points.iter().find(|p| p.shape == name).unwrap();

        let chain = find("chain");
        assert_eq!(chain.txns, SCHEDULE_TXNS);
        assert_eq!(chain.edges, SCHEDULE_TXNS - 1, "exclusive chain is reduced");
        assert_eq!(
            chain.all_pairs_edges,
            SCHEDULE_TXNS * (SCHEDULE_TXNS - 1) / 2
        );
        assert_eq!(chain.critical_path, SCHEDULE_TXNS);

        let antichain = find("antichain");
        assert_eq!(antichain.edges, 0);
        assert_eq!(antichain.critical_path, 1);

        let hot = find("hot-key");
        assert!(hot.edges < hot.all_pairs_edges);
        assert!(hot.critical_path < SCHEDULE_TXNS / 4);

        for p in &points {
            assert!(p.build_us > 0.0, "{} measured nothing", p.shape);
            assert!(p.metadata_bytes > 0);
            assert!(p.edges <= p.all_pairs_edges, "{} grew edges", p.shape);
        }
        // Shape names are unique (repro diff matches on them).
        let mut names: Vec<_> = points.iter().map(|p| p.shape).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), points.len());
    }

    #[test]
    fn mixed_mode_generation_is_deterministic() {
        let a = mixed_mode_profiles(64);
        let b = mixed_mode_profiles(64);
        assert_eq!(a, b);
    }
}
