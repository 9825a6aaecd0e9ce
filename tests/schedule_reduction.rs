//! The schedule-reduction invariant: the segment-run construction in
//! `HappensBeforeGraph::from_profiles` publishes a *transitively reduced*
//! happens-before graph — far fewer edges than the all-ordered-pairs
//! construction, but with **identical reachability and critical path**.
//! The invariant is reachability-preserving, not edge-preserving; these
//! tests pin it against a reference all-pairs implementation and against
//! the paper's hot-lock auction block. A second property is what lets the
//! validator trust the graph it derives: it orders every conflicting pair,
//! whatever the profiles claim.

use cc_bench::schedule::{all_pairs_edges, SplitMix64};
use cc_contracts::SimpleAuction;
use cc_core::schedule::Reachability;
use cc_core::HappensBeforeGraph;
use cc_integration_tests::engine;
use cc_ledger::Transaction;
use cc_stm::{LockMode, LockProfile, LockSpace, ProfileEntry};
use cc_vm::{Address, CallData, Receipt, World};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The pre-reduction reference: every ordered conflicting pair per lock
/// becomes an edge (`cc_bench::schedule::all_pairs_edges` is the shared
/// reference implementation — the same edges the bench suite counts).
/// This is what `from_profiles` used to build.
fn all_pairs_graph(profiles: &[LockProfile]) -> HappensBeforeGraph {
    HappensBeforeGraph::from_edges(profiles.len(), all_pairs_edges(profiles))
}

/// Generates `n` random profiles over `locks` abstract locks with mixed
/// `Shared`/`Additive`/`Exclusive` modes. A single global commit order
/// drives every lock's counters — which is exactly what the miner's
/// two-phase-locked execution produces, and what keeps the happens-before
/// relation acyclic.
fn random_profiles(n: usize, locks: u64, seed: u64) -> Vec<LockProfile> {
    let space = LockSpace::new("reduction.prop");
    let mut gen = SplitMix64(seed);
    // A random commit order (not just block order, so counter order and
    // transaction-index order disagree).
    let mut commit_order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (gen.next_u64() % (i as u64 + 1)) as usize;
        commit_order.swap(i, j);
    }
    let mut entries: Vec<Vec<ProfileEntry>> = vec![Vec::new(); n];
    let mut counters = vec![0u64; locks as usize];
    for &tx in &commit_order {
        for lock_key in 0..locks {
            // Each transaction holds each lock with probability 1/2.
            if gen.next_u64().is_multiple_of(2) {
                continue;
            }
            let mode = match gen.next_u64() % 3 {
                0 => LockMode::Shared,
                1 => LockMode::Additive,
                _ => LockMode::Exclusive,
            };
            counters[lock_key as usize] += 1;
            entries[tx].push(ProfileEntry {
                lock: space.lock_for(&lock_key),
                mode,
                counter: counters[lock_key as usize],
            });
        }
    }
    entries.into_iter().map(LockProfile::new).collect()
}

fn reach_matrix(r: &Reachability, n: usize) -> Vec<bool> {
    let mut out = Vec::with_capacity(n * n);
    for a in 0..n {
        for b in 0..n {
            out.push(r.can_reach(a, b));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The reduced graph is reachability- and critical-path-equivalent to
    /// the all-pairs reference over arbitrary mixed-mode profiles, and
    /// never publishes more edges.
    #[test]
    fn prop_reduction_preserves_reachability_and_critical_path(
        n in 2usize..24,
        locks in 1u64..6,
        seed in 0u64..1_000_000,
    ) {
        let profiles = random_profiles(n, locks, seed);
        let reduced = HappensBeforeGraph::from_profiles(&profiles);
        let reference = all_pairs_graph(&profiles);

        prop_assert!(reduced.edge_count() <= reference.edge_count());
        prop_assert_eq!(reduced.critical_path(), reference.critical_path());
        prop_assert_eq!(
            reach_matrix(&reduced.reachability(), n),
            reach_matrix(&reference.reachability(), n)
        );

        // The published metadata round-trips to the same graph, and its
        // serial order is one the reference graph accepts too (the two
        // graphs have the same topological orders).
        let meta = reduced.to_metadata(&profiles).unwrap();
        let rebuilt = HappensBeforeGraph::from_metadata(&meta, n).unwrap();
        prop_assert_eq!(&rebuilt, &reduced);
        prop_assert_eq!(meta.critical_path(), reference.critical_path());
    }
}

/// Cases of `prop_derived_graphs_order_every_conflicting_pair`: the
/// referee for the validator having no race check of its own.
const SOUNDNESS_CASES: u32 = 256;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(SOUNDNESS_CASES))]

    /// Whatever a block's profiles claim — arbitrary and repeated
    /// counters, one lock listed twice in a profile, every mode — the
    /// graph `from_profiles` derives is either cyclic (the validator
    /// rejects the block) or orders every two transactions whose strongest
    /// modes on some lock conflict. A replay whose traces equal the
    /// profiles therefore never runs a conflicting pair unordered.
    #[test]
    fn prop_derived_graphs_order_every_conflicting_pair(
        raw in proptest::collection::vec(
            proptest::collection::vec((0u64..4, 0u8..3, 0u64..4), 0..4),
            2..10,
        ),
    ) {
        let space = LockSpace::new("soundness.prop");
        let modes = [LockMode::Shared, LockMode::Additive, LockMode::Exclusive];
        let profiles: Vec<LockProfile> = raw
            .iter()
            .map(|entries| {
                let entries = entries.iter().map(|&(key, mode, counter)| ProfileEntry {
                    lock: space.lock_for(&key),
                    mode: modes[mode as usize],
                    counter,
                });
                LockProfile::new(entries.collect())
            })
            .collect();
        let graph = HappensBeforeGraph::from_profiles(&profiles);
        if graph.topological_sort().is_none() {
            return Ok(());
        }
        let reach = graph.reachability();
        // Each transaction's strongest mode per lock.
        let strongest: Vec<BTreeMap<_, LockMode>> = profiles
            .iter()
            .map(|profile| {
                let mut modes = BTreeMap::new();
                for entry in &profile.locks {
                    modes
                        .entry(entry.lock)
                        .and_modify(|mode: &mut LockMode| *mode = mode.strongest(entry.mode))
                        .or_insert(entry.mode);
                }
                modes
            })
            .collect();
        for (a, held_a) in strongest.iter().enumerate() {
            for (b, held_b) in strongest.iter().enumerate().skip(a + 1) {
                for (lock, &mode) in held_a {
                    let conflict = held_b.get(lock).is_some_and(|&other| mode.conflicts(other));
                    prop_assert!(
                        !conflict || reach.ordered(a, b),
                        "transactions {a} and {b} conflict on {lock} but are unordered"
                    );
                }
            }
        }
    }
}

/// The paper's conflict generator as a whole block: 12 `bidPlusOne`
/// transactions all chained through the hot `highest_bid` cell. The
/// all-pairs construction published 66 edges here; the reduction
/// publishes the chain itself — exactly 11 — with the critical path
/// still 12, and the block still validates.
#[test]
fn twelve_bid_auction_publishes_exactly_eleven_edges() {
    let auction_address = Address::from_name("Auction-reduction");
    let build_world = || {
        let world = World::new();
        world.deploy(Arc::new(SimpleAuction::new(
            auction_address,
            Address::from_index(0),
        )));
        world
    };
    let txs: Vec<Transaction> = (1..=12)
        .map(|i| {
            Transaction::new(
                i,
                Address::from_index(i),
                auction_address,
                CallData::nullary("bidPlusOne"),
                1_000_000,
            )
        })
        .collect();

    let mined = engine(3).mine(&build_world(), txs).unwrap();
    assert!(mined.block.receipts.iter().all(Receipt::succeeded));

    let schedule = mined.block.schedule.as_ref().unwrap();
    assert_eq!(
        schedule.edges.len(),
        11,
        "an exclusive hot-lock chain of 12 publishes exactly 11 edges, got {:?}",
        schedule.edges
    );
    assert_eq!(schedule.critical_path(), 12, "the block is still a chain");

    // The published chain follows the commit order end to end.
    let graph = HappensBeforeGraph::from_metadata(schedule, 12).unwrap();
    let order = schedule.serial_order.clone();
    for w in order.windows(2) {
        assert!(graph.has_edge(w[0], w[1]), "missing chain edge {w:?}");
    }

    // And the trace-checking fork-join validator accepts the reduced
    // schedule.
    let report = engine(3).validate(&build_world(), &mined.block).unwrap();
    assert_eq!(report.state_root, mined.block.header.state_root);
    assert_eq!(report.critical_path, 12);
}

/// An exclusive hot-lock chain at engine level for a range of lengths:
/// h transactions publish exactly h−1 edges (was h(h−1)/2).
#[test]
fn exclusive_chain_blocks_publish_h_minus_one_edges() {
    for h in [2u64, 5, 9] {
        let auction_address = Address::from_name("Auction-chain-len");
        let world = World::new();
        world.deploy(Arc::new(SimpleAuction::new(
            auction_address,
            Address::from_index(0),
        )));
        let txs: Vec<Transaction> = (1..=h)
            .map(|i| {
                Transaction::new(
                    i,
                    Address::from_index(i),
                    auction_address,
                    CallData::nullary("bidPlusOne"),
                    1_000_000,
                )
            })
            .collect();
        let mined = engine(3).mine(&world, txs).unwrap();
        let schedule = mined.block.schedule.as_ref().unwrap();
        assert_eq!(
            schedule.edges.len(),
            h as usize - 1,
            "chain of {h} must publish {} edges",
            h - 1
        );
        assert_eq!(schedule.critical_path(), h as usize);
    }
}
