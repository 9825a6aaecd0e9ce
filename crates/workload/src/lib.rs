//! Deterministic workload generators for the paper's benchmarks.
//!
//! §7.1 of the paper defines four benchmarks — **Ballot**,
//! **SimpleAuction**, **EtherDoc** and **Mixed** — each parameterised by
//! the number of transactions per block and the *data-conflict
//! percentage*: "the percentage of transactions that contend with at least
//! one other transaction for shared data". This crate regenerates those
//! blocks:
//!
//! | Benchmark | non-conflicting transactions | conflict injection |
//! |-----------|------------------------------|--------------------|
//! | Ballot | each registered voter votes once for the same proposal | some voters attempt to vote twice (the second vote throws) |
//! | SimpleAuction | outbid bidders `withdraw()` their pending returns | new bidders call `bidPlusOne()`, all reading/raising the shared highest bid |
//! | EtherDoc | owners check existence of distinct documents | owners transfer their documents to the contract creator, all updating the creator's tally |
//! | Mixed | equal proportions of the above three | injected per-contract in equal proportions |
//!
//! A [`Workload`] knows how to build a **fresh, identical initial world**
//! any number of times ([`Workload::build_world`]), which is how the
//! benchmark harness gives the serial miner, the parallel miner and the
//! validators byte-identical starting states.
//!
//! # Example
//!
//! ```
//! use cc_workload::{Benchmark, WorkloadSpec};
//!
//! let spec = WorkloadSpec::new(Benchmark::Ballot, 100, 0.15).with_seed(42);
//! let workload = spec.generate();
//! assert_eq!(workload.transactions().len(), 100);
//! let world = workload.build_world();
//! assert_eq!(world.contract_count(), 1);
//! // A second build yields the same initial state.
//! assert_eq!(world.state_root(), workload.build_world().state_root());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod auction;
mod ballot;
mod etherdoc;

use cc_ledger::Transaction;
use cc_vm::World;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::fmt;

/// Which of the paper's benchmarks to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// The Ballot voting contract.
    Ballot,
    /// The SimpleAuction contract.
    SimpleAuction,
    /// The EtherDoc proof-of-existence contract.
    EtherDoc,
    /// Equal proportions of the other three on their own contracts.
    Mixed,
}

impl Benchmark {
    /// All four benchmarks, in the order the paper reports them.
    pub const ALL: [Benchmark; 4] = [
        Benchmark::SimpleAuction,
        Benchmark::Ballot,
        Benchmark::EtherDoc,
        Benchmark::Mixed,
    ];
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Benchmark::Ballot => f.write_str("Ballot"),
            Benchmark::SimpleAuction => f.write_str("SimpleAuction"),
            Benchmark::EtherDoc => f.write_str("EtherDoc"),
            Benchmark::Mixed => f.write_str("Mixed"),
        }
    }
}

/// Parameters of one generated block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Which benchmark.
    pub benchmark: Benchmark,
    /// Number of transactions in the block (the paper sweeps 10–400).
    pub block_size: usize,
    /// Fraction (0.0–1.0) of transactions that contend with at least one
    /// other transaction.
    pub conflict: f64,
    /// RNG seed controlling the in-block ordering of transactions.
    pub seed: u64,
}

impl WorkloadSpec {
    /// Creates a spec with the default seed.
    pub fn new(benchmark: Benchmark, block_size: usize, conflict: f64) -> Self {
        WorkloadSpec {
            benchmark,
            block_size,
            conflict: conflict.clamp(0.0, 1.0),
            seed: 0xC0FFEE,
        }
    }

    /// Overrides the shuffle seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the workload described by this spec.
    pub fn generate(&self) -> Workload {
        Workload::generate(*self)
    }
}

impl fmt::Display for WorkloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} txns, {:.0}% conflict)",
            self.benchmark,
            self.block_size,
            self.conflict * 100.0
        )
    }
}

/// A generated block of transactions plus the recipe for its initial
/// world state.
#[derive(Debug, Clone)]
pub struct Workload {
    spec: WorkloadSpec,
    transactions: Vec<Transaction>,
}

impl Workload {
    /// Generates the workload for `spec`.
    pub fn generate(spec: WorkloadSpec) -> Self {
        let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x5eed_0001);
        let mut transactions = match spec.benchmark {
            Benchmark::Ballot => ballot::transactions(spec.block_size, spec.conflict),
            Benchmark::SimpleAuction => auction::transactions(spec.block_size, spec.conflict),
            Benchmark::EtherDoc => etherdoc::transactions(spec.block_size, spec.conflict),
            Benchmark::Mixed => {
                let per = spec.block_size / 3;
                let remainder = spec.block_size - 2 * per;
                let mut txs = ballot::transactions(remainder, spec.conflict);
                txs.extend(auction::transactions(per, spec.conflict));
                txs.extend(etherdoc::transactions(per, spec.conflict));
                txs
            }
        };
        // Shuffle so contending transactions are not adjacent in the block
        // (block position must not encode the conflict structure).
        transactions.shuffle(&mut rng);
        for (nonce, tx) in transactions.iter_mut().enumerate() {
            tx.nonce = nonce as u64;
        }
        Workload { spec, transactions }
    }

    /// The spec this workload was generated from.
    pub fn spec(&self) -> WorkloadSpec {
        self.spec
    }

    /// The block's transactions (cloned; the same list every call).
    pub fn transactions(&self) -> Vec<Transaction> {
        self.transactions.clone()
    }

    /// Builds a fresh world holding the benchmark's initial state. Every
    /// call produces an identical, independent world (own STM runtime, own
    /// storage), so serial and parallel executions never share state.
    pub fn build_world(&self) -> World {
        let world = World::new();
        match self.spec.benchmark {
            Benchmark::Ballot => ballot::deploy(&world, self.spec.block_size),
            Benchmark::SimpleAuction => auction::deploy(&world, self.spec.block_size),
            Benchmark::EtherDoc => etherdoc::deploy(&world, self.spec.block_size),
            Benchmark::Mixed => {
                ballot::deploy(&world, self.spec.block_size);
                auction::deploy(&world, self.spec.block_size);
                etherdoc::deploy(&world, self.spec.block_size);
            }
        }
        world
    }

    /// The number of transactions that were generated as contending
    /// (useful for asserting the conflict definition in tests).
    pub fn expected_conflicting(&self) -> usize {
        contending_count(self.spec.block_size, self.spec.conflict)
    }
}

/// Number of contending transactions for a block of `n` transactions at
/// conflict fraction `c`, rounded to the nearest even number (conflicts
/// are always injected in groups of at least two — a single transaction
/// cannot contend with itself).
pub(crate) fn contending_count(n: usize, c: f64) -> usize {
    let raw = (n as f64 * c).round() as usize;
    let even = raw - (raw % 2);
    even.min(n - (n % 2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_core::Engine;
    use cc_vm::ExecutionStatus;

    #[test]
    fn contending_count_is_even_and_bounded() {
        assert_eq!(contending_count(100, 0.15), 14);
        assert_eq!(contending_count(100, 0.0), 0);
        assert_eq!(contending_count(100, 1.0), 100);
        assert_eq!(contending_count(10, 0.5), 4);
        assert_eq!(contending_count(7, 1.0), 6);
    }

    #[test]
    fn block_sizes_are_exact_for_all_benchmarks() {
        for benchmark in Benchmark::ALL {
            for &n in &[10usize, 47, 100, 200] {
                let w = WorkloadSpec::new(benchmark, n, 0.15).generate();
                assert_eq!(w.transactions().len(), n, "{benchmark} at {n}");
            }
        }
    }

    #[test]
    fn worlds_are_reproducible() {
        for benchmark in Benchmark::ALL {
            let w = WorkloadSpec::new(benchmark, 50, 0.2).generate();
            assert_eq!(
                w.build_world().state_root(),
                w.build_world().state_root(),
                "{benchmark}"
            );
        }
    }

    #[test]
    fn transactions_are_reproducible_for_same_seed_and_differ_across_seeds() {
        let a = WorkloadSpec::new(Benchmark::Ballot, 60, 0.15)
            .with_seed(1)
            .generate();
        let b = WorkloadSpec::new(Benchmark::Ballot, 60, 0.15)
            .with_seed(1)
            .generate();
        let c = WorkloadSpec::new(Benchmark::Ballot, 60, 0.15)
            .with_seed(2)
            .generate();
        assert_eq!(a.transactions(), b.transactions());
        assert_ne!(a.transactions(), c.transactions());
    }

    #[test]
    fn serial_and_parallel_mining_agree_on_every_benchmark() {
        for benchmark in Benchmark::ALL {
            let w = WorkloadSpec::new(benchmark, 60, 0.25).generate();
            let engine = Engine::speculative(3).unwrap();
            let parallel = engine.mine(&w.build_world(), w.transactions()).unwrap();
            // Serializability: running the published serial order one
            // transaction at a time reproduces the parallel state. (Plain
            // block order is not used here because SimpleAuction's final
            // state legitimately depends on the serialization chosen.)
            let schedule = parallel.block.schedule.as_ref().unwrap();
            let txs = w.transactions();
            let reordered: Vec<cc_ledger::Transaction> = schedule
                .serial_order
                .iter()
                .map(|&i| txs[i].clone())
                .collect();
            let serial = Engine::serial().mine(&w.build_world(), reordered).unwrap();
            assert_eq!(
                serial.block.header.state_root, parallel.block.header.state_root,
                "{benchmark}: parallel mining must be equivalent to its published serial order"
            );
            let report = engine.validate(&w.build_world(), &parallel.block).unwrap();
            assert_eq!(report.state_root, parallel.block.header.state_root);
        }
    }

    #[test]
    fn zero_conflict_ballot_blocks_have_no_reverts() {
        let w = WorkloadSpec::new(Benchmark::Ballot, 80, 0.0).generate();
        let mined = Engine::speculative(3)
            .unwrap()
            .mine(&w.build_world(), w.transactions())
            .unwrap();
        assert!(mined.block.receipts.iter().all(|r| r.succeeded()));
    }

    #[test]
    fn conflicting_ballot_transactions_produce_reverts() {
        let w = WorkloadSpec::new(Benchmark::Ballot, 80, 0.5).generate();
        let mined = Engine::serial()
            .mine(&w.build_world(), w.transactions())
            .unwrap();
        let reverted = mined
            .block
            .receipts
            .iter()
            .filter(|r| matches!(r.status, ExecutionStatus::Reverted { .. }))
            .count();
        // Each contending pair is one real vote plus one double vote.
        assert_eq!(reverted, w.expected_conflicting() / 2);
    }

    #[test]
    fn full_conflict_auction_still_validates() {
        let w = WorkloadSpec::new(Benchmark::SimpleAuction, 40, 1.0).generate();
        let engine = Engine::speculative(3).unwrap();
        let mined = engine.mine(&w.build_world(), w.transactions()).unwrap();
        assert_eq!(
            mined.block.schedule.as_ref().unwrap().critical_path(),
            40,
            "all bidPlusOne transactions serialize"
        );
        engine.validate(&w.build_world(), &mined.block).unwrap();
    }

    #[test]
    fn display_impls() {
        let spec = WorkloadSpec::new(Benchmark::Mixed, 200, 0.15);
        assert!(spec.to_string().contains("Mixed"));
        assert!(Benchmark::EtherDoc.to_string().contains("EtherDoc"));
    }
}
