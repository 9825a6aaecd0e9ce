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
//! The keys a world is seeded with (Ballot's voters, the auction's
//! bidders, EtherDoc's owners and document hashes, one each per account)
//! are digests, and they are derived **once per `Workload`**: the
//! transaction generator and every `build_world` read the same lists. A
//! build seeds them into tables sized up front for that many entries
//! (`ShardedRawTable::with_capacity` in `cc_primitives::fx`, reached
//! through the contracts' `with_capacity` set-up constructors), so
//! seeding neither re-derives a key nor regrows a table.
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
use cc_vm::{Address, World};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::fmt;
use std::sync::Arc;

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
    seeds: Arc<Seeds>,
}

/// The keys a workload's world is seeded with, derived once per
/// [`Workload`] and read by the generator and by every build. A contract
/// the benchmark runs has one key per account (at least one); the others
/// have none.
#[derive(Debug)]
struct Seeds {
    /// Ballot's registered voters.
    voters: Vec<Address>,
    /// SimpleAuction's bidders, each holding a pending return.
    bidders: Vec<Address>,
    /// EtherDoc's documents, each with its owner.
    documents: Vec<([u8; 32], Address)>,
}

impl Seeds {
    fn derive(benchmark: Benchmark, accounts: usize) -> Seeds {
        let runs = |contract| benchmark == contract || benchmark == Benchmark::Mixed;
        let count = |contract| if runs(contract) { accounts } else { 0 };
        Seeds {
            voters: ballot::voters(count(Benchmark::Ballot)),
            bidders: auction::bidders(count(Benchmark::SimpleAuction)),
            documents: etherdoc::documents(count(Benchmark::EtherDoc)),
        }
    }
}

/// How many of a block's `n` transactions go to Ballot, SimpleAuction and
/// EtherDoc, in generation order. Mixed gives each of the other two a
/// third and Ballot the rest.
fn parts(benchmark: Benchmark, n: usize) -> [usize; 3] {
    match benchmark {
        Benchmark::Ballot => [n, 0, 0],
        Benchmark::SimpleAuction => [0, n, 0],
        Benchmark::EtherDoc => [0, 0, n],
        Benchmark::Mixed => {
            let per = n / 3;
            [n - 2 * per, per, per]
        }
    }
}

impl Workload {
    /// Generates the workload for `spec`.
    pub fn generate(spec: WorkloadSpec) -> Self {
        let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x5eed_0001);
        let seeds = Seeds::derive(spec.benchmark, spec.block_size.max(1));
        let [votes, bids, documents] = parts(spec.benchmark, spec.block_size);
        let mut transactions = ballot::transactions(votes, spec.conflict, &seeds.voters);
        transactions.extend(auction::transactions(bids, spec.conflict, &seeds.bidders));
        transactions.extend(etherdoc::transactions(
            documents,
            spec.conflict,
            &seeds.documents,
        ));
        // Shuffle so contending transactions are not adjacent in the block
        // (block position must not encode the conflict structure).
        transactions.shuffle(&mut rng);
        for (nonce, tx) in transactions.iter_mut().enumerate() {
            tx.nonce = nonce as u64;
        }
        Workload {
            spec,
            transactions,
            seeds: Arc::new(seeds),
        }
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
        let seeds = &self.seeds;
        if !seeds.voters.is_empty() {
            ballot::deploy(&world, &seeds.voters);
        }
        if !seeds.bidders.is_empty() {
            auction::deploy(&world, &seeds.bidders);
        }
        if !seeds.documents.is_empty() {
            etherdoc::deploy(&world, &seeds.documents);
        }
        world
    }

    /// The number of transactions that were generated as contending
    /// (useful for asserting the conflict definition in tests). Each
    /// contract's part of the block is rounded on its own, as it is
    /// generated.
    pub fn expected_conflicting(&self) -> usize {
        let parts = parts(self.spec.benchmark, self.spec.block_size);
        (parts.into_iter())
            .map(|n| contending_count(n, self.spec.conflict))
            .sum()
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
    use cc_primitives::sha256;
    use cc_vm::ExecutionStatus;
    use std::collections::HashMap;

    #[test]
    fn contending_count_is_even_and_bounded() {
        assert_eq!(contending_count(100, 0.15), 14);
        assert_eq!(contending_count(100, 0.0), 0);
        assert_eq!(contending_count(100, 1.0), 100);
        assert_eq!(contending_count(10, 0.5), 4);
        assert_eq!(contending_count(7, 1.0), 6);
    }

    /// The generated transactions that contend: both votes of a double
    /// voter, every `bidPlusOne` and every `transferDocument`.
    fn contending_in(transactions: &[Transaction]) -> usize {
        let mut votes: HashMap<Address, usize> = HashMap::new();
        let mut contending = 0;
        for tx in transactions {
            match tx.call.function.as_str() {
                "vote" => *votes.entry(tx.sender).or_default() += 1,
                "bidPlusOne" | "transferDocument" => contending += 1,
                _ => {}
            }
        }
        contending + votes.values().filter(|&&n| n == 2).count() * 2
    }

    #[test]
    fn expected_conflicting_counts_what_was_generated() {
        for benchmark in Benchmark::ALL {
            for n in [1usize, 2, 10, 47, 100, 200] {
                for conflict in [0.0, 0.15, 0.3, 0.5, 1.0] {
                    let w = WorkloadSpec::new(benchmark, n, conflict).generate();
                    assert_eq!(
                        w.expected_conflicting(),
                        contending_in(&w.transactions()),
                        "{benchmark}, {n} txns at {conflict}"
                    );
                }
            }
        }
    }

    /// Genesis state roots and generated transactions, pinned with the
    /// digests taken before the keys were derived once per workload and
    /// the tables sized up front: `(benchmark, accounts, state root,
    /// SHA-256 of the transactions' hashes in block order)`, seed 38 at
    /// 15 % conflict.
    const GOLDEN_WORLDS: [(Benchmark, usize, &str, &str); 16] = [
        (
            Benchmark::SimpleAuction,
            1,
            "71f9d94adbaf366caab970247cd6a6fa98b3e9b98ab0b6ae4b0b471c0e3824b4",
            "cf12b210e2e2d1e514bf35d6423206b82069e29a43bea1fd5ca2ae392d611974",
        ),
        (
            Benchmark::SimpleAuction,
            47,
            "e505bb215ddd33e377e608f3b0d2e6937ba55f1ff2791840c627d75cc0902e14",
            "2a34f00e7f3fa2f11bff6357f0b997094b779be71d16700686a3b5eec5badc94",
        ),
        (
            Benchmark::SimpleAuction,
            1_000,
            "0127beaa70bf4d781d9e8c0d568f23941bd103ce528c7a8bd37101d9f96bcc82",
            "8d1a513d85ebf694c87d8dec0ec7c246944d5fc2a103455b14715ef748e60219",
        ),
        (
            Benchmark::SimpleAuction,
            20_000,
            "b96236aa28253581863bf83ecc03a48ef77a263d74c585479d83d36675bd5697",
            "42cb3fddf6f6fb5758d0c480a9798b3937f6277e9109ee28d2fade1a41422cae",
        ),
        (
            Benchmark::Ballot,
            1,
            "dac8559bd4cca8f9a003d9d6e4cbe7bf68f55d83bfff5d825e990fc308298e3e",
            "e49d727529886a45085659eb4a63444b18c2fb674e053c2a35d95bb40514f74c",
        ),
        (
            Benchmark::Ballot,
            47,
            "2405a8c85296bb66c5cf5f0e0ae646337838f61ca021e840a6ca0c7fb56b1d8a",
            "5036c2283783f4308c3c9f5778fcbf92f27c13f863264ababbc99ff464da982e",
        ),
        (
            Benchmark::Ballot,
            1_000,
            "3a2f21cb50f505afe563a67fadc8a3d11551cc108e5e1c35ed2fa22aa870937c",
            "9fe5994e39b2aa8e036fe327a45ec1d7a13fa316c3aff4ca3afc4047b00710bc",
        ),
        (
            Benchmark::Ballot,
            20_000,
            "7ae35a58fd5985b29447be852eabad16c69950714b87ce1d2d3a3a69f15df77c",
            "1ae13b4bad7594908f02cc1a26693dadc5c74965854320ee75de7ee9a17800fc",
        ),
        (
            Benchmark::EtherDoc,
            1,
            "894b28397db5cca9b9350c9de36ca225b3e4ea3366758fe66b7a6cc4f525f18e",
            "d3a4ca26af3b31820dcd4214ae7d735751f68d56ceaf4182f653e6a697e5f160",
        ),
        (
            Benchmark::EtherDoc,
            47,
            "b1d22473cbdd42b52308d1794f3cb5dcd8f8bc0df1f4525a25d0a18f95d7d9e9",
            "90a6a3330bc138c2c55259499fc684023529bf7aac763ca564684eedb8ef6d55",
        ),
        (
            Benchmark::EtherDoc,
            1_000,
            "5d67402168bdc195c72c8f27270d50da52db62b8326df753901e78eb4df31a79",
            "c1958ac3ef043e12a5f1f9d21a88b27c75f2df8e75acd5560753fdaf84d543fa",
        ),
        (
            Benchmark::EtherDoc,
            20_000,
            "790d5455e0b955ea13320f89b7edf0acd51e75ddfbec00afb296e4cba8cec0db",
            "406dad7265dfdcfde1f67d1d4bc50537adac707530483d9873409f7703009ba9",
        ),
        (
            Benchmark::Mixed,
            1,
            "0c5482d6437b83bfd21d70014908e492812687ea1bcc80f23d79746b0857a50f",
            "e49d727529886a45085659eb4a63444b18c2fb674e053c2a35d95bb40514f74c",
        ),
        (
            Benchmark::Mixed,
            47,
            "54e55d60895dde3d4e0fc83cca71a492fbc414dd0c9bf9966dd2928e0505534b",
            "49cc9e83dcbd1c02f77ae887c85bbe95503114176bee2809895fe5aad5d63b00",
        ),
        (
            Benchmark::Mixed,
            1_000,
            "4df59b36db3cd12cfab51ad9db7c4952a9adeb4906937d54489d10fe9c7c0ffe",
            "1b603c9f02c2e168a46da6ab8e6657ab3576cd15c86f163c58225767a5e54439",
        ),
        (
            Benchmark::Mixed,
            20_000,
            "6aeaacfa95ef83ccdc72ca935a41906c1ddb2c483c332307009b38b1f39d6de2",
            "ce41281b7ec5ed6ea1fc97fad9ba2a22a394b4fbec91e5bc2eca05fd6bff0f6e",
        ),
    ];

    #[test]
    fn worlds_keep_their_bytes() {
        for (benchmark, accounts, root, transactions) in GOLDEN_WORLDS {
            let w = WorkloadSpec::new(benchmark, accounts, 0.15)
                .with_seed(38)
                .generate();
            let hashes: Vec<u8> = (w.transactions().iter())
                .flat_map(|tx| tx.hash().0)
                .collect();
            let label = format!("{benchmark} at {accounts} accounts");
            assert_eq!(
                w.build_world().state_root().to_hex(),
                root,
                "{label}: genesis root"
            );
            assert_eq!(
                sha256(&hashes).to_hex(),
                transactions,
                "{label}: transactions"
            );
        }
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
