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

    /// Genesis state roots, generated transactions and genesis
    /// snapshots, the last two pinned with the digests taken before the
    /// keys were derived once per workload and the tables sized up front
    /// (the roots moved once since, when a cell became a map's entry
    /// under `()` and its digest that map's root):
    /// `(benchmark, accounts, state root, SHA-256 of the transactions'
    /// hashes in block order, SHA-256 of the world snapshot's bytes)`,
    /// seed 38 at 15 % conflict.
    const GOLDEN_WORLDS: [(Benchmark, usize, &str, &str, &str); 16] = [
        (
            Benchmark::SimpleAuction,
            1,
            "06f6b21a07612eb1977cd0fb376a49c57ee397410a6be0c3adbd1e7a14a439c9",
            "cf12b210e2e2d1e514bf35d6423206b82069e29a43bea1fd5ca2ae392d611974",
            "46ac8991940f24cc947ff2e1683971c687e0913c94c67fc4876daab83eb25403",
        ),
        (
            Benchmark::SimpleAuction,
            47,
            "c66174c335974323a45a54c23ddaa1cce4f01ae2942ee40d1adf3196313d00be",
            "2a34f00e7f3fa2f11bff6357f0b997094b779be71d16700686a3b5eec5badc94",
            "5e901de40843715cb77211e3c44f1b4349f85407a9506102eb4534e89caa8373",
        ),
        (
            Benchmark::SimpleAuction,
            1_000,
            "1e2d5d00540ae03598353b4bbcf6bb6fc7ea7f3579d5025f3db72ca951421ca4",
            "8d1a513d85ebf694c87d8dec0ec7c246944d5fc2a103455b14715ef748e60219",
            "87944a5cfa029670ad8e5241983b5f2db0f39344f86982110604c7341ee139ee",
        ),
        (
            Benchmark::SimpleAuction,
            20_000,
            "d86854a46da6821fe03dbc726ff1a52004f1a59b8281980152c224e0e2ee3367",
            "42cb3fddf6f6fb5758d0c480a9798b3937f6277e9109ee28d2fade1a41422cae",
            "70c828f75e071f4d6057f61dc55508bb127b87ad64eaafa695824f0acb4b87fa",
        ),
        (
            Benchmark::Ballot,
            1,
            "596c56aa15c909fe4230b17ec3ab111420bc86a19532ff9f143010ed31b36bc9",
            "e49d727529886a45085659eb4a63444b18c2fb674e053c2a35d95bb40514f74c",
            "760e226495fbfbb696d25cb4c1b5111e9b3b76b4f27cf9f06f4f0495d7358372",
        ),
        (
            Benchmark::Ballot,
            47,
            "6cfdd58b3a4861ea484e730248d737f016255916a0324ad9410c861f7e678e11",
            "5036c2283783f4308c3c9f5778fcbf92f27c13f863264ababbc99ff464da982e",
            "15b2af82d21cfd5a1c2ac9b1c248e477547790e973133e0467b6816117ffc371",
        ),
        (
            Benchmark::Ballot,
            1_000,
            "42526d8c76b4f6567b34d00e4c6ee596f41d4f320cce839755a4ed52bdd1087d",
            "9fe5994e39b2aa8e036fe327a45ec1d7a13fa316c3aff4ca3afc4047b00710bc",
            "96a0933dce2950085f3bcb8ca5ec8eb3795a36e4b98549aac76fb9a323253489",
        ),
        (
            Benchmark::Ballot,
            20_000,
            "51ec43ae043d97e27edac31735de3771e1318a67e15d3d201dd53c58fbde9408",
            "1ae13b4bad7594908f02cc1a26693dadc5c74965854320ee75de7ee9a17800fc",
            "b9ad1e159468f50d032b4766e09562b905dd426c9815382de0815774e0f9d6fe",
        ),
        (
            Benchmark::EtherDoc,
            1,
            "0e31c820d237e225dbedb6234d86a616b0454ce6fc2fc7c81aa67a70968973a5",
            "d3a4ca26af3b31820dcd4214ae7d735751f68d56ceaf4182f653e6a697e5f160",
            "6082f3bda9abcc17557c686762e83c46231f0846b669911d7dfcadc57d29bd24",
        ),
        (
            Benchmark::EtherDoc,
            47,
            "47b4b520bf09bb599e9496c1c64f828366bdda42ba70c316aa88dd83e1b1a865",
            "90a6a3330bc138c2c55259499fc684023529bf7aac763ca564684eedb8ef6d55",
            "445c45a8f201094aaf4177b7eb74dfc439ca4ad8d1f83e32c7b93747a22e889a",
        ),
        (
            Benchmark::EtherDoc,
            1_000,
            "eb07199622f40122f2c2c155220e37897ce54c1aa0e4b99cfd3e5a7c9890324f",
            "c1958ac3ef043e12a5f1f9d21a88b27c75f2df8e75acd5560753fdaf84d543fa",
            "9badcb2151e247e79f6567e602b813048ee265c18c236caf5672c3e22eec3cdb",
        ),
        (
            Benchmark::EtherDoc,
            20_000,
            "38ceaba58278e44a7854610a311a09fa2621bb4779ad397f08dcb8ae215ec48e",
            "406dad7265dfdcfde1f67d1d4bc50537adac707530483d9873409f7703009ba9",
            "9bf284edaa09b9c10d5513ecf6998701d7c041492cd3f5b522d5bca54a7a29fc",
        ),
        (
            Benchmark::Mixed,
            1,
            "0e1b3185308ba9b39ddd55e2a4a6f4f60bb079be908324db99d499d3dcbf49b4",
            "e49d727529886a45085659eb4a63444b18c2fb674e053c2a35d95bb40514f74c",
            "4872350f387531e1bf2c7a4252a7935cf7e9dfa292d0b39320e6c9630ceb4831",
        ),
        (
            Benchmark::Mixed,
            47,
            "7249feddf892fd8e7072eecb457b6af85e109494caf8b05c3f38feb8bc3c0eea",
            "49cc9e83dcbd1c02f77ae887c85bbe95503114176bee2809895fe5aad5d63b00",
            "3aeefde12f892876d1c5b99f3bce8ab6745369990137b070352b2fe01f88ceca",
        ),
        (
            Benchmark::Mixed,
            1_000,
            "381920fa3258faea9bf057d03721e29e444661065c17f767fd238c52a7b8cfae",
            "1b603c9f02c2e168a46da6ab8e6657ab3576cd15c86f163c58225767a5e54439",
            "2e1dceb0724388a3972dfdd1a6bffe2e45dc10368b77bd15f616e7d5ba30df3e",
        ),
        (
            Benchmark::Mixed,
            20_000,
            "202067b68444080deb1eea23cd1b73b543d63354c8f40a7a89ab345dbc55bf39",
            "ce41281b7ec5ed6ea1fc97fad9ba2a22a394b4fbec91e5bc2eca05fd6bff0f6e",
            "6d9e00c996b47e23b5fc7c87a9014c09d9031762af706ec38401643f7ee7a6b0",
        ),
    ];

    #[test]
    fn worlds_keep_their_bytes() {
        for (benchmark, accounts, root, transactions, snapshot) in GOLDEN_WORLDS {
            let w = WorkloadSpec::new(benchmark, accounts, 0.15)
                .with_seed(38)
                .generate();
            let hashes: Vec<u8> = (w.transactions().iter())
                .flat_map(|tx| tx.hash().0)
                .collect();
            let label = format!("{benchmark} at {accounts} accounts");
            let world = w.build_world();
            assert_eq!(world.state_root().to_hex(), root, "{label}: genesis root");
            assert_eq!(
                sha256(&hashes).to_hex(),
                transactions,
                "{label}: transactions"
            );
            assert_eq!(
                sha256(&world.snapshot().to_bytes()).to_hex(),
                snapshot,
                "{label}: genesis snapshot"
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
