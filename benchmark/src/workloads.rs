//! The six workloads and the inputs they generate.
//!
//! A workload is a fixed recipe (which generator, how large a world, how
//! many transactions per block, which execution strategy and durability
//! mode, sequential or pipelined node calls); the `--seed` only feeds the
//! generators. The program under test sees nothing but the generated
//! transactions and the world they run against.

use cc_core::engine::ExecutionStrategy;
use cc_ledger::wal::DurabilityMode;
use cc_ledger::Transaction;
use cc_vm::testing::CounterContract;
use cc_vm::{Address, ArgValue, CallData, World};
use cc_workload::{Benchmark, Workload, WorkloadSpec};
use std::collections::HashMap;
use std::sync::Arc;

/// Gas limit every generated transaction carries (the paper generators
/// use the same figure), so a block of `n` transactions is a gas budget
/// of `n * TX_GAS`.
pub const TX_GAS: u64 = 1_000_000;

/// Where a workload's transactions come from.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// A paper generator sized for a `world`-account world, of which the
    /// first `take` transactions of the seeded shuffle are submitted.
    Paper {
        /// Which of the paper's benchmarks.
        benchmark: Benchmark,
        /// Fraction of contending transactions.
        conflict: f64,
        /// Accounts seeded per contract (the generator's block size).
        world: usize,
        /// Transactions submitted per round.
        take: usize,
    },
    /// `CounterContract` increments: `senders` accounts, each sending
    /// the nonces `0..per_sender`, arrival order interleaved by the seed.
    Counter {
        /// Distinct sending accounts.
        senders: u64,
        /// Transactions per account.
        per_sender: u64,
    },
}

/// One workload: its name, the reason it exists, and its fixed recipe.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// The name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Which layer the workload isolates, in one line.
    pub why: &'static str,
    /// The transaction generator.
    pub source: Source,
    /// Transactions per block (the mempool's gas budget is this × [`TX_GAS`]).
    pub block_txns: usize,
    /// The engine's execution strategy.
    pub strategy: ExecutionStrategy,
    /// WAL mode of producer and follower.
    pub durability: DurabilityMode,
    /// Blocks between world snapshots (durable workloads only).
    pub snapshot_interval: u64,
    /// `run_pipeline` / `run_follower_pipeline` instead of per-block calls.
    pub pipelined: bool,
    /// Whether the traced run adds the open-loop commit-latency phase.
    pub latency_phase: bool,
}

impl WorkloadDef {
    /// Transactions submitted per round.
    pub fn txns_per_round(&self) -> usize {
        match self.source {
            Source::Paper { take, .. } => take,
            Source::Counter {
                senders,
                per_sender,
            } => (senders * per_sender) as usize,
        }
    }

    /// Blocks one round produces.
    pub fn blocks_per_round(&self) -> usize {
        self.txns_per_round().div_ceil(self.block_txns)
    }

    /// The per-block gas budget handed to the mempool.
    pub fn block_gas(&self) -> u64 {
        self.block_txns as u64 * TX_GAS
    }

    /// Whether the node persists (and the round therefore recovers).
    pub fn durable(&self) -> bool {
        self.durability != DurabilityMode::Off
    }
}

const fn paper(benchmark: Benchmark, conflict: f64, world: usize, take: usize) -> Source {
    Source::Paper {
        benchmark,
        conflict,
        world,
        take,
    }
}

/// A snapshot interval no round reaches: the WAL is never reset, so
/// recovery replays every block from the log and `written_len()` counts
/// every byte the round logged.
const NO_PERIODIC_SNAPSHOTS: u64 = 1 << 40;

/// The six workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "paper.mixed",
        why: "Paper's reference point: Mixed at 15% conflict, 200-txn blocks, 1000-account world, no WAL; execution and STM dominate, so a ledger change must not move it.",
        source: paper(Benchmark::Mixed, 0.15, 1000, 1000),
        block_txns: 200,
        strategy: ExecutionStrategy::SpeculativeStm,
        durability: DurabilityMode::Off,
        snapshot_interval: NO_PERIODIC_SNAPSHOTS,
        pipelined: false,
        latency_phase: false,
    },
    WorkloadDef {
        name: "hot.mixed.stm",
        why: "Mixed at 100% conflict under speculative-stm: long critical path, lock waits, deadlock retries, dense schedule graph and fork-join hand-offs.",
        source: paper(Benchmark::Mixed, 1.0, 1000, 1000),
        block_txns: 200,
        strategy: ExecutionStrategy::SpeculativeStm,
        durability: DurabilityMode::Off,
        snapshot_interval: NO_PERIODIC_SNAPSHOTS,
        pipelined: false,
        latency_phase: false,
    },
    WorkloadDef {
        name: "hot.mixed.mvcc",
        why: "The same 100%-conflict inputs under optimistic-mvcc: the one point where the two strategies diverge (validation-failure retries).",
        source: paper(Benchmark::Mixed, 1.0, 1000, 1000),
        block_txns: 200,
        strategy: ExecutionStrategy::OptimisticMvcc,
        durability: DurabilityMode::Off,
        snapshot_interval: NO_PERIODIC_SNAPSHOTS,
        pipelined: false,
        latency_phase: false,
    },
    WorkloadDef {
        name: "reads.etherdoc",
        why: "EtherDoc at 0% conflict: every txn a read-only existence check, shared-mode locks, critical path 1; a gain for writers that taxes readers shows here.",
        source: paper(Benchmark::EtherDoc, 0.0, 1000, 1000),
        block_txns: 200,
        strategy: ExecutionStrategy::SpeculativeStm,
        durability: DurabilityMode::Off,
        snapshot_interval: NO_PERIODIC_SNAPSHOTS,
        pipelined: false,
        latency_phase: false,
    },
    WorkloadDef {
        name: "small.counter.fsync",
        why: "Counter increments in 16-txn blocks, fsync WAL, pipelined: per-block fixed cost, mempool nonce runs, block codec, seal+fsync and overlap do the work; the world is one cell.",
        source: Source::Counter {
            senders: 16,
            per_sender: 128,
        },
        block_txns: 16,
        strategy: ExecutionStrategy::SpeculativeStm,
        durability: DurabilityMode::Fsync,
        snapshot_interval: NO_PERIODIC_SNAPSHOTS,
        pipelined: true,
        latency_phase: true,
    },
    WorkloadDef {
        name: "big.world",
        why: "Mixed at 15% in a 20000-account world touching 1200 per round, buffered WAL, snapshot every 4 blocks: state root, snapshot write and recovery replay dominate.",
        source: paper(Benchmark::Mixed, 0.15, 20_000, 1200),
        block_txns: 200,
        strategy: ExecutionStrategy::SpeculativeStm,
        durability: DurabilityMode::Buffered,
        snapshot_interval: 4,
        pipelined: false,
        latency_phase: false,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The address of the counter workload's one contract.
pub fn counter_address() -> Address {
    Address::from_name("bench.Counter")
}

/// One round's generated inputs: the transactions in arrival order and
/// the recipe for the (identical, independent) worlds they run against.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Transactions in the order the driver submits them, nonces
    /// numbered per sender.
    pub txns: Vec<Transaction>,
    /// Transactions the contracts are expected to throw on (Ballot double
    /// votes): receipts, not failures.
    pub expected_throws: usize,
    paper: Option<Workload>,
}

impl Inputs {
    /// Generates the inputs of `def` for `seed`.
    pub fn generate(def: &WorkloadDef, seed: u64) -> Inputs {
        match def.source {
            Source::Paper {
                benchmark,
                conflict,
                world,
                take,
            } => {
                let workload = WorkloadSpec::new(benchmark, world, conflict)
                    .with_seed(seed)
                    .generate();
                let mut txns = workload.transactions();
                txns.truncate(take);
                // Only Ballot's double voters send twice, and the second
                // vote of a pair is the one that throws.
                let expected_throws = renumber_per_sender(&mut txns);
                Inputs {
                    txns,
                    expected_throws,
                    paper: Some(workload),
                }
            }
            Source::Counter {
                senders,
                per_sender,
            } => Inputs {
                txns: counter_transactions(senders, per_sender, seed),
                expected_throws: 0,
                paper: None,
            },
        }
    }

    /// Builds a fresh world holding the workload's initial state; every
    /// call yields an identical, independent world.
    pub fn build_world(&self) -> World {
        match &self.paper {
            Some(workload) => workload.build_world(),
            None => {
                let world = World::new();
                world.deploy(Arc::new(CounterContract::new(counter_address())));
                world
            }
        }
    }
}

/// Renumbers nonces so that each sender's transactions carry `0, 1, 2, …`
/// in list order — the paper generators number by block position, which
/// the mempool would park behind nonce gaps. Returns how many
/// transactions come from a sender seen earlier in the list.
pub fn renumber_per_sender(txns: &mut [Transaction]) -> usize {
    let mut next: HashMap<Address, u64> = HashMap::new();
    let mut repeats = 0;
    for tx in txns {
        let nonce = next.entry(tx.sender).or_insert(0);
        tx.nonce = *nonce;
        if *nonce > 0 {
            repeats += 1;
        }
        *nonce += 1;
    }
    repeats
}

/// SplitMix64: the benchmark's own seeded stream (arrival interleaving).
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// `senders × per_sender` counter increments. Each sender's nonces arrive
/// in order; which sender arrives next is drawn from the seed.
pub fn counter_transactions(senders: u64, per_sender: u64, seed: u64) -> Vec<Transaction> {
    let mut rng = SplitMix64(seed);
    let mut next_nonce = vec![0u64; senders as usize];
    let mut open: Vec<u64> = (0..senders).collect();
    let mut txns = Vec::with_capacity((senders * per_sender) as usize);
    while !open.is_empty() {
        let slot = (rng.next_u64() % open.len() as u64) as usize;
        let sender = open[slot];
        let nonce = &mut next_nonce[sender as usize];
        txns.push(Transaction::new(
            *nonce,
            Address::from_index(sender),
            counter_address(),
            CallData::new("increment", vec![ArgValue::Uint(1)]),
            TX_GAS,
        ));
        *nonce += 1;
        if *nonce == per_sender {
            open.swap_remove(slot);
        }
    }
    txns
}
