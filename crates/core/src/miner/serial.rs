//! The serial miner: the baseline every speedup in the paper is measured
//! against.

use crate::error::CoreError;
use crate::miner::{MinedBlock, Miner};
use crate::stats::MinerStats;
use cc_ledger::{Block, ScheduleMetadata, Transaction};
use cc_primitives::hash::Hash256;
use cc_stm::LockMode;
use cc_vm::{Receipt, World};
use std::time::Instant;

/// Executes a block's transactions one at a time, in block order, on a
/// single thread — the execution model of today's Ethereum miners.
///
/// Each transaction still runs inside an STM transaction (committed
/// immediately), so `throw` semantics and gas accounting are byte-for-byte
/// identical to the parallel miner; only the concurrency differs.
#[derive(Debug, Clone)]
pub struct SerialMiner {
    capture_schedule: bool,
}

impl Default for SerialMiner {
    fn default() -> Self {
        SerialMiner::new()
    }
}

impl SerialMiner {
    /// Creates a serial miner.
    pub fn new() -> Self {
        SerialMiner {
            capture_schedule: true,
        }
    }

    /// Enables or disables publication of the (trivial, sequential)
    /// schedule metadata. Disabled only for benchmarking the bare
    /// execution path.
    pub fn with_schedule_capture(mut self, capture: bool) -> Self {
        self.capture_schedule = capture;
        self
    }
}

impl Miner for SerialMiner {
    fn mine(&self, world: &World, transactions: Vec<Transaction>) -> Result<MinedBlock, CoreError> {
        self.mine_on(world, transactions, Hash256::ZERO, 1)
    }

    fn mine_on(
        &self,
        world: &World,
        transactions: Vec<Transaction>,
        parent_hash: Hash256,
        number: u64,
    ) -> Result<MinedBlock, CoreError> {
        let start = Instant::now();
        let stm = world.stm();
        let pool = stm.begin_block();
        let locks_before = stm.lock_stats();

        let mut receipts: Vec<Receipt> = Vec::with_capacity(transactions.len());
        let mut retries = 0u64;
        let mut read_only = 0u64;
        for (index, tx) in transactions.iter().enumerate() {
            // With no concurrent transactions a deadlock abort is
            // impossible, but the retry loop keeps the execution path
            // identical to the parallel miner's.
            loop {
                let txn = pool.begin();
                match world.execute(&txn, index, tx.msg(), tx.to, &tx.call, tx.gas_limit) {
                    Ok(receipt) => {
                        let commit = txn.commit().map_err(|source| CoreError::MiningFailed {
                            tx_index: index,
                            source,
                        })?;
                        if commit
                            .profile
                            .locks
                            .iter()
                            .all(|e| e.mode == LockMode::Shared)
                        {
                            read_only += 1;
                        }
                        receipts.push(receipt);
                        break;
                    }
                    Err(_) => {
                        let _ = txn.abort();
                        retries += 1;
                        continue;
                    }
                }
            }
        }

        let elapsed = start.elapsed();
        let gas_used = receipts.iter().map(|r| r.gas_used).sum();
        let n = transactions.len();
        let (schedule, critical_path, hb_edges) = if self.capture_schedule {
            let schedule = ScheduleMetadata::sequential(n);
            let critical_path = schedule.critical_path();
            let hb_edges = schedule.edges.len();
            (Some(schedule), critical_path, hb_edges)
        } else {
            (None, 0, 0)
        };
        let block = Block::build(
            parent_hash,
            number,
            transactions,
            receipts,
            world.state_root(),
            schedule,
        );
        Ok(MinedBlock {
            block,
            stats: MinerStats {
                threads: 1,
                transactions: n,
                retries,
                elapsed,
                gas_used,
                critical_path,
                hb_edges,
                locks: stm.lock_stats().since(&locks_before),
                read_only,
                ..MinerStats::default()
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_vm::testing::CounterContract;
    use cc_vm::{Address, ArgValue, CallData};
    use std::sync::Arc;

    fn counter_world() -> (World, Address) {
        let world = World::new();
        let addr = Address::from_name("counter-serial");
        world.deploy(Arc::new(CounterContract::new(addr)));
        (world, addr)
    }

    fn increment_tx(i: u64, to: Address) -> Transaction {
        Transaction::new(
            i,
            Address::from_index(i),
            to,
            CallData::new("increment", vec![ArgValue::Uint(1)]),
            1_000_000,
        )
    }

    #[test]
    fn mines_a_block_and_applies_state() {
        let (world, addr) = counter_world();
        let txs: Vec<Transaction> = (0..10).map(|i| increment_tx(i, addr)).collect();
        let mined = SerialMiner::new().mine(&world, txs).unwrap();
        assert_eq!(mined.block.len(), 10);
        assert!(mined.block.is_well_formed());
        assert_eq!(mined.block.header.state_root, world.state_root());
        assert_eq!(mined.stats.threads, 1);
        assert_eq!(mined.stats.transactions, 10);
        assert!(mined.block.receipts.iter().all(Receipt::succeeded));
        // A sequential schedule is published.
        assert_eq!(mined.block.schedule.as_ref().unwrap().critical_path(), 10);
    }

    #[test]
    fn empty_block() {
        let (world, _) = counter_world();
        let mined = SerialMiner::new().mine(&world, Vec::new()).unwrap();
        assert!(mined.block.is_empty());
        assert!(mined.block.is_well_formed());
    }

    #[test]
    fn mine_on_links_to_parent() {
        let (world, addr) = counter_world();
        let parent = cc_primitives::sha256(b"parent");
        let mined = SerialMiner::new()
            .mine_on(&world, vec![increment_tx(0, addr)], parent, 7)
            .unwrap();
        assert_eq!(mined.block.header.parent_hash, parent);
        assert_eq!(mined.block.header.number, 7);
        assert_eq!(mined.state_root(), world.state_root());
    }
}
