//! State-root benchmark: what `World::state_root()` costs after one
//! block, from a cold cache and incrementally, as the world grows.
//!
//! The node benchmark's `vm.state_root_us` probe asks a twin that has
//! just computed the same root, so since the root became incremental it
//! reads the cost of a *clean* root. This section measures the two costs
//! that matter instead — the first root of a world (cold: every seeded
//! bucket is hashed) and the root after one 200-transaction Mixed block
//! on a world that already had one (incremental: only what the block
//! wrote) — and prints the work counts ([`cc_vm::StateRootStats`]) next
//! to the times, at three world sizes.

use crate::Timing;
use cc_ledger::Transaction;
use cc_vm::{StateRootStats, World};
use cc_workload::{Benchmark, WorkloadSpec};
use std::time::Instant;

/// Transactions in the measured block (the paper's reference size).
pub const BLOCK_SIZE: usize = 200;

/// One world size's measurements.
#[derive(Debug, Clone)]
pub struct StateRootPoint {
    /// Accounts the Mixed world was generated for.
    pub accounts: usize,
    /// Mean time of the world's first root, taken after the block.
    pub cold_us: f64,
    /// Mean time of the root after the block on a world whose genesis
    /// root was already taken.
    pub incremental_us: f64,
    /// Work the cold root did.
    pub cold: StateRootStats,
    /// Work the incremental root did.
    pub incremental: StateRootStats,
}

/// Executes `block` serially on `world`, one committed transaction each.
fn execute(world: &World, block: &[Transaction]) {
    for (index, tx) in block.iter().enumerate() {
        let txn = world.stm().begin();
        world
            .execute(&txn, index, tx.msg(), tx.to, &tx.call, tx.gas_limit)
            .expect("serial execution never deadlocks");
        txn.commit().expect("commit");
    }
}

/// Measures cold and incremental roots of a Mixed world of each size in
/// `accounts`, after the same [`BLOCK_SIZE`]-transaction block.
pub fn run_state_root(accounts: &[usize], repetitions: usize) -> Vec<StateRootPoint> {
    accounts
        .iter()
        .map(|&accounts| {
            let workload = WorkloadSpec::new(Benchmark::Mixed, accounts, 0.15).generate();
            let mut block = workload.transactions();
            block.truncate(BLOCK_SIZE);

            let mut cold_samples = Vec::new();
            let mut incremental_samples = Vec::new();
            let mut cold = StateRootStats::default();
            let mut incremental = StateRootStats::default();
            for _ in 0..repetitions.max(1) {
                let world = workload.build_world();
                execute(&world, &block);
                let start = Instant::now();
                let cold_root = world.state_root();
                cold_samples.push(start.elapsed());
                cold = world.root_stats();

                let world = workload.build_world();
                world.state_root();
                execute(&world, &block);
                let before = world.root_stats();
                let start = Instant::now();
                let incremental_root = world.state_root();
                incremental_samples.push(start.elapsed());
                incremental = world.root_stats().since(&before);
                assert_eq!(cold_root, incremental_root, "{accounts} accounts");
            }
            StateRootPoint {
                accounts,
                cold_us: Timing::from_samples(&cold_samples).mean_ms() * 1_000.0,
                incremental_us: Timing::from_samples(&incremental_samples).mean_ms() * 1_000.0,
                cold,
                incremental,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_root_does_less_work_than_cold() {
        let points = run_state_root(&[600], 1);
        assert_eq!(points.len(), 1);
        let p = &points[0];
        assert!(p.cold_us > 0.0 && p.incremental_us > 0.0);
        assert!(p.cold.cold_builds > 0);
        assert!(p.incremental.entries_rehashed < p.cold.entries_rehashed);
        assert!(p.incremental.bytes_hashed < p.cold.bytes_hashed);
    }
}
