//! The Ballot benchmark (paper §7.1).
//!
//! "All block transactions for this benchmark are requests to vote on the
//! same proposal. To add data conflict, some voters attempt to
//! double-vote, creating two transactions that contend for the same voter
//! data. 100% data conflict occurs when all voters attempt to vote twice."

use crate::contending_count;
use cc_contracts::Ballot;
use cc_ledger::Transaction;
use cc_vm::{Address, ArgValue, CallData, World};
use std::sync::Arc;

/// Index offset so ballot voter accounts never collide with accounts used
/// by the other benchmarks inside the Mixed workload.
const ACCOUNT_BASE: u64 = 10_000;
/// The proposal every benchmark transaction votes for.
const PROPOSAL: u64 = 0;
/// Gas limit for one vote.
const GAS_LIMIT: u64 = 1_000_000;

/// The deterministic address of the benchmark's Ballot contract.
pub fn contract_address() -> Address {
    Address::from_name("bench.Ballot")
}

/// The account of benchmark voter `i`.
pub fn voter(i: usize) -> Address {
    Address::from_index(ACCOUNT_BASE + i as u64)
}

/// Deploys the Ballot contract and registers enough voters for a block of
/// `block_size` transactions ("the contract is put into an initial state
/// where voters are already registered").
pub fn deploy(world: &World, block_size: usize) {
    let chairperson = Address::from_index(ACCOUNT_BASE);
    let ballot = Ballot::with_numbered_proposals(contract_address(), chairperson, 4);
    for i in 0..block_size.max(1) {
        ballot.seed_registered_voter(voter(i));
    }
    world.deploy(Arc::new(ballot));
}

/// Generates `n` vote transactions, of which [`contending_count`]`(n, conflict)`
/// contend: contending transactions come in pairs — the same voter voting
/// twice, the second of which will throw.
pub fn transactions(n: usize, conflict: f64) -> Vec<Transaction> {
    let contending = contending_count(n, conflict);
    let double_voters = contending / 2;
    let mut txs = Vec::with_capacity(n);
    let to = contract_address();
    let vote_call = || CallData::new("vote", vec![ArgValue::Uint(u128::from(PROPOSAL))]);

    // Double voters: two transactions each.
    for i in 0..double_voters {
        txs.push(Transaction::new(0, voter(i), to, vote_call(), GAS_LIMIT));
        txs.push(Transaction::new(0, voter(i), to, vote_call(), GAS_LIMIT));
    }
    // The rest vote exactly once, each from a distinct voter.
    let singles = n - 2 * double_voters;
    for j in 0..singles {
        txs.push(Transaction::new(
            0,
            voter(double_voters + j),
            to,
            vote_call(),
            GAS_LIMIT,
        ));
    }
    txs
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn sizes_and_conflict_structure() {
        let txs = transactions(100, 0.15);
        assert_eq!(txs.len(), 100);
        let mut per_sender: HashMap<Address, usize> = HashMap::new();
        for tx in &txs {
            *per_sender.entry(tx.sender).or_default() += 1;
        }
        let doubles = per_sender.values().filter(|&&c| c == 2).count();
        assert_eq!(
            doubles, 7,
            "15% of 100 -> 14 contending txns -> 7 double voters"
        );
        assert!(per_sender.values().all(|&c| c <= 2));
    }

    #[test]
    fn hundred_percent_conflict_means_everyone_votes_twice() {
        let txs = transactions(50, 1.0);
        let mut per_sender: HashMap<Address, usize> = HashMap::new();
        for tx in &txs {
            *per_sender.entry(tx.sender).or_default() += 1;
        }
        assert!(per_sender.values().all(|&c| c == 2));
    }

    #[test]
    fn deploy_registers_voters() {
        let world = World::new();
        deploy(&world, 10);
        assert_eq!(world.contract_count(), 1);
        assert!(world.contract(contract_address()).is_some());
    }
}
