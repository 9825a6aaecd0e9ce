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
/// Proposals on the benchmark's ballot.
const PROPOSALS: usize = 4;
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

/// The first `n` voters: the accounts a world of `n` accounts registers.
pub fn voters(n: usize) -> Vec<Address> {
    (0..n).map(voter).collect()
}

/// Deploys the Ballot contract and registers `voters` ("the contract is
/// put into an initial state where voters are already registered").
pub fn deploy(world: &World, voters: &[Address]) {
    let chairperson = Address::from_index(ACCOUNT_BASE);
    let proposals: Vec<[u8; 32]> = (0..PROPOSALS).map(Ballot::proposal_name).collect();
    let ballot = Ballot::with_capacity(contract_address(), chairperson, &proposals, voters.len());
    for &voter in voters {
        ballot.seed_registered_voter(voter);
    }
    world.deploy(Arc::new(ballot));
}

/// Generates `n` vote transactions from the first `n` of `voters`, of
/// which [`contending_count`]`(n, conflict)` contend: contending
/// transactions come in pairs — the same voter voting twice, the second of
/// which will throw.
pub fn transactions(n: usize, conflict: f64, voters: &[Address]) -> Vec<Transaction> {
    let contending = contending_count(n, conflict);
    let double_voters = contending / 2;
    let mut txs = Vec::with_capacity(n);
    let to = contract_address();
    let vote_call = || CallData::new("vote", vec![ArgValue::Uint(u128::from(PROPOSAL))]);

    // Double voters: two transactions each.
    let (doubles, singles) = voters[..n - double_voters].split_at(double_voters);
    for &voter in doubles {
        txs.push(Transaction::new(0, voter, to, vote_call(), GAS_LIMIT));
        txs.push(Transaction::new(0, voter, to, vote_call(), GAS_LIMIT));
    }
    // The rest vote exactly once, each from a distinct voter.
    for &voter in singles {
        txs.push(Transaction::new(0, voter, to, vote_call(), GAS_LIMIT));
    }
    txs
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn sizes_and_conflict_structure() {
        let txs = transactions(100, 0.15, &voters(100));
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
        let txs = transactions(50, 1.0, &voters(50));
        let mut per_sender: HashMap<Address, usize> = HashMap::new();
        for tx in &txs {
            *per_sender.entry(tx.sender).or_default() += 1;
        }
        assert!(per_sender.values().all(|&c| c == 2));
    }

    #[test]
    fn deploy_registers_voters() {
        let world = World::new();
        deploy(&world, &voters(10));
        assert_eq!(world.contract_count(), 1);
        assert!(world.contract(contract_address()).is_some());
    }
}
