//! The SimpleAuction benchmark (paper §7.1).
//!
//! "The contract state is initialized by several bidders entering a bid.
//! The block consists of transactions that withdraw these bids. Data
//! conflict is added by including new bidders who call bidPlusOne() to
//! read and increase the highest bid. … 100% data conflict happens when
//! all transactions are bidPlusOne() bids."

use crate::contending_count;
use cc_contracts::SimpleAuction;
use cc_ledger::Transaction;
use cc_vm::{Address, CallData, World};
use std::sync::Arc;

/// Index offset for auction accounts (disjoint from the other benchmarks).
const ACCOUNT_BASE: u64 = 20_000;
/// Pending return seeded for every withdrawing bidder.
const SEEDED_RETURN: u128 = 100;
/// The highest bid the auction starts with.
const SEEDED_HIGHEST_BID: u128 = 1_000;
/// Gas limit per transaction.
const GAS_LIMIT: u64 = 1_000_000;

/// The deterministic address of the benchmark's SimpleAuction contract.
pub fn contract_address() -> Address {
    Address::from_name("bench.SimpleAuction")
}

/// The account of withdrawing bidder `i`.
pub fn bidder(i: usize) -> Address {
    Address::from_index(ACCOUNT_BASE + i as u64)
}

/// The account of overbidding newcomer `i` (used by `bidPlusOne`
/// transactions).
pub fn overbidder(i: usize) -> Address {
    Address::from_index(ACCOUNT_BASE + 100_000 + i as u64)
}

/// The first `n` withdrawing bidders: the accounts a world of `n`
/// accounts seeds a pending return for.
pub fn bidders(n: usize) -> Vec<Address> {
    (0..n).map(bidder).collect()
}

/// Deploys the auction and seeds a pending return for each of `bidders`
/// plus an initial highest bid.
pub fn deploy(world: &World, bidders: &[Address]) {
    let beneficiary = Address::from_index(ACCOUNT_BASE);
    let auction = SimpleAuction::with_capacity(contract_address(), beneficiary, bidders.len());
    for &bidder in bidders {
        auction.seed_pending_return(bidder, SEEDED_RETURN);
    }
    auction.seed_highest_bid(
        Address::from_index(ACCOUNT_BASE + 999_999),
        SEEDED_HIGHEST_BID,
    );
    world.deploy(Arc::new(auction));
}

/// Generates `n` transactions: `contending_count(n, conflict)` of them are
/// `bidPlusOne()` calls (which all touch the shared highest bid and hence
/// all contend), the rest are `withdraw()` calls by the first of
/// `bidders`.
pub fn transactions(n: usize, conflict: f64, bidders: &[Address]) -> Vec<Transaction> {
    let contending = contending_count(n, conflict);
    let mut txs = Vec::with_capacity(n);
    let to = contract_address();
    for i in 0..contending {
        txs.push(Transaction::new(
            0,
            overbidder(i),
            to,
            CallData::nullary("bidPlusOne"),
            GAS_LIMIT,
        ));
    }
    for &bidder in &bidders[..n - contending] {
        txs.push(Transaction::new(
            0,
            bidder,
            to,
            CallData::nullary("withdraw"),
            GAS_LIMIT,
        ));
    }
    txs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflict_fraction_controls_bid_plus_one_count() {
        let txs = transactions(200, 0.15, &bidders(200));
        assert_eq!(txs.len(), 200);
        let bids = txs
            .iter()
            .filter(|t| t.call.function == "bidPlusOne")
            .count();
        assert_eq!(bids, 30);
        let withdraws = txs.iter().filter(|t| t.call.function == "withdraw").count();
        assert_eq!(withdraws, 170);
    }

    #[test]
    fn extremes() {
        assert!(transactions(40, 0.0, &bidders(40))
            .iter()
            .all(|t| t.call.function == "withdraw"));
        assert!(transactions(40, 1.0, &bidders(40))
            .iter()
            .all(|t| t.call.function == "bidPlusOne"));
    }

    #[test]
    fn withdrawers_are_distinct() {
        let txs = transactions(50, 0.2, &bidders(50));
        let withdrawers: std::collections::HashSet<Address> = txs
            .iter()
            .filter(|t| t.call.function == "withdraw")
            .map(|t| t.sender)
            .collect();
        assert_eq!(withdrawers.len(), 40);
    }

    #[test]
    fn deploy_seeds_returns() {
        let world = World::new();
        deploy(&world, &bidders(5));
        assert!(world.contract(contract_address()).is_some());
    }
}
