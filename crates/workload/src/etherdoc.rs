//! The EtherDoc benchmark (paper §7.1).
//!
//! "The contract is initialized with a number of documents and owners.
//! Transactions consist of owners checking the existence of the document
//! by hashcode. Data conflict is added by including transactions that
//! transfer ownership to the contract creator. As with SimpleAuction, all
//! contending transactions touch the same shared data … 100% data conflict
//! happens when all transactions are transfers."

use crate::contending_count;
use cc_contracts::EtherDoc;
use cc_ledger::Transaction;
use cc_vm::{Address, ArgValue, CallData, World};
use std::sync::Arc;

/// Index offset for EtherDoc accounts (disjoint from the other
/// benchmarks).
const ACCOUNT_BASE: u64 = 30_000;
/// Gas limit per transaction.
const GAS_LIMIT: u64 = 1_000_000;

/// The deterministic address of the benchmark's EtherDoc contract.
pub fn contract_address() -> Address {
    Address::from_name("bench.EtherDoc")
}

/// The contract creator (the destination of every contending transfer).
pub fn creator() -> Address {
    Address::from_index(ACCOUNT_BASE)
}

/// The owner of benchmark document `i`.
pub fn owner(i: usize) -> Address {
    Address::from_index(ACCOUNT_BASE + 1 + i as u64)
}

/// The hash of benchmark document `i`.
pub fn document(i: usize) -> [u8; 32] {
    EtherDoc::document_hash(1_000_000 + i as u64)
}

/// The first `n` documents, each with its owner: what a world of `n`
/// accounts seeds.
pub fn documents(n: usize) -> Vec<([u8; 32], Address)> {
    (0..n).map(|i| (document(i), owner(i))).collect()
}

/// Deploys EtherDoc and seeds `documents`, each with its own owner.
pub fn deploy(world: &World, documents: &[([u8; 32], Address)]) {
    let etherdoc = EtherDoc::with_capacity(contract_address(), creator(), documents.len());
    for &(document, owner) in documents {
        etherdoc.seed_document(document, owner);
    }
    world.deploy(Arc::new(etherdoc));
}

/// Generates `n` transactions on the first `n` of `documents`, each sent
/// by its owner: `contending_count(n, conflict)` transfers of distinct
/// documents to the contract creator (all of which contend on the
/// creator's ownership tally), the rest existence checks of other distinct
/// documents.
pub fn transactions(
    n: usize,
    conflict: f64,
    documents: &[([u8; 32], Address)],
) -> Vec<Transaction> {
    let contending = contending_count(n, conflict);
    let mut txs = Vec::with_capacity(n);
    let (to, creator) = (contract_address(), creator());
    for &(document, owner) in &documents[..contending] {
        txs.push(Transaction::new(
            0,
            owner,
            to,
            CallData::new(
                "transferDocument",
                vec![ArgValue::Bytes32(document), ArgValue::Addr(creator)],
            ),
            GAS_LIMIT,
        ));
    }
    for &(document, owner) in &documents[contending..n] {
        txs.push(Transaction::new(
            0,
            owner,
            to,
            CallData::new("hasDocument", vec![ArgValue::Bytes32(document)]),
            GAS_LIMIT,
        ));
    }
    txs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflict_fraction_controls_transfer_count() {
        let txs = transactions(200, 0.15, &documents(200));
        assert_eq!(txs.len(), 200);
        let transfers = txs
            .iter()
            .filter(|t| t.call.function == "transferDocument")
            .count();
        assert_eq!(transfers, 30);
    }

    #[test]
    fn extremes() {
        assert!(transactions(30, 0.0, &documents(30))
            .iter()
            .all(|t| t.call.function == "hasDocument"));
        assert!(transactions(30, 1.0, &documents(30))
            .iter()
            .all(|t| t.call.function == "transferDocument"));
    }

    #[test]
    fn reads_and_transfers_touch_disjoint_documents() {
        let txs = transactions(60, 0.5, &documents(60));
        let transferred: std::collections::HashSet<[u8; 32]> = txs
            .iter()
            .filter(|t| t.call.function == "transferDocument")
            .map(|t| t.call.args[0].as_bytes32().unwrap())
            .collect();
        let read: std::collections::HashSet<[u8; 32]> = txs
            .iter()
            .filter(|t| t.call.function == "hasDocument")
            .map(|t| t.call.args[0].as_bytes32().unwrap())
            .collect();
        assert!(transferred.is_disjoint(&read));
    }

    #[test]
    fn deploy_seeds_documents() {
        let world = World::new();
        deploy(&world, &documents(8));
        assert!(world.contract(contract_address()).is_some());
    }
}
