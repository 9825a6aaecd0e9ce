//! Contract invariants as a referee that does not trust serial execution:
//! after every mined or validated block, each contract's books must
//! balance on their own terms, whatever the miner and the validator
//! agree on.
//!
//! EtherDoc: Σ `ownedCount` == `totalDocuments` == the number of
//! documents, on the paper EtherDoc and Mixed blocks at 0, 50 and 100 %
//! conflict, under both concurrent strategies.

use cc_contracts::EtherDoc;
use cc_core::engine::Engine;
use cc_integration_tests::{engine, optimistic_engine, workload};
use cc_ledger::Transaction;
use cc_vm::{Address, ArgValue, CallData, World};
use cc_workload::Benchmark;

/// EtherDoc's books in `world`, read from its snapshot:
/// `(Σ ownedCount, totalDocuments, number of documents)`.
fn etherdoc_books(world: &World) -> (u64, u64, u64) {
    let snapshot = world.snapshot();
    let contract = (snapshot.contracts.iter())
        .find(|c| c.kind == "EtherDoc")
        .expect("the world holds an EtherDoc");
    let field = |prefix: &str| {
        (contract.fields.iter())
            .find(|f| f.name.starts_with(prefix))
            .unwrap_or_else(|| panic!("EtherDoc has a {prefix}* field"))
    };
    let le = |bytes: &[u8]| u64::from_le_bytes(bytes.try_into().expect("a u64"));
    let owned = field("EtherDoc.ownedCount.").entries().map(|(_, v)| le(v));
    let (_, total) =
        (field("EtherDoc.totalDocuments.").entries().next()).expect("a cell has one entry");
    let documents = field("EtherDoc.documents.").len() as u64;
    (owned.sum(), le(total), documents)
}

fn assert_books_balance(world: &World, label: &str) {
    let (owned, total, documents) = etherdoc_books(world);
    assert_eq!(owned, total, "{label}: Σ ownedCount vs totalDocuments");
    assert_eq!(total, documents, "{label}: totalDocuments vs documents");
}

/// A second block on the same contract: eight new documents from fresh
/// accounts, and one that already exists (it reverts).
fn creations(to: Address) -> Vec<Transaction> {
    let create = |sender: u64, document: u64| {
        Transaction::new(
            0,
            Address::from_index(sender),
            to,
            CallData::new(
                "newDocument",
                vec![ArgValue::Bytes32(EtherDoc::document_hash(document))],
            ),
            1_000_000,
        )
    };
    let fresh = (0..8).map(|i| create(900_000 + i, 5_000_000 + i));
    fresh.chain([create(900_100, 5_000_000)]).collect()
}

#[test]
fn etherdoc_books_balance_after_every_block() {
    let engines: [(&str, Engine); 2] = [
        ("speculative-stm", engine(3)),
        ("optimistic-mvcc", optimistic_engine(3)),
    ];
    for benchmark in [Benchmark::EtherDoc, Benchmark::Mixed] {
        for conflict in [0.0, 0.5, 1.0] {
            for (name, engine) in &engines {
                let label = format!("{benchmark} at {conflict}, {name}");
                let w = workload(benchmark, 60, conflict, 37);
                let (miner, validator) = (w.build_world(), w.build_world());
                assert_books_balance(&miner, &format!("{label}, genesis"));
                let (_, seeded, _) = etherdoc_books(&miner);
                let transactions = w.transactions();
                let to = (transactions.iter())
                    .find(|tx| tx.call.function.contains("Document"))
                    .expect("an EtherDoc transaction")
                    .to;
                let blocks = [transactions, creations(to)];
                for (number, transactions) in blocks.into_iter().enumerate() {
                    let label = format!("{label}, block {}", number + 1);
                    let mined = engine
                        .mine(&miner, transactions)
                        .unwrap_or_else(|e| panic!("{label}: mining failed: {e}"));
                    assert_books_balance(&miner, &format!("{label}, miner"));
                    engine
                        .validate(&validator, &mined.block)
                        .unwrap_or_else(|e| panic!("{label}: validation failed: {e}"));
                    assert_books_balance(&validator, &format!("{label}, validator"));
                }
                let (_, total, _) = etherdoc_books(&miner);
                assert_eq!(total, seeded + 8, "{label}: eight creations landed");
            }
        }
    }
}
