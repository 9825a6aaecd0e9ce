//! Contract invariants as a referee that does not trust serial execution:
//! after every mined or validated block, each contract's books must
//! balance on their own terms, whatever the miner and the validator
//! agree on. Each row runs on the paper blocks of its contract and of
//! Mixed at 0, 50 and 100 % conflict, under both concurrent strategies,
//! then on follow-up blocks of its own; the genesis check is the referee
//! of what seeding wrote.
//!
//! - EtherDoc: Σ `ownedCount` == `totalDocuments` == the number of
//!   documents.
//! - Ballot: Σ vote counts + the weight not yet cast == Σ registered
//!   weight (delegation moves weight and never creates it).
//! - SimpleAuction: the highest bid never falls, and Σ pending returns +
//!   highest bid + Σ `Withdrawn` == the seeded total + Σ
//!   `HighestBidIncreased`.

use cc_contracts::EtherDoc;
use cc_core::engine::Engine;
use cc_integration_tests::{engine, optimistic_engine, workload};
use cc_ledger::{Block, Transaction};
use cc_vm::{Address, ArgValue, CallData, FieldSnapshot, World, WorldSnapshot};
use cc_workload::{Benchmark, Workload};

/// Accounts (and paper-block transactions) of every workload here.
const ACCOUNTS: usize = 60;

/// The field of `snapshot`'s `kind` contract whose name starts with
/// `prefix`.
fn field<'a>(snapshot: &'a WorldSnapshot, kind: &str, prefix: &str) -> &'a FieldSnapshot {
    let contract = (snapshot.contracts.iter())
        .find(|c| c.kind == kind)
        .unwrap_or_else(|| panic!("the world holds a {kind}"));
    (contract.fields.iter())
        .find(|f| f.name.starts_with(prefix))
        .unwrap_or_else(|| panic!("{kind} has a {prefix}* field"))
}

/// The value of a cell field.
fn cell(field: &FieldSnapshot) -> &[u8] {
    let (_, value) = field.entries().next().expect("a cell has one entry");
    value
}

fn le64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("a u64"))
}

fn le128(bytes: &[u8]) -> u128 {
    u128::from_le_bytes(bytes.try_into().expect("a u128"))
}

/// The `Uint` amounts of every `name` event the blocks emitted.
fn emitted(blocks: &[Block], name: &str) -> u128 {
    let events = blocks
        .iter()
        .flat_map(|b| &b.receipts)
        .flat_map(|r| &r.events);
    (events.filter(|e| e.name == name))
        .map(|e| match e.data[..] {
            [_, ArgValue::Uint(amount)] => amount,
            _ => panic!("{name} carries an address and an amount"),
        })
        .sum()
}

fn call(sender: Address, to: Address, function: &str, args: Vec<ArgValue>) -> Transaction {
    Transaction::new(0, sender, to, CallData::new(function, args), 1_000_000)
}

/// The address of the first transaction calling one of `functions`.
fn contract_of(transactions: &[Transaction], functions: &[&str]) -> Address {
    (transactions.iter())
        .find(|tx| functions.contains(&tx.call.function.as_str()))
        .expect("a transaction to the contract")
        .to
}

/// Mines the paper block of `benchmark` at each conflict level, then the
/// blocks `follow_ups` makes from it, under both strategies: each block
/// is mined on one world and validated on a second. `check(world, chain,
/// label)` runs on both genesis worlds (`chain` empty) and after every
/// mined and every validated block, `chain` holding the blocks so far.
fn referee(
    benchmark: Benchmark,
    follow_ups: impl Fn(&Workload) -> Vec<Vec<Transaction>>,
    mut check: impl FnMut(&World, &[Block], &str),
) {
    let engines: [(&str, Engine); 2] = [
        ("speculative-stm", engine(3)),
        ("optimistic-mvcc", optimistic_engine(3)),
    ];
    for conflict in [0.0, 0.5, 1.0] {
        for (name, engine) in &engines {
            let label = format!("{benchmark} at {conflict}, {name}");
            let w = workload(benchmark, ACCOUNTS, conflict, 37);
            let (miner, validator) = (w.build_world(), w.build_world());
            check(&miner, &[], &format!("{label}, genesis"));
            check(&validator, &[], &format!("{label}, genesis"));
            let mut chain = Vec::new();
            let blocks = [vec![w.transactions()], follow_ups(&w)].concat();
            for (number, transactions) in blocks.into_iter().enumerate() {
                let label = format!("{label}, block {}", number + 1);
                let mined = engine
                    .mine(&miner, transactions)
                    .unwrap_or_else(|e| panic!("{label}: mining failed: {e}"));
                chain.push(mined.block);
                check(&miner, &chain, &format!("{label}, miner"));
                engine
                    .validate(&validator, &chain[number])
                    .unwrap_or_else(|e| panic!("{label}: validation failed: {e}"));
                check(&validator, &chain, &format!("{label}, validator"));
            }
        }
    }
}

/// EtherDoc's books in `world`: `(Σ ownedCount, totalDocuments, number
/// of documents)`.
fn etherdoc_books(world: &World) -> (u64, u64, u64) {
    let snapshot = world.snapshot();
    let field = |prefix| field(&snapshot, "EtherDoc", prefix);
    let owned = field("EtherDoc.ownedCount.")
        .entries()
        .map(|(_, v)| le64(v));
    let total = le64(cell(field("EtherDoc.totalDocuments.")));
    let documents = field("EtherDoc.documents.").len() as u64;
    (owned.sum(), total, documents)
}

/// A second block on the same contract: eight new documents from fresh
/// accounts, and one that already exists (it reverts).
fn creations(w: &Workload) -> Vec<Vec<Transaction>> {
    let to = contract_of(&w.transactions(), &["hasDocument", "transferDocument"]);
    let create = |sender: u64, document: u64| {
        let hash = ArgValue::Bytes32(EtherDoc::document_hash(document));
        call(Address::from_index(sender), to, "newDocument", vec![hash])
    };
    let fresh = (0..8).map(|i| create(900_000 + i, 5_000_000 + i));
    vec![fresh.chain([create(900_100, 5_000_000)]).collect()]
}

#[test]
fn etherdoc_books_balance_after_every_block() {
    for benchmark in [Benchmark::EtherDoc, Benchmark::Mixed] {
        let mut seeded = 0;
        referee(benchmark, creations, |world, chain, label| {
            let (owned, total, documents) = etherdoc_books(world);
            assert_eq!(owned, total, "{label}: Σ ownedCount vs totalDocuments");
            assert_eq!(total, documents, "{label}: totalDocuments vs documents");
            match chain.len() {
                0 => seeded = total,
                2 => assert_eq!(total, seeded + 8, "{label}: eight creations landed"),
                _ => {}
            }
        });
    }
}

/// Ballot's books in `world`: `(Σ vote counts, the weight not yet cast,
/// registered voters)`. A voter entry is its weight, whether it voted,
/// its delegate and its vote.
fn ballot_books(world: &World) -> (u64, u64, usize) {
    let snapshot = world.snapshot();
    let field = |prefix| field(&snapshot, "Ballot", prefix);
    let cast = field("Ballot.voteCounts.").entries().map(|(_, v)| le64(v));
    let voters = field("Ballot.voters.");
    let held = (voters.entries())
        .filter(|(_, v)| v[8] == 0)
        .map(|(_, v)| le64(&v[..8]));
    (cast.sum(), held.sum(), voters.len())
}

/// Fresh account `i` of the Ballot follow-ups.
fn fresh_voter(i: u64) -> Address {
    Address::from_index(800_000 + i)
}

/// Two more Ballot blocks: the chairperson registers four fresh voters,
/// then they delegate along a chain whose head votes, in whatever order
/// the block's schedule gives them.
fn registrations_then_delegations(w: &Workload) -> Vec<Vec<Transaction>> {
    let to = contract_of(&w.transactions(), &["vote"]);
    let genesis = w.build_world().snapshot();
    let chairperson = cell(field(&genesis, "Ballot", "Ballot.chairperson."));
    let chairperson = Address(chairperson.try_into().expect("an address"));
    let register = (0..4).map(|i| {
        let voter = ArgValue::Addr(fresh_voter(i));
        call(chairperson, to, "giveRightToVote", vec![voter])
    });
    let delegate = |from: u64, to_voter: u64| {
        let target = ArgValue::Addr(fresh_voter(to_voter));
        call(fresh_voter(from), to, "delegate", vec![target])
    };
    let vote = call(fresh_voter(1), to, "vote", vec![ArgValue::Uint(1)]);
    let delegations = vec![delegate(0, 1), delegate(2, 1), vote, delegate(3, 2)];
    vec![register.collect(), delegations]
}

#[test]
fn ballot_weight_is_cast_or_held_and_never_made() {
    for benchmark in [Benchmark::Ballot, Benchmark::Mixed] {
        let mut seeded = 0;
        referee(
            benchmark,
            registrations_then_delegations,
            |world, chain, label| {
                let (cast, held, voters) = ballot_books(world);
                if chain.is_empty() {
                    assert_eq!(cast, 0, "{label}: nothing is cast at genesis");
                    assert_eq!(voters, ACCOUNTS, "{label}: one voter an account");
                    seeded = held;
                }
                // Block 2 registers four fresh voters of weight 1.
                let registered = seeded + if chain.len() >= 2 { 4 } else { 0 };
                assert_eq!(
                    cast + held,
                    registered,
                    "{label}: Σ vote counts + weight not yet cast vs Σ registered weight"
                );
            },
        );
    }
}

/// SimpleAuction's books in `world`: `(Σ pending returns, highest bid,
/// bidders with a pending return)`.
fn auction_books(world: &World) -> (u128, u128, usize) {
    let snapshot = world.snapshot();
    let field = |prefix| field(&snapshot, "SimpleAuction", prefix);
    let pending = field("SimpleAuction.pendingReturns.");
    let returns = pending.entries().map(|(_, v)| le128(v)).sum();
    let owed = pending.entries().filter(|(_, v)| le128(v) > 0).count();
    (
        returns,
        le128(cell(field("SimpleAuction.highestBid."))),
        owed,
    )
}

/// A second auction block: everyone who bid in the paper block withdraws
/// (all but the highest bidder were outbid), and three fresh bidders
/// overbid.
fn withdrawals_and_bids(w: &Workload) -> Vec<Vec<Transaction>> {
    let transactions = w.transactions();
    let to = contract_of(&transactions, &["withdraw", "bidPlusOne"]);
    let bidders = (transactions.iter()).filter(|tx| tx.call.function == "bidPlusOne");
    let withdrawals = bidders.map(|tx| call(tx.sender, to, "withdraw", vec![]));
    let fresh = (0..3).map(|i| call(Address::from_index(810_000 + i), to, "bidPlusOne", vec![]));
    vec![withdrawals.chain(fresh).collect()]
}

#[test]
fn auction_bids_never_fall_and_money_is_accounted_for() {
    for benchmark in [Benchmark::SimpleAuction, Benchmark::Mixed] {
        let (mut seeded, mut highest) = (0, 0);
        referee(benchmark, withdrawals_and_bids, |world, chain, label| {
            let (returns, bid, owed) = auction_books(world);
            if chain.is_empty() {
                assert_eq!(owed, ACCOUNTS, "{label}: one pending return an account");
                (seeded, highest) = (returns + bid, bid);
            }
            // The miner's world reaches each block first; the validator's
            // then reaches the same bid.
            assert!(bid >= highest, "{label}: the highest bid fell");
            highest = bid;
            assert_eq!(
                returns + bid + emitted(chain, "Withdrawn"),
                seeded + emitted(chain, "HighestBidIncreased"),
                "{label}: Σ pending + highest + withdrawn vs seeded + bids"
            );
        });
    }
}
