//! Differential test of the incremental state root.
//!
//! `World::state_root()` re-hashes only what was written since the
//! previous root and answers from cached digests otherwise, so a missed
//! dirty mark or a stale cache is a consensus bug no single-node test
//! would notice: miner and validator share the code. The oracle here is
//! the **cold root of a twin**: a fresh world seeded with the same final
//! contents and asked for its first root ever, which has no cache to be
//! stale and whose every bucket is marked by the seeding itself. After
//! every step of a random program the long-lived world's incremental
//! root must equal its twin's cold root — and, because checkpoints and
//! recovery hold a world to its root alone, the world's canonical image
//! must equal its twin's and move exactly when the root moves.
//!
//! Part one drives the storage wrappers' writers (a map's `insert`,
//! `update_or` and `add`, a cell's `set`) through
//! committed transactions, aborts, mid-transaction `rollback_to`,
//! reverted calls, and — under the optimistic flavour — commits that stay
//! in the multi-version overlay until a `finalize_below` flattens them
//! or a `discard_above` drops them. Part two chains blocks of the four paper
//! workloads through both concurrent engines and both validation paths
//! and checks every header root against a twin's cold root.

use cc_core::engine::Engine;
use cc_core::PendingChain;
use cc_integration_tests::{engine, optimistic_engine, workload};
use cc_ledger::Block;
use cc_primitives::hash::Hash256;
use cc_vm::{
    Address, ArgValue, CallContext, CallData, Contract, ContractKind, GasSchedule, Msg,
    ReturnValue, StorageCell, StorageField, StorageMap, TxnRef, VmError, World,
};
use cc_workload::Benchmark;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A contract exposing the storage wrappers' writers. Each
/// function takes `(key, value, fail)`; with `fail` set it throws *after*
/// mutating, so the call's effects must be rolled back.
struct Scratch {
    address: Address,
    map: StorageMap<u64, u64>,
    tally: StorageMap<u64, u64>,
    cell: StorageCell<u64>,
}

const OPS: [&str; 5] = ["insert", "update_or", "add", "tally_insert", "cell_set"];

impl Scratch {
    fn new(address: Address) -> Self {
        let tag = address.to_hex();
        Scratch {
            address,
            map: StorageMap::new(&format!("Scratch.map.{tag}")),
            tally: StorageMap::new(&format!("Scratch.tally.{tag}")),
            cell: StorageCell::new(&format!("Scratch.cell.{tag}"), 0),
        }
    }

    /// A contract at `address` holding exactly `model`'s contents, written
    /// non-transactionally.
    fn seeded(address: Address, model: &Model) -> Self {
        let scratch = Scratch::new(address);
        for (k, v) in &model.map {
            scratch.map.seed(*k, *v);
        }
        for (k, v) in &model.tally {
            scratch.tally.seed(*k, *v);
        }
        scratch.cell.seed(model.cell);
        scratch
    }
}

impl Contract for Scratch {
    fn kind(&self) -> ContractKind {
        ContractKind("Scratch")
    }

    fn address(&self) -> Address {
        self.address
    }

    fn call(&self, ctx: &mut CallContext<'_>, call: &CallData) -> Result<ReturnValue, VmError> {
        let key = call.arg(0)?.as_uint()? as u64;
        let value = call.arg(1)?.as_uint()? as u64;
        match call.function.as_str() {
            "insert" => self.map.insert(ctx, key, value)?,
            "update_or" => self.map.update_or(ctx, key, 1, |v| *v += value)?,
            "add" => self.tally.add(ctx, key, add_delta(value))?,
            "tally_insert" => self.tally.insert(ctx, key, value)?,
            "cell_set" => self.cell.set(ctx, value)?,
            other => {
                return Err(VmError::UnknownFunction {
                    function: other.to_string(),
                })
            }
        }
        if call.arg(2)?.as_bool()? {
            return ctx.throw("asked to fail after mutating");
        }
        Ok(ReturnValue::Unit)
    }

    fn storage_fields(&self) -> Vec<&dyn StorageField> {
        vec![&self.map, &self.tally, &self.cell]
    }
}

/// The delta an `add` of drawn value `value` (0 to 3) adds: -2 to 1,
/// wrapping, so tallies keep coming back to 0 (which unbinds them) and
/// an add of 0 binds nothing.
fn add_delta(value: u64) -> u64 {
    value.wrapping_sub(2)
}

/// What one [`Scratch`] contract must hold.
#[derive(Debug, Clone, Default, PartialEq)]
struct Model {
    map: BTreeMap<u64, u64>,
    tally: BTreeMap<u64, u64>,
    cell: u64,
}

impl Model {
    fn apply(&mut self, op: usize, key: u64, value: u64) {
        match OPS[op] {
            "insert" => drop(self.map.insert(key, value)),
            "update_or" => *self.map.entry(key).or_insert(1) += value,
            "add" => {
                let delta = add_delta(value);
                let total = self
                    .tally
                    .get(&key)
                    .map_or(delta, |t| t.wrapping_add(delta));
                match (delta, total) {
                    (0, _) => {}
                    (_, 0) => drop(self.tally.remove(&key)),
                    _ => drop(self.tally.insert(key, total)),
                }
            }
            "tally_insert" => drop(self.tally.insert(key, value)),
            "cell_set" => self.cell = value,
            other => unreachable!("{other}"),
        }
    }
}

/// `(selector, contract, key, value)`, decoded modulo the op and contract
/// counts (the proptest shim has ranges and tuples, no `prop_oneof`).
type RawOp = (u8, u8, u8, u64);
/// `(kind, ops)`: what to do with a batch of ops (see [`run_program`]).
type RawStep = (u8, Vec<RawOp>);

fn addresses() -> [Address; 2] {
    [
        Address::from_name("scratch.a"),
        Address::from_name("scratch.b"),
    ]
}

fn fresh_world(models: &[Model; 2]) -> World {
    let world = World::with_gas_schedule(GasSchedule::free());
    for (address, model) in addresses().into_iter().zip(models) {
        world.deploy(Arc::new(Scratch::seeded(address, model)));
    }
    world
}

/// Executes one op as transaction `txn`'s next call; with `fail` the call
/// reverts and leaves no effect.
fn execute(world: &World, txn: TxnRef<'_>, (selector, contract, key, value): RawOp, fail: bool) {
    let op = usize::from(selector) % OPS.len();
    let receipt = world
        .execute_in(
            txn,
            0,
            Msg::from_sender(Address::from_index(1)),
            addresses()[usize::from(contract) % 2],
            &CallData::new(
                OPS[op],
                vec![
                    ArgValue::Uint(u128::from(key)),
                    ArgValue::Uint(u128::from(value)),
                    ArgValue::Bool(fail),
                ],
            ),
            u64::MAX,
        )
        .expect("a lone transaction is never a deadlock victim");
    assert_eq!(receipt.succeeded(), !fail, "{} fail={fail}", OPS[op]);
}

fn apply(models: &mut [Model; 2], (selector, contract, key, value): RawOp) {
    models[usize::from(contract) % 2].apply(
        usize::from(selector) % OPS.len(),
        u64::from(key),
        value,
    );
}

/// One transaction of the chosen flavour; `body` drives it and says
/// whether it commits.
fn transact(world: &World, optimistic: bool, body: &mut dyn FnMut(TxnRef<'_>) -> bool) {
    if optimistic {
        let txn = world.mvcc().begin();
        if body(TxnRef::Mvcc(&txn)) {
            txn.commit()
                .expect("a lone optimistic transaction validates");
        } else {
            txn.abort();
        }
    } else {
        let txn = world.stm().begin();
        if body(TxnRef::Stm(&txn)) {
            txn.commit().expect("commit");
        } else {
            txn.abort().expect("abort");
        }
    }
}

/// Runs `steps` on one long-lived world under one transaction flavour,
/// taking a root after every step and comparing it with the cold root of
/// a twin seeded with what the *base* state must hold.
fn run_program(optimistic: bool, seed: [Model; 2], steps: &[RawStep]) -> Result<(), TestCaseError> {
    let world = fresh_world(&seed);
    // `pending` is what transactions read: under the optimistic flavour it
    // runs ahead of `base` until a flatten, and falls back on a discard.
    let mut base = seed;
    let mut pending = base.clone();
    let mut base_boundary = world.mvcc().latest();
    // The previous step's root and world image. Recovery checks replayed
    // worlds by root alone, so the root must commit to everything the
    // image holds: one moves exactly when the other does. (None before
    // the first step: the world's first root is taken after it, as ever.)
    let mut previous: Option<(Hash256, Vec<u8>)> = None;

    let in_txn = |body: &mut dyn FnMut(TxnRef<'_>) -> bool| transact(&world, optimistic, body);

    for (step, (kind, ops)) in steps.iter().enumerate() {
        match kind % 8 {
            // Every op in one committed transaction.
            0..=2 => {
                in_txn(&mut |txn: TxnRef<'_>| {
                    ops.iter().for_each(|&op| execute(&world, txn, op, false));
                    true
                });
                ops.iter().for_each(|&op| apply(&mut pending, op));
            }
            // The same, aborted: nothing may stick.
            3 => in_txn(&mut |txn: TxnRef<'_>| {
                ops.iter().for_each(|&op| execute(&world, txn, op, false));
                false
            }),
            // Commit the first half, roll the second half back in place.
            4 => {
                let (kept, undone) = ops.split_at(ops.len() / 2);
                in_txn(&mut |txn: TxnRef<'_>| {
                    kept.iter().for_each(|&op| execute(&world, txn, op, false));
                    let savepoint = txn.savepoint();
                    undone
                        .iter()
                        .for_each(|&op| execute(&world, txn, op, false));
                    txn.rollback_to(savepoint);
                    true
                });
                kept.iter().for_each(|&op| apply(&mut pending, op));
            }
            // Every other call reverts after mutating.
            5 => {
                in_txn(&mut |txn: TxnRef<'_>| {
                    for (i, &op) in ops.iter().enumerate() {
                        execute(&world, txn, op, i % 2 == 1);
                    }
                    true
                });
                ops.iter()
                    .step_by(2)
                    .for_each(|&op| apply(&mut pending, op));
            }
            // Flatten every committed version into the base state.
            6 if optimistic => {
                base_boundary = world.mvcc().latest();
                world.mvcc().finalize_below(base_boundary);
                base = pending.clone();
            }
            // Drop every committed version that was not flattened.
            7 if optimistic => {
                world.mvcc().discard_above(base_boundary);
                pending = base.clone();
            }
            _ => {}
        }
        if !optimistic {
            base = pending.clone();
        }
        let twin = fresh_world(&base);
        let (root, image) = (world.state_root(), world.snapshot().to_bytes());
        prop_assert_eq!(root, twin.state_root(), "step {} (kind {})", step, kind % 8);
        prop_assert_eq!(
            &image,
            &twin.snapshot().to_bytes(),
            "image, step {} (kind {})",
            step,
            kind % 8
        );
        if let Some((previous_root, previous_image)) = &previous {
            prop_assert_eq!(
                root != *previous_root,
                image != *previous_image,
                "root and image must move together, step {} (kind {})",
                step,
                kind % 8
            );
        }
        previous = Some((root, image));
    }

    if optimistic {
        world.mvcc().finalize_block();
        let twin = fresh_world(&pending);
        prop_assert_eq!(world.state_root(), twin.state_root());
        prop_assert_eq!(world.snapshot().to_bytes(), twin.snapshot().to_bytes());
    }
    Ok(())
}

/// A [`Model`] as the proptest shim can draw it: map, tally, cell.
type RawModel = (Vec<(u8, u64)>, Vec<(u8, u64)>, u64);

fn model_strategy() -> impl Strategy<Value = RawModel> {
    (
        proptest::collection::vec((0u8..24, 0u64..1000), 0..12),
        proptest::collection::vec((0u8..6, 0u64..5), 0..4),
        0u64..1000,
    )
}

fn model_of((map, tally, cell): RawModel) -> Model {
    Model {
        map: map.into_iter().map(|(k, v)| (u64::from(k), v)).collect(),
        tally: tally.into_iter().map(|(k, v)| (u64::from(k), v)).collect(),
        cell,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Incremental root == cold twin root after every step, under both
    /// transaction flavours. Keys are drawn from a small range so steps
    /// keep hitting the same buckets: fill, overwrite, empty, refill.
    #[test]
    fn incremental_root_equals_cold_twin_root_after_every_step(
        seed_a in model_strategy(),
        seed_b in model_strategy(),
        steps in proptest::collection::vec(
            (0u8..8, proptest::collection::vec((0u8..5, 0u8..2, 0u8..24, 0u64..4), 0..5)),
            0..24,
        ),
    ) {
        for optimistic in [false, true] {
            run_program(optimistic, [model_of(seed_a.clone()), model_of(seed_b.clone())], &steps)?;
        }
    }
}

// ---- paper workloads through the engines ---------------------------------

const CHAINED_BLOCKS: usize = 5;
const TXS_PER_BLOCK: usize = 12;

/// Replays `blocks` on a fresh world one transaction at a time, in each
/// block's published serial order, **without ever taking a root**, and
/// returns the world's first — cold — root.
fn cold_root_after(build_world: &dyn Fn() -> World, blocks: &[Block]) -> Hash256 {
    let world = build_world();
    for block in blocks {
        let n = block.transactions.len();
        let order: Vec<usize> = match &block.schedule {
            Some(schedule) if schedule.serial_order.len() == n => schedule.serial_order.clone(),
            _ => (0..n).collect(),
        };
        for index in order {
            let tx = &block.transactions[index];
            let txn = world.stm().begin();
            world
                .execute(&txn, index, tx.msg(), tx.to, &tx.call, tx.gas_limit)
                .expect("serial replay never deadlocks");
            txn.commit().expect("commit");
        }
    }
    assert_eq!(
        world.root_stats(),
        Default::default(),
        "the twin took no root yet"
    );
    world.state_root()
}

fn chained_header_roots_match_cold_twins(benchmark: Benchmark, eng: &Engine, tag: &str) {
    let workload = workload(
        benchmark,
        CHAINED_BLOCKS * TXS_PER_BLOCK,
        0.25,
        0x5eed ^ benchmark as u64,
    );
    let build_world = || workload.build_world();
    let transactions = workload.transactions();

    // Mine: one world, five incremental roots.
    let miner_world = build_world();
    let mut parent = Hash256::ZERO;
    let mut blocks = Vec::new();
    for (i, batch) in transactions.chunks(TXS_PER_BLOCK).enumerate() {
        let mined = eng
            .mine_on(&miner_world, batch.to_vec(), parent, i as u64 + 1)
            .unwrap_or_else(|e| panic!("{tag}: mining block {} failed: {e}", i + 1));
        parent = mined.block.hash();
        blocks.push(mined.block);
    }
    assert_eq!(blocks.len(), CHAINED_BLOCKS);

    // Every header root is the cold root of a twin holding that prefix.
    for k in 1..=blocks.len() {
        assert_eq!(
            blocks[k - 1].header.state_root,
            cold_root_after(&build_world, &blocks[..k]),
            "{tag}: header root of block {k} is not the cold root of its post-state"
        );
    }

    // `validate`: one world, five more incremental roots, all accepted.
    let validator_world = build_world();
    for block in &blocks {
        let report = eng
            .validate(&validator_world, block)
            .unwrap_or_else(|e| panic!("{tag}: block {} rejected: {e}", block.header.number));
        assert_eq!(report.state_root, block.header.state_root, "{tag}");
    }

    // `PendingChain`: speculate two deep, commit in order; every commit
    // flattens an overlay and checks the incremental root.
    let pending_world = build_world();
    let mut pending = PendingChain::new(&pending_world, Hash256::ZERO, 2);
    let mut in_flight = std::collections::VecDeque::new();
    for block in &blocks {
        if pending.is_full() {
            let oldest: Hash256 = in_flight.pop_front().expect("full chain has an oldest");
            pending
                .commit(&oldest)
                .unwrap_or_else(|e| panic!("{tag}: pending commit rejected: {e}"));
        }
        let hash = pending
            .speculate(pending.tip_hash(), block)
            .unwrap_or_else(|e| panic!("{tag}: speculation rejected: {e}"));
        in_flight.push_back(hash);
    }
    for hash in in_flight {
        pending
            .commit(&hash)
            .unwrap_or_else(|e| panic!("{tag}: pending commit rejected: {e}"));
    }
    assert_eq!(
        pending_world.state_root(),
        blocks.last().expect("five blocks").header.state_root,
        "{tag}"
    );
}

#[test]
fn paper_workload_header_roots_match_cold_twins_under_both_strategies() {
    for benchmark in Benchmark::ALL {
        chained_header_roots_match_cold_twins(
            benchmark,
            &engine(3),
            &format!("{benchmark}/speculative-stm"),
        );
        chained_header_roots_match_cold_twins(
            benchmark,
            &optimistic_engine(3),
            &format!("{benchmark}/optimistic-mvcc"),
        );
    }
}
