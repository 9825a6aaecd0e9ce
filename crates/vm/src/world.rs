//! The contract registry and transaction execution entry point.

use crate::abi::CallData;
use crate::address::Address;
use crate::commit::{contract_digest, RootCounters, StateRootStats};
use crate::context::{CallContext, TxnRef};
use crate::contract::Contract;
use crate::error::VmError;
use crate::gas::{GasMeter, GasSchedule};
use crate::msg::Msg;
use crate::receipt::{ExecutionStatus, Receipt};
use crate::snapshot::WorldSnapshot;
use cc_mvcc::MvccRuntime;
use cc_primitives::hash::{Hash256, Sha256};
use cc_primitives::pool::WorkerPool;
use cc_stm::{Stm, StmError, Transaction};
use parking_lot::RwLock;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// The deployed contracts, ordered by address for deterministic snapshots
/// and roots. Execution borrows one frozen `Arc` of it per transaction.
pub(crate) type Contracts = BTreeMap<Address, Arc<dyn Contract>>;

/// The set of deployed contracts plus the speculative runtime they execute
/// under — the "ledger state" a miner starts from when assembling a block.
///
/// `World` is shared by reference across the miner's worker threads; all
/// mutation happens through contract storage inside transactions.
///
/// The registry is **read-mostly**: a deploy (rare, setup-time) swaps in a
/// new frozen map, and execution reads a frozen map from a per-thread
/// cache without crossing the registry lock.
pub struct World {
    stm: Stm,
    mvcc: MvccRuntime,
    gas_schedule: GasSchedule,
    /// The registry: copied on write by [`World::deploy`] while a frozen
    /// map is still shared, updated in place otherwise.
    contracts: RwLock<Arc<Contracts>>,
    /// Identity of this world in the per-thread registry cache.
    world_id: u64,
    /// Bumped (with `Release`) after each deploy, so [`World::registry`]
    /// can detect staleness with one atomic load instead of crossing the
    /// `contracts` lock.
    registry_generation: AtomicU64,
    /// Work counters of every state root taken on this world.
    root_counters: RootCounters,
}

/// Source of unique [`World::world_id`] values.
static NEXT_WORLD_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The last `(world_id, generation, registry)` this thread resolved.
    ///
    /// Deploys happen at setup time; during a block the generation never
    /// moves, so every [`World::registry`] call after the first — one per
    /// executed transaction — is an atomic load plus an `Arc` clone, with
    /// **zero** lock crossings. Keyed by `world_id` so tests running many
    /// worlds on one thread never see each other's maps.
    static REGISTRY_CACHE: RefCell<Option<(u64, u64, Arc<Contracts>)>> =
        const { RefCell::new(None) };
}

impl Default for World {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for World {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("World")
            .field("contracts", &self.contracts.read().len())
            .finish()
    }
}

impl World {
    /// Creates an empty world with a fresh speculative runtime and the
    /// default gas schedule.
    pub fn new() -> Self {
        World {
            stm: Stm::new(),
            mvcc: MvccRuntime::new(),
            gas_schedule: GasSchedule::default(),
            contracts: RwLock::new(Arc::new(BTreeMap::new())),
            world_id: NEXT_WORLD_ID.fetch_add(1, Ordering::Relaxed),
            registry_generation: AtomicU64::new(0),
            root_counters: RootCounters::default(),
        }
    }

    /// Creates a world with an explicit gas schedule.
    pub fn with_gas_schedule(gas_schedule: GasSchedule) -> Self {
        World {
            gas_schedule,
            ..World::new()
        }
    }

    /// The pessimistic (transactional-boosting) runtime of this world.
    pub fn stm(&self) -> &Stm {
        &self.stm
    }

    /// The optimistic (multi-version) runtime of this world. Storage
    /// wrappers lazily register their versioned overlays here on first
    /// MVCC access; an optimistic miner uses it to begin transactions
    /// and to finalize the block's versions into the boosted base state.
    pub fn mvcc(&self) -> &MvccRuntime {
        &self.mvcc
    }

    /// The gas schedule in force.
    pub fn gas_schedule(&self) -> GasSchedule {
        self.gas_schedule
    }

    /// Deploys a contract at its self-reported address.
    ///
    /// # Panics
    ///
    /// Panics if a contract is already deployed at that address (deploying
    /// twice is always a harness bug).
    pub fn deploy(&self, contract: Arc<dyn Contract>) {
        let address = contract.address();
        let mut contracts = self.contracts.write();
        assert!(
            !contracts.contains_key(&address),
            "contract already deployed at {address}"
        );
        Arc::make_mut(&mut contracts).insert(address, contract);
        // The store is `Release` so a thread that observes the bumped
        // generation and misses its cache reads the new map.
        self.registry_generation.fetch_add(1, Ordering::Release);
    }

    /// Looks up the contract deployed at `address`.
    pub fn contract(&self, address: Address) -> Option<Arc<dyn Contract>> {
        self.contracts.read().get(&address).cloned()
    }

    /// The frozen registry used for contract resolution during execution.
    /// Lookups on it take no lock at all, and the map itself comes from a
    /// per-thread `(world, generation)` cache: in steady state (no deploy
    /// since this thread last asked) this is one atomic load and an `Arc`
    /// clone — zero lock crossings per transaction, however deep its
    /// nested calls go.
    pub(crate) fn registry(&self) -> Arc<Contracts> {
        let generation = self.registry_generation.load(Ordering::Acquire);
        REGISTRY_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((id, cached_generation, registry)) = cache.as_ref() {
                if *id == self.world_id && *cached_generation == generation {
                    return Arc::clone(registry);
                }
            }
            let fresh = Arc::clone(&self.contracts.read());
            *cache = Some((self.world_id, generation, Arc::clone(&fresh)));
            fresh
        })
    }

    /// Addresses of all deployed contracts (sorted).
    pub fn addresses(&self) -> Vec<Address> {
        self.contracts.read().keys().copied().collect()
    }

    /// Number of deployed contracts.
    pub fn contract_count(&self) -> usize {
        self.contracts.read().len()
    }

    /// Executes one contract call inside the given transaction and returns
    /// its receipt.
    ///
    /// Contract-level failures (`throw`, out of gas, bad call) roll back
    /// the call's tentative storage changes via the transaction's undo log
    /// — while keeping its abstract locks, so the failed call still
    /// participates in the block's happens-before order — and produce a
    /// non-successful receipt.
    ///
    /// The transaction itself is *not* committed or aborted here; that is
    /// the caller's (miner's / validator's) decision.
    ///
    /// # Errors
    ///
    /// Returns an [`StmError`] only when the speculative runtime requires
    /// the whole transaction to abort and retry (deadlock victim).
    pub fn execute(
        &self,
        txn: &Transaction,
        tx_index: usize,
        msg: Msg,
        to: Address,
        call: &CallData,
        gas_limit: u64,
    ) -> Result<Receipt, StmError> {
        self.execute_in(TxnRef::Stm(txn), tx_index, msg, to, call, gas_limit)
    }

    /// [`World::execute`] generalized over the concurrency-control seam:
    /// runs the call under whichever transaction flavor `txn` carries.
    /// Optimistic transactions cannot fail mid-execution (conflicts only
    /// surface when the miner commits), so under [`TxnRef::Mvcc`] this
    /// always returns `Ok`.
    ///
    /// # Errors
    ///
    /// Returns an [`StmError`] only when a pessimistic transaction is
    /// chosen as a deadlock victim and must retry.
    pub fn execute_in(
        &self,
        txn: TxnRef<'_>,
        tx_index: usize,
        msg: Msg,
        to: Address,
        call: &CallData,
        gas_limit: u64,
    ) -> Result<Receipt, StmError> {
        let mut meter = GasMeter::new(gas_limit, self.gas_schedule);
        let registry = self.registry();
        let savepoint = txn.savepoint();
        let mut ctx = CallContext::root(txn, &registry, msg, to, &mut meter);
        let outcome = ctx.charge_tx_base().and_then(|()| match registry.get(&to) {
            Some(contract) => contract.call(&mut ctx, call),
            None => Err(VmError::UnknownContract),
        });
        let events = ctx.into_events();
        // A nested out-of-gas leaves the one meter overdrawn even when a
        // caller swallowed the error: the transaction still ran out.
        let outcome = outcome.and_then(|output| meter.charge(0).map(|()| output));

        match outcome {
            Ok(output) => Ok(Receipt {
                tx_index,
                status: ExecutionStatus::Succeeded,
                gas_used: meter.used(),
                output,
                events,
            }),
            Err(err) => {
                if let VmError::Stm(stm_err) = &err {
                    if stm_err.is_retryable() {
                        return Err(stm_err.clone());
                    }
                }
                // Contract-level failure: discard tentative effects but keep
                // the locks (Solidity `throw` semantics under boosting).
                txn.rollback_to(savepoint);
                Ok(Receipt {
                    tx_index,
                    status: ExecutionStatus::from_error(&err),
                    gas_used: meter.used().min(gas_limit),
                    output: Default::default(),
                    events: Vec::new(),
                })
            }
        }
    }

    /// Convenience wrapper around [`World::execute`] for callers that do
    /// not track a block position (doctests, examples).
    ///
    /// # Panics
    ///
    /// Panics if the speculative runtime demands a retry; use
    /// [`World::execute`] in miner code.
    pub fn call(
        &self,
        txn: &Transaction,
        msg: Msg,
        to: Address,
        call: &CallData,
        gas_limit: u64,
    ) -> Receipt {
        self.execute(txn, 0, msg, to, call, gas_limit)
            .expect("unexpected speculative conflict in direct call")
    }

    /// Snapshot of every deployed contract's state.
    pub fn snapshot(&self) -> WorldSnapshot {
        WorldSnapshot::new(
            self.contracts
                .read()
                .values()
                .map(|c| c.snapshot())
                .collect(),
        )
    }

    /// The state root committing to the current world state: the hash of
    /// every contract's digest in address order (see [`crate::commit`]
    /// for the full definition).
    ///
    /// Incremental: only storage written since the previous root —
    /// transactionally, by undo replay, by seeding or by flattening a
    /// multi-version overlay — is re-hashed; clean fields answer from
    /// their cached digests. Like [`World::snapshot`] it reads base state
    /// non-transactionally, so callers quiesce execution first (every
    /// miner, validator and pending-chain commit does).
    ///
    /// This is [`World::state_root_on`] on a pool of the caller alone.
    pub fn state_root(&self) -> Hash256 {
        self.state_root_on(&WorkerPool::new(1))
    }

    /// [`World::state_root`], re-hashing the dirty fields on `pool`: one
    /// run whose workers each claim the next dirty field, then the
    /// contract digests folded in address order on the caller, every
    /// field answering from its cache. The root does not depend on the
    /// pool; a root with nothing dirty never leaves the calling thread.
    pub fn state_root_on(&self, pool: &WorkerPool) -> Hash256 {
        let contracts = self.contracts.read();
        let dirty: Vec<_> = (contracts.values().flat_map(|c| c.storage_fields()))
            .filter(|field| field.is_dirty())
            .collect();
        let next = AtomicUsize::new(0);
        pool.run(dirty.len(), |_| {
            while let Some(field) = dirty.get(next.fetch_add(1, Ordering::Relaxed)) {
                field.digest(&self.root_counters);
            }
        });
        let mut hasher = Sha256::new();
        hasher.update_u64(contracts.len() as u64);
        for contract in contracts.values() {
            hasher.update(contract_digest(contract.as_ref(), &self.root_counters).as_bytes());
        }
        hasher.finalize()
    }

    /// How much work this world's state roots have done so far: leaves
    /// re-hashed, entries re-encoded, bytes hashed and trees built.
    pub fn root_stats(&self) -> StateRootStats {
        self.root_counters.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abi::{ArgValue, ReturnValue};
    use crate::testing::{CounterContract, ProxyContract};
    use crate::value::Wei;

    fn world_with_counter() -> (World, Address) {
        let world = World::new();
        let addr = Address::from_name("counter");
        world.deploy(Arc::new(CounterContract::new(addr)));
        (world, addr)
    }

    #[test]
    fn successful_call_produces_receipt_and_state() {
        let (world, addr) = world_with_counter();
        let txn = world.stm().begin();
        let receipt = world
            .execute(
                &txn,
                0,
                Msg::from_sender(Address::from_index(1)),
                addr,
                &CallData::new("increment", vec![ArgValue::Uint(3)]),
                1_000_000,
            )
            .unwrap();
        txn.commit().unwrap();
        assert!(receipt.succeeded());
        assert!(receipt.gas_used >= 21_000);
        let counter = world.contract(addr).unwrap();
        let snap = counter.snapshot();
        assert_eq!(snap.kind, "Counter");
    }

    #[test]
    fn revert_rolls_back_but_keeps_receipt() {
        let (world, addr) = world_with_counter();
        let root_before = world.state_root();
        let txn = world.stm().begin();
        let receipt = world
            .execute(
                &txn,
                1,
                Msg::from_sender(Address::from_index(1)),
                addr,
                &CallData::new("increment_then_fail", vec![ArgValue::Uint(3)]),
                1_000_000,
            )
            .unwrap();
        txn.commit().unwrap();
        assert!(matches!(receipt.status, ExecutionStatus::Reverted { .. }));
        assert_eq!(
            world.state_root(),
            root_before,
            "state unchanged after revert"
        );
    }

    #[test]
    fn unknown_contract_and_function() {
        let (world, addr) = world_with_counter();
        let txn = world.stm().begin();
        let r1 = world
            .execute(
                &txn,
                0,
                Msg::from_sender(Address::from_index(1)),
                Address::from_index(99),
                &CallData::nullary("anything"),
                1_000_000,
            )
            .unwrap();
        assert!(matches!(r1.status, ExecutionStatus::Invalid { .. }));
        let r2 = world
            .execute(
                &txn,
                1,
                Msg::from_sender(Address::from_index(1)),
                addr,
                &CallData::nullary("not_a_function"),
                1_000_000,
            )
            .unwrap();
        assert!(matches!(r2.status, ExecutionStatus::Invalid { .. }));
        txn.commit().unwrap();
    }

    #[test]
    fn out_of_gas_is_reported_and_rolled_back() {
        let (world, addr) = world_with_counter();
        let txn = world.stm().begin();
        let receipt = world
            .execute(
                &txn,
                0,
                Msg::from_sender(Address::from_index(1)),
                addr,
                &CallData::new("increment", vec![ArgValue::Uint(3)]),
                21_100, // enough for the base charge but not the stores
            )
            .unwrap();
        txn.commit().unwrap();
        assert_eq!(receipt.status, ExecutionStatus::OutOfGas);
        let counter = world.contract(addr).unwrap();
        assert!(counter
            .snapshot()
            .fields
            .iter()
            .all(|f| f.entries().all(|(_, v)| v.iter().all(|&b| b == 0))));
    }

    /// Runs `call` on `to` in a transaction of its own under the chosen
    /// flavour and commits it.
    fn run_in(world: &World, mvcc: bool, to: Address, call: &CallData, gas_limit: u64) -> Receipt {
        let msg = Msg::from_sender(Address::from_index(5));
        if mvcc {
            let txn = world.mvcc().begin();
            let receipt = world
                .execute_in(TxnRef::Mvcc(&txn), 0, msg, to, call, gas_limit)
                .unwrap();
            txn.commit().unwrap();
            world.mvcc().finalize_block();
            receipt
        } else {
            let txn = world.stm().begin();
            let receipt = world.execute(&txn, 0, msg, to, call, gas_limit).unwrap();
            txn.commit().unwrap();
            receipt
        }
    }

    /// `world` with a counter and a proxy in front of it deployed.
    fn with_proxy(world: World) -> (World, Address, Address) {
        let counter_addr = Address::from_name("counter");
        world.deploy(Arc::new(CounterContract::new(counter_addr)));
        let proxy_addr = Address::from_name("proxy");
        world.deploy(Arc::new(ProxyContract::new(proxy_addr, counter_addr)));
        (world, counter_addr, proxy_addr)
    }

    #[test]
    fn cross_contract_call_through_proxy() {
        let increment = CallData::new("increment", vec![ArgValue::Uint(4)]);
        let proxied = CallData::new("proxy_increment", vec![ArgValue::Uint(4)]);
        for mvcc in [false, true] {
            let (world, counter_addr, proxy_addr) = with_proxy(World::new());
            let receipt = run_in(&world, mvcc, proxy_addr, &proxied, 1_000_000);
            assert!(receipt.succeeded());
            assert_eq!(receipt.output, ReturnValue::Uint(4));
            // One meter for the call tree: the callee's bill, the call and
            // the proxy's own `modify` of its counter, to the unit.
            let direct = run_in(&world, mvcc, counter_addr, &increment, 1_000_000);
            let prices = world.gas_schedule();
            assert_eq!(
                receipt.gas_used,
                direct.gas_used + prices.call + prices.sload + prices.sstore,
                "mvcc: {mvcc}"
            );
        }
    }

    #[test]
    fn nested_failure_does_not_abort_parent() {
        let try_both = CallData::new("proxy_try_both", vec![ArgValue::Uint(4)]);
        for mvcc in [false, true] {
            let (world, counter_addr, proxy_addr) = with_proxy(World::new());
            // The proxy swallows the callee's failure and reports how
            // many nested calls succeeded.
            let receipt = run_in(&world, mvcc, proxy_addr, &try_both, 1_000_000);
            assert!(receipt.succeeded());
            assert_eq!(receipt.output, ReturnValue::Uint(1));
            // The failed child's charges stay on the bill: both children
            // cost what they cost when called directly, less the base
            // charge, plus a call each.
            let prices = world.gas_schedule();
            let children: u64 = ["increment", "increment_then_fail"]
                .map(|f| CallData::new(f, vec![ArgValue::Uint(4)]))
                .iter()
                .map(|call| run_in(&world, mvcc, counter_addr, call, 1_000_000).gas_used)
                .map(|gas| gas - prices.tx_base + prices.call)
                .sum();
            assert_eq!(receipt.gas_used, prices.tx_base + children, "mvcc: {mvcc}");
        }
    }

    /// A child's out-of-gas that the parent swallows still runs the
    /// transaction out: at every limit below the full bill the receipt is
    /// `OutOfGas` at the limit and the state is unmoved.
    #[test]
    fn a_swallowed_nested_out_of_gas_fails_the_transaction() {
        let try_both = CallData::new("proxy_try_both", vec![ArgValue::Uint(4)]);
        for mvcc in [false, true] {
            // The same prices without the stand-in load: the sweep runs
            // ~22 000 transactions per flavour.
            let world = World::with_gas_schedule(GasSchedule::without_synthetic_load());
            let (world, _, proxy_addr) = with_proxy(world);
            let full = run_in(&world, mvcc, proxy_addr, &try_both, 1_000_000).gas_used;
            assert_eq!(full, 43_175);
            for limit in 21_000..=full {
                let root = world.state_root();
                let receipt = run_in(&world, mvcc, proxy_addr, &try_both, limit);
                if receipt.succeeded() {
                    assert!(receipt.gas_used <= limit);
                } else {
                    assert_eq!(receipt.status, ExecutionStatus::OutOfGas, "limit {limit}");
                    assert_eq!(receipt.gas_used, limit);
                    assert_eq!(world.state_root(), root, "limit {limit}");
                }
                assert_eq!(receipt.succeeded(), limit == full, "limit {limit}");
            }
        }
    }

    #[test]
    fn optimistic_execution_matches_pessimistic_state() {
        let (world, addr) = world_with_counter();
        let msg = Msg::from_sender(Address::from_index(1));
        let call = CallData::new("increment", vec![ArgValue::Uint(3)]);

        let txn = world.mvcc().begin();
        let receipt = world
            .execute_in(TxnRef::Mvcc(&txn), 0, msg, addr, &call, 1_000_000)
            .unwrap();
        let commit = txn.commit().unwrap();
        assert!(!commit.read_only);
        world.mvcc().finalize_block();

        // A pessimistic twin world executing the same call lands on the
        // same state root and gas usage.
        let (twin, twin_addr) = world_with_counter();
        let stm_txn = twin.stm().begin();
        let twin_receipt = twin
            .execute(&stm_txn, 0, msg, twin_addr, &call, 1_000_000)
            .unwrap();
        stm_txn.commit().unwrap();

        assert!(receipt.succeeded());
        assert_eq!(receipt.gas_used, twin_receipt.gas_used);
        assert_eq!(receipt.output, twin_receipt.output);
        assert_eq!(world.state_root(), twin.state_root());
    }

    #[test]
    fn optimistic_revert_rolls_back_buffered_writes() {
        let (world, addr) = world_with_counter();
        let root_before = world.state_root();
        let txn = world.mvcc().begin();
        let receipt = world
            .execute_in(
                TxnRef::Mvcc(&txn),
                0,
                Msg::from_sender(Address::from_index(1)),
                addr,
                &CallData::new("increment_then_fail", vec![ArgValue::Uint(3)]),
                1_000_000,
            )
            .unwrap();
        let commit = txn.commit().unwrap();
        assert!(matches!(receipt.status, ExecutionStatus::Reverted { .. }));
        assert!(
            commit.read_only,
            "a fully rolled-back optimistic transaction commits as a reader"
        );
        world.mvcc().finalize_block();
        assert_eq!(world.state_root(), root_before);
    }

    #[test]
    #[should_panic(expected = "already deployed")]
    fn double_deploy_panics() {
        let (world, addr) = world_with_counter();
        world.deploy(Arc::new(CounterContract::new(addr)));
    }

    #[test]
    fn value_transfer_is_visible_to_callee() {
        let (world, addr) = world_with_counter();
        let txn = world.stm().begin();
        let receipt = world
            .execute(
                &txn,
                0,
                Msg::with_value(Address::from_index(1), Wei::new(250)),
                addr,
                &CallData::nullary("deposit"),
                1_000_000,
            )
            .unwrap();
        txn.commit().unwrap();
        assert!(receipt.succeeded());
        assert_eq!(receipt.output, ReturnValue::Amount(Wei::new(250)));
    }

    #[test]
    fn registry_cache_sees_later_deploys() {
        let (world, counter_addr) = world_with_counter();
        // Warm this thread's cache, then deploy another contract.
        assert_eq!(world.registry().len(), 1);
        let proxy_addr = Address::from_name("late-proxy");
        world.deploy(Arc::new(ProxyContract::new(proxy_addr, counter_addr)));
        // The generation bump invalidates the cached snapshot.
        let registry = world.registry();
        assert_eq!(registry.len(), 2);
        assert!(registry.contains_key(&proxy_addr));
        // A different world on the same thread gets its own snapshot.
        let (other, other_addr) = world_with_counter();
        assert_eq!(other.registry().len(), 1);
        assert!(other.registry().contains_key(&other_addr));
        assert_eq!(world.registry().len(), 2);
    }

    /// With the registry cache warm, executing a transaction — nested
    /// calls included — crosses zero `RwLock`s: contract resolution is an
    /// atomic generation check and storage is boosted (raw tables guarded
    /// by abstract locks). Uses the debug-only acquisition counter the
    /// `parking_lot` shim exposes.
    #[cfg(debug_assertions)]
    #[test]
    fn steady_state_execution_crosses_zero_rwlocks() {
        let (world, counter_addr) = world_with_counter();
        let proxy_addr = Address::from_name("proxy-lockfree");
        world.deploy(Arc::new(ProxyContract::new(proxy_addr, counter_addr)));

        let run = |i: usize| {
            let txn = world.stm().begin();
            let receipt = world
                .execute(
                    &txn,
                    i,
                    Msg::from_sender(Address::from_index(1)),
                    proxy_addr,
                    &CallData::new("proxy_increment", vec![ArgValue::Uint(1)]),
                    1_000_000,
                )
                .unwrap();
            txn.commit().unwrap();
            assert!(receipt.succeeded());
        };
        // First execution warms the thread-local registry cache (and any
        // lazily-initialized storage overlays).
        run(0);
        let before = parking_lot::rwlock_acquisition_count();
        run(1);
        run(2);
        assert_eq!(
            parking_lot::rwlock_acquisition_count() - before,
            0,
            "steady-state execution must not acquire any RwLock"
        );
    }

    #[test]
    fn root_stats_count_what_the_roots_re_hashed() {
        let (world, addr) = world_with_counter();
        let genesis = world.state_root();
        let at_genesis = world.root_stats();
        // Empty maps build no tree; the deposit cell, a seeded one-entry
        // map, builds one with one leaf.
        assert_eq!((at_genesis.cold_builds, at_genesis.dirty_leaves), (1, 1));
        assert_eq!(at_genesis.entries_rehashed, 1);

        let txn = world.stm().begin();
        world.call(
            &txn,
            Msg::from_sender(Address::from_index(1)),
            addr,
            &CallData::new("increment", vec![ArgValue::Uint(3)]),
            1_000_000,
        );
        txn.commit().unwrap();
        assert_ne!(world.state_root(), genesis);
        let block = world.root_stats().since(&at_genesis);
        // `counts[sender]` and `total[0]`: one leaf, one entry, one new
        // tree each; the untouched deposit cell answers from its cache.
        assert_eq!(
            (
                block.dirty_leaves,
                block.entries_rehashed,
                block.cold_builds
            ),
            (2, 2, 2)
        );
        assert!(block.bytes_hashed > 0);
        // Each leaf's walk reads its lone entry's slot and the empty slot
        // after it.
        assert_eq!(block.slots_visited, 4);

        let before = world.root_stats();
        world.state_root();
        assert_eq!(
            world.root_stats(),
            before,
            "a clean world re-hashes nothing"
        );
    }

    /// A root spread over a pool is the caller's root, doing the same
    /// work: fields are independent, whoever hashes them.
    #[test]
    fn a_pooled_root_equals_the_callers() {
        let worlds = [world_with_counter(), world_with_counter()];
        for (world, addr) in &worlds {
            for sender in 0..300 {
                let txn = world.stm().begin();
                world.call(
                    &txn,
                    Msg::from_sender(Address::from_index(sender)),
                    *addr,
                    &CallData::new("increment", vec![ArgValue::Uint(1)]),
                    1_000_000,
                );
                txn.commit().unwrap();
            }
        }
        let pool = WorkerPool::new(3);
        let pooled = worlds[0].0.state_root_on(&pool);
        assert_eq!(pooled, worlds[1].0.state_root());
        assert_eq!(worlds[0].0.root_stats(), worlds[1].0.root_stats());
        // Three dirty fields (two maps and the never-hashed cell) on
        // three workers: two helper wake-ups. Nothing is dirty after.
        assert_eq!(pool.stats().helper_wakes, 2);
        assert_eq!(worlds[0].0.state_root_on(&pool), pooled);
        assert_eq!(pool.stats().caller_only_runs, 1);
    }

    #[test]
    fn addresses_and_counts() {
        let (world, addr) = world_with_counter();
        assert_eq!(world.addresses(), vec![addr]);
        assert_eq!(world.contract_count(), 1);
        assert!(world.contract(Address::ZERO).is_none());
    }
}
