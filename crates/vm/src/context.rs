//! The per-call execution context handed to contract code.

use crate::abi::{ArgValue, CallData, ReturnValue};
use crate::address::Address;
use crate::error::VmError;
use crate::event::Event;
use crate::gas::GasMeter;
use crate::msg::Msg;
use crate::world::Contracts;
use cc_mvcc::{MvccSavepoint, MvccTxn};
use cc_stm::{Savepoint, Transaction};

/// Maximum depth of nested contract calls (Ethereum's limit is 1024; a
/// small bound is plenty for the reproduced workloads and keeps runaway
/// recursion from overflowing the stack).
pub const MAX_CALL_DEPTH: usize = 64;

/// The concurrency-control seam: a borrowed handle to whichever
/// transaction flavor the block is being executed under.
///
/// Contract code never sees this distinction — the storage wrappers
/// dispatch each operation to the pessimistic boosted collection
/// ([`cc_stm::Transaction`]) or the optimistic versioned overlay
/// ([`cc_mvcc::MvccTxn`]) behind the same gas-charging API, and both
/// flavors support the savepoint/nested-action semantics the VM relies on
/// for Solidity `throw` handling.
#[derive(Clone, Copy)]
pub enum TxnRef<'a> {
    /// A pessimistic transactional-boosting transaction (abstract locks,
    /// in-place writes, typed undo log).
    Stm(&'a Transaction),
    /// An optimistic multi-version transaction (snapshot reads, buffered
    /// writes, first-committer-wins validation).
    Mvcc(&'a MvccTxn<'a>),
}

/// A rollback point valid for the transaction flavor it was taken from.
#[derive(Debug, Clone, Copy)]
pub enum TxnSavepoint {
    /// Position in a pessimistic transaction's undo log.
    Stm(Savepoint),
    /// Position in an optimistic transaction's write-buffer journal.
    Mvcc(MvccSavepoint),
}

impl<'a> TxnRef<'a> {
    /// Marks a rollback point: storage effects after it can be undone
    /// while the transaction keeps its footprint (locks taken, keys read).
    pub fn savepoint(self) -> TxnSavepoint {
        match self {
            TxnRef::Stm(txn) => TxnSavepoint::Stm(txn.savepoint()),
            TxnRef::Mvcc(txn) => TxnSavepoint::Mvcc(txn.savepoint()),
        }
    }

    /// Rolls tentative storage effects back to `savepoint`.
    ///
    /// # Panics
    ///
    /// Panics if the savepoint came from the other transaction flavor.
    pub fn rollback_to(self, savepoint: TxnSavepoint) {
        match (self, savepoint) {
            (TxnRef::Stm(txn), TxnSavepoint::Stm(sp)) => txn.rollback_to(sp),
            (TxnRef::Mvcc(txn), TxnSavepoint::Mvcc(sp)) => txn.rollback_to(sp),
            _ => panic!("savepoint taken under a different concurrency-control flavor"),
        }
    }

    /// Runs `body` as a nested speculative action: when it fails, its
    /// storage effects are rolled back (and, under pessimistic control,
    /// the locks it newly acquired are released) without aborting the
    /// enclosing transaction.
    ///
    /// # Errors
    ///
    /// Propagates `body`'s error after undoing its effects.
    pub fn nested<R, E>(self, body: impl FnOnce(TxnRef<'_>) -> Result<R, E>) -> Result<R, E> {
        match self {
            TxnRef::Stm(txn) => txn.nested(|child| body(TxnRef::Stm(child))),
            TxnRef::Mvcc(txn) => txn.nested(|child| body(TxnRef::Mvcc(child))),
        }
    }
}

impl std::fmt::Debug for TxnRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxnRef::Stm(_) => f.write_str("TxnRef::Stm"),
            TxnRef::Mvcc(txn) => write!(f, "TxnRef::Mvcc@{}", txn.begin_ts()),
        }
    }
}

/// Everything a contract function needs while executing: the enclosing
/// speculative transaction, the `msg` context, the gas meter, the event
/// sink and the ability to call other contracts.
///
/// A transaction's call tree runs on one thread (paper §3: a nested call
/// is a nested action of the same transaction), so a context borrows
/// rather than shares: the one [`GasMeter`] of the transaction, owned by
/// [`World::execute_in`](crate::World::execute_in) and reborrowed by every
/// nested call, and the deployed contracts, resolved from the world's
/// registry once per transaction.
///
/// Contract code receives `&mut CallContext` and uses
/// [`crate::StorageMap`]-style wrappers (which charge gas and go through
/// the boosted collections) for all persistent state.
pub struct CallContext<'a> {
    txn: TxnRef<'a>,
    contracts: &'a Contracts,
    msg: Msg,
    this: Address,
    gas: &'a mut GasMeter,
    events: Vec<Event>,
    depth: usize,
}

impl<'a> CallContext<'a> {
    /// Creates the root context for one transaction.
    pub(crate) fn root(
        txn: TxnRef<'a>,
        contracts: &'a Contracts,
        msg: Msg,
        this: Address,
        gas: &'a mut GasMeter,
    ) -> Self {
        CallContext {
            txn,
            contracts,
            msg,
            this,
            gas,
            events: Vec::new(),
            depth: 0,
        }
    }

    /// The enclosing speculative (or replay) transaction.
    pub fn txn(&self) -> TxnRef<'a> {
        self.txn
    }

    /// The invocation context (`msg.sender`, `msg.value`).
    pub fn msg(&self) -> Msg {
        self.msg
    }

    /// Shorthand for `msg().sender`.
    pub fn sender(&self) -> Address {
        self.msg.sender
    }

    /// The address of the currently executing contract (`this`).
    pub fn this(&self) -> Address {
        self.this
    }

    /// Current nested-call depth (0 for the outermost call).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Gas consumed so far by the whole transaction (across nested calls).
    pub fn gas_used(&self) -> u64 {
        self.gas.used()
    }

    /// Charges `gas` and then performs the synthetic interpretation work
    /// of `work` gas units (see [`crate::load`]).
    fn pay(&mut self, gas: u64, work: u64) -> Result<(), VmError> {
        self.gas.charge(gas)?;
        crate::load::synthetic_load(work.saturating_mul(self.gas.schedule().work_per_gas));
        Ok(())
    }

    /// Charges `amount` gas.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::OutOfGas`] when the limit is exceeded.
    pub fn charge(&mut self, amount: u64) -> Result<(), VmError> {
        self.pay(amount, amount)
    }

    /// Charges the base cost of a transaction. The base charge represents
    /// intrinsic per-transaction overhead (calldata handling, signature
    /// checking); it carries a reduced interpretation load (one quarter of
    /// its gas) since most of it is not contract-body execution.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::OutOfGas`] when the limit is exceeded.
    pub fn charge_tx_base(&mut self) -> Result<(), VmError> {
        let base = self.gas.schedule().tx_base;
        self.pay(base, base / 4)
    }

    /// Charges a storage read.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::OutOfGas`] when the limit is exceeded.
    pub fn charge_sload(&mut self) -> Result<(), VmError> {
        self.charge(self.gas.schedule().sload)
    }

    /// Charges a storage write.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::OutOfGas`] when the limit is exceeded.
    pub fn charge_sstore(&mut self) -> Result<(), VmError> {
        self.charge(self.gas.schedule().sstore)
    }

    /// Charges `n` computation steps.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::OutOfGas`] when the limit is exceeded.
    pub fn charge_steps(&mut self, n: u64) -> Result<(), VmError> {
        self.charge(self.gas.schedule().step.saturating_mul(n))
    }

    /// Emits an event. Events are attached to the receipt only if the call
    /// (and its ancestors) complete successfully.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::OutOfGas`] when charging the log cost exceeds the
    /// limit.
    pub fn emit(&mut self, name: &str, data: Vec<ArgValue>) -> Result<(), VmError> {
        self.charge(self.gas.schedule().log)?;
        self.events.push(Event::new(self.this, name, data));
        Ok(())
    }

    /// The events accumulated by the call tree (used by
    /// [`World::execute_in`](crate::World::execute_in) when building the
    /// receipt).
    pub(crate) fn into_events(self) -> Vec<Event> {
        self.events
    }

    /// Aborts the current call with a `throw`, exactly like Solidity's
    /// `throw` statement: the caller of [`World::call`](crate::World::call)
    /// rolls back all tentative storage changes of this call.
    ///
    /// # Errors
    ///
    /// Always returns [`VmError::Revert`]; provided so contract code can
    /// write `return ctx.throw("reason")`.
    pub fn throw<T>(&self, reason: &str) -> Result<T, VmError> {
        Err(VmError::revert(reason))
    }

    /// Calls another contract as a **nested speculative action** (paper
    /// §3): if the callee throws, its storage effects are rolled back and
    /// the locks it acquired are released, without aborting this (parent)
    /// call — the parent decides whether to propagate the failure. The
    /// callee's gas stays on the transaction's one meter either way.
    ///
    /// # Errors
    ///
    /// * [`VmError::UnknownContract`] if no contract is deployed at `to`;
    /// * [`VmError::OutOfGas`] if the call cost cannot be paid;
    /// * whatever error the callee produced (after its effects were undone);
    /// * STM conflicts are propagated untouched so the whole transaction
    ///   can retry.
    pub fn call_contract(
        &mut self,
        to: Address,
        call: &CallData,
        value: crate::value::Wei,
    ) -> Result<ReturnValue, VmError> {
        if self.depth + 1 >= MAX_CALL_DEPTH {
            return Err(VmError::revert("max call depth exceeded"));
        }
        self.charge(self.gas.schedule().call)?;
        let contracts = self.contracts;
        let callee = contracts.get(&to).ok_or(VmError::UnknownContract)?;
        let mut child = CallContext {
            txn: self.txn,
            contracts,
            msg: Msg {
                sender: self.this,
                value,
            },
            this: to,
            gas: &mut *self.gas,
            events: Vec::new(),
            depth: self.depth + 1,
        };
        let ret = self.txn.nested(|_| callee.call(&mut child, call))?;
        // Child events become visible only through the parent.
        self.events.append(&mut child.events);
        Ok(ret)
    }
}

impl std::fmt::Debug for CallContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CallContext")
            .field("this", &self.this)
            .field("sender", &self.msg.sender)
            .field("depth", &self.depth)
            .field("gas_used", &self.gas_used())
            .field("events", &self.events.len())
            .finish()
    }
}
