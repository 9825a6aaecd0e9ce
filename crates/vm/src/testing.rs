//! Small contracts used by this crate's own tests, doctests and
//! downstream smoke tests. The real benchmark contracts (Ballot,
//! SimpleAuction, EtherDoc) live in the `cc-contracts` crate.

use crate::abi::{ArgValue, CallData, ReturnValue};
use crate::address::Address;
use crate::context::CallContext;
use crate::contract::{Contract, ContractKind};
use crate::error::VmError;
use crate::storage::{StorageCell, StorageField, StorageMap};
use crate::value::Wei;

/// A tiny contract with a per-sender counter, a global total and a
/// deposit box — enough surface to exercise every storage wrapper, gas
/// accounting, revert and events. Counts and total wrap alike, so
/// Σ counts == total (mod 2^64) in debug and release builds.
#[derive(Debug)]
pub struct CounterContract {
    address: Address,
    counts: StorageMap<Address, u64>,
    total: StorageMap<u8, u64>,
    deposits: StorageCell<u128>,
}

impl CounterContract {
    /// Deploys the counter at `address`.
    pub fn new(address: Address) -> Self {
        let tag = address.to_hex();
        CounterContract {
            address,
            counts: StorageMap::new(&format!("Counter.counts.{tag}")),
            total: StorageMap::new(&format!("Counter.total.{tag}")),
            deposits: StorageCell::new(&format!("Counter.deposits.{tag}"), 0),
        }
    }

    /// Non-transactional view of a sender's count (tests only).
    pub fn count_of(&self, sender: &Address) -> u64 {
        self.counts.peek(sender).unwrap_or(0)
    }

    /// Non-transactional view of the global total (tests only).
    pub fn total(&self) -> u64 {
        self.total.peek(&0).unwrap_or(0)
    }
}

/// The `uint64` delta of `increment` calls: a wider value is a bad
/// call, not one that wraps.
fn delta(call: &CallData) -> Result<u64, VmError> {
    let delta = call.arg(0)?.as_uint()?;
    u64::try_from(delta).map_err(|_| VmError::BadArguments {
        expected: format!("uint64, got {delta}"),
    })
}

impl Contract for CounterContract {
    fn kind(&self) -> ContractKind {
        ContractKind("Counter")
    }

    fn address(&self) -> Address {
        self.address
    }

    fn call(&self, ctx: &mut CallContext<'_>, call: &CallData) -> Result<ReturnValue, VmError> {
        match call.function.as_str() {
            "increment" => {
                let delta = delta(call)?;
                let sender = ctx.sender();
                self.counts
                    .update_or(ctx, sender, 0, |c| *c = c.wrapping_add(delta))?;
                self.total.add(ctx, 0, delta)?;
                ctx.emit("Incremented", vec![ArgValue::Uint(u128::from(delta))])?;
                Ok(ReturnValue::Uint(u128::from(delta)))
            }
            "increment_then_fail" => {
                let delta = delta(call)?;
                let sender = ctx.sender();
                self.counts
                    .update_or(ctx, sender, 0, |c| *c = c.wrapping_add(delta))?;
                self.total.add(ctx, 0, delta)?;
                ctx.throw("deliberate failure after mutation")
            }
            "get" => {
                let who = call.arg(0)?.as_address()?;
                let count = self.counts.get(ctx, &who)?.unwrap_or(0);
                Ok(ReturnValue::Uint(u128::from(count)))
            }
            "total" => {
                let total = self.total.get(ctx, &0)?.unwrap_or(0);
                Ok(ReturnValue::Uint(u128::from(total)))
            }
            "deposit" => {
                let value = ctx.msg().value;
                self.deposits.modify(ctx, |d| *d += value.amount())?;
                Ok(ReturnValue::Amount(Wei::new(self.deposits.get(ctx)?)))
            }
            other => Err(VmError::UnknownFunction {
                function: other.to_string(),
            }),
        }
    }

    fn storage_fields(&self) -> Vec<&dyn StorageField> {
        vec![&self.counts, &self.total, &self.deposits]
    }
}

/// A contract that forwards calls to a [`CounterContract`], used to test
/// nested speculative actions.
#[derive(Debug)]
pub struct ProxyContract {
    address: Address,
    target: Address,
    forwarded: StorageCell<u64>,
}

impl ProxyContract {
    /// Deploys a proxy at `address` pointing at `target`.
    pub fn new(address: Address, target: Address) -> Self {
        ProxyContract {
            address,
            target,
            forwarded: StorageCell::new(&format!("Proxy.forwarded.{}", address.to_hex()), 0),
        }
    }
}

impl Contract for ProxyContract {
    fn kind(&self) -> ContractKind {
        ContractKind("Proxy")
    }

    fn address(&self) -> Address {
        self.address
    }

    fn call(&self, ctx: &mut CallContext<'_>, call: &CallData) -> Result<ReturnValue, VmError> {
        match call.function.as_str() {
            // Forward an increment to the target contract.
            "proxy_increment" => {
                let delta = call.arg(0)?.as_uint()?;
                self.forwarded.modify(ctx, |n| *n += 1)?;
                ctx.call_contract(
                    self.target,
                    &CallData::new("increment", vec![ArgValue::Uint(delta)]),
                    Wei::ZERO,
                )
            }
            // Make two nested calls, the second of which fails; swallow the
            // failure and report how many succeeded. Exercises child-abort
            // without parent-abort.
            "proxy_try_both" => {
                let delta = call.arg(0)?.as_uint()?;
                let mut succeeded = 0u128;
                if ctx
                    .call_contract(
                        self.target,
                        &CallData::new("increment", vec![ArgValue::Uint(delta)]),
                        Wei::ZERO,
                    )
                    .is_ok()
                {
                    succeeded += 1;
                }
                if ctx
                    .call_contract(
                        self.target,
                        &CallData::new("increment_then_fail", vec![ArgValue::Uint(delta)]),
                        Wei::ZERO,
                    )
                    .is_ok()
                {
                    succeeded += 1;
                }
                Ok(ReturnValue::Uint(succeeded))
            }
            other => Err(VmError::UnknownFunction {
                function: other.to_string(),
            }),
        }
    }

    fn storage_fields(&self) -> Vec<&dyn StorageField> {
        vec![&self.forwarded]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::TxnRef;
    use crate::msg::Msg;
    use crate::receipt::ExecutionStatus;
    use crate::world::World;
    use std::sync::Arc;

    #[test]
    fn counter_state_helpers() {
        let world = World::new();
        let addr = Address::from_name("counter-helpers");
        let counter = Arc::new(CounterContract::new(addr));
        world.deploy(counter.clone());

        let sender = Address::from_index(3);
        let txn = world.stm().begin();
        world.call(
            &txn,
            Msg::from_sender(sender),
            addr,
            &CallData::new("increment", vec![ArgValue::Uint(2)]),
            1_000_000,
        );
        world.call(
            &txn,
            Msg::from_sender(sender),
            addr,
            &CallData::new("increment", vec![ArgValue::Uint(5)]),
            1_000_000,
        );
        txn.commit().unwrap();
        assert_eq!(counter.count_of(&sender), 7);
        assert_eq!(counter.total(), 7);
    }

    /// Runs `increment(u64::MAX)` from `sender` as one committed
    /// transaction of the chosen flavour and reports whether it succeeded.
    fn increment_max(world: &World, addr: Address, sender: Address, optimistic: bool) -> bool {
        let call = CallData::new("increment", vec![ArgValue::Uint(u128::from(u64::MAX))]);
        let msg = Msg::from_sender(sender);
        let receipt = if optimistic {
            let txn = world.mvcc().begin();
            let receipt = world.execute_in(TxnRef::Mvcc(&txn), 0, msg, addr, &call, 1_000_000);
            txn.commit().unwrap();
            receipt
        } else {
            let txn = world.stm().begin();
            let receipt = world.execute_in(TxnRef::Stm(&txn), 0, msg, addr, &call, 1_000_000);
            txn.commit().unwrap();
            receipt
        };
        receipt.unwrap().succeeded()
    }

    /// A tally's sum wraps in debug and release builds alike: two
    /// senders' `increment(u64::MAX)` leave `u64::MAX - 1` under either
    /// transaction flavour. (A checked sum would fail whichever commuting
    /// add ran second.)
    #[test]
    fn total_wraps_under_both_transaction_flavours() {
        for optimistic in [false, true] {
            let world = World::new();
            let addr = Address::from_name("counter-wrap");
            let counter = Arc::new(CounterContract::new(addr));
            world.deploy(counter.clone());
            for sender in [1, 2].map(Address::from_index) {
                assert!(
                    increment_max(&world, addr, sender, optimistic),
                    "optimistic: {optimistic}"
                );
            }
            world.mvcc().finalize_block();
            assert_eq!(counter.total(), u64::MAX - 1, "optimistic: {optimistic}");
        }
    }

    /// A sender's count wraps like the total: one sender's two
    /// `increment(u64::MAX)` both succeed (no overflow panic in a debug
    /// build) and leave count and total at `u64::MAX - 1`.
    #[test]
    fn count_wraps_under_both_transaction_flavours() {
        for optimistic in [false, true] {
            let world = World::new();
            let addr = Address::from_name("counter-count-wrap");
            let counter = Arc::new(CounterContract::new(addr));
            world.deploy(counter.clone());
            let sender = Address::from_index(1);
            for call in 0..2 {
                assert!(
                    increment_max(&world, addr, sender, optimistic),
                    "optimistic: {optimistic}, call {call}"
                );
            }
            world.mvcc().finalize_block();
            assert_eq!(
                counter.count_of(&sender),
                u64::MAX - 1,
                "optimistic: {optimistic}"
            );
            assert_eq!(counter.total(), u64::MAX - 1, "optimistic: {optimistic}");
        }
    }

    #[test]
    fn get_and_total_functions() {
        let world = World::new();
        let addr = Address::from_name("counter-get");
        world.deploy(Arc::new(CounterContract::new(addr)));
        let sender = Address::from_index(3);
        let txn = world.stm().begin();
        world.call(
            &txn,
            Msg::from_sender(sender),
            addr,
            &CallData::new("increment", vec![ArgValue::Uint(2)]),
            1_000_000,
        );
        let r = world.call(
            &txn,
            Msg::from_sender(sender),
            addr,
            &CallData::new("get", vec![ArgValue::Addr(sender)]),
            1_000_000,
        );
        assert_eq!(r.output, ReturnValue::Uint(2));
        let t = world.call(
            &txn,
            Msg::from_sender(sender),
            addr,
            &CallData::nullary("total"),
            1_000_000,
        );
        assert_eq!(t.output, ReturnValue::Uint(2));
        txn.commit().unwrap();
    }

    #[test]
    fn a_delta_past_u64_is_a_bad_call_not_a_wrapped_one() {
        let world = World::new();
        let addr = Address::from_name("counter-wide");
        let counter = Arc::new(CounterContract::new(addr));
        world.deploy(counter.clone());
        let sender = Address::from_index(3);
        let txn = world.stm().begin();
        for function in ["increment", "increment_then_fail"] {
            let r = world.call(
                &txn,
                Msg::from_sender(sender),
                addr,
                &CallData::new(function, vec![ArgValue::Uint((1u128 << 64) + 3)]),
                1_000_000,
            );
            let ExecutionStatus::Invalid { reason } = r.status else {
                panic!(
                    "{function}: expected a bad-arguments call, got {}",
                    r.status
                );
            };
            assert!(reason.contains("bad arguments"), "{function}: {reason}");
        }
        txn.commit().unwrap();
        assert_eq!(counter.count_of(&sender), 0);
        assert_eq!(counter.total(), 0);
    }
}
