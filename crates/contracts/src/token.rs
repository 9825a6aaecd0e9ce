//! An ERC20-style token contract.
//!
//! Not part of the paper's benchmark suite, but a natural extension: token
//! transfers between disjoint account pairs commute (per-account balance
//! locks), while transfers touching a common account conflict — the same
//! structure the paper's workloads exhibit, on the contract most real
//! blocks are dominated by. It is used by the extra examples and by the
//! cross-contract integration tests (a `Crowdsale`-style purchase calls
//! into the token).

use cc_vm::snapshot::ToBytes;
use cc_vm::{
    Address, ArgValue, CallContext, CallData, Contract, ContractKind, ReturnValue, StorageCell,
    StorageField, StorageMap, VmError,
};

/// Key of the allowance mapping: `(owner, spender)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AllowanceKey {
    /// The account granting the allowance.
    pub owner: Address,
    /// The account allowed to spend.
    pub spender: Address,
}

impl ToBytes for AllowanceKey {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.owner.as_bytes());
        out.extend_from_slice(self.spender.as_bytes());
    }
}

/// The Token contract.
#[derive(Debug)]
pub struct Token {
    address: Address,
    minter: StorageCell<Address>,
    total_supply: StorageCell<u128>,
    balances: StorageMap<Address, u128>,
    allowances: StorageMap<AllowanceKey, u128>,
}

impl Token {
    /// Deploys a token at `address` whose `minter` may create new supply.
    pub fn new(address: Address, minter: Address) -> Self {
        let tag = address.to_hex();
        Token {
            address,
            minter: StorageCell::new(&format!("Token.minter.{tag}"), minter),
            total_supply: StorageCell::new(&format!("Token.totalSupply.{tag}"), 0),
            balances: StorageMap::new(&format!("Token.balances.{tag}")),
            allowances: StorageMap::new(&format!("Token.allowances.{tag}")),
        }
    }

    /// Seeds an account balance (initial state for tests and examples).
    pub fn seed_balance(&self, account: Address, amount: u128) {
        let previous = self.balances.peek(&account).unwrap_or(0);
        self.balances.seed(account, amount);
        self.total_supply
            .seed(self.total_supply.peek() - previous + amount);
    }

    /// Non-transactional balance view (tests only).
    pub fn balance(&self, account: &Address) -> u128 {
        self.balances.peek(account).unwrap_or(0)
    }

    /// Non-transactional total supply view (tests only).
    pub fn supply(&self) -> u128 {
        self.total_supply.peek()
    }

    // ---- contract functions -------------------------------------------------

    fn mint(
        &self,
        ctx: &mut CallContext<'_>,
        to: Address,
        amount: u128,
    ) -> Result<ReturnValue, VmError> {
        let sender = ctx.sender();
        if self.minter.with(ctx, |minter| *minter != sender)? {
            return ctx.throw("only the minter can mint");
        }
        self.balances.update_or(ctx, to, 0, |b| *b += amount)?;
        self.total_supply.modify(ctx, |s| *s += amount)?;
        ctx.emit("Minted", vec![ArgValue::Addr(to), ArgValue::Uint(amount)])?;
        Ok(ReturnValue::Unit)
    }

    fn transfer(
        &self,
        ctx: &mut CallContext<'_>,
        from: Address,
        to: Address,
        amount: u128,
    ) -> Result<ReturnValue, VmError> {
        let from_balance = self.balances.get(ctx, &from)?.unwrap_or(0);
        if from_balance < amount {
            return ctx.throw("insufficient balance");
        }
        self.balances.insert(ctx, from, from_balance - amount)?;
        self.balances.update_or(ctx, to, 0, |b| *b += amount)?;
        ctx.emit(
            "Transfer",
            vec![
                ArgValue::Addr(from),
                ArgValue::Addr(to),
                ArgValue::Uint(amount),
            ],
        )?;
        Ok(ReturnValue::Bool(true))
    }

    fn approve(
        &self,
        ctx: &mut CallContext<'_>,
        spender: Address,
        amount: u128,
    ) -> Result<ReturnValue, VmError> {
        let owner = ctx.sender();
        self.allowances
            .insert(ctx, AllowanceKey { owner, spender }, amount)?;
        ctx.emit(
            "Approval",
            vec![
                ArgValue::Addr(owner),
                ArgValue::Addr(spender),
                ArgValue::Uint(amount),
            ],
        )?;
        Ok(ReturnValue::Bool(true))
    }

    fn transfer_from(
        &self,
        ctx: &mut CallContext<'_>,
        from: Address,
        to: Address,
        amount: u128,
    ) -> Result<ReturnValue, VmError> {
        let spender = ctx.sender();
        let key = AllowanceKey {
            owner: from,
            spender,
        };
        let allowance = self.allowances.get(ctx, &key)?.unwrap_or(0);
        if allowance < amount {
            return ctx.throw("allowance exceeded");
        }
        self.allowances.insert(ctx, key, allowance - amount)?;
        self.transfer(ctx, from, to, amount)
    }
}

impl Contract for Token {
    fn kind(&self) -> ContractKind {
        ContractKind("Token")
    }

    fn address(&self) -> Address {
        self.address
    }

    fn call(&self, ctx: &mut CallContext<'_>, call: &CallData) -> Result<ReturnValue, VmError> {
        match call.function.as_str() {
            "mint" => {
                let to = call.arg(0)?.as_address()?;
                let amount = call.arg(1)?.as_uint()?;
                self.mint(ctx, to, amount)
            }
            "transfer" => {
                let to = call.arg(0)?.as_address()?;
                let amount = call.arg(1)?.as_uint()?;
                let from = ctx.sender();
                self.transfer(ctx, from, to, amount)
            }
            "approve" => {
                let spender = call.arg(0)?.as_address()?;
                let amount = call.arg(1)?.as_uint()?;
                self.approve(ctx, spender, amount)
            }
            "transferFrom" => {
                let from = call.arg(0)?.as_address()?;
                let to = call.arg(1)?.as_address()?;
                let amount = call.arg(2)?.as_uint()?;
                self.transfer_from(ctx, from, to, amount)
            }
            "balanceOf" => {
                let who = call.arg(0)?.as_address()?;
                let balance = self.balances.get(ctx, &who)?.unwrap_or(0);
                Ok(ReturnValue::Uint(balance))
            }
            "totalSupply" => Ok(ReturnValue::Uint(self.total_supply.get(ctx)?)),
            other => Err(VmError::UnknownFunction {
                function: other.to_string(),
            }),
        }
    }

    fn storage_fields(&self) -> Vec<&dyn StorageField> {
        vec![
            &self.minter,
            &self.total_supply,
            &self.balances,
            &self.allowances,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_vm::{ExecutionStatus, Msg, Receipt, World};
    use std::sync::Arc;

    fn setup() -> (World, Arc<Token>) {
        let world = World::new();
        let token = Arc::new(Token::new(
            Address::from_name("Token"),
            Address::from_index(0),
        ));
        world.deploy(token.clone());
        (world, token)
    }

    fn call(world: &World, sender: Address, function: &str, args: Vec<ArgValue>) -> Receipt {
        let txn = world.stm().begin();
        let receipt = world.call(
            &txn,
            Msg::from_sender(sender),
            Address::from_name("Token"),
            &CallData::new(function, args),
            1_000_000,
        );
        txn.commit().unwrap();
        receipt
    }

    #[test]
    fn mint_and_transfer() {
        let (world, token) = setup();
        let minter = Address::from_index(0);
        let (a, b) = (Address::from_index(1), Address::from_index(2));
        assert!(call(
            &world,
            minter,
            "mint",
            vec![ArgValue::Addr(a), ArgValue::Uint(100)]
        )
        .succeeded());
        assert_eq!(token.supply(), 100);
        assert!(call(
            &world,
            a,
            "transfer",
            vec![ArgValue::Addr(b), ArgValue::Uint(30)]
        )
        .succeeded());
        assert_eq!(token.balance(&a), 70);
        assert_eq!(token.balance(&b), 30);
    }

    #[test]
    fn mint_requires_minter_and_transfer_requires_funds() {
        let (world, token) = setup();
        let a = Address::from_index(1);
        let denied = call(
            &world,
            a,
            "mint",
            vec![ArgValue::Addr(a), ArgValue::Uint(5)],
        );
        assert!(matches!(denied.status, ExecutionStatus::Reverted { .. }));
        let broke = call(
            &world,
            a,
            "transfer",
            vec![ArgValue::Addr(a), ArgValue::Uint(5)],
        );
        assert!(matches!(broke.status, ExecutionStatus::Reverted { .. }));
        assert_eq!(token.supply(), 0);
    }

    #[test]
    fn approve_and_transfer_from() {
        let (world, token) = setup();
        let (owner, spender, dest) = (
            Address::from_index(1),
            Address::from_index(2),
            Address::from_index(3),
        );
        token.seed_balance(owner, 50);
        assert!(call(
            &world,
            owner,
            "approve",
            vec![ArgValue::Addr(spender), ArgValue::Uint(20)]
        )
        .succeeded());
        assert!(call(
            &world,
            spender,
            "transferFrom",
            vec![
                ArgValue::Addr(owner),
                ArgValue::Addr(dest),
                ArgValue::Uint(15)
            ]
        )
        .succeeded());
        assert_eq!(token.balance(&dest), 15);
        let too_much = call(
            &world,
            spender,
            "transferFrom",
            vec![
                ArgValue::Addr(owner),
                ArgValue::Addr(dest),
                ArgValue::Uint(15),
            ],
        );
        assert!(matches!(too_much.status, ExecutionStatus::Reverted { .. }));
    }

    #[test]
    fn views_and_snapshot() {
        let (world, token) = setup();
        let a = Address::from_index(1);
        token.seed_balance(a, 42);
        let balance = call(&world, a, "balanceOf", vec![ArgValue::Addr(a)]);
        assert_eq!(balance.output, ReturnValue::Uint(42));
        let supply = call(&world, a, "totalSupply", vec![]);
        assert_eq!(supply.output, ReturnValue::Uint(42));
        assert_eq!(token.snapshot().fields.len(), 4);
    }

    #[test]
    fn unknown_function() {
        let (world, _) = setup();
        let r = call(&world, Address::from_index(1), "burnItAll", vec![]);
        assert!(matches!(r.status, ExecutionStatus::Invalid { .. }));
    }
}
