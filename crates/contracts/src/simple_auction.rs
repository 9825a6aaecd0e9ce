//! The SimpleAuction contract from the Solidity documentation.
//!
//! One owner opens the auction; anyone can `bid` (attaching currency),
//! outbid bidders can `withdraw` their pending returns, and the owner ends
//! the auction with `auctionEnd`.
//!
//! Conflict structure, matching the paper's benchmark (§7.1):
//!
//! * `withdraw` touches only the caller's entry of `pending_returns`, so
//!   withdrawals by different bidders commute;
//! * `bid_plus_one` — the paper's conflict generator — reads the current
//!   highest bid and overbids it by one, so every such transaction touches
//!   the shared `highest_bid` cell and they all conflict with one another.

use cc_vm::{
    Address, ArgValue, CallContext, CallData, Contract, ContractKind, ReturnValue, StorageCell,
    StorageField, StorageMap, VmError, Wei,
};

/// The SimpleAuction contract.
#[derive(Debug)]
pub struct SimpleAuction {
    address: Address,
    beneficiary: StorageCell<Address>,
    ended: StorageCell<bool>,
    highest_bidder: StorageCell<Address>,
    highest_bid: StorageCell<u128>,
    pending_returns: StorageMap<Address, u128>,
}

impl SimpleAuction {
    /// Deploys an auction at `address` paying out to `beneficiary`.
    pub fn new(address: Address, beneficiary: Address) -> Self {
        SimpleAuction::with_capacity(address, beneficiary, 0)
    }

    /// [`new`](Self::new) for a set-up that seeds about `bidders`
    /// pending returns next ([`seed_pending_return`](Self::seed_pending_return)):
    /// their table is sized once.
    pub fn with_capacity(address: Address, beneficiary: Address, bidders: usize) -> Self {
        let tag = address.to_hex();
        SimpleAuction {
            address,
            beneficiary: StorageCell::new(&format!("SimpleAuction.beneficiary.{tag}"), beneficiary),
            ended: StorageCell::new(&format!("SimpleAuction.ended.{tag}"), false),
            highest_bidder: StorageCell::new(
                &format!("SimpleAuction.highestBidder.{tag}"),
                Address::ZERO,
            ),
            highest_bid: StorageCell::new(&format!("SimpleAuction.highestBid.{tag}"), 0),
            pending_returns: StorageMap::with_capacity(
                &format!("SimpleAuction.pendingReturns.{tag}"),
                bidders,
            ),
        }
    }

    /// Seeds a pending return for `bidder` (benchmark initial state: "the
    /// contract state is initialized by several bidders entering a bid").
    pub fn seed_pending_return(&self, bidder: Address, amount: u128) {
        self.pending_returns.seed(bidder, amount);
    }

    /// Seeds the current highest bid (benchmark initial state).
    pub fn seed_highest_bid(&self, bidder: Address, amount: u128) {
        self.highest_bidder.seed(bidder);
        self.highest_bid.seed(amount);
    }

    /// Non-transactional view of a bidder's pending return (tests only).
    pub fn pending_return(&self, bidder: &Address) -> u128 {
        self.pending_returns.peek(bidder).unwrap_or(0)
    }

    /// Non-transactional view of the highest bid (tests only).
    pub fn current_highest_bid(&self) -> u128 {
        self.highest_bid.peek()
    }

    /// Non-transactional view of the highest bidder (tests only).
    pub fn current_highest_bidder(&self) -> Address {
        self.highest_bidder.peek()
    }

    // ---- contract functions -------------------------------------------------

    fn bid_with_amount(
        &self,
        ctx: &mut CallContext<'_>,
        amount: u128,
    ) -> Result<ReturnValue, VmError> {
        if self.ended.with(ctx, |e| *e)? {
            return ctx.throw("auction already ended");
        }
        let current = self.highest_bid.get(ctx)?;
        if amount <= current {
            return ctx.throw("there already is a higher bid");
        }
        let previous_bidder = self.highest_bidder.get(ctx)?;
        if current != 0 {
            // Let the outbid bidder withdraw their money later.
            self.pending_returns
                .update_or(ctx, previous_bidder, 0, |r| *r += current)?;
        }
        let sender = ctx.sender();
        self.highest_bidder.set(ctx, sender)?;
        self.highest_bid.set(ctx, amount)?;
        ctx.emit(
            "HighestBidIncreased",
            vec![ArgValue::Addr(sender), ArgValue::Uint(amount)],
        )?;
        Ok(ReturnValue::Unit)
    }

    fn bid(&self, ctx: &mut CallContext<'_>) -> Result<ReturnValue, VmError> {
        let amount = ctx.msg().value.amount();
        self.bid_with_amount(ctx, amount)
    }

    /// The paper's conflict generator: read the highest bid and overbid it
    /// by one.
    fn bid_plus_one(&self, ctx: &mut CallContext<'_>) -> Result<ReturnValue, VmError> {
        let current = self.highest_bid.get(ctx)?;
        self.bid_with_amount(ctx, current + 1)
    }

    fn withdraw(&self, ctx: &mut CallContext<'_>) -> Result<ReturnValue, VmError> {
        let sender = ctx.sender();
        let amount = self.pending_returns.get(ctx, &sender)?.unwrap_or(0);
        if amount > 0 {
            self.pending_returns.insert(ctx, sender, 0)?;
            ctx.emit(
                "Withdrawn",
                vec![ArgValue::Addr(sender), ArgValue::Uint(amount)],
            )?;
        }
        Ok(ReturnValue::Amount(Wei::new(amount)))
    }

    fn auction_end(&self, ctx: &mut CallContext<'_>) -> Result<ReturnValue, VmError> {
        if self.ended.with(ctx, |e| *e)? {
            return ctx.throw("auctionEnd has already been called");
        }
        self.ended.set(ctx, true)?;
        let winner = self.highest_bidder.get(ctx)?;
        let amount = self.highest_bid.get(ctx)?;
        ctx.emit(
            "AuctionEnded",
            vec![ArgValue::Addr(winner), ArgValue::Uint(amount)],
        )?;
        Ok(ReturnValue::Amount(Wei::new(amount)))
    }
}

impl Contract for SimpleAuction {
    fn kind(&self) -> ContractKind {
        ContractKind("SimpleAuction")
    }

    fn address(&self) -> Address {
        self.address
    }

    fn call(&self, ctx: &mut CallContext<'_>, call: &CallData) -> Result<ReturnValue, VmError> {
        match call.function.as_str() {
            "bid" => self.bid(ctx),
            "bidPlusOne" => self.bid_plus_one(ctx),
            "withdraw" => self.withdraw(ctx),
            "auctionEnd" => self.auction_end(ctx),
            other => Err(VmError::UnknownFunction {
                function: other.to_string(),
            }),
        }
    }

    fn storage_fields(&self) -> Vec<&dyn StorageField> {
        vec![
            &self.beneficiary,
            &self.ended,
            &self.highest_bidder,
            &self.highest_bid,
            &self.pending_returns,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_vm::{ExecutionStatus, Msg, Receipt, World};
    use std::sync::Arc;

    fn setup() -> (World, Arc<SimpleAuction>) {
        let world = World::new();
        let auction = Arc::new(SimpleAuction::new(
            Address::from_name("SimpleAuction"),
            Address::from_index(0),
        ));
        world.deploy(auction.clone());
        (world, auction)
    }

    fn call(world: &World, sender: Address, value: u128, function: &str) -> Receipt {
        let txn = world.stm().begin();
        let receipt = world.call(
            &txn,
            Msg::with_value(sender, Wei::new(value)),
            Address::from_name("SimpleAuction"),
            &CallData::nullary(function),
            1_000_000,
        );
        txn.commit().unwrap();
        receipt
    }

    #[test]
    fn bidding_updates_highest_and_pending_returns() {
        let (world, auction) = setup();
        let (a, b) = (Address::from_index(1), Address::from_index(2));
        assert!(call(&world, a, 100, "bid").succeeded());
        assert!(call(&world, b, 150, "bid").succeeded());
        assert_eq!(auction.current_highest_bid(), 150);
        assert_eq!(auction.current_highest_bidder(), b);
        assert_eq!(auction.pending_return(&a), 100);
    }

    #[test]
    fn low_bid_reverts() {
        let (world, auction) = setup();
        let (a, b) = (Address::from_index(1), Address::from_index(2));
        assert!(call(&world, a, 100, "bid").succeeded());
        let r = call(&world, b, 50, "bid");
        assert!(matches!(r.status, ExecutionStatus::Reverted { .. }));
        assert_eq!(auction.current_highest_bidder(), a);
    }

    #[test]
    fn bid_plus_one_always_overbids() {
        let (world, auction) = setup();
        let bidders: Vec<Address> = (1..=5).map(Address::from_index).collect();
        call(&world, bidders[0], 10, "bid");
        for b in &bidders[1..] {
            assert!(call(&world, *b, 0, "bidPlusOne").succeeded());
        }
        assert_eq!(auction.current_highest_bid(), 14);
        assert_eq!(auction.current_highest_bidder(), bidders[4]);
    }

    #[test]
    fn withdraw_returns_pending_and_zeroes_it() {
        let (world, auction) = setup();
        let a = Address::from_index(1);
        auction.seed_pending_return(a, 500);
        let r = call(&world, a, 0, "withdraw");
        assert!(r.succeeded());
        assert_eq!(r.output, ReturnValue::Amount(Wei::new(500)));
        assert_eq!(auction.pending_return(&a), 0);
        // Second withdrawal returns zero and emits nothing.
        let r2 = call(&world, a, 0, "withdraw");
        assert_eq!(r2.output, ReturnValue::Amount(Wei::ZERO));
        assert!(r2.events.is_empty());
    }

    #[test]
    fn auction_end_only_once_and_blocks_bids() {
        let (world, _auction) = setup();
        let owner = Address::from_index(0);
        assert!(call(&world, owner, 0, "auctionEnd").succeeded());
        let again = call(&world, owner, 0, "auctionEnd");
        assert!(matches!(again.status, ExecutionStatus::Reverted { .. }));
        let late_bid = call(&world, Address::from_index(1), 10, "bid");
        assert!(matches!(late_bid.status, ExecutionStatus::Reverted { .. }));
    }

    #[test]
    fn unknown_function() {
        let (world, _) = setup();
        let r = call(&world, Address::from_index(1), 0, "selfdestruct");
        assert!(matches!(r.status, ExecutionStatus::Invalid { .. }));
    }

    #[test]
    fn snapshot_tracks_bids() {
        let (world, auction) = setup();
        let before = (auction.snapshot(), world.state_root());
        call(&world, Address::from_index(1), 10, "bid");
        assert_ne!(auction.snapshot(), before.0);
        assert_ne!(world.state_root(), before.1);
        assert_eq!(auction.snapshot().fields.len(), 5);
    }

    #[test]
    fn seeded_state_is_visible() {
        let (_, auction) = setup();
        auction.seed_highest_bid(Address::from_index(9), 77);
        assert_eq!(auction.current_highest_bid(), 77);
        assert_eq!(auction.current_highest_bidder(), Address::from_index(9));
    }
}
