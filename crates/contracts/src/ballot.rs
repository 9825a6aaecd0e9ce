//! The Ballot voting contract (paper Listing 1 / Appendix A).
//!
//! A faithful port of the Solidity "Voting with delegation" example: the
//! chairperson registers voters, voters cast a vote for one proposal or
//! delegate their vote, and anyone can compute the winning proposal.
//!
//! Storage layout and conflict structure:
//!
//! * `chairperson` is a cell; `voters` a per-address mapping;
//!   `proposals` maps a proposal's index to its name and `proposalCount`
//!   holds how many there are; `voteCounts` is an additive tally per
//!   proposal index;
//! * the Solidity contract fills its `proposals` array in the constructor
//!   and no function adds, removes or renames one, so here too only the
//!   constructor writes `proposals` and `proposalCount` (non-transactional
//!   seeds). With no transaction writing them, `vote` checks its index
//!   against the count without a lock, and `winningProposal` /
//!   `winnerName` read them under shared locks that conflict with nothing;
//! * two different voters' `vote` calls touch disjoint abstract locks —
//!   they commute;
//! * the `voteCount += weight` update uses the additive tally map, so even
//!   votes for the *same* proposal commute (this is why the paper's Ballot
//!   benchmark "suffers little from the extra data conflict");
//! * a double vote touches the same `voters[addr]` entry twice; the second
//!   call observes `voted == true` and throws — that pair of transactions
//!   conflicts, which is exactly how the benchmark injects data conflict.

use cc_vm::snapshot::ToBytes;
use cc_vm::{
    Address, ArgValue, CallContext, CallData, Contract, ContractKind, ReturnValue, StorageCell,
    StorageCounterMap, StorageField, StorageMap, VmError,
};

/// Per-voter state (Solidity `struct Voter`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Voter {
    /// Voting weight, accumulated by delegation. Zero means "not
    /// registered".
    pub weight: u64,
    /// Whether this voter already voted (or delegated).
    pub voted: bool,
    /// The address this voter delegated to (zero address if none).
    pub delegate: Address,
    /// Index of the proposal voted for (meaningful only if `voted`).
    pub vote: u64,
}

impl ToBytes for Voter {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.weight.to_le_bytes());
        out.push(u8::from(self.voted));
        out.extend_from_slice(self.delegate.as_bytes());
        out.extend_from_slice(&self.vote.to_le_bytes());
    }
}

/// The Ballot contract.
#[derive(Debug)]
pub struct Ballot {
    address: Address,
    chairperson: StorageCell<Address>,
    voters: StorageMap<Address, Voter>,
    proposal_names: StorageMap<u64, [u8; 32]>,
    proposal_count: StorageCell<u64>,
    vote_counts: StorageCounterMap<u64>,
}

impl Ballot {
    /// Deploys a ballot at `address` with `chairperson` and the given
    /// proposal names (the constructor of the Solidity contract).
    pub fn new(address: Address, chairperson: Address, proposal_names: &[[u8; 32]]) -> Self {
        Ballot::with_capacity(address, chairperson, proposal_names, 0)
    }

    /// [`new`](Self::new) for a set-up that registers about `voters`
    /// voters next ([`seed_registered_voter`](Self::seed_registered_voter)):
    /// the voter table is sized for them, and the proposal tables for the
    /// names, so seeding allocates each once.
    pub fn with_capacity(
        address: Address,
        chairperson: Address,
        proposal_names: &[[u8; 32]],
        voters: usize,
    ) -> Self {
        let tag = address.to_hex();
        let proposals = proposal_names.len();
        let ballot = Ballot {
            address,
            chairperson: StorageCell::new(&format!("Ballot.chairperson.{tag}"), chairperson),
            voters: StorageMap::with_capacity(&format!("Ballot.voters.{tag}"), voters),
            proposal_names: StorageMap::with_capacity(
                &format!("Ballot.proposals.{tag}"),
                proposals,
            ),
            proposal_count: StorageCell::new(
                &format!("Ballot.proposalCount.{tag}"),
                proposals as u64,
            ),
            vote_counts: StorageCounterMap::with_capacity(
                &format!("Ballot.voteCounts.{tag}"),
                proposals,
            ),
        };
        // The chairperson gets weight 1, like the Solidity constructor.
        ballot.voters.seed(
            chairperson,
            Voter {
                weight: 1,
                ..Voter::default()
            },
        );
        for (i, name) in (0u64..).zip(proposal_names) {
            ballot.proposal_names.seed(i, *name);
            ballot.vote_counts.seed(i, 0);
        }
        ballot
    }

    /// Convenience constructor naming proposals `"proposal-0"`,
    /// `"proposal-1"`, … .
    pub fn with_numbered_proposals(address: Address, chairperson: Address, count: usize) -> Self {
        let names: Vec<[u8; 32]> = (0..count).map(Self::proposal_name).collect();
        Ballot::new(address, chairperson, &names)
    }

    /// The canonical 32-byte name of a numbered proposal.
    pub fn proposal_name(index: usize) -> [u8; 32] {
        let mut name = [0u8; 32];
        let text = format!("proposal-{index}");
        let len = text.len().min(32);
        name[..len].copy_from_slice(&text.as_bytes()[..len]);
        name
    }

    /// Registers `voter` with weight 1 without a transaction (initial-state
    /// setup for benchmarks, mirroring the paper's "voters are already
    /// registered" starting condition).
    pub fn seed_registered_voter(&self, voter: Address) {
        self.voters.seed(
            voter,
            Voter {
                weight: 1,
                ..Voter::default()
            },
        );
    }

    /// Non-transactional view of a voter (tests only).
    pub fn voter(&self, address: &Address) -> Option<Voter> {
        self.voters.peek(address)
    }

    /// Non-transactional view of a proposal's tally (tests only).
    pub fn tally(&self, proposal: u64) -> u64 {
        self.vote_counts.peek(&proposal)
    }

    /// Number of proposals.
    pub fn proposal_count(&self) -> usize {
        self.proposal_count.peek() as usize
    }

    // ---- contract functions -------------------------------------------------

    fn give_right_to_vote(
        &self,
        ctx: &mut CallContext<'_>,
        voter: Address,
    ) -> Result<ReturnValue, VmError> {
        let sender = ctx.sender();
        if self.chairperson.with(ctx, |chair| *chair != sender)? {
            return ctx.throw("only the chairperson can give the right to vote");
        }
        let existing = self.voters.get(ctx, &voter)?.unwrap_or_default();
        if existing.voted {
            return ctx.throw("voter already voted");
        }
        self.voters.insert(
            ctx,
            voter,
            Voter {
                weight: 1,
                ..existing
            },
        )?;
        Ok(ReturnValue::Unit)
    }

    fn delegate(&self, ctx: &mut CallContext<'_>, mut to: Address) -> Result<ReturnValue, VmError> {
        let sender_addr = ctx.sender();
        let sender = self.voters.get(ctx, &sender_addr)?.unwrap_or_default();
        if sender.voted {
            return ctx.throw("already voted");
        }
        // Forward the delegation as long as `to` also delegated. The
        // Solidity example warns that long chains may consume all gas;
        // every hop here charges storage reads, so the same bound applies.
        loop {
            ctx.charge_steps(1)?;
            // Only the hop target's delegate pointer matters here; read it
            // by reference instead of cloning the whole Voter per hop.
            let next = self
                .voters
                .get_with(ctx, &to, |v| v.map(|v| v.delegate).unwrap_or_default())?;
            if next.is_zero() || next == sender_addr {
                break;
            }
            to = next;
        }
        if to == sender_addr {
            return ctx.throw("delegation loop");
        }

        self.voters.insert(
            ctx,
            sender_addr,
            Voter {
                voted: true,
                delegate: to,
                ..sender.clone()
            },
        )?;

        let delegate = self.voters.get(ctx, &to)?.unwrap_or_default();
        if delegate.voted {
            // The delegate already voted: add our weight to their proposal.
            self.vote_counts.add(ctx, delegate.vote, sender.weight)?;
        } else {
            // Otherwise add to their weight.
            self.voters.insert(
                ctx,
                to,
                Voter {
                    weight: delegate.weight + sender.weight,
                    ..delegate
                },
            )?;
        }
        ctx.emit(
            "Delegated",
            vec![ArgValue::Addr(sender_addr), ArgValue::Addr(to)],
        )?;
        Ok(ReturnValue::Unit)
    }

    fn vote(&self, ctx: &mut CallContext<'_>, proposal: u128) -> Result<ReturnValue, VmError> {
        let sender_addr = ctx.sender();
        let sender = self.voters.get(ctx, &sender_addr)?.unwrap_or_default();
        if sender.voted {
            return ctx.throw("already voted");
        }
        // Solidity throws automatically on an out-of-range index, however
        // wide. The count is the constructor's, so reading it takes no lock.
        let proposal = match u64::try_from(proposal) {
            Ok(index) if index < self.proposal_count.peek() => index,
            _ => return ctx.throw("proposal out of range"),
        };
        self.voters.insert(
            ctx,
            sender_addr,
            Voter {
                voted: true,
                vote: proposal,
                ..sender.clone()
            },
        )?;
        self.vote_counts.add(ctx, proposal, sender.weight)?;
        ctx.emit(
            "Voted",
            vec![
                ArgValue::Addr(sender_addr),
                ArgValue::Uint(u128::from(proposal)),
            ],
        )?;
        Ok(ReturnValue::Unit)
    }

    fn winning_proposal(&self, ctx: &mut CallContext<'_>) -> Result<u64, VmError> {
        let count = self.proposal_count.get(ctx)?;
        let mut winning = 0u64;
        let mut winning_votes = 0u64;
        for p in 0..count {
            ctx.charge_steps(1)?;
            let votes = self.vote_counts.get(ctx, &p)?;
            if votes > winning_votes {
                winning_votes = votes;
                winning = p;
            }
        }
        Ok(winning)
    }

    fn winner_name(&self, ctx: &mut CallContext<'_>) -> Result<[u8; 32], VmError> {
        let winner = self.winning_proposal(ctx)?;
        let name = self.proposal_names.get(ctx, &winner)?.unwrap_or([0u8; 32]);
        Ok(name)
    }
}

impl Contract for Ballot {
    fn kind(&self) -> ContractKind {
        ContractKind("Ballot")
    }

    fn address(&self) -> Address {
        self.address
    }

    fn call(&self, ctx: &mut CallContext<'_>, call: &CallData) -> Result<ReturnValue, VmError> {
        match call.function.as_str() {
            "giveRightToVote" => {
                let voter = call.arg(0)?.as_address()?;
                self.give_right_to_vote(ctx, voter)
            }
            "delegate" => {
                let to = call.arg(0)?.as_address()?;
                self.delegate(ctx, to)
            }
            "vote" => {
                let proposal = call.arg(0)?.as_uint()?;
                self.vote(ctx, proposal)
            }
            "winningProposal" => Ok(ReturnValue::Uint(u128::from(self.winning_proposal(ctx)?))),
            "winnerName" => Ok(ReturnValue::Bytes32(self.winner_name(ctx)?)),
            other => Err(VmError::UnknownFunction {
                function: other.to_string(),
            }),
        }
    }

    fn storage_fields(&self) -> Vec<&dyn StorageField> {
        vec![
            &self.chairperson,
            &self.voters,
            &self.proposal_names,
            &self.proposal_count,
            &self.vote_counts,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_stm::{LockMode, LockProfile};
    use cc_vm::{ExecutionStatus, Msg, World};
    use std::sync::Arc;

    fn setup(voters: usize) -> (World, Arc<Ballot>, Vec<Address>) {
        let world = World::new();
        let chair = Address::from_index(0);
        let ballot = Arc::new(Ballot::with_numbered_proposals(
            Address::from_name("Ballot"),
            chair,
            3,
        ));
        let accounts: Vec<Address> = (1..=voters as u64).map(Address::from_index).collect();
        for a in &accounts {
            ballot.seed_registered_voter(*a);
        }
        world.deploy(ballot.clone());
        (world, ballot, accounts)
    }

    fn call(world: &World, sender: Address, function: &str, args: Vec<ArgValue>) -> cc_vm::Receipt {
        call_profiled(world, sender, function, args).0
    }

    /// [`call`], also returning the lock profile the transaction committed.
    fn call_profiled(
        world: &World,
        sender: Address,
        function: &str,
        args: Vec<ArgValue>,
    ) -> (cc_vm::Receipt, LockProfile) {
        let txn = world.stm().begin();
        let receipt = world.call(
            &txn,
            Msg::from_sender(sender),
            Address::from_name("Ballot"),
            &CallData::new(function, args),
            1_000_000,
        );
        (receipt, txn.commit().unwrap().profile)
    }

    #[test]
    fn vote_updates_tally_and_voter_state() {
        let (world, ballot, accounts) = setup(3);
        for a in &accounts {
            let r = call(&world, *a, "vote", vec![ArgValue::Uint(1)]);
            assert!(r.succeeded());
        }
        assert_eq!(ballot.tally(1), 3);
        assert_eq!(ballot.tally(0), 0);
        assert!(ballot.voter(&accounts[0]).unwrap().voted);
    }

    #[test]
    fn double_vote_reverts_and_does_not_double_count() {
        let (world, ballot, accounts) = setup(1);
        let voter = accounts[0];
        assert!(call(&world, voter, "vote", vec![ArgValue::Uint(0)]).succeeded());
        let second = call(&world, voter, "vote", vec![ArgValue::Uint(0)]);
        assert!(matches!(second.status, ExecutionStatus::Reverted { .. }));
        assert_eq!(ballot.tally(0), 1);
    }

    #[test]
    fn out_of_range_proposal_reverts() {
        let (world, ballot, accounts) = setup(1);
        let r = call(&world, accounts[0], "vote", vec![ArgValue::Uint(99)]);
        assert!(matches!(r.status, ExecutionStatus::Reverted { .. }));
        assert!(!ballot.voter(&accounts[0]).unwrap().voted);
    }

    #[test]
    fn a_proposal_index_past_u64_reverts_instead_of_wrapping() {
        let (world, ballot, accounts) = setup(1);
        let r = call(
            &world,
            accounts[0],
            "vote",
            vec![ArgValue::Uint((1u128 << 64) + 1)],
        );
        assert!(matches!(r.status, ExecutionStatus::Reverted { .. }));
        assert_eq!(ballot.tally(1), 0);
        assert!(!ballot.voter(&accounts[0]).unwrap().voted);
    }

    #[test]
    fn unregistered_voter_vote_counts_zero_weight() {
        let (world, ballot, _) = setup(0);
        let stranger = Address::from_index(77);
        let r = call(&world, stranger, "vote", vec![ArgValue::Uint(2)]);
        assert!(r.succeeded());
        assert_eq!(ballot.tally(2), 0, "weight-0 vote adds nothing");
        assert!(ballot.voter(&stranger).unwrap().voted);
    }

    #[test]
    fn give_right_to_vote_is_chairperson_only() {
        let (world, ballot, accounts) = setup(1);
        let chair = Address::from_index(0);
        let newcomer = Address::from_index(50);
        let denied = call(
            &world,
            accounts[0],
            "giveRightToVote",
            vec![ArgValue::Addr(newcomer)],
        );
        assert!(matches!(denied.status, ExecutionStatus::Reverted { .. }));
        let granted = call(
            &world,
            chair,
            "giveRightToVote",
            vec![ArgValue::Addr(newcomer)],
        );
        assert!(granted.succeeded());
        assert_eq!(ballot.voter(&newcomer).unwrap().weight, 1);
    }

    #[test]
    fn delegation_moves_weight_before_vote() {
        let (world, ballot, accounts) = setup(2);
        let (a, b) = (accounts[0], accounts[1]);
        assert!(call(&world, a, "delegate", vec![ArgValue::Addr(b)]).succeeded());
        assert_eq!(ballot.voter(&b).unwrap().weight, 2);
        assert!(call(&world, b, "vote", vec![ArgValue::Uint(2)]).succeeded());
        assert_eq!(ballot.tally(2), 2);
    }

    #[test]
    fn delegation_to_voted_delegate_counts_immediately() {
        let (world, ballot, accounts) = setup(2);
        let (a, b) = (accounts[0], accounts[1]);
        assert!(call(&world, b, "vote", vec![ArgValue::Uint(0)]).succeeded());
        assert!(call(&world, a, "delegate", vec![ArgValue::Addr(b)]).succeeded());
        assert_eq!(ballot.tally(0), 2);
    }

    #[test]
    fn delegation_chain_is_followed_and_self_delegation_rejected() {
        let (world, ballot, accounts) = setup(3);
        let (a, b, c) = (accounts[0], accounts[1], accounts[2]);
        assert!(call(&world, b, "delegate", vec![ArgValue::Addr(c)]).succeeded());
        // a delegates to b, which already delegated to c: weight lands on c.
        assert!(call(&world, a, "delegate", vec![ArgValue::Addr(b)]).succeeded());
        assert_eq!(ballot.voter(&c).unwrap().weight, 3);
        // Delegating to yourself (with no outgoing delegation to follow) is
        // the loop the Solidity example detects and rejects.
        let r = call(&world, c, "delegate", vec![ArgValue::Addr(c)]);
        assert!(matches!(r.status, ExecutionStatus::Reverted { .. }));
    }

    #[test]
    fn winner_is_computed() {
        let (world, _ballot, accounts) = setup(5);
        for (i, a) in accounts.iter().enumerate() {
            let proposal = if i < 3 { 2 } else { 0 };
            call(&world, *a, "vote", vec![ArgValue::Uint(proposal)]);
        }
        let r = call(&world, accounts[0], "winningProposal", vec![]);
        assert_eq!(r.output, ReturnValue::Uint(2));
        let name = call(&world, accounts[0], "winnerName", vec![]);
        assert_eq!(name.output, ReturnValue::Bytes32(Ballot::proposal_name(2)));
    }

    /// The read paths' receipts and footprint: `winningProposal` reads
    /// the proposal count and every tally, `winnerName` that and the
    /// winner's name, each one `sload` under a shared lock.
    #[test]
    fn read_paths_keep_their_gas_and_footprint() {
        let (world, _ballot, accounts) = setup(4);
        for (voter, proposal) in accounts.iter().zip([1, 2, 2, 0]) {
            assert!(call(&world, *voter, "vote", vec![ArgValue::Uint(proposal)]).succeeded());
        }
        let (winning, profile) = call_profiled(&world, accounts[0], "winningProposal", vec![]);
        assert!(winning.succeeded());
        assert_eq!(winning.output, ReturnValue::Uint(2));
        assert_eq!(winning.gas_used, 21_809);
        assert_eq!(profile.len(), 1 + 3);
        assert!(profile.locks.iter().all(|e| e.mode == LockMode::Shared));

        let (name, profile) = call_profiled(&world, accounts[0], "winnerName", vec![]);
        assert!(name.succeeded());
        assert_eq!(name.output, ReturnValue::Bytes32(Ballot::proposal_name(2)));
        assert_eq!(name.gas_used, 22_009);
        assert!(name.events.is_empty());
        assert_eq!(profile.len(), 1 + 3 + 1);
        assert!(profile.locks.iter().all(|e| e.mode == LockMode::Shared));
    }

    #[test]
    fn unknown_function_is_invalid() {
        let (world, _, accounts) = setup(1);
        let r = call(&world, accounts[0], "destroy", vec![]);
        assert!(matches!(r.status, ExecutionStatus::Invalid { .. }));
    }

    #[test]
    fn snapshot_captures_votes() {
        let (world, ballot, accounts) = setup(2);
        let before = (ballot.snapshot(), world.state_root());
        call(&world, accounts[0], "vote", vec![ArgValue::Uint(0)]);
        let after = (ballot.snapshot(), world.state_root());
        assert_ne!(before.0, after.0);
        assert_ne!(before.1, after.1);
        assert_eq!(ballot.snapshot().kind, "Ballot");
        assert_eq!(ballot.snapshot().fields.len(), 5);
    }

    #[test]
    fn proposal_name_encoding() {
        let name = Ballot::proposal_name(7);
        assert!(name.starts_with(b"proposal-7"));
        assert_eq!(
            Ballot::with_numbered_proposals(Address::from_name("B2"), Address::from_index(0), 4)
                .proposal_count(),
            4
        );
    }
}
