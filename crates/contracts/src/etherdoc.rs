//! The EtherDoc proof-of-existence contract.
//!
//! EtherDoc is a small DApp that notarizes documents: creating a document
//! records its 32-byte hash and the creator as owner; anyone can check a
//! document's existence and the owner can transfer it.
//!
//! Conflict structure, matching the paper's benchmark (§7.1): existence
//! checks on distinct documents commute (per-hash locks), while the
//! benchmark's contending transactions all *transfer ownership to the
//! contract creator* — every such transfer updates the creator's document
//! tally, a single shared record, so they all conflict with one another
//! (which is why EtherDoc's miner speedup drops fastest as the conflict
//! percentage grows).

use cc_primitives::fx::RawEntry;
use cc_primitives::hex;
use cc_vm::snapshot::ToBytes;
use cc_vm::{
    Address, ArgValue, CallContext, CallData, Contract, ContractKind, ReturnValue, StorageCell,
    StorageField, StorageMap, VmError,
};

/// Metadata of one notarized document.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Document {
    /// Current owner.
    pub owner: Address,
    /// Sequence number assigned at creation (1-based).
    pub serial: u64,
    /// Number of times ownership has been transferred.
    pub transfers: u64,
}

impl ToBytes for Document {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.owner.as_bytes());
        out.extend_from_slice(&self.serial.to_le_bytes());
        out.extend_from_slice(&self.transfers.to_le_bytes());
    }
}

/// The EtherDoc contract.
#[derive(Debug)]
pub struct EtherDoc {
    address: Address,
    creator: StorageCell<Address>,
    documents: StorageMap<[u8; 32], Document>,
    owned_count: StorageMap<Address, u64>,
    total_documents: StorageCell<u64>,
}

impl EtherDoc {
    /// Deploys EtherDoc at `address`, created by `creator`.
    pub fn new(address: Address, creator: Address) -> Self {
        EtherDoc::with_capacity(address, creator, 0)
    }

    /// [`new`](Self::new) for a set-up that seeds about `documents`
    /// documents next ([`seed_document`](Self::seed_document)): the
    /// document table and the owners' tallies (one owner a document at
    /// most) are sized once.
    pub fn with_capacity(address: Address, creator: Address, documents: usize) -> Self {
        let tag = address.to_hex();
        EtherDoc {
            address,
            creator: StorageCell::new(&format!("EtherDoc.creator.{tag}"), creator),
            documents: StorageMap::with_capacity(&format!("EtherDoc.documents.{tag}"), documents),
            owned_count: StorageMap::with_capacity(
                &format!("EtherDoc.ownedCount.{tag}"),
                documents,
            ),
            total_documents: StorageCell::new(&format!("EtherDoc.totalDocuments.{tag}"), 0),
        }
    }

    /// Deterministic 32-byte document hash for benchmark/test document `i`:
    /// the SHA-256 of the 24 bytes `Encoder::put_str("document")` then
    /// `Encoder::put_u64(i)` write, hashed as one block with nothing
    /// allocated.
    pub fn document_hash(i: u64) -> [u8; 32] {
        const TAG: &[u8; 16] = b"\x08\0\0\0\0\0\0\0document";
        cc_primitives::sha256_concat(&[TAG, &i.to_le_bytes()]).0
    }

    /// Seeds an existing document (benchmark initial state): the next
    /// serial, owned by `owner`, counted in `owner`'s tally and in the
    /// total.
    ///
    /// # Panics
    ///
    /// If `hash` is already a document. Seeding it again would count it
    /// twice and leave its first owner's tally behind; this is a set-up
    /// API, and the world is left as it was.
    pub fn seed_document(&self, hash: [u8; 32], owner: Address) {
        let serial = self.total_documents.peek() + 1;
        let document = Document {
            owner,
            serial,
            transfers: 0,
        };
        let vacant = self.documents.seed_with(hash, |entry| match entry {
            RawEntry::Vacant(slot) => {
                slot.insert(document);
                true
            }
            RawEntry::Occupied(_) => false,
        });
        assert!(
            vacant,
            "EtherDoc: document {} is already seeded",
            hex::encode(&hash)
        );
        self.owned_count
            .seed_with(owner, |entry| *entry.or_insert(0) += 1);
        self.total_documents.seed(serial);
    }

    /// Non-transactional view of a document (tests only).
    pub fn document(&self, hash: &[u8; 32]) -> Option<Document> {
        self.documents.peek(hash)
    }

    /// Non-transactional view of an owner's document tally (tests only).
    pub fn owned_by(&self, owner: &Address) -> u64 {
        self.owned_count.peek(owner).unwrap_or(0)
    }

    /// Non-transactional total number of documents (tests only).
    pub fn total(&self) -> u64 {
        self.total_documents.peek()
    }

    /// The address the contract was created by.
    pub fn creator_address(&self) -> Address {
        self.creator.peek()
    }

    // ---- contract functions -------------------------------------------------

    fn new_document(
        &self,
        ctx: &mut CallContext<'_>,
        hash: [u8; 32],
    ) -> Result<ReturnValue, VmError> {
        if self.documents.contains_key(ctx, &hash)? {
            return ctx.throw("document already exists");
        }
        let serial = self.total_documents.modify(ctx, |n| *n += 1)?;
        let sender = ctx.sender();
        self.documents.insert(
            ctx,
            hash,
            Document {
                owner: sender,
                serial,
                transfers: 0,
            },
        )?;
        self.owned_count.update_or(ctx, sender, 0, |c| *c += 1)?;
        ctx.emit(
            "DocumentCreated",
            vec![ArgValue::Bytes32(hash), ArgValue::Addr(sender)],
        )?;
        Ok(ReturnValue::Uint(u128::from(serial)))
    }

    fn has_document(
        &self,
        ctx: &mut CallContext<'_>,
        hash: [u8; 32],
    ) -> Result<ReturnValue, VmError> {
        Ok(ReturnValue::Bool(self.documents.contains_key(ctx, &hash)?))
    }

    fn get_owner(&self, ctx: &mut CallContext<'_>, hash: [u8; 32]) -> Result<ReturnValue, VmError> {
        match self
            .documents
            .get_with(ctx, &hash, |doc| doc.map(|doc| doc.owner))?
        {
            Some(owner) => Ok(ReturnValue::Addr(owner)),
            None => ctx.throw("no such document"),
        }
    }

    fn transfer_document(
        &self,
        ctx: &mut CallContext<'_>,
        hash: [u8; 32],
        new_owner: Address,
    ) -> Result<ReturnValue, VmError> {
        let Some(doc) = self.documents.get(ctx, &hash)? else {
            return ctx.throw("no such document");
        };
        let sender = ctx.sender();
        if doc.owner != sender {
            return ctx.throw("only the owner can transfer a document");
        }
        let previous_owner = doc.owner;
        self.documents.insert(
            ctx,
            hash,
            Document {
                owner: new_owner,
                transfers: doc.transfers + 1,
                ..doc
            },
        )?;
        // Maintaining the per-owner tallies is what makes "everyone
        // transfers to the creator" transactions contend: they all
        // read-modify-write the creator's entry.
        self.owned_count
            .update_or(ctx, previous_owner, 0, |c| *c = c.saturating_sub(1))?;
        self.owned_count.update_or(ctx, new_owner, 0, |c| *c += 1)?;
        ctx.emit(
            "DocumentTransferred",
            vec![
                ArgValue::Bytes32(hash),
                ArgValue::Addr(previous_owner),
                ArgValue::Addr(new_owner),
            ],
        )?;
        Ok(ReturnValue::Unit)
    }
}

impl Contract for EtherDoc {
    fn kind(&self) -> ContractKind {
        ContractKind("EtherDoc")
    }

    fn address(&self) -> Address {
        self.address
    }

    fn call(&self, ctx: &mut CallContext<'_>, call: &CallData) -> Result<ReturnValue, VmError> {
        match call.function.as_str() {
            "newDocument" => {
                let hash = call.arg(0)?.as_bytes32()?;
                self.new_document(ctx, hash)
            }
            "hasDocument" => {
                let hash = call.arg(0)?.as_bytes32()?;
                self.has_document(ctx, hash)
            }
            "getOwner" => {
                let hash = call.arg(0)?.as_bytes32()?;
                self.get_owner(ctx, hash)
            }
            "transferDocument" => {
                let hash = call.arg(0)?.as_bytes32()?;
                let new_owner = call.arg(1)?.as_address()?;
                self.transfer_document(ctx, hash, new_owner)
            }
            other => Err(VmError::UnknownFunction {
                function: other.to_string(),
            }),
        }
    }

    fn storage_fields(&self) -> Vec<&dyn StorageField> {
        vec![
            &self.creator,
            &self.documents,
            &self.owned_count,
            &self.total_documents,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_stm::{LockId, LockMode, LockSpace};
    use cc_vm::{ExecutionStatus, Msg, Receipt, TxnRef, World};
    use std::sync::Arc;

    fn setup() -> (World, Arc<EtherDoc>) {
        let world = World::new();
        let etherdoc = Arc::new(EtherDoc::new(
            Address::from_name("EtherDoc"),
            Address::from_index(0),
        ));
        world.deploy(etherdoc.clone());
        (world, etherdoc)
    }

    fn call(world: &World, sender: Address, function: &str, args: Vec<ArgValue>) -> Receipt {
        let txn = world.stm().begin();
        let receipt = world.call(
            &txn,
            Msg::from_sender(sender),
            Address::from_name("EtherDoc"),
            &CallData::new(function, args),
            1_000_000,
        );
        txn.commit().unwrap();
        receipt
    }

    #[test]
    fn create_check_and_owner() {
        let (world, etherdoc) = setup();
        let creator = Address::from_index(5);
        let hash = EtherDoc::document_hash(1);
        let r = call(
            &world,
            creator,
            "newDocument",
            vec![ArgValue::Bytes32(hash)],
        );
        assert!(r.succeeded());
        assert_eq!(r.output, ReturnValue::Uint(1));
        assert_eq!(etherdoc.total(), 1);
        assert_eq!(etherdoc.owned_by(&creator), 1);

        let has = call(
            &world,
            creator,
            "hasDocument",
            vec![ArgValue::Bytes32(hash)],
        );
        assert_eq!(has.output, ReturnValue::Bool(true));
        let missing = call(
            &world,
            creator,
            "hasDocument",
            vec![ArgValue::Bytes32(EtherDoc::document_hash(9))],
        );
        assert_eq!(missing.output, ReturnValue::Bool(false));

        let owner = call(&world, creator, "getOwner", vec![ArgValue::Bytes32(hash)]);
        assert_eq!(owner.output, ReturnValue::Addr(creator));
    }

    #[test]
    fn duplicate_creation_reverts() {
        let (world, etherdoc) = setup();
        let hash = EtherDoc::document_hash(1);
        call(
            &world,
            Address::from_index(1),
            "newDocument",
            vec![ArgValue::Bytes32(hash)],
        );
        let dup = call(
            &world,
            Address::from_index(2),
            "newDocument",
            vec![ArgValue::Bytes32(hash)],
        );
        assert!(matches!(dup.status, ExecutionStatus::Reverted { .. }));
        assert_eq!(etherdoc.total(), 1);
    }

    #[test]
    fn transfer_moves_ownership_and_tallies() {
        let (world, etherdoc) = setup();
        let (a, b) = (Address::from_index(1), Address::from_index(2));
        let hash = EtherDoc::document_hash(3);
        etherdoc.seed_document(hash, a);
        let r = call(
            &world,
            a,
            "transferDocument",
            vec![ArgValue::Bytes32(hash), ArgValue::Addr(b)],
        );
        assert!(r.succeeded());
        let doc = etherdoc.document(&hash).unwrap();
        assert_eq!(doc.owner, b);
        assert_eq!(doc.transfers, 1);
        assert_eq!(etherdoc.owned_by(&a), 0);
        assert_eq!(etherdoc.owned_by(&b), 1);
    }

    #[test]
    fn only_owner_may_transfer_and_missing_doc_reverts() {
        let (world, etherdoc) = setup();
        let (a, b) = (Address::from_index(1), Address::from_index(2));
        let hash = EtherDoc::document_hash(4);
        etherdoc.seed_document(hash, a);
        let stolen = call(
            &world,
            b,
            "transferDocument",
            vec![ArgValue::Bytes32(hash), ArgValue::Addr(b)],
        );
        assert!(matches!(stolen.status, ExecutionStatus::Reverted { .. }));
        let missing = call(
            &world,
            a,
            "transferDocument",
            vec![
                ArgValue::Bytes32(EtherDoc::document_hash(99)),
                ArgValue::Addr(b),
            ],
        );
        assert!(matches!(missing.status, ExecutionStatus::Reverted { .. }));
        assert_eq!(etherdoc.document(&hash).unwrap().owner, a);
    }

    #[test]
    fn get_owner_of_missing_document_reverts() {
        let (world, _) = setup();
        let r = call(
            &world,
            Address::from_index(1),
            "getOwner",
            vec![ArgValue::Bytes32(EtherDoc::document_hash(42))],
        );
        assert!(matches!(r.status, ExecutionStatus::Reverted { .. }));
    }

    #[test]
    fn seeded_documents_count() {
        let (_, etherdoc) = setup();
        for i in 0..5 {
            etherdoc.seed_document(EtherDoc::document_hash(i), Address::from_index(i));
        }
        assert_eq!(etherdoc.total(), 5);
        assert_eq!(etherdoc.creator_address(), Address::from_index(0));
    }

    #[test]
    fn reseeding_a_document_is_refused_and_changes_nothing() {
        let (_, etherdoc) = setup();
        let (a, b) = (Address::from_index(1), Address::from_index(2));
        let hash = EtherDoc::document_hash(7);
        etherdoc.seed_document(hash, a);
        let reseed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            etherdoc.seed_document(hash, b)
        }));
        assert!(reseed.is_err(), "a re-seed must be refused");
        assert_eq!(etherdoc.total(), 1);
        assert_eq!(etherdoc.owned_by(&a), 1);
        assert_eq!(etherdoc.owned_by(&b), 0);
        assert_eq!(etherdoc.document(&hash).unwrap().owner, a);
    }

    #[test]
    fn document_hashes_keep_their_bytes() {
        // Digests taken before the preimage was laid out on the stack.
        assert_eq!(
            hex::encode(&EtherDoc::document_hash(0)),
            "a66f2a4805949c5b85e6149b6f2726b6a04635c7ba6fa5a95d5a48d2e9f76f6d"
        );
        assert_eq!(
            hex::encode(&EtherDoc::document_hash(1_000_000)),
            "de9cca831f97e579394e0e86e2cf9f610e8e54e1729990330771cfb86b482e5c"
        );
    }

    #[test]
    fn unknown_function_and_bad_args() {
        let (world, _) = setup();
        let unknown = call(&world, Address::from_index(1), "shredDocument", vec![]);
        assert!(matches!(unknown.status, ExecutionStatus::Invalid { .. }));
        let bad = call(
            &world,
            Address::from_index(1),
            "hasDocument",
            vec![ArgValue::Uint(1)],
        );
        assert!(matches!(bad.status, ExecutionStatus::Invalid { .. }));
    }

    #[test]
    fn snapshot_has_all_fields() {
        let (_, etherdoc) = setup();
        assert_eq!(etherdoc.snapshot().fields.len(), 4);
        assert_eq!(etherdoc.snapshot().kind, "EtherDoc");
    }

    /// One committed `function` call under the chosen transaction
    /// flavour: its receipt and the locks it published, by lock id.
    fn call_footprint(
        world: &World,
        optimistic: bool,
        sender: Address,
        function: &str,
        args: Vec<ArgValue>,
    ) -> (Receipt, Vec<(LockId, LockMode)>) {
        let (to, call) = (
            Address::from_name("EtherDoc"),
            CallData::new(function, args),
        );
        let msg = Msg::from_sender(sender);
        let (receipt, mut locks) = if optimistic {
            let txn = world.mvcc().begin();
            let receipt = world.execute_in(TxnRef::Mvcc(&txn), 0, msg, to, &call, 1_000_000);
            (receipt.unwrap(), txn.commit().unwrap().footprint)
        } else {
            let txn = world.stm().begin();
            let receipt = world.execute_in(TxnRef::Stm(&txn), 0, msg, to, &call, 1_000_000);
            let profile = txn.commit().unwrap().profile;
            let locks = profile.locks.iter().map(|e| (e.lock, e.mode)).collect();
            (receipt.unwrap(), locks)
        };
        locks.sort_unstable();
        (receipt, locks)
    }

    /// The existence checks' receipts and footprint, under both
    /// transaction flavours: `hasDocument` is one `sload` under the
    /// document key's shared lock, present or absent, and `newDocument`
    /// reads the same lock before it reverts on a present hash or writes
    /// the document, the total and the sender's tally on an absent one.
    #[test]
    fn read_paths_keep_their_gas_and_footprint() {
        let tag = Address::from_name("EtherDoc").to_hex();
        let space = |field: &str| LockSpace::new(&format!("EtherDoc.{field}.{tag}"));
        let (present, absent) = (EtherDoc::document_hash(1), EtherDoc::document_hash(2));
        let sender = Address::from_index(3);
        let shared = |hash: &[u8; 32]| vec![(space("documents").lock_for(hash), LockMode::Shared)];
        let mut created = vec![
            (space("documents").lock_for(&absent), LockMode::Exclusive),
            (space("ownedCount").lock_for(&sender), LockMode::Exclusive),
            (space("totalDocuments").lock_for(&()), LockMode::Exclusive),
        ];
        created.sort_unstable();
        for optimistic in [false, true] {
            let (world, etherdoc) = setup();
            etherdoc.seed_document(present, Address::from_index(1));
            let run = |function: &str, hash: [u8; 32]| {
                let args = vec![ArgValue::Bytes32(hash)];
                call_footprint(&world, optimistic, sender, function, args)
            };

            for hash in [present, absent] {
                let (has, locks) = run("hasDocument", hash);
                assert_eq!(has.output, ReturnValue::Bool(hash == present));
                assert_eq!(has.gas_used, 21_200, "optimistic: {optimistic}");
                assert_eq!(locks, shared(&hash), "optimistic: {optimistic}");
            }

            let (new, locks) = run("newDocument", present);
            assert!(matches!(new.status, ExecutionStatus::Reverted { .. }));
            assert_eq!(new.gas_used, 21_200, "optimistic: {optimistic}");
            assert_eq!(locks, shared(&present), "optimistic: {optimistic}");

            let (new, locks) = run("newDocument", absent);
            assert!(new.succeeded(), "optimistic: {optimistic}");
            assert_eq!(new.gas_used, 36_975, "optimistic: {optimistic}");
            assert_eq!(locks, created, "optimistic: {optimistic}");
        }
    }

    #[test]
    fn document_hashes_are_distinct() {
        assert_ne!(EtherDoc::document_hash(1), EtherDoc::document_hash(2));
        assert_eq!(EtherDoc::document_hash(1), EtherDoc::document_hash(1));
    }
}
