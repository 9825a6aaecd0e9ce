//! Every decoder of bytes a node reads from outside returns `Ok` or a
//! typed error, whatever the bytes: a WAL frame and a checkpoint file
//! (checksums recomputed, so the decoders behind them are reached), and
//! the block, transaction, call, receipt and schedule inside them.
//!
//! Three kinds of input:
//! - random bytes;
//! - a valid encoding with the eight bytes at one offset forged to 0, to
//!   one more than the bytes behind them, or to `u64::MAX` — every offset,
//!   so every count and every length prefix is forged each way;
//! - a valid encoding cut at every byte.
//!
//! A panic fails a row, and so does an input that decodes but re-encodes
//! to other bytes: decoding is canonical, so two byte strings never
//! decode to the same value. An allocation sized from a forged count
//! aborts the whole binary, which no `catch_unwind` can stop: the
//! `a_forged_count_*` rows are the four inputs that did. The rows after
//! them are the three inputs that once decoded non-canonically: a lock
//! mode byte other than 0, 1 or 2, a bool byte other than 0 or 1, and a
//! profile's locks out of lock order.
//!
//! Debug builds draw few random cases, release builds many (CI runs this
//! binary in release).

use cc_core::node::{DurabilityConfig, Node};
use cc_core::CoreError;
use cc_integration_tests::{counter_world, engine, increment_tx};
use cc_ledger::wal::{self, DurabilityMode, WAL_FILE};
use cc_ledger::{Block, ProfileRecord, ScheduleMetadata, SnapshotFile, Transaction};
use cc_primitives::checksum::checksum64;
use cc_primitives::codec::{DecodeError, Decoder, Encoder};
use cc_primitives::Hash256;
use cc_stm::{LockId, LockMode, LockProfile, ProfileEntry};
use cc_vm::{Address, ArgValue, CallData, Event, ExecutionStatus, Receipt, ReturnValue};
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;

/// Random cases per property.
const CASES: u32 = if cfg!(debug_assertions) { 8 } else { 512 };

/// The error every forged count meets.
const COUNT_REFUSED: &str = "element count exceeds the input left";

/// A WAL file's 16-byte format-2 header (see `cc_ledger::wal`).
const WAL_HEADER: &[u8; 16] = b"\x04\0\0\0cc-wal\0\0\x02\0\0\0";

/// The tag byte a WAL seal frame's payload opens with.
const SEAL_TAG: u8 = 5;

fn encoded(encode: impl FnOnce(&mut Encoder)) -> Vec<u8> {
    let mut enc = Encoder::new();
    encode(&mut enc);
    enc.into_bytes()
}

/// `encode` as a function from a value to its bytes.
fn encoding<T>(encode: impl Fn(&T, &mut Encoder)) -> impl Fn(&T) -> Vec<u8> {
    move |value| encoded(|enc| encode(value, enc))
}

/// Asserts that what `bytes` decoded to, if anything, re-encodes to
/// `bytes`.
fn assert_canonical<T: std::fmt::Debug, E>(
    bytes: &[u8],
    decoded: &Result<T, E>,
    encode: impl Fn(&T) -> Vec<u8>,
) {
    if let Ok(value) = decoded {
        assert!(
            encode(value) == bytes,
            "{value:?} decoded from bytes it does not re-encode to"
        );
    }
}

/// [`whole`], then [`assert_canonical`].
fn canonical<T: std::fmt::Debug>(
    bytes: &[u8],
    decode: impl FnOnce(&mut Decoder<'_>) -> Result<T, DecodeError>,
    encode: impl Fn(&T, &mut Encoder),
) {
    assert_canonical(bytes, &whole(bytes, decode), encoding(encode));
}

/// Decodes all of `bytes` with `decode`: trailing bytes are an error.
fn whole<T>(
    bytes: &[u8],
    decode: impl FnOnce(&mut Decoder<'_>) -> Result<T, DecodeError>,
) -> Result<T, DecodeError> {
    let mut dec = Decoder::new(bytes);
    let value = decode(&mut dec)?;
    if dec.is_empty() {
        Ok(value)
    } else {
        Err(DecodeError {
            context: "trailing bytes",
        })
    }
}

/// A small genesis-numbered block whose shape `seed` picks: up to three
/// transactions with every argument kind, receipts of every status with
/// events, and a schedule with edges and lock profiles (or none). Its
/// commitments are not computed; no decoder checks them.
fn sample_block(seed: u64) -> Block {
    let pick = |shift: u32, n: u64| (seed >> shift) % n;
    let args = [
        ArgValue::Uint(u128::from(seed)),
        ArgValue::Bool(true),
        ArgValue::Addr(Address::from_index(seed)),
        ArgValue::Bytes32([7; 32]),
        ArgValue::Str("proposal".into()),
    ];
    let txs = pick(0, 4) as usize;
    let transactions = (0..txs)
        .map(|i| {
            let call = CallData::new("vote", args[..(i + pick(2, 3) as usize)].to_vec());
            Transaction::new(
                i as u64,
                Address::from_index(i as u64),
                Address::ZERO,
                call,
                9,
            )
        })
        .collect();
    let status = |i: usize| match (i as u64 + pick(4, 4)) % 4 {
        0 => ExecutionStatus::Succeeded,
        1 => ExecutionStatus::Reverted {
            reason: "no".into(),
        },
        2 => ExecutionStatus::OutOfGas,
        _ => ExecutionStatus::Invalid {
            reason: "bad".into(),
        },
    };
    let receipts = (0..txs)
        .map(|i| Receipt {
            tx_index: i,
            status: status(i),
            gas_used: 21_000,
            output: ReturnValue::Bool(i % 2 == 0),
            events: (0..i)
                .map(|e| Event::new(Address::from_index(e as u64), "Voted", args[..e].to_vec()))
                .collect(),
        })
        .collect();
    let lock = |key: u64, mode| ProfileEntry {
        lock: LockId::from_raw(1, key),
        mode,
        counter: key,
    };
    let schedule = (pick(6, 3) != 0).then(|| ScheduleMetadata {
        serial_order: (0..txs).collect(),
        edges: (1..txs).map(|i| (i - 1, i)).collect(),
        profiles: (0..txs)
            .map(|i| ProfileRecord {
                tx_index: i,
                profile: LockProfile::new(vec![
                    lock(0, LockMode::Exclusive),
                    lock(i as u64 + 1, LockMode::Shared),
                ]),
            })
            .collect(),
    });
    Block {
        header: Block::build(
            Hash256::ZERO,
            0,
            Vec::new(),
            Vec::new(),
            Hash256::ZERO,
            None,
        )
        .header,
        transactions,
        receipts,
        schedule,
    }
}

/// A WAL seal frame's payload: the tag, then `block`.
fn seal_of(block: &Block) -> Vec<u8> {
    let mut seal = vec![SEAL_TAG];
    seal.extend_from_slice(&encoded(|enc| block.encode(enc)));
    seal
}

/// `payload` behind a length and its recomputed checksum: one WAL frame.
fn wal_file(payload: &[u8]) -> Vec<u8> {
    let mut file = WAL_HEADER.to_vec();
    file.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    file.extend_from_slice(&checksum64(payload).to_le_bytes());
    file.extend_from_slice(payload);
    file
}

/// `payload` behind the checkpoint magic, version 2 and its recomputed
/// checksum: one checkpoint file.
fn checkpoint_file(payload: &[u8]) -> Vec<u8> {
    let mut file = b"cc-ckpt\0\x02\0\0\0".to_vec();
    file.extend_from_slice(&checksum64(payload).to_le_bytes());
    file.extend_from_slice(payload);
    file
}

/// The payload of a checkpoint file: what [`checkpoint_file`] wraps.
fn payload_of(file: &SnapshotFile) -> Vec<u8> {
    file.to_bytes()[checkpoint_file(&[]).len()..].to_vec()
}

/// A checkpoint payload anchored at `block`, holding `block_bytes`.
fn checkpoint_payload(block: &Block, block_bytes: &[u8]) -> Vec<u8> {
    encoded(|enc| {
        enc.put_u64(block.header.number);
        enc.put_raw(block.hash().as_bytes());
        enc.put_raw(block.header.state_root.as_bytes());
        enc.put_u64(1);
        enc.put_raw(block_bytes);
        enc.put_bytes(&[]);
    })
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cc-decoders-{}-{tag}", std::process::id()))
}

/// Scans a WAL file (named by `tag`, one per test: tests run in
/// parallel) holding one frame over `payload`.
fn scan_frame(tag: &str, payload: &[u8]) -> std::io::Result<wal::WalScan> {
    let path = temp_path(tag);
    fs::write(&path, wal_file(payload)).unwrap();
    let scan = wal::scan(&path);
    fs::remove_file(&path).ok();
    scan
}

/// Runs `decode` over `valid` (which must decode), over every cut of it
/// (which must not), and over a copy with the eight bytes at each offset
/// forged to 0, to one more than the bytes behind them and to
/// `u64::MAX` (which may decode or not). Whatever decodes must
/// re-encode, by `encode`, to the bytes it came from.
fn sweep<T: std::fmt::Debug, E: std::fmt::Debug>(
    valid: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, E>,
    encode: impl Fn(&T) -> Vec<u8>,
) {
    let decoded = decode(valid);
    assert!(decoded.is_ok(), "the valid encoding decodes");
    assert_canonical(valid, &decoded, &encode);
    for len in 0..valid.len() {
        assert!(decode(&valid[..len]).is_err(), "a cut at {len} decoded");
    }
    for at in 0..valid.len().saturating_sub(7) {
        let left = (valid.len() - at - 8) as u64;
        for forged in [0, left + 1, u64::MAX] {
            let mut bytes = valid.to_vec();
            bytes[at..at + 8].copy_from_slice(&forged.to_le_bytes());
            assert_canonical(&bytes, &decode(&bytes), &encode);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn random_bytes_decode_or_fail_typed(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        canonical(&bytes, CallData::decode, CallData::encode);
        canonical(&bytes, Transaction::decode, Transaction::encode);
        canonical(&bytes, Receipt::decode, Receipt::encode);
        canonical(&bytes, ScheduleMetadata::decode, ScheduleMetadata::encode);
        canonical(&bytes, Block::decode, Block::encode);
        assert_canonical(&bytes, &SnapshotFile::from_bytes(&bytes), SnapshotFile::to_bytes);
        let file = checkpoint_file(&bytes);
        assert_canonical(&file, &SnapshotFile::from_bytes(&file), SnapshotFile::to_bytes);
        let mut seal = vec![SEAL_TAG];
        seal.extend_from_slice(&bytes);
        // A checksummed frame decodes to its one block or is refused.
        match scan_frame("random.log", &seal) {
            Ok(scan) => {
                prop_assert_eq!(scan.blocks.len(), 1);
                prop_assert_eq!(seal_of(&scan.blocks[0]), seal);
            }
            Err(e) => prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
        }
    }

    #[test]
    fn forged_and_cut_encodings_decode_or_fail_typed(seed in any::<u64>()) {
        let block = sample_block(seed);
        let (call, tx, receipt, schedule, block_encoding) = (
            encoding(CallData::encode),
            encoding(Transaction::encode),
            encoding(Receipt::encode),
            encoding(ScheduleMetadata::encode),
            encoding(Block::encode),
        );
        for t in &block.transactions {
            sweep(&call(&t.call), |b| whole(b, CallData::decode), &call);
            sweep(&tx(t), |b| whole(b, Transaction::decode), &tx);
        }
        for r in &block.receipts {
            sweep(&receipt(r), |b| whole(b, Receipt::decode), &receipt);
        }
        if let Some(s) = &block.schedule {
            sweep(&schedule(s), |b| whole(b, ScheduleMetadata::decode), &schedule);
        }
        let block_bytes = block_encoding(&block);
        sweep(&block_bytes, |b| whole(b, Block::decode), &block_encoding);
        sweep(
            &checkpoint_payload(&block, &block_bytes),
            |b| SnapshotFile::from_bytes(&checkpoint_file(b)),
            payload_of,
        );
    }
}

/// A WAL frame is a file: one sweep of one block, not one per case.
#[test]
fn forged_and_cut_wal_frames_scan_or_stop() {
    let block = sample_block(0b10_1011);
    // `scan_frame` checksums every forged or cut payload, so a frame
    // that does not decode is no torn tail: the scan refuses the log.
    sweep(
        &seal_of(&block),
        |payload| match scan_frame("sweep.log", payload) {
            Ok(scan) => scan.blocks.into_iter().next().ok_or("no block"),
            Err(e) => {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}");
                Err("refused")
            }
        },
        seal_of,
    );
}

/// The bytes of a call to `function` claiming 2^40 arguments, with a
/// few bytes behind the count (far fewer than 2^40).
fn call_claiming_2_pow_40_arguments() -> Vec<u8> {
    encoded(|enc| {
        enc.put_str("increment");
        enc.put_u64(1 << 40);
        enc.put_raw(&[0; 64]);
    })
}

/// A schedule whose `which`-th count (edges, profiles, a profile's
/// locks) claims 2^40 entries.
fn schedule_claiming_2_pow_40(which: usize) -> Vec<u8> {
    encoded(|enc| {
        enc.put_u64(0); // serial order
        match which {
            0 => enc.put_u64(1 << 40),
            1 => {
                enc.put_u64(0);
                enc.put_u64(1 << 40);
            }
            _ => {
                enc.put_u64(0);
                enc.put_u64(1); // one profile…
                enc.put_u64(0); // …of transaction 0…
                enc.put_u64(1 << 40); // …holding 2^40 locks
            }
        }
        enc.put_raw(&[0; 64]);
    })
}

fn refused_count<T: std::fmt::Debug>(decoded: Result<T, DecodeError>) {
    assert_eq!(decoded.unwrap_err().context, COUNT_REFUSED);
}

#[test]
fn a_forged_count_of_2_pow_40_call_arguments_is_refused() {
    refused_count(CallData::decode(&mut Decoder::new(
        &call_claiming_2_pow_40_arguments(),
    )));
}

#[test]
fn a_forged_count_of_2_pow_40_schedule_edges_is_refused() {
    refused_count(ScheduleMetadata::decode(&mut Decoder::new(
        &schedule_claiming_2_pow_40(0),
    )));
}

#[test]
fn a_forged_count_of_2_pow_40_schedule_profiles_is_refused() {
    refused_count(ScheduleMetadata::decode(&mut Decoder::new(
        &schedule_claiming_2_pow_40(1),
    )));
}

#[test]
fn a_forged_count_of_2_pow_40_profile_locks_is_refused() {
    refused_count(ScheduleMetadata::decode(&mut Decoder::new(
        &schedule_claiming_2_pow_40(2),
    )));
}

/// A schedule of one transaction whose profile holds one lock per
/// `(key, mode byte)` of `locks`, in that order: any mode byte and any
/// lock order can be written.
fn schedule_with_locks(locks: &[(u64, u8)]) -> Vec<u8> {
    encoded(|enc| {
        enc.put_u64(1); // serial order: transaction 0
        enc.put_u64(0);
        enc.put_u64(0); // no edges
        enc.put_u64(1); // one profile…
        enc.put_u64(0); // …of transaction 0
        enc.put_u64(locks.len() as u64);
        for &(key, mode) in locks {
            enc.put_u64(1); // space
            enc.put_u64(key);
            enc.put_u8(mode);
            enc.put_u64(key); // counter
        }
    })
}

#[test]
fn a_lock_mode_byte_other_than_0_1_or_2_is_refused() {
    for (byte, mode) in [
        (0, LockMode::Additive),
        (1, LockMode::Exclusive),
        (2, LockMode::Shared),
    ] {
        let schedule = whole(&schedule_with_locks(&[(1, byte)]), ScheduleMetadata::decode);
        assert_eq!(schedule.unwrap().profiles[0].profile.locks[0].mode, mode);
    }
    for byte in [3, 7, 0xff] {
        let refused = whole(&schedule_with_locks(&[(1, byte)]), ScheduleMetadata::decode);
        assert_eq!(refused.unwrap_err().context, "unknown lock mode byte");
    }
}

#[test]
fn a_bool_byte_other_than_0_or_1_is_refused() {
    let call = |byte: u8| {
        encoded(|enc| {
            enc.put_str("vote");
            enc.put_u64(1); // one argument…
            enc.put_u8(1); // …a bool…
            enc.put_u8(byte); // …of this byte
        })
    };
    for (byte, value) in [(0, false), (1, true)] {
        let decoded = whole(&call(byte), CallData::decode).unwrap();
        assert_eq!(decoded, CallData::new("vote", vec![ArgValue::Bool(value)]));
    }
    for byte in [2, 0xff] {
        let refused = whole(&call(byte), CallData::decode);
        assert_eq!(refused.unwrap_err().context, "bool byte other than 0 or 1");
    }
}

#[test]
fn profile_locks_out_of_lock_order_are_refused() {
    let sorted = schedule_with_locks(&[(1, 1), (2, 2)]);
    canonical(&sorted, ScheduleMetadata::decode, ScheduleMetadata::encode);
    assert!(whole(&sorted, ScheduleMetadata::decode).is_ok());
    let swapped = whole(
        &schedule_with_locks(&[(2, 2), (1, 1)]),
        ScheduleMetadata::decode,
    );
    assert_eq!(
        swapped.unwrap_err().context,
        "profile locks out of lock order"
    );
}

/// The encoding of a block that extends `parent` with one transaction
/// whose call claims 2^40 arguments: the bytes stop at the forged call.
fn block_with_a_forged_call(parent: &Block) -> (Block, Vec<u8>) {
    let next = Block::build(
        parent.hash(),
        parent.header.number + 1,
        Vec::new(),
        Vec::new(),
        parent.header.state_root,
        None,
    );
    let tx = increment_tx(0, 1, 1);
    let bytes = encoded(|enc| {
        next.header.encode(enc);
        enc.put_u64(1);
        enc.put_u64(tx.nonce);
        enc.put_raw(tx.sender.as_bytes());
        enc.put_raw(tx.to.as_bytes());
        enc.put_u128(tx.value.amount());
        enc.put_raw(&call_claiming_2_pow_40_arguments());
    });
    (next, bytes)
}

/// A forged record reaches recovery's decoders through a durable node's
/// own directory: a seal frame, then a checkpoint, each with its
/// checksum recomputed over a block whose call claims 2^40 arguments.
/// Neither aborts the process. The frame ends the log's valid prefix,
/// like any checksummed frame that does not decode, so recovery keeps
/// the honest chain; with every checkpoint forged, recovery has no
/// anchor and returns an error.
#[test]
fn recovery_from_forged_records_returns_instead_of_aborting() {
    let dir = temp_path("recover");
    fs::remove_dir_all(&dir).ok();
    let config = DurabilityConfig::new(&dir, DurabilityMode::Buffered).snapshot_interval(2);
    let mut node = Node::builder()
        .world(counter_world())
        .engine(engine(2))
        .durability(config.clone())
        .build()
        .unwrap();
    for block in 0..3 {
        let txs = (0..3).map(|i| increment_tx(block, i, 1)).collect();
        node.mine_and_append(txs).unwrap();
    }
    let head = node.chain().head().clone();
    drop(node);

    let (forged, block_bytes) = block_with_a_forged_call(&head);
    let mut seal = vec![SEAL_TAG];
    seal.extend_from_slice(&block_bytes);
    let frame = wal_file(&seal);
    let honest = fs::read(dir.join(WAL_FILE)).unwrap();
    let mut log = honest.clone();
    log.extend_from_slice(&frame[WAL_HEADER.len()..]);
    fs::write(dir.join(WAL_FILE), &log).unwrap();
    // A checksummed frame that does not decode is refused, not cut.
    let refused = Node::recover(config.clone(), counter_world(), engine(2));
    assert!(matches!(refused, Err(CoreError::Durability { .. })));
    assert_eq!(fs::read(dir.join(WAL_FILE)).unwrap(), log, "left as it was");
    fs::write(dir.join(WAL_FILE), &honest).unwrap();
    let recovered = Node::recover(config.clone(), counter_world(), engine(2)).unwrap();
    assert_eq!(recovered.chain().head_hash(), head.hash());
    drop(recovered);

    let checkpoint = checkpoint_file(&checkpoint_payload(&forged, &block_bytes));
    for entry in fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|ext| ext == "snap") {
            fs::write(path, &checkpoint).unwrap();
        }
    }
    assert!(Node::recover(config, counter_world(), engine(2)).is_err());
    fs::remove_dir_all(&dir).ok();
}
