//! A fast 64-bit checksum for on-disk records.
//!
//! Every record the ledger writes (a WAL frame, a checkpoint, a block's
//! checked bytes) carries one [`checksum64`] of its bytes. It guards
//! against torn writes and bit rot, not against an adversary: anyone who
//! can rewrite a file can recompute it (the SHA-256 commitments in block
//! headers are what an adversary cannot forge).
//!
//! The input is read as little-endian 8-byte words (the last one
//! zero-padded) spread round-robin over four independent lanes, so the
//! multiplies of consecutive words overlap instead of waiting on each
//! other. Each lane absorbs a word with `rotl((lane ^ word) · K, 29)`,
//! a bijection in the word for a fixed lane and in the lane for a fixed
//! word; the lanes and the input length are folded with the same step and
//! a bijective finalizer. A change confined to one aligned 8-byte word
//! therefore always changes the checksum, and the length is part of it.

/// An odd constant (2⁶⁴ / φ), so multiplying by it is a bijection.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Absorbs one word into one lane. Bijective in `word` and in `lane`.
#[inline(always)]
fn step(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(K).rotate_left(29)
}

/// The checksum of `bytes`. See the [module docs](self) for what it
/// detects.
///
/// # Example
///
/// ```
/// use cc_primitives::checksum::checksum64;
/// assert_ne!(checksum64(b"block"), checksum64(b"blocc"));
/// assert_ne!(checksum64(&[0; 8]), checksum64(&[0; 9]));
/// ```
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut lanes: [u64; 4] = std::array::from_fn(|lane| K.rotate_left(16 * lane as u32));
    let (blocks, tail) = bytes.as_chunks::<32>();
    for block in blocks {
        let (words, _) = block.as_chunks::<8>();
        for (lane, word) in lanes.iter_mut().zip(words) {
            *lane = step(*lane, u64::from_le_bytes(*word));
        }
    }
    for (lane, word) in lanes.iter_mut().zip(tail.chunks(8)) {
        let mut padded = [0u8; 8];
        padded[..word.len()].copy_from_slice(word);
        *lane = step(*lane, u64::from_le_bytes(padded));
    }
    let h = lanes.into_iter().fold(bytes.len() as u64, step);
    // The murmur3 finalizer: xor-shifts and odd multiplies, a bijection.
    let h = (h ^ (h >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    let h = (h ^ (h >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + 7) as u8).collect()
    }

    #[test]
    fn pinned_values() {
        // The on-disk format depends on these: a change here is a format
        // change and needs a new format version.
        assert_eq!(checksum64(b""), 0x9c79_bc77_ac53_1974);
        assert_eq!(checksum64(b"abc"), 0xaa8e_acfa_b4cf_afbe);
        assert_eq!(checksum64(&sample(100)), 0x4757_3dbe_621a_9939);
    }

    #[test]
    fn every_change_within_one_word_is_detected() {
        // Every single-byte value change, at every offset, of inputs that
        // end on and off a word and a four-word block boundary.
        for len in [1, 7, 8, 31, 32, 33, 100] {
            let good = sample(len);
            let expected = checksum64(&good);
            for i in 0..len {
                for delta in 1..=255u8 {
                    let mut bad = good.clone();
                    bad[i] = bad[i].wrapping_add(delta);
                    assert_ne!(checksum64(&bad), expected, "len {len}, byte {i} +{delta}");
                }
            }
        }
        // Whole-word changes: every bit pattern that differs in one bit
        // or in all of them.
        let good = sample(64);
        for word in 0..8 {
            for bit in 0..64 {
                let mut bad = good.clone();
                bad[word * 8 + bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum64(&bad), checksum64(&good));
            }
            let mut bad = good.clone();
            bad[word * 8..word * 8 + 8]
                .iter_mut()
                .for_each(|b| *b = !*b);
            assert_ne!(checksum64(&bad), checksum64(&good));
        }
    }

    #[test]
    fn length_is_folded_in() {
        // Trailing zeros pad the last word, so only the length tells
        // these apart.
        let sums: std::collections::HashSet<u64> =
            (0..=64).map(|len| checksum64(&vec![0u8; len])).collect();
        assert_eq!(sums.len(), 65);
        let data = sample(200);
        let prefixes: std::collections::HashSet<u64> = (0..=data.len())
            .map(|len| checksum64(&data[..len]))
            .collect();
        assert_eq!(prefixes.len(), data.len() + 1);
    }

    #[test]
    fn two_flipped_bits_are_detected() {
        // Not guaranteed by construction, but the lanes must not let the
        // same bit flipped in two words cancel out (a multiply alone
        // would: it only carries a difference upwards).
        let good = sample(96);
        let expected = checksum64(&good);
        for a in 0..good.len() * 8 {
            for b in (a + 1..good.len() * 8).step_by(7) {
                let mut bad = good.clone();
                bad[a / 8] ^= 1 << (a % 8);
                bad[b / 8] ^= 1 << (b % 8);
                assert_ne!(checksum64(&bad), expected, "bits {a} and {b}");
            }
        }
    }
}
