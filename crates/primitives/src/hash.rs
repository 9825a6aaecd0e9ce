//! SHA-256 and the [`Hash256`] digest type.
//!
//! The paper's blockchain substrate needs a tamper-evident commitment to
//! block contents and contract state: block hashes, transaction and
//! receipt roots, schedule digests, state roots and addresses are all
//! SHA-256 (FIPS 180-4), implemented here rather than taken from an
//! external crypto crate.
//!
//! The compression function has two kernels. On x86-64 CPUs with the SHA
//! extensions it runs `sha256rnds2` / `sha256msg1` / `sha256msg2` (on a
//! 2-vCPU Xeon VM: 4–7× the bytes a second of the portable rounds, from
//! 32-byte messages to 1 MiB); elsewhere it runs the portable unrolled
//! rounds. The kernel is chosen on
//! every call from the CPU's feature flags, which the standard library
//! detects once and caches; nothing else selects it. The portable rounds
//! stay as the fallback for CPUs without the extensions and as the
//! reference the hardware kernel is tested against. [`Sha256::update`]
//! hands every whole 64-byte block of its input to one kernel call, so the
//! hardware kernel keeps the state in registers across a long message.
//! Both kernels give the same digests, pinned by the standard test vectors
//! below.
//!
//! A message shorter than 56 bytes pads into a single block: [`sha256`]
//! and [`sha256_concat`] lay it out, with its `0x80` and its bit length, in
//! one 64-byte block on the stack and hand that block to the same
//! dispatched kernel, with no [`Sha256`] state and no buffer copies. Most
//! digests the workspace takes are this short (an account or contract
//! address, a document hash, a one-entry leaf, a one-child tree node), and
//! for them the incremental hasher's bookkeeping cost more than the
//! compression. Longer messages go through [`Sha256`]. The tests compare
//! both paths, on both kernels, at every length from 0 to 130 bytes.

use crate::hex;
use std::fmt;

/// A 256-bit digest, produced by [`sha256`] or [`Sha256`].
///
/// Used for block hashes, state roots and schedule commitments throughout
/// the workspace.
///
/// # Example
///
/// ```
/// use cc_primitives::hash::sha256;
/// let d = sha256(b"hello");
/// assert_ne!(d, sha256(b"world"));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Hash256(pub [u8; 32]);

impl Hash256 {
    /// The all-zero digest, used as the parent hash of a genesis block.
    pub const ZERO: Hash256 = Hash256([0u8; 32]);

    /// Returns the digest as a byte slice.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Renders the digest as a lowercase hex string (64 characters).
    pub fn to_hex(&self) -> String {
        hex::encode(&self.0)
    }

    /// Parses a 64-character hex string into a digest.
    ///
    /// # Errors
    ///
    /// Returns `None` if the string is not exactly 64 hex characters.
    pub fn from_hex(s: &str) -> Option<Hash256> {
        let bytes = hex::decode(s)?;
        if bytes.len() != 32 {
            return None;
        }
        let mut out = [0u8; 32];
        out.copy_from_slice(&bytes);
        Some(Hash256(out))
    }

    /// Returns true if this is the all-zero digest.
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&b| b == 0)
    }
}

impl fmt::Debug for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hash256({})", &self.to_hex()[..16])
    }
}

impl fmt::Display for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl From<[u8; 32]> for Hash256 {
    fn from(value: [u8; 32]) -> Self {
        Hash256(value)
    }
}

impl AsRef<[u8]> for Hash256 {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// Convenience wrapper: hash a byte slice in one call.
///
/// # Example
///
/// ```
/// use cc_primitives::hash::sha256;
/// // FIPS 180-4 test vector for "abc".
/// assert_eq!(
///     sha256(b"abc").to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
pub fn sha256(data: &[u8]) -> Hash256 {
    sha256_concat(&[data])
}

/// The digest of `parts` joined end to end, without joining them: a
/// message shorter than 56 bytes is laid out in one stack block, a longer
/// one is fed to [`Sha256::update`] part by part.
///
/// # Example
///
/// ```
/// use cc_primitives::hash::{sha256, sha256_concat};
/// assert_eq!(sha256_concat(&[b"ab", b"", b"c"]), sha256(b"abc"));
/// ```
pub fn sha256_concat(parts: &[&[u8]]) -> Hash256 {
    concat_with(compress, parts)
}

/// [`sha256_concat`] on the given compression kernel.
fn concat_with(kernel: impl Fn(&mut [u32; 8], &[[u8; 64]]), parts: &[&[u8]]) -> Hash256 {
    let len: usize = parts.iter().map(|part| part.len()).sum();
    if len >= 56 {
        let mut h = Sha256::new();
        for part in parts {
            h.update_with(&kernel, part);
        }
        return h.finalize_with(kernel);
    }
    // The message, 0x80, zeros, then the 64-bit big-endian bit length.
    let mut block = [0u8; 64];
    let mut at = 0;
    for part in parts {
        block[at..at + part.len()].copy_from_slice(part);
        at += part.len();
    }
    block[len] = 0x80;
    block[56..].copy_from_slice(&(len as u64 * 8).to_be_bytes());
    let mut state = H0;
    kernel(&mut state, std::slice::from_ref(&block));
    digest_of(state)
}

/// The digest a finished state spells, word by word in big-endian.
fn digest_of(state: [u32; 8]) -> Hash256 {
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    Hash256(out)
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use cc_primitives::hash::{sha256, Sha256};
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), sha256(b"abc"));
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a new hasher in its initial state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(compress, data);
    }

    /// Appends `u64` in big-endian to the hash state; convenience for digests
    /// built from structured data.
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_be_bytes());
    }

    /// Finishes the computation and returns the digest, consuming the hasher.
    pub fn finalize(self) -> Hash256 {
        self.finalize_with(compress)
    }

    /// [`Sha256::update`] on the given compression kernel. Every whole
    /// block of `data` goes to the kernel in one call.
    fn update_with(&mut self, kernel: impl Fn(&mut [u32; 8], &[[u8; 64]]), data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(rest.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&rest[..take]);
            self.buffer_len += take;
            rest = &rest[take..];
            if self.buffer_len == 64 {
                kernel(&mut self.state, std::slice::from_ref(&self.buffer));
                self.buffer_len = 0;
            }
        }
        let (blocks, tail) = rest.as_chunks::<64>();
        if !blocks.is_empty() {
            kernel(&mut self.state, blocks);
        }
        if !tail.is_empty() {
            self.buffer[..tail.len()].copy_from_slice(tail);
            self.buffer_len = tail.len();
        }
    }

    /// [`Sha256::finalize`] on the given compression kernel.
    fn finalize_with(mut self, kernel: impl Fn(&mut [u32; 8], &[[u8; 64]])) -> Hash256 {
        // Padding: 0x80, zeros, then the 64-bit big-endian length — in a
        // block of its own when fewer than 8 bytes are left in this one.
        // (`update` never leaves the buffer full.)
        let mut blocks = [[0u8; 64]; 2];
        blocks[0][..self.buffer_len].copy_from_slice(&self.buffer[..self.buffer_len]);
        blocks[0][self.buffer_len] = 0x80;
        let used = if self.buffer_len >= 56 { 2 } else { 1 };
        blocks[used - 1][56..].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        kernel(&mut self.state, &blocks[..used]);
        digest_of(self.state)
    }
}

/// The SHA-256 compression function on this CPU: the SHA extensions where
/// the CPU has them, the portable rounds otherwise.
#[inline]
#[allow(unsafe_code)]
fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    #[cfg(target_arch = "x86_64")]
    if sha_ni::detected() {
        // SAFETY: `sha_ni::compress` requires only the CPU features it
        // enables, and `detected` has just found each of them.
        return unsafe { sha_ni::compress(state, blocks) };
    }
    compress_portable(state, blocks);
}

/// The compression function in plain integer code, one block at a time.
///
/// The rounds are unrolled eight at a time with the working variables
/// renamed instead of shuffled (`h = g; g = f; …` is eight moves a round in
/// a rolled loop), and the message schedule is a rolling 16-word window.
fn compress_portable(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    for block in blocks {
        let mut w = [0u32; 16];
        for (word, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

        macro_rules! round {
            ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $kw:expr) => {
                let t1 = $h
                    .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
                    .wrapping_add(($e & $f) ^ (!$e & $g))
                    .wrapping_add($kw);
                let t2 = ($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
                    .wrapping_add(($a & $b) ^ ($a & $c) ^ ($b & $c));
                $d = $d.wrapping_add(t1);
                $h = t1.wrapping_add(t2);
            };
        }
        // Eight rounds bring the variables back to their own names.
        macro_rules! rounds8 {
            ($k:expr, $i:expr) => {
                round!(a, b, c, d, e, f, g, h, $k[$i].wrapping_add(w[$i]));
                round!(h, a, b, c, d, e, f, g, $k[$i + 1].wrapping_add(w[$i + 1]));
                round!(g, h, a, b, c, d, e, f, $k[$i + 2].wrapping_add(w[$i + 2]));
                round!(f, g, h, a, b, c, d, e, $k[$i + 3].wrapping_add(w[$i + 3]));
                round!(e, f, g, h, a, b, c, d, $k[$i + 4].wrapping_add(w[$i + 4]));
                round!(d, e, f, g, h, a, b, c, $k[$i + 5].wrapping_add(w[$i + 5]));
                round!(c, d, e, f, g, h, a, b, $k[$i + 6].wrapping_add(w[$i + 6]));
                round!(b, c, d, e, f, g, h, a, $k[$i + 7].wrapping_add(w[$i + 7]));
            };
        }

        for (i, k) in K.chunks_exact(16).enumerate() {
            if i > 0 {
                // The next 16 schedule words, in place: W[t] lives at t mod 16.
                for t in 0..16 {
                    let w15 = w[(t + 1) & 15];
                    let w2 = w[(t + 14) & 15];
                    w[t] = w[t]
                        .wrapping_add(w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3))
                        .wrapping_add(w[(t + 9) & 15])
                        .wrapping_add(w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10));
                }
            }
            rounds8!(k, 0);
            rounds8!(k, 8);
        }

        for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(add);
        }
    }
}

/// The compression function on the x86-64 SHA extensions
/// (`sha256rnds2`, `sha256msg1`, `sha256msg2`): two rounds per
/// instruction, the state held in two vector registers across all the
/// blocks of one call.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::K;
    use std::arch::x86_64::*;

    /// Whether this CPU has every feature [`compress`] enables (SSE2 is
    /// part of the x86-64 baseline). The standard library caches the
    /// answer, so a call only reads the cached flags.
    #[inline]
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Folds `blocks` into `state`. Calling it is `unsafe` outside code
    /// compiled for these features: the caller must have checked
    /// [`detected`].
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        // The round instruction keeps the state as two halves, lanes high
        // to low: (a, b, e, f) and (c, d, g, h).
        let [a, b, c, d, e, f, g, h] = state.map(|word| word as i32);
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);
        // Reverses the bytes of each 32-bit lane: message words are
        // big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

        // Four rounds on the message words in `w` (W[4i..4i + 4], lanes
        // low to high).
        macro_rules! rounds4 {
            ($w:expr, $i:expr) => {
                let k = &K[4 * $i..4 * $i + 4];
                let wk = _mm_add_epi32(
                    $w,
                    _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32),
                );
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            };
        }
        // The four words after W[t-16..t], held as W[t-16..t-12] in `$w0`
        // through W[t-4..t] in `$w3`:
        // W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16].
        macro_rules! schedule {
            ($w0:expr, $w1:expr, $w2:expr, $w3:expr) => {
                _mm_sha256msg2_epu32(
                    _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4)),
                    $w3,
                )
            };
        }

        for block in blocks {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // The low 64 bits of each quarter are its first eight bytes.
            let quarters = block.as_chunks::<16>().0;
            let [mut w0, mut w1, mut w2, mut w3]: [__m128i; 4] = std::array::from_fn(|q| {
                let le = u128::from_le_bytes(quarters[q]);
                _mm_shuffle_epi8(_mm_set_epi64x((le >> 64) as i64, le as i64), bswap)
            });
            rounds4!(w0, 0);
            rounds4!(w1, 1);
            rounds4!(w2, 2);
            rounds4!(w3, 3);
            for i in [4, 8, 12] {
                w0 = schedule!(w0, w1, w2, w3);
                rounds4!(w0, i);
                w1 = schedule!(w1, w2, w3, w0);
                rounds4!(w1, i + 1);
                w2 = schedule!(w2, w3, w0, w1);
                rounds4!(w2, i + 2);
                w3 = schedule!(w3, w0, w1, w2);
                rounds4!(w3, i + 3);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        *state = [
            _mm_extract_epi32(abef, 3),
            _mm_extract_epi32(abef, 2),
            _mm_extract_epi32(cdgh, 3),
            _mm_extract_epi32(cdgh, 2),
            _mm_extract_epi32(abef, 1),
            _mm_extract_epi32(abef, 0),
            _mm_extract_epi32(cdgh, 1),
            _mm_extract_epi32(cdgh, 0),
        ]
        .map(|word| word as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether [`compress`] runs the SHA extensions on this host. Prints
    /// the kernel, or that the comparison with the portable rounds is
    /// skipped because both sides would run them.
    fn hardware_kernel_runs(test: &str) -> bool {
        #[cfg(target_arch = "x86_64")]
        let detected = sha_ni::detected();
        #[cfg(not(target_arch = "x86_64"))]
        let detected = false;
        if detected {
            eprintln!(
                "{test}: dispatched kernel: SHA extensions, checked against the portable rounds"
            );
        } else {
            eprintln!(
                "{test}: dispatched kernel: portable rounds; SKIPPED the hardware half \
                 (no SHA extensions on this CPU)"
            );
        }
        detected
    }

    /// `parts` fed to [`Sha256::update`] one by one, on the portable
    /// rounds whatever the CPU has.
    fn portable_digest(parts: &[&[u8]]) -> Hash256 {
        let mut h = Sha256::new();
        for part in parts {
            h.update_with(compress_portable, part);
        }
        h.finalize_with(compress_portable)
    }

    #[test]
    fn kernels_agree_on_random_messages_and_splits() {
        let hardware = hardware_kernel_runs("kernels_agree_on_random_messages_and_splits");
        // The inputs of the vector tests come first, whole: those tests pin
        // what the dispatched kernel returns, and the portable rounds must
        // return the same.
        let mut inputs: Vec<(Vec<u8>, Vec<usize>)> = [
            &b""[..],
            b"abc",
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            &[b'a'; 1_000_000],
        ]
        .into_iter()
        .map(|data| (data.to_vec(), Vec::new()))
        .chain([55, 56, 57, 64, 63, 119, 120].map(|len| (vec![b'a'; len], Vec::new())))
        .collect();
        let mut rng = proptest::TestRng::deterministic("hash::kernels_agree", 0);
        for _ in 0..400 {
            let len = (rng.next_u64() % 4097) as usize;
            let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let mut cuts: Vec<usize> = (0..rng.next_u64() % 6)
                .map(|_| (rng.next_u64() % (len as u64 + 1)) as usize)
                .collect();
            cuts.sort_unstable();
            inputs.push((data, cuts));
        }
        for (case, (data, cuts)) in inputs.iter().enumerate() {
            let len = data.len();
            let parts: Vec<&[u8]> = [0]
                .iter()
                .chain(cuts)
                .zip(cuts.iter().chain([&len]))
                .map(|(&from, &to)| &data[from..to])
                .collect();
            let mut h = Sha256::new();
            for part in &parts {
                h.update(part);
            }
            let dispatched = h.finalize();
            assert_eq!(
                dispatched,
                sha256(data),
                "case {case}: split {cuts:?} of {len} bytes"
            );
            if hardware {
                assert_eq!(
                    dispatched,
                    portable_digest(&parts),
                    "case {case}: {len} bytes"
                );
            }
        }
    }

    #[test]
    fn one_block_path_agrees_at_every_short_length() {
        let hardware = hardware_kernel_runs("one_block_path_agrees_at_every_short_length");
        let data: Vec<u8> = (0..=130u8).map(|i| i.wrapping_mul(151) ^ 0x5a).collect();
        for len in 0..=130 {
            let message = &data[..len];
            let oneshot = sha256(message);
            let mut whole = Sha256::new();
            whole.update(message);
            assert_eq!(oneshot, whole.finalize(), "{len} bytes, fed whole");
            let mut bytewise = Sha256::new();
            for byte in message {
                bytewise.update(std::slice::from_ref(byte));
            }
            assert_eq!(oneshot, bytewise.finalize(), "{len} bytes, byte by byte");
            let (head, tail) = message.split_at(len / 3);
            assert_eq!(
                oneshot,
                sha256_concat(&[head, &[], tail]),
                "{len} bytes, in parts"
            );
            if hardware {
                let portable = concat_with(compress_portable, &[message]);
                assert_eq!(oneshot, portable, "{len} bytes, portable rounds");
                assert_eq!(
                    oneshot,
                    portable_digest(&[message]),
                    "{len} bytes, portable"
                );
            }
        }
    }

    #[test]
    fn empty_string_vector() {
        assert_eq!(
            sha256(b"").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            sha256(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        assert_eq!(
            sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn long_input_vector() {
        // One million 'a' characters (FIPS 180-4 long message test).
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            sha256(&data).to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).flat_map(|i| i.to_le_bytes()).collect();
        let mut h = Sha256::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn hex_roundtrip() {
        let d = sha256(b"roundtrip");
        assert_eq!(Hash256::from_hex(&d.to_hex()), Some(d));
        assert_eq!(Hash256::from_hex("zz"), None);
        assert_eq!(Hash256::from_hex("ab"), None);
    }

    #[test]
    fn zero_digest() {
        assert!(Hash256::ZERO.is_zero());
        assert!(!sha256(b"x").is_zero());
    }

    #[test]
    fn debug_and_display_nonempty() {
        let d = sha256(b"dbg");
        assert!(!format!("{d:?}").is_empty());
        assert_eq!(format!("{d}").len(), 64);
    }

    #[test]
    fn padding_boundaries() {
        // Lengths around the 55/56/64-byte padding boundaries exercise all
        // padding paths.
        let known = [
            (
                55usize,
                "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318",
            ),
            (
                56usize,
                "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a",
            ),
            (
                57usize,
                "f13b2d724659eb3bf47f2dd6af1accc87b81f09f59f2b75e5c0bed6589dfe8c6",
            ),
            (
                64usize,
                "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
            ),
            // The same boundaries one block further in.
            (
                63usize,
                "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34",
            ),
            (
                119usize,
                "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb",
            ),
            (
                120usize,
                "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c",
            ),
        ];
        for (len, expect) in known {
            let data = vec![b'a'; len];
            assert_eq!(sha256(&data).to_hex(), expect, "length {len}");
        }
    }
}
