//! AES-128 block cipher (FIPS-197), implemented from scratch.
//!
//! Used functionally by the secure-memory engine for counter-mode
//! one-time-pad generation. [`Aes128::encrypt_blocks`] runs on the
//! CPU's AES-NI unit (`aesenc`/`aesenclast`, four blocks interleaved)
//! when runtime detection finds it, and otherwise on a portable
//! byte-wise implementation (S-box lookups, ShiftRows, MixColumns)
//! that is also the reference the hardware path is pinned against.
//! Key expansion and decryption are always byte-wise. Neither path is
//! hardened (the portable one is not constant-time); both are
//! simulation substrates only.

/// AES block size in bytes.
pub const AES_BLOCK: usize = 16;
/// AES-128 key size in bytes.
pub const AES_KEY: usize = 16;
const ROUNDS: usize = 10;

/// An expanded AES-128 key.
///
/// ```
/// use metaleak_crypto::aes::Aes128;
/// let key = [0u8; 16];
/// let aes = Aes128::new(&key);
/// let pt = *b"sixteen byte msg";
/// let ct = aes.encrypt_block(&pt);
/// assert_eq!(aes.decrypt_block(&ct), pt);
/// ```
#[derive(Debug, Clone)]
pub struct Aes128 {
    round_keys: [[u8; 16]; ROUNDS + 1],
}

fn xtime(x: u8) -> u8 {
    (x << 1) ^ (((x >> 7) & 1) * 0x1b)
}

fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    p
}

/// Computes the AES S-box entry for `x` by inversion in GF(2^8) plus the
/// affine transform. Slow but table-free; we memoise in `SBOX`.
fn sbox_entry(x: u8) -> u8 {
    // Multiplicative inverse via exponentiation: x^254 = x^-1 in GF(2^8).
    let inv = if x == 0 {
        0
    } else {
        let mut acc = 1u8;
        let mut base = x;
        let mut e = 254u32;
        while e > 0 {
            if e & 1 != 0 {
                acc = gmul(acc, base);
            }
            base = gmul(base, base);
            e >>= 1;
        }
        acc
    };
    // Affine transform.
    inv ^ inv.rotate_left(1) ^ inv.rotate_left(2) ^ inv.rotate_left(3) ^ inv.rotate_left(4) ^ 0x63
}

fn build_sbox() -> ([u8; 256], [u8; 256]) {
    let mut s = [0u8; 256];
    let mut inv = [0u8; 256];
    for (i, slot) in s.iter_mut().enumerate() {
        *slot = sbox_entry(i as u8);
    }
    for (i, &v) in s.iter().enumerate() {
        inv[v as usize] = i as u8;
    }
    (s, inv)
}

fn sboxes() -> &'static ([u8; 256], [u8; 256]) {
    use std::sync::OnceLock;
    static SBOX: OnceLock<([u8; 256], [u8; 256])> = OnceLock::new();
    SBOX.get_or_init(build_sbox)
}

impl Aes128 {
    /// Expands a 128-bit key.
    pub fn new(key: &[u8; AES_KEY]) -> Self {
        let (sbox, _) = sboxes();
        let mut w = [[0u8; 4]; 4 * (ROUNDS + 1)];
        for i in 0..4 {
            w[i] = [key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]];
        }
        let mut rcon = 1u8;
        for i in 4..4 * (ROUNDS + 1) {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp = [
                    sbox[temp[1] as usize] ^ rcon,
                    sbox[temp[2] as usize],
                    sbox[temp[3] as usize],
                    sbox[temp[0] as usize],
                ];
                rcon = xtime(rcon);
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; ROUNDS + 1];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
            }
        }
        Aes128 { round_keys }
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for i in 0..16 {
            state[i] ^= rk[i];
        }
    }

    fn inv_sub_bytes(state: &mut [u8; 16]) {
        let (_, inv) = sboxes();
        for b in state.iter_mut() {
            *b = inv[*b as usize];
        }
    }

    fn shift_rows(state: &mut [u8; 16]) {
        // state is column-major: state[4*c + r].
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[4 * c + r] = s[4 * ((c + r) % 4) + r];
            }
        }
    }

    fn inv_shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[4 * ((c + r) % 4) + r] = s[4 * c + r];
            }
        }
    }

    fn mix_columns(state: &mut [u8; 16]) {
        // 2a ^ 3b ^ c ^ d  ==  a ^ (a^b^c^d) ^ xtime(a^b): the generic
        // gmul bit loop reduces to one doubling per output byte, which
        // is what lets the per-round batch loop vectorize.
        for c in 0..4 {
            let col = [state[4 * c], state[4 * c + 1], state[4 * c + 2], state[4 * c + 3]];
            let t = col[0] ^ col[1] ^ col[2] ^ col[3];
            state[4 * c] = col[0] ^ t ^ xtime(col[0] ^ col[1]);
            state[4 * c + 1] = col[1] ^ t ^ xtime(col[1] ^ col[2]);
            state[4 * c + 2] = col[2] ^ t ^ xtime(col[2] ^ col[3]);
            state[4 * c + 3] = col[3] ^ t ^ xtime(col[3] ^ col[0]);
        }
    }

    fn inv_mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [state[4 * c], state[4 * c + 1], state[4 * c + 2], state[4 * c + 3]];
            state[4 * c] = gmul(col[0], 14) ^ gmul(col[1], 11) ^ gmul(col[2], 13) ^ gmul(col[3], 9);
            state[4 * c + 1] =
                gmul(col[0], 9) ^ gmul(col[1], 14) ^ gmul(col[2], 11) ^ gmul(col[3], 13);
            state[4 * c + 2] =
                gmul(col[0], 13) ^ gmul(col[1], 9) ^ gmul(col[2], 14) ^ gmul(col[3], 11);
            state[4 * c + 3] =
                gmul(col[0], 11) ^ gmul(col[1], 13) ^ gmul(col[2], 9) ^ gmul(col[3], 14);
        }
    }

    /// Encrypts one 16-byte block.
    pub fn encrypt_block(&self, pt: &[u8; 16]) -> [u8; 16] {
        let mut s = *pt;
        self.encrypt_blocks(core::slice::from_mut(&mut s));
        s
    }

    /// Encrypts `blocks` in place under one expanded key schedule.
    ///
    /// This is the batched entry point. With AES-NI it keeps four
    /// blocks in flight per round; otherwise each round is applied
    /// across every block before the next begins, so the round key is
    /// loaded once per round and the byte-wise loops run over
    /// contiguous state the compiler can autovectorize. Output is
    /// bit-identical to calling [`Aes128::encrypt_block`] on each
    /// block independently, on either path.
    pub fn encrypt_blocks(&self, blocks: &mut [[u8; 16]]) {
        #[cfg(target_arch = "x86_64")]
        if ni::available() {
            // SAFETY: `ni::available()` confirmed the `aes` and `sse2`
            // CPU features at runtime, which is all `ni::encrypt_blocks`
            // enables; it reads only `round_keys` and writes only
            // `blocks`.
            unsafe { ni::encrypt_blocks(&self.round_keys, blocks) };
            return;
        }
        self.encrypt_blocks_soft(blocks);
    }

    /// The portable byte-wise form of [`Aes128::encrypt_blocks`]: the
    /// only path on CPUs without AES-NI and the reference the hardware
    /// path is tested against.
    fn encrypt_blocks_soft(&self, blocks: &mut [[u8; 16]]) {
        let (sbox, _) = sboxes();
        for s in blocks.iter_mut() {
            Self::add_round_key(s, &self.round_keys[0]);
        }
        for r in 1..ROUNDS {
            let rk = &self.round_keys[r];
            for s in blocks.iter_mut() {
                for b in s.iter_mut() {
                    *b = sbox[*b as usize];
                }
                Self::shift_rows(s);
                Self::mix_columns(s);
                Self::add_round_key(s, rk);
            }
        }
        let rk = &self.round_keys[ROUNDS];
        for s in blocks.iter_mut() {
            for b in s.iter_mut() {
                *b = sbox[*b as usize];
            }
            Self::shift_rows(s);
            Self::add_round_key(s, rk);
        }
    }

    /// Decrypts one 16-byte block.
    pub fn decrypt_block(&self, ct: &[u8; 16]) -> [u8; 16] {
        let mut s = *ct;
        Self::add_round_key(&mut s, &self.round_keys[ROUNDS]);
        for r in (1..ROUNDS).rev() {
            Self::inv_shift_rows(&mut s);
            Self::inv_sub_bytes(&mut s);
            Self::add_round_key(&mut s, &self.round_keys[r]);
            Self::inv_mix_columns(&mut s);
        }
        Self::inv_shift_rows(&mut s);
        Self::inv_sub_bytes(&mut s);
        Self::add_round_key(&mut s, &self.round_keys[0]);
        s
    }
}

/// AES-NI accelerated encryption (x86-64 only, runtime detected).
///
/// The FIPS-197 state is the 16 input bytes in order, which is the
/// byte order `aesenc` works on, so the portable round keys load
/// unchanged: whitening with round key 0, nine `aesenc` rounds and
/// one `aesenclast`.
#[cfg(target_arch = "x86_64")]
mod ni {
    use super::ROUNDS;
    use core::arch::x86_64::*;
    use std::sync::OnceLock;

    /// Whether the running CPU supports the instructions we need.
    pub(super) fn available() -> bool {
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE
            .get_or_init(|| is_x86_feature_detected!("aes") && is_x86_feature_detected!("sse2"))
    }

    /// Encrypts `blocks` in place, four at a time while at least four
    /// remain so independent rounds overlap in the pipeline.
    ///
    /// # Safety
    /// The CPU must support `aes` and `sse2` (see [`available`]).
    #[target_feature(enable = "aes,sse2")]
    pub(super) unsafe fn encrypt_blocks(
        round_keys: &[[u8; 16]; ROUNDS + 1],
        blocks: &mut [[u8; 16]],
    ) {
        let mut rk = [_mm_setzero_si128(); ROUNDS + 1];
        for (k, bytes) in rk.iter_mut().zip(round_keys) {
            *k = _mm_loadu_si128(bytes.as_ptr().cast());
        }
        let mut quads = blocks.chunks_exact_mut(4);
        for quad in &mut quads {
            let mut s = [_mm_setzero_si128(); 4];
            for (st, b) in s.iter_mut().zip(quad.iter()) {
                *st = _mm_xor_si128(_mm_loadu_si128(b.as_ptr().cast()), rk[0]);
            }
            for k in &rk[1..ROUNDS] {
                for st in s.iter_mut() {
                    *st = _mm_aesenc_si128(*st, *k);
                }
            }
            for (st, b) in s.iter().zip(quad.iter_mut()) {
                _mm_storeu_si128(b.as_mut_ptr().cast(), _mm_aesenclast_si128(*st, rk[ROUNDS]));
            }
        }
        for b in quads.into_remainder() {
            let mut st = _mm_xor_si128(_mm_loadu_si128(b.as_ptr().cast()), rk[0]);
            for k in &rk[1..ROUNDS] {
                st = _mm_aesenc_si128(st, *k);
            }
            _mm_storeu_si128(b.as_mut_ptr().cast(), _mm_aesenclast_si128(st, rk[ROUNDS]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A batch encryption entry point: the public dispatcher or one of
    /// the two paths behind it.
    type EncryptPath = fn(&Aes128, &mut [[u8; 16]]);

    /// Every encryption path this host can run, named: the portable
    /// rounds always, AES-NI when the CPU has it. Known-answer tests
    /// run through each, so a host with AES-NI still checks the
    /// portable code (the public entry point would only reach one).
    fn encrypt_paths() -> Vec<(&'static str, EncryptPath)> {
        #[cfg_attr(not(target_arch = "x86_64"), allow(unused_mut))]
        let mut paths: Vec<(&'static str, EncryptPath)> =
            vec![("dispatch", Aes128::encrypt_blocks), ("soft", Aes128::encrypt_blocks_soft)];
        #[cfg(target_arch = "x86_64")]
        if ni::available() {
            paths.push(("aes-ni", |aes, blocks| {
                // SAFETY: guarded by `ni::available()` above.
                unsafe { ni::encrypt_blocks(&aes.round_keys, blocks) }
            }));
        }
        paths
    }

    fn known_answer(key: &[u8; 16], pt: &[u8; 16], expect: &[u8; 16]) {
        let aes = Aes128::new(key);
        for (name, encrypt) in encrypt_paths() {
            let mut block = [*pt];
            encrypt(&aes, &mut block);
            assert_eq!(&block[0], expect, "{name}");
        }
        assert_eq!(&aes.encrypt_block(pt), expect);
        assert_eq!(&aes.decrypt_block(expect), pt);
    }

    #[test]
    fn fips197_appendix_b_vector() {
        // FIPS-197 Appendix B example.
        let key: [u8; 16] = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let pt: [u8; 16] = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let expect: [u8; 16] = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        known_answer(&key, &pt, &expect);
    }

    #[test]
    fn fips197_appendix_c_vector() {
        // FIPS-197 Appendix C.1 (AES-128).
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let pt: [u8; 16] = core::array::from_fn(|i| (i as u8) * 0x11);
        let expect: [u8; 16] = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        known_answer(&key, &pt, &expect);
    }

    #[test]
    fn round_trip_random_blocks() {
        let aes = Aes128::new(b"0123456789abcdef");
        let mut block = [0u8; 16];
        for i in 0..64u8 {
            block.iter_mut().for_each(|b| *b = b.wrapping_add(i).wrapping_mul(31).wrapping_add(7));
            let ct = aes.encrypt_block(&block);
            assert_ne!(ct, block, "ciphertext must differ from plaintext");
            assert_eq!(aes.decrypt_block(&ct), block);
        }
    }

    #[test]
    fn sbox_is_a_permutation_with_known_points() {
        let (sbox, inv) = sboxes();
        let mut seen = [false; 256];
        for &v in sbox.iter() {
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "S-box must be a bijection");
        assert_eq!(sbox[0x00], 0x63);
        assert_eq!(sbox[0x53], 0xed);
        for i in 0..256 {
            assert_eq!(inv[sbox[i] as usize] as usize, i);
        }
    }

    /// Pins the batched path to the scalar path block for block: a
    /// mixed batch must encrypt exactly as the same blocks one at a
    /// time, for every batch size the engine uses (1, 4, 4·K).
    #[test]
    fn encrypt_blocks_matches_scalar_block_for_block() {
        let aes = Aes128::new(b"0123456789abcdef");
        for n in [1usize, 2, 4, 7, 16, 64] {
            let mut batch: Vec<[u8; 16]> =
                (0..n).map(|i| core::array::from_fn(|j| (i * 31 + j * 7 + 3) as u8)).collect();
            let scalar: Vec<[u8; 16]> = batch.iter().map(|b| aes.encrypt_block(b)).collect();
            aes.encrypt_blocks(&mut batch);
            assert_eq!(batch, scalar, "batch of {n}");
        }
    }

    /// Pins AES-NI to the portable rounds for every batch size from
    /// one block (remainder only) through two full quads plus a
    /// remainder, and for the 64-block re-encryption batch.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn ni_matches_soft() {
        if !ni::available() {
            return;
        }
        for key in [[0u8; 16], *b"0123456789abcdef", [0xff; 16]] {
            let aes = Aes128::new(&key);
            for n in (1usize..=9).chain([64]) {
                let mut hw: Vec<[u8; 16]> =
                    (0..n).map(|i| core::array::from_fn(|j| (i * 73 + j * 11 + 5) as u8)).collect();
                let mut soft = hw.clone();
                // SAFETY: guarded by `ni::available()` above.
                unsafe { ni::encrypt_blocks(&aes.round_keys, &mut hw) };
                aes.encrypt_blocks_soft(&mut soft);
                assert_eq!(hw, soft, "batch of {n}");
            }
        }
    }

    #[test]
    fn key_sensitivity() {
        let a = Aes128::new(b"0000000000000000");
        let b = Aes128::new(b"0000000000000001");
        let pt = [0u8; 16];
        assert_ne!(a.encrypt_block(&pt), b.encrypt_block(&pt));
    }
}
