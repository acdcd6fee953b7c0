//! GHASH-style keyed MAC over GF(2^128) (the GCM universal hash),
//! implemented from scratch.
//!
//! Secure processors authenticate each ciphertext block with a keyed
//! hash such as GHASH (§IV, "Data authentication"); the MAC is computed
//! over the ciphertext block, the block address and (in Bonsai-style
//! designs) the encryption counter.
//!
//! Multiplication by the hash subkey `H` is the hot operation — every
//! data-block fetch verifies a MAC, and an 80-byte MAC message costs
//! six of them. [`Ghash`] picks one of two kernels when it is built:
//!
//! * **PCLMULQDQ with aggregated reduction** (x86-64, runtime
//!   detected). [`Ghash::new`] computes `H^1..H^16` once; a
//!   [`GhashStream`] assembles a message of up to 15 blocks plus its
//!   length block on the stack, each block is multiplied carry-lessly
//!   by the power of `H` that Horner's rule would give it, the
//!   unreduced 256-bit products are XORed together and the sum is
//!   reduced once. Longer messages fold 16 blocks at a time.
//! * **Shoup-style 8-bit tables** (every other CPU): 16 lookups per
//!   block, built once per key (64 KiB behind an `Arc`, so cloning an
//!   engine — and thus forking a snapshot — stays O(1)) and only when
//!   this kernel is the one selected.
//!
//! The reference bit-loop multiplier generates the tables and is the
//! test oracle pinning both kernels to identical outputs.

use std::sync::Arc;

use crate::aes::Aes128;

/// A 128-bit GHASH tag.
pub type Tag = [u8; 16];

/// Blocks one aggregated fold covers: the powers of `H` a CLMUL-backed
/// [`Ghash`] precomputes, and the blocks a [`GhashStream`] buffers.
/// Every MAC the engine computes (at most 88 bytes plus the length
/// block) fits in one fold.
const FOLD_BLOCKS: usize = 16;

/// Reference GF(2^128) multiply: GCM's field with the
/// x^128 + x^7 + x^2 + x + 1 polynomial, bit-reflected convention as in
/// NIST SP 800-38D. Used to build the per-key tables and as the test
/// oracle for both kernels.
fn gf128_mul(x: u128, y: u128) -> u128 {
    const R: u128 = 0xe100_0000_0000_0000_0000_0000_0000_0000;
    let mut z = 0u128;
    let mut v = x;
    for i in 0..128 {
        if (y >> (127 - i)) & 1 != 0 {
            z ^= v;
        }
        let lsb = v & 1;
        v >>= 1;
        if lsb != 0 {
            v ^= R;
        }
    }
    z
}

/// Per-key multiplication tables: `tables[j][b]` is the field product
/// of `H` with the block whose `j`-th byte (big-endian order) is `b`
/// and whose other bytes are zero. By linearity of carry-less
/// multiplication, `X * H` is then the XOR of 16 lookups.
type MulTables = [[u128; 256]; 16];

fn build_tables(h: u128) -> Box<MulTables> {
    let mut tables: Box<MulTables> = Box::new([[0u128; 256]; 16]);
    for (j, table) in tables.iter_mut().enumerate() {
        // Basis products for the 8 bits of byte position j, via the
        // reference multiplier; the 256 entries follow by linearity.
        let mut basis = [0u128; 8];
        for (k, b) in basis.iter_mut().enumerate() {
            *b = gf128_mul(1u128 << (120 - 8 * j + k), h);
        }
        for (v, slot) in table.iter_mut().enumerate() {
            let mut acc = 0u128;
            for (k, b) in basis.iter().enumerate() {
                if (v >> k) & 1 != 0 {
                    acc ^= *b;
                }
            }
            *slot = acc;
        }
    }
    tables
}

/// Multiplies `x` by the tables' subkey with 16 lookups.
#[inline]
fn mul_tables(t: &MulTables, x: u128) -> u128 {
    let bytes = x.to_be_bytes();
    let mut z = t[0][bytes[0] as usize];
    for j in 1..16 {
        z ^= t[j][bytes[j] as usize];
    }
    z
}

/// How a [`Ghash`] multiplies by its subkey.
#[derive(Debug, Clone)]
enum Kernel {
    /// PCLMULQDQ with aggregated reduction; `powers[i]` is `H^(i+1)`.
    /// Constructed only after [`clmul::available`] returned true.
    #[cfg(target_arch = "x86_64")]
    Clmul(Arc<[u128; FOLD_BLOCKS]>),
    /// Per-key lookup tables, shared by every `Ghash` of the subkey.
    Tables(Arc<MulTables>),
}

/// A keyed GHASH MAC. The hash subkey `H = AES_k(0^128)` is derived from
/// an AES-128 key exactly as in GCM. Either kernel's state sits behind
/// an `Arc`, so cloning a `Ghash` (and every engine state embedding
/// it) stays O(1), which the snapshot-fork model depends on.
///
/// ```
/// use metaleak_crypto::ghash::Ghash;
/// let mac = Ghash::new(b"0123456789abcdef");
/// let t1 = mac.mac(&[1, 2, 3], 42);
/// let t2 = mac.mac(&[1, 2, 3], 43); // different address
/// assert_ne!(t1, t2);
/// ```
#[derive(Debug, Clone)]
pub struct Ghash {
    /// Hash subkey (read only by the test oracle's bit-loop multiplier).
    #[cfg_attr(not(test), allow(dead_code))]
    h: u128,
    kernel: Kernel,
}

/// Process-global table cache keyed by hash subkey. The tables are a
/// pure function of `H`, and sweeps that construct many engines under
/// the same key (every trial with `METALEAK_SNAPSHOT=0`, every serve
/// job, every fuzz campaign round) would otherwise rebuild the same
/// 64 KiB table set each time. Bounded: a pathological run cycling
/// through more keys than the cap just drops the cache and rebuilds.
fn tables_for(h: u128) -> Arc<MulTables> {
    use std::sync::{Mutex, OnceLock};
    type TableCache = Mutex<Vec<(u128, Arc<MulTables>)>>;
    static CACHE: OnceLock<TableCache> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(Vec::new()));
    let mut guard = cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some((_, t)) = guard.iter().find(|(k, _)| *k == h) {
        return Arc::clone(t);
    }
    let t: Arc<MulTables> = Arc::from(build_tables(h));
    if guard.len() >= 64 {
        guard.clear();
    }
    guard.push((h, Arc::clone(&t)));
    t
}

impl Ghash {
    /// Derives the hash subkey from an AES-128 key and prepares the
    /// kernel this CPU runs: the powers of `H` for PCLMULQDQ, else the
    /// lookup tables.
    pub fn new(key: &[u8; 16]) -> Self {
        let aes = Aes128::new(key);
        let h = u128::from_be_bytes(aes.encrypt_block(&[0u8; 16]));
        #[cfg(target_arch = "x86_64")]
        if clmul::available() {
            // SAFETY: `clmul::available()` confirmed the pclmulqdq,
            // sse2 and ssse3 CPU features that `clmul::powers` enables.
            let powers = unsafe { clmul::powers(h) };
            return Ghash { h, kernel: Kernel::Clmul(Arc::new(powers)) };
        }
        Ghash { h, kernel: Kernel::Tables(tables_for(h)) }
    }

    /// Folds whole 16-byte `blocks` (1 to [`FOLD_BLOCKS`]) into the
    /// running hash `y`: the result of `blocks.len() / 16` Horner steps
    /// `y = (y ^ block) * H`.
    fn fold(&self, y: u128, blocks: &[u8]) -> u128 {
        debug_assert!(
            blocks.len().is_multiple_of(16) && (16..=16 * FOLD_BLOCKS).contains(&blocks.len())
        );
        match &self.kernel {
            #[cfg(target_arch = "x86_64")]
            Kernel::Clmul(powers) => {
                // SAFETY: a `Kernel::Clmul` is only built after
                // `clmul::available()` confirmed the pclmulqdq, sse2 and
                // ssse3 CPU features that `clmul::fold` enables; the
                // block count is within the powers it was given.
                unsafe { clmul::fold(powers, y, blocks) }
            }
            Kernel::Tables(t) => blocks.chunks_exact(16).fold(y, |y, b| {
                mul_tables(t, y ^ u128::from_be_bytes(b.try_into().expect("16-byte block")))
            }),
        }
    }

    /// GHASH over `data` padded to 16-byte blocks, with a final length
    /// block.
    pub fn hash(&self, data: &[u8]) -> Tag {
        let mut st = self.stream();
        st.update(data);
        st.finalize()
    }

    /// Starts an incremental hash over a logical concatenation of byte
    /// slices — the allocation-free path behind every MAC variant
    /// (`hash(a ++ b ++ c)` without materializing the concatenation).
    pub fn stream(&self) -> GhashStream<'_> {
        GhashStream { g: self, y: 0, buf: [0u8; 16 * FOLD_BLOCKS], fill: 0, len: 0 }
    }

    /// Authenticates a memory block: `MAC_k(data || addr)`, binding the
    /// block address to defeat splicing (§IV-B).
    pub fn mac(&self, data: &[u8], addr: u64) -> Tag {
        let mut st = self.stream();
        st.update(data);
        st.update(&addr.to_le_bytes());
        st.finalize()
    }

    /// Authenticates a block together with its encryption counter
    /// (`MAC_k(C, ctr, addr)` as in Bonsai Merkle Tree designs \[12\]).
    pub fn mac_with_counter(&self, data: &[u8], counter: u64, addr: u64) -> Tag {
        let mut st = self.stream();
        st.update(data);
        st.update(&counter.to_le_bytes());
        st.update(&addr.to_le_bytes());
        st.finalize()
    }
}

/// Incremental GHASH state from [`Ghash::stream`]: feeds an arbitrary
/// concatenation of byte slices through the hash without allocating.
/// Byte-equivalent to hashing the concatenated message in one call.
///
/// The message is assembled in a 16-block stack buffer and folded
/// only when the buffer is full and more bytes arrive, or at
/// [`GhashStream::finalize`]; so a message of up to 15 blocks is
/// hashed, length block included, in a single fold. The buffer is
/// zero past its fill, which pads the final partial block.
#[derive(Debug)]
pub struct GhashStream<'a> {
    g: &'a Ghash,
    y: u128,
    buf: [u8; 16 * FOLD_BLOCKS],
    fill: usize,
    len: usize,
}

impl GhashStream<'_> {
    /// Appends `data` to the logical message.
    pub fn update(&mut self, data: &[u8]) {
        self.len += data.len();
        let mut rest = data;
        loop {
            let take = rest.len().min(self.buf.len() - self.fill);
            self.buf[self.fill..self.fill + take].copy_from_slice(&rest[..take]);
            self.fill += take;
            rest = &rest[take..];
            if rest.is_empty() {
                return;
            }
            // Full, with more to come: fold it and start a zeroed one.
            self.y = self.g.fold(self.y, &self.buf);
            self.buf = [0; 16 * FOLD_BLOCKS];
            self.fill = 0;
        }
    }

    /// Absorbs the length block after the final (zero-padded) partial
    /// block and returns the tag.
    pub fn finalize(mut self) -> Tag {
        let mut end = self.fill.next_multiple_of(16);
        if end == self.buf.len() {
            // No room for the length block: fold the full buffer first.
            self.y = self.g.fold(self.y, &self.buf);
            end = 0;
        }
        let len_block = (self.len as u128) * 8;
        self.buf[end..end + 16].copy_from_slice(&len_block.to_be_bytes());
        self.g.fold(self.y, &self.buf[..end + 16]).to_be_bytes()
    }
}

/// PCLMULQDQ multiplication with aggregated reduction (x86-64 only,
/// runtime detected).
#[cfg(target_arch = "x86_64")]
mod clmul {
    use super::FOLD_BLOCKS;
    use core::arch::x86_64::*;
    use std::sync::OnceLock;

    /// Whether the running CPU supports the instructions we need.
    pub(super) fn available() -> bool {
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| {
            is_x86_feature_detected!("pclmulqdq")
                && is_x86_feature_detected!("sse2")
                && is_x86_feature_detected!("ssse3")
        })
    }

    /// Reduces the carry-less product `hi:lo` of two bit-reflected field
    /// elements modulo x^128 + x^7 + x^2 + x + 1, returning the
    /// bit-reflected result.
    ///
    /// In the reflected convention bit `127 - i` of a `u128` holds the
    /// coefficient of x^i, so the plain 256-bit product of two reflected
    /// operands holds x^k at bit `254 - k`: one place short of the
    /// reflected 256-bit layout, fixed by a left shift. `hi` then holds
    /// x^0..x^127 and `lo` holds x^128..x^255 as `x^128 * L`. With
    /// x^128 = x^7 + x^2 + x + 1, `L * (x^7 + x^2 + x + 1)` is `L` XOR
    /// its right shifts by 1, 2 and 7; the bits those shifts push out of
    /// `lo` (degrees 128..134) are folded in first, as `lo`'s left shifts
    /// by 127, 126 and 121.
    fn reduce(hi: u128, lo: u128) -> u128 {
        let (hi, lo) = ((hi << 1) | (lo >> 127), lo << 1);
        let d = lo ^ (lo << 127) ^ (lo << 126) ^ (lo << 121);
        hi ^ d ^ (d >> 1) ^ (d >> 2) ^ (d >> 7)
    }

    /// The unreduced 256-bit carry-less products of field elements,
    /// accumulated as the three 128-bit partial sums of schoolbook
    /// multiplication.
    struct Unreduced {
        lo: __m128i,
        mid: __m128i,
        hi: __m128i,
    }

    impl Unreduced {
        #[inline]
        fn new() -> Self {
            let zero = to_m128(0);
            Unreduced { lo: zero, mid: zero, hi: zero }
        }

        /// Adds the product `x * y`.
        ///
        /// # Safety
        /// The CPU must support `pclmulqdq` (see [`available`]).
        #[inline]
        #[target_feature(enable = "pclmulqdq,sse2")]
        unsafe fn add(&mut self, x: __m128i, y: __m128i) {
            self.lo = _mm_xor_si128(self.lo, _mm_clmulepi64_si128(x, y, 0x00));
            self.hi = _mm_xor_si128(self.hi, _mm_clmulepi64_si128(x, y, 0x11));
            let cross =
                _mm_xor_si128(_mm_clmulepi64_si128(x, y, 0x01), _mm_clmulepi64_si128(x, y, 0x10));
            self.mid = _mm_xor_si128(self.mid, cross);
        }

        /// The reduced field element of the accumulated sum.
        #[inline]
        fn reduce(self) -> u128 {
            let (lo, mid, hi) = (from_m128(self.lo), from_m128(self.mid), from_m128(self.hi));
            reduce(hi ^ (mid >> 64), lo ^ (mid << 64))
        }
    }

    #[inline]
    fn to_m128(x: u128) -> __m128i {
        // SAFETY: both types are 16 bytes of plain data with no
        // invalid bit patterns; the low register lane takes the low
        // 64 bits on this little-endian target.
        unsafe { core::mem::transmute::<u128, __m128i>(x) }
    }

    #[inline]
    fn from_m128(x: __m128i) -> u128 {
        // SAFETY: as in `to_m128`.
        unsafe { core::mem::transmute::<__m128i, u128>(x) }
    }

    /// `x * y` in GF(2^128), bit-reflected: one product, one reduction.
    ///
    /// # Safety
    /// The CPU must support `pclmulqdq` and `sse2` (see [`available`]).
    #[target_feature(enable = "pclmulqdq,sse2")]
    pub(super) unsafe fn mul(x: u128, y: u128) -> u128 {
        let mut acc = Unreduced::new();
        acc.add(to_m128(x), to_m128(y));
        acc.reduce()
    }

    /// `H^1..H^FOLD_BLOCKS` for subkey `h`.
    ///
    /// # Safety
    /// The CPU must support `pclmulqdq`, `sse2` and `ssse3` (see
    /// [`available`]).
    #[target_feature(enable = "pclmulqdq,sse2,ssse3")]
    pub(super) unsafe fn powers(h: u128) -> [u128; FOLD_BLOCKS] {
        let mut p = [h; FOLD_BLOCKS];
        for i in 1..FOLD_BLOCKS {
            p[i] = mul(p[i - 1], h);
        }
        p
    }

    /// Folds `blocks` (`k` whole 16-byte blocks, `k <= FOLD_BLOCKS`)
    /// into `y`: `(y ^ b_0) * H^k ^ b_1 * H^(k-1) ^ ... ^ b_(k-1) * H`,
    /// which expands `k` Horner steps, with one reduction.
    ///
    /// # Safety
    /// The CPU must support `pclmulqdq`, `sse2` and `ssse3` (see
    /// [`available`]).
    #[target_feature(enable = "pclmulqdq,sse2,ssse3")]
    pub(super) unsafe fn fold(powers: &[u128; FOLD_BLOCKS], y: u128, blocks: &[u8]) -> u128 {
        let k = blocks.len() / 16;
        assert!(
            blocks.len().is_multiple_of(16) && (1..=FOLD_BLOCKS).contains(&k),
            "fold of {} bytes",
            blocks.len()
        );
        // Byte-reverses a block: its big-endian bytes become the
        // reflected field element, as `u128::from_be_bytes` would.
        let bswap = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
        let mut acc = Unreduced::new();
        for (i, block) in blocks.chunks_exact(16).enumerate() {
            let mut x = _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().cast()), bswap);
            if i == 0 {
                x = _mm_xor_si128(x, to_m128(y));
            }
            acc.add(x, to_m128(powers[k - 1 - i]));
        }
        acc.reduce()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gf128_identity_and_zero() {
        // In the reflected convention, the multiplicative identity is
        // the byte 0x80 followed by zeros (x^0).
        let one = 0x8000_0000_0000_0000_0000_0000_0000_0000u128;
        let x = 0x0123_4567_89ab_cdef_0011_2233_4455_6677u128;
        assert_eq!(gf128_mul(x, one), x);
        assert_eq!(gf128_mul(x, 0), 0);
        // Commutativity.
        let y = 0xdead_beef_dead_beef_dead_beef_dead_beefu128;
        assert_eq!(gf128_mul(x, y), gf128_mul(y, x));
    }

    /// The multiplicands at the edges of the field: zero, the
    /// integer 1 (x^127 when reflected), the reflected identity 2^127,
    /// all ones, and a deterministic walk between them.
    fn multiplicands() -> Vec<u128> {
        let mut xs = vec![0, 1, 1u128 << 127, u128::MAX];
        let mut x = 0x0123_4567_89ab_cdef_0011_2233_4455_6677u128;
        for _ in 0..256 {
            xs.push(x);
            x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17) ^ 0xa5a5;
        }
        xs
    }

    /// Every kernel this host can run for `key`, named: the tables
    /// always, CLMUL when the CPU has it. Known-answer and reference
    /// tests run through each, so a host with PCLMULQDQ still checks
    /// the table fallback (the public constructor picks only one).
    fn kernels(key: &[u8; 16]) -> Vec<(&'static str, Ghash)> {
        let h = Ghash::new(key).h;
        #[cfg_attr(not(target_arch = "x86_64"), allow(unused_mut))]
        let mut ks = vec![("tables", Ghash { h, kernel: Kernel::Tables(tables_for(h)) })];
        #[cfg(target_arch = "x86_64")]
        if clmul::available() {
            // SAFETY: guarded by `clmul::available()` above.
            let powers = unsafe { clmul::powers(h) };
            ks.push(("clmul", Ghash { h, kernel: Kernel::Clmul(Arc::new(powers)) }));
        }
        ks
    }

    #[test]
    fn table_multiply_matches_the_bit_loop() {
        let h = Ghash::new(b"0123456789abcdef").h;
        let tables = build_tables(h);
        for x in multiplicands() {
            assert_eq!(mul_tables(&tables, x), gf128_mul(x, h), "{x:#x}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn clmul_multiply_matches_the_bit_loop() {
        if !clmul::available() {
            return;
        }
        let h = Ghash::new(b"0123456789abcdef").h;
        let xs = multiplicands();
        for &x in &xs {
            for y in [h, 0, 1, 1u128 << 127, u128::MAX, x.rotate_left(64)] {
                // SAFETY: guarded by `clmul::available()` above.
                assert_eq!(unsafe { clmul::mul(x, y) }, gf128_mul(x, y), "{x:#x} * {y:#x}");
            }
        }
        // SAFETY: guarded by `clmul::available()` above.
        let powers = unsafe { clmul::powers(h) };
        let mut p = h;
        for (i, power) in powers.iter().enumerate() {
            assert_eq!(*power, p, "H^{}", i + 1);
            p = gf128_mul(p, h);
        }
    }

    /// GCM specification test cases 2 and 3 (McGrew and Viega), whose
    /// associated data is empty, so `GHASH(H, {}, C)` is exactly
    /// [`Ghash::hash`] over the ciphertext.
    #[test]
    fn gcm_spec_known_answers() {
        let hex = |s: &str| -> Vec<u8> {
            (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
        };
        let cases = [
            (
                "00000000000000000000000000000000",
                "0388dace60b6a392f328c2b971b2fe78",
                "f38cbb1ad69223dcc3457ae5b6b0f885",
            ),
            (
                "feffe9928665731c6d6a8f9467308308",
                "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
                 21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
                "7f1b32b81b820d02614f8895ac1d4eac",
            ),
        ];
        for (key, c, tag) in cases {
            let key: [u8; 16] = hex(key).try_into().unwrap();
            let (c, tag) = (hex(c), hex(tag));
            assert_eq!(Ghash::new(&key).hash(&c)[..], tag[..]);
            for (name, g) in kernels(&key) {
                assert_eq!(g.hash(&c)[..], tag[..], "{name}");
            }
        }
    }
    #[test]
    fn stream_matches_one_shot_for_any_split() {
        let g = Ghash::new(b"0123456789abcdef");
        let msg: Vec<u8> = (0..80u8).collect();
        let whole = g.hash(&msg);
        for split in [0usize, 1, 7, 15, 16, 17, 33, 64, 79, 80] {
            let mut st = g.stream();
            st.update(&msg[..split]);
            st.update(&msg[split..]);
            assert_eq!(st.finalize(), whole, "split at {split}");
        }
        // Three-way split with a straddling middle piece.
        let mut st = g.stream();
        st.update(&msg[..5]);
        st.update(&msg[5..37]);
        st.update(&msg[37..]);
        assert_eq!(st.finalize(), whole);
        // Short updates that never fill one block (the MAC-over-short-
        // data shape: 3 bytes of data then an 8-byte address).
        let short = &msg[..11];
        let mut st = g.stream();
        st.update(&short[..3]);
        st.update(&short[3..]);
        assert_eq!(st.finalize(), g.hash(short));
    }

    #[test]
    fn mac_is_deterministic_and_keyed() {
        let k1 = Ghash::new(b"0123456789abcdef");
        let k2 = Ghash::new(b"fedcba9876543210");
        let data = [7u8; 64];
        assert_eq!(k1.mac(&data, 1), k1.mac(&data, 1));
        assert_ne!(k1.mac(&data, 1), k2.mac(&data, 1));
    }

    #[test]
    fn address_binding_detects_splicing() {
        let k = Ghash::new(b"0123456789abcdef");
        let data = [9u8; 64];
        assert_ne!(k.mac(&data, 0x1000), k.mac(&data, 0x2000));
    }

    #[test]
    fn counter_binding_detects_replay() {
        let k = Ghash::new(b"0123456789abcdef");
        let data = [3u8; 64];
        assert_ne!(k.mac_with_counter(&data, 1, 0x40), k.mac_with_counter(&data, 2, 0x40));
    }

    #[test]
    fn data_sensitivity() {
        let k = Ghash::new(b"0123456789abcdef");
        let mut a = [0u8; 64];
        let mut b = [0u8; 64];
        b[63] = 1;
        assert_ne!(k.hash(&a), k.hash(&b));
        a[0] = 1;
        b[63] = 0;
        b[0] = 1;
        assert_eq!(k.hash(&a), k.hash(&b));
    }

    #[test]
    fn length_extension_resistant_padding() {
        let k = Ghash::new(b"0123456789abcdef");
        // Same padded content but different lengths must differ thanks to
        // the length block.
        assert_ne!(k.hash(&[0u8; 15]), k.hash(&[0u8; 16]));
    }

    /// Asserts that `g` hashes every length 0..=300, fed whole and
    /// split at several points, exactly as a straight Horner loop over
    /// the reference bit-loop multiplier.
    fn assert_matches_reference_hash(g: &Ghash, name: &str) {
        let hash_ref = |data: &[u8]| -> Tag {
            let mut y = 0u128;
            for chunk in data.chunks(16) {
                let mut block = [0u8; 16];
                block[..chunk.len()].copy_from_slice(chunk);
                y = gf128_mul(y ^ u128::from_be_bytes(block), g.h);
            }
            y = gf128_mul(y ^ ((data.len() as u128) * 8), g.h);
            y.to_be_bytes()
        };
        let msg: Vec<u8> = (0..300usize).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=msg.len() {
            let msg = &msg[..len];
            let expect = hash_ref(msg);
            assert_eq!(g.hash(msg), expect, "{name}, len {len}");
            for split in [1usize, 15, 16, 17, 100, 255, 256, 257] {
                let split = split.min(len);
                let mid = (split + len) / 2;
                let mut st = g.stream();
                st.update(&msg[..split]);
                st.update(&msg[split..mid]);
                st.update(&msg[mid..]);
                assert_eq!(st.finalize(), expect, "{name}, len {len}, split {split}/{mid}");
            }
        }
    }

    #[test]
    fn table_hash_matches_reference_hash() {
        let (name, g) = kernels(b"fedcba9876543210").swap_remove(0);
        assert_eq!(name, "tables");
        assert_matches_reference_hash(&g, name);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn clmul_hash_matches_reference_hash() {
        for (name, g) in kernels(b"fedcba9876543210") {
            if name == "clmul" {
                assert_matches_reference_hash(&g, name);
            }
        }
    }
}
