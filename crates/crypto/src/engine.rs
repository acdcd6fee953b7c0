//! The on-chip crypto engine: counter-mode pad generation, MAC and hash
//! with the fixed latencies of Table I (20-cycle AES).

use crate::aes::Aes128;
use crate::ghash::{Ghash, Tag};
use crate::sha256::{digest64, Digest, Sha256};

/// Latency model of the crypto engine, in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CryptoLatency {
    /// One AES block operation (OTP generation), Table I: 20 cycles.
    pub aes: u64,
    /// One MAC (GHASH) computation over a 64-byte block.
    pub mac: u64,
    /// One tree-node hash computation.
    pub hash: u64,
}

impl Default for CryptoLatency {
    fn default() -> Self {
        CryptoLatency { aes: 20, mac: 20, hash: 20 }
    }
}

/// A 64-byte memory block's worth of data.
pub type Block = [u8; 64];

/// The processor's security engine: performs counter-mode encryption,
/// MAC generation/verification and tree hashing, and reports the cycle
/// cost of each operation.
///
/// ```
/// use metaleak_crypto::engine::CryptoEngine;
/// let eng = CryptoEngine::new(*b"0123456789abcdef");
/// let pt = [42u8; 64];
/// let ct = eng.encrypt_block(&pt, 0x40, 7);
/// assert_ne!(ct, pt);
/// assert_eq!(eng.decrypt_block(&ct, 0x40, 7), pt);
/// ```
#[derive(Debug, Clone)]
pub struct CryptoEngine {
    aes: Aes128,
    ghash: Ghash,
    latency: CryptoLatency,
    /// Key epoch: bumped on whole-memory re-keying (global/monolithic
    /// counter overflow, Algorithm 1).
    epoch: u64,
    /// The epoch-0 key, kept so [`CryptoEngine::engine_for_epoch`] can
    /// rebuild the key schedule of any past epoch (rotation derives
    /// every later key as a pure function of the epoch number).
    key0: [u8; 16],
}

impl CryptoEngine {
    /// Creates an engine keyed with `key` and default latencies.
    pub fn new(key: [u8; 16]) -> Self {
        Self::with_latency(key, CryptoLatency::default())
    }

    /// Creates an engine with an explicit latency model.
    pub fn with_latency(key: [u8; 16], latency: CryptoLatency) -> Self {
        CryptoEngine {
            aes: Aes128::new(&key),
            ghash: Ghash::new(&key),
            latency,
            epoch: 0,
            key0: key,
        }
    }

    /// The latency model in use.
    pub fn latency(&self) -> CryptoLatency {
        self.latency
    }

    /// Current key epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Re-keys the engine (key change after global counter overflow).
    /// The caller must re-encrypt all covered data.
    pub fn rotate_key(&mut self) {
        self.epoch += 1;
        let key = Self::key_for_epoch(self.key0, self.epoch);
        self.aes = Aes128::new(&key);
        self.ghash = Ghash::new(&key);
    }

    /// The key of `epoch`: the construction key for epoch 0, otherwise
    /// a deterministic derivation from the epoch number (a real engine
    /// would use a hardware RNG; determinism keeps experiments
    /// reproducible and makes past epochs recomputable).
    fn key_for_epoch(key0: [u8; 16], epoch: u64) -> [u8; 16] {
        if epoch == 0 {
            return key0;
        }
        let seed = Sha256::digest(&epoch.to_le_bytes());
        let mut key = [0u8; 16];
        key.copy_from_slice(&seed[..16]);
        key
    }

    /// An engine keyed as this one was at `epoch`, for verifying
    /// material captured before a re-key. Returns `self`'s key schedule
    /// (cheap `Arc`-backed clone) when the epoch already matches;
    /// otherwise rebuilds the historical schedule.
    pub fn engine_for_epoch(&self, epoch: u64) -> CryptoEngine {
        if epoch == self.epoch {
            return self.clone();
        }
        let key = Self::key_for_epoch(self.key0, epoch);
        CryptoEngine {
            aes: Aes128::new(&key),
            ghash: Ghash::new(&key),
            latency: self.latency,
            epoch,
            key0: self.key0,
        }
    }

    /// Generates the one-time pad for a 64-byte block: four AES blocks
    /// over seeds `addr_chunk || ctr || epoch` (chunk-level seed
    /// uniqueness, §IV-A).
    fn pad(&self, block_addr: u64, counter: u64) -> Block {
        let mut seeds = [[0u8; 16]; 4];
        self.pad_seeds(block_addr, counter, &mut seeds);
        // One batched AES call for the block's four chunk pads (the
        // hardware computes them in parallel; here it shares the key
        // schedule and round loop across the chunks).
        self.aes.encrypt_blocks(&mut seeds);
        let mut pad = [0u8; 64];
        for (chunk, ks) in seeds.iter().enumerate() {
            pad[chunk * 16..(chunk + 1) * 16].copy_from_slice(ks);
        }
        pad
    }

    /// Writes the four chunk-pad AES seeds of `(block_addr, counter)`
    /// into `seeds`.
    fn pad_seeds(&self, block_addr: u64, counter: u64, seeds: &mut [[u8; 16]; 4]) {
        for (chunk, seed) in seeds.iter_mut().enumerate() {
            // Chunk address = block address * 4 + chunk offset; wrapping
            // keeps uniqueness for any physically meaningful address
            // (< 2^62) while tolerating adversarial inputs in tests.
            seed[..8].copy_from_slice(
                &block_addr.wrapping_mul(4).wrapping_add(chunk as u64).to_le_bytes(),
            );
            seed[8..15].copy_from_slice(&counter.to_le_bytes()[..7]);
            seed[15] = self.epoch as u8;
        }
    }

    /// Batched pad generation: the one-time pads of `reqs` (block
    /// address, counter) computed through a single [`Aes128`] batch
    /// call — 4·N blocks under one key schedule. Equivalent to (and
    /// pinned against) N scalar [`CryptoEngine::encrypt_block`] pads.
    pub fn pads(&self, reqs: &[(u64, u64)]) -> Vec<Block> {
        let mut seeds = vec![[0u8; 16]; reqs.len() * 4];
        for (i, &(addr, ctr)) in reqs.iter().enumerate() {
            let chunk: &mut [[u8; 16]; 4] =
                (&mut seeds[i * 4..i * 4 + 4]).try_into().expect("4 seeds per request");
            self.pad_seeds(addr, ctr, chunk);
        }
        self.aes.encrypt_blocks(&mut seeds);
        reqs.iter()
            .enumerate()
            .map(|(i, _)| {
                let mut pad = [0u8; 64];
                for c in 0..4 {
                    pad[c * 16..(c + 1) * 16].copy_from_slice(&seeds[i * 4 + c]);
                }
                pad
            })
            .collect()
    }

    /// Counter-mode encryption of one block.
    pub fn encrypt_block(&self, pt: &Block, block_addr: u64, counter: u64) -> Block {
        let pad = self.pad(block_addr, counter);
        let mut ct = [0u8; 64];
        for i in 0..64 {
            ct[i] = pt[i] ^ pad[i];
        }
        ct
    }

    /// Counter-mode decryption of one block (identical to encryption).
    pub fn decrypt_block(&self, ct: &Block, block_addr: u64, counter: u64) -> Block {
        self.encrypt_block(ct, block_addr, counter)
    }

    /// Cycle cost of generating a block pad. The four chunk pads are
    /// computed in parallel in hardware, so one AES latency.
    pub fn pad_latency(&self) -> u64 {
        self.latency.aes
    }

    /// MAC over ciphertext, counter and address.
    pub fn mac_block(&self, ct: &Block, counter: u64, block_addr: u64) -> Tag {
        self.ghash.mac_with_counter(ct, counter, block_addr)
    }

    /// Batched block MACs: one tag per `(ciphertext, counter, address)`
    /// item, all under this engine's GHASH subkey (whichever kernel
    /// it uses). Equivalent to (and pinned against) N scalar
    /// [`CryptoEngine::mac_block`] calls.
    pub fn mac_blocks(&self, items: &[(&Block, u64, u64)]) -> Vec<Tag> {
        items.iter().map(|&(ct, ctr, addr)| self.ghash.mac_with_counter(ct, ctr, addr)).collect()
    }

    /// Cycle cost of one MAC computation.
    pub fn mac_latency(&self) -> u64 {
        self.latency.mac
    }

    /// MAC over arbitrary metadata bytes bound to a version and address
    /// (used for counter blocks, whose freshness is pinned by the
    /// integrity-tree leaf version).
    pub fn mac_bytes(&self, bytes: &[u8], version: u64, addr: u64) -> Tag {
        // The same `bytes || version || addr` message shape as a block
        // MAC's `data || counter || addr`.
        self.ghash.mac_with_counter(bytes, version, addr)
    }

    /// Full-width tree hash of a node's serialized content.
    pub fn hash_node(&self, bytes: &[u8]) -> Digest {
        Sha256::digest(bytes)
    }

    /// 64-bit embedded node hash (SCT/SIT node blocks carry a 64-bit
    /// hash next to their counters).
    pub fn hash_node64(&self, bytes: &[u8]) -> u64 {
        digest64(bytes)
    }

    /// Cycle cost of one node-hash computation.
    pub fn hash_latency(&self) -> u64 {
        self.latency.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> CryptoEngine {
        CryptoEngine::new(*b"0123456789abcdef")
    }

    #[test]
    fn encrypt_decrypt_round_trip() {
        let e = engine();
        let pt: Block = core::array::from_fn(|i| i as u8);
        let ct = e.encrypt_block(&pt, 100, 5);
        assert_eq!(e.decrypt_block(&ct, 100, 5), pt);
    }

    #[test]
    fn counter_gives_temporal_uniqueness() {
        let e = engine();
        let pt = [0u8; 64];
        let c1 = e.encrypt_block(&pt, 100, 1);
        let c2 = e.encrypt_block(&pt, 100, 2);
        assert_ne!(c1, c2, "same data re-written must map to fresh ciphertext");
    }

    #[test]
    fn address_gives_spatial_uniqueness() {
        let e = engine();
        let pt = [0u8; 64];
        assert_ne!(e.encrypt_block(&pt, 1, 7), e.encrypt_block(&pt, 2, 7));
    }

    #[test]
    fn wrong_counter_garbles_decryption() {
        let e = engine();
        let pt = [9u8; 64];
        let ct = e.encrypt_block(&pt, 3, 10);
        assert_ne!(e.decrypt_block(&ct, 3, 11), pt);
    }

    #[test]
    fn chunks_use_distinct_pads() {
        let e = engine();
        let pt = [0u8; 64];
        let ct = e.encrypt_block(&pt, 0, 0);
        // pt is zero, so ct equals the pad; its four 16-byte chunks must
        // all be distinct.
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(ct[i * 16..(i + 1) * 16], ct[j * 16..(j + 1) * 16]);
            }
        }
    }

    #[test]
    fn rekeying_changes_ciphertext_and_epoch() {
        let mut e = engine();
        let pt = [1u8; 64];
        let before = e.encrypt_block(&pt, 5, 0);
        e.rotate_key();
        assert_eq!(e.epoch(), 1);
        let after = e.encrypt_block(&pt, 5, 0);
        assert_ne!(before, after);
        assert_eq!(e.decrypt_block(&after, 5, 0), pt);
    }

    #[test]
    fn mac_binds_all_inputs() {
        let e = engine();
        let ct = [4u8; 64];
        let base = e.mac_block(&ct, 1, 0x40);
        assert_ne!(e.mac_block(&ct, 2, 0x40), base);
        assert_ne!(e.mac_block(&ct, 1, 0x80), base);
        let mut ct2 = ct;
        ct2[0] ^= 1;
        assert_ne!(e.mac_block(&ct2, 1, 0x40), base);
    }

    /// Pins the batched entry points to the scalar path block for
    /// block: `pads` against per-call pads (via zero-plaintext
    /// encryption) and `mac_blocks` against per-call `mac_block`.
    #[test]
    fn batched_entry_points_match_scalar() {
        let e = engine();
        let reqs: Vec<(u64, u64)> = (0..9u64).map(|i| (i * 3 + 1, i * 7)).collect();
        let batched = e.pads(&reqs);
        for (i, &(addr, ctr)) in reqs.iter().enumerate() {
            // encrypt_block(0) == pad, so the scalar pad is observable.
            assert_eq!(batched[i], e.encrypt_block(&[0u8; 64], addr, ctr), "pad {i}");
        }
        let blocks: Vec<Block> = (0..9).map(|i| [i as u8 * 17 + 1; 64]).collect();
        let items: Vec<(&Block, u64, u64)> =
            blocks.iter().zip(&reqs).map(|(b, &(addr, ctr))| (b, ctr, addr)).collect();
        let tags = e.mac_blocks(&items);
        for (i, &(ct, ctr, addr)) in items.iter().enumerate() {
            assert_eq!(tags[i], e.mac_block(ct, ctr, addr), "mac {i}");
        }
    }

    #[test]
    fn engine_for_epoch_recovers_past_keys() {
        let mut e = engine();
        let ct0 = e.encrypt_block(&[5u8; 64], 9, 2);
        let mac0 = e.mac_block(&ct0, 2, 9);
        e.rotate_key();
        e.rotate_key();
        assert_eq!(e.epoch(), 2);
        let past = e.engine_for_epoch(0);
        assert_eq!(past.epoch(), 0);
        assert_eq!(past.encrypt_block(&[5u8; 64], 9, 2), ct0);
        assert_eq!(past.mac_block(&ct0, 2, 9), mac0);
        // Present epoch: same schedule as the engine itself.
        let now = e.engine_for_epoch(2);
        assert_eq!(now.encrypt_block(&[5u8; 64], 9, 2), e.encrypt_block(&[5u8; 64], 9, 2));
    }

    #[test]
    fn default_latencies_match_table1() {
        let e = engine();
        assert_eq!(e.pad_latency(), 20);
        assert_eq!(e.mac_latency(), 20);
        assert_eq!(e.hash_latency(), 20);
    }
}
