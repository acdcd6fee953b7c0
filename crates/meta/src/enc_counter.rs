//! Encryption-counter schemes: Global (GC), Monolithic (MoC) and Split
//! (SC) counters, with the overflow semantics of Algorithm 1 and the
//! counter-sharing groups of Figure 3.
//!
//! Blocks are identified by their index within the protected region;
//! the engine maps indices to physical addresses.

use crate::hashbuf::HashBuf;
use metaleak_sim::addr::BLOCKS_PER_PAGE;
use metaleak_sim::cow::CowMap;

/// Which counter organization the engine uses (Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterScheme {
    /// One counter shared by all memory blocks; snapshots stored per
    /// block. Overflow forces re-keying and whole-memory re-encryption.
    Global,
    /// One counter per block. Overflow of any counter still forces
    /// whole-memory re-encryption (key change).
    Monolithic,
    /// Split counters: a per-page major counter plus per-block minor
    /// counters; minor overflow re-encrypts only the page (Table I:
    /// 64-bit major, 7-bit minor).
    Split,
}

/// Width parameters, configurable so tests can trigger overflow cheaply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterWidths {
    /// Bits of a minor counter (Split) — paper default 7.
    pub minor_bits: u8,
    /// Bits of the monolithic/global counter — paper default 64
    /// (SGX: 56).
    pub mono_bits: u8,
}

impl Default for CounterWidths {
    fn default() -> Self {
        CounterWidths { minor_bits: 7, mono_bits: 64 }
    }
}

impl CounterWidths {
    /// Maximum value of a minor counter.
    pub fn minor_max(&self) -> u64 {
        (1u64 << self.minor_bits) - 1
    }

    /// Maximum value of a monolithic counter.
    pub fn mono_max(&self) -> u64 {
        if self.mono_bits >= 64 {
            u64::MAX
        } else {
            (1u64 << self.mono_bits) - 1
        }
    }
}

/// What must be re-encrypted after a counter overflow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReencryptScope {
    /// Only the blocks of one counter-sharing group (SC page).
    Group(Vec<u64>),
    /// The whole protected memory (GC/MoC overflow, with key change).
    AllMemory,
}

/// Overflow event raised by [`EncCounters::increment`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverflowEvent {
    /// Blocks requiring re-encryption (Algorithm 1 line 5). The written
    /// block itself is excluded; it is encrypted with the new counter
    /// anyway.
    pub scope: ReencryptScope,
    /// Whether the encryption key must rotate (GC/MoC only).
    pub rekey: bool,
}

/// Result of incrementing a block's counter on a write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncrementOutcome {
    /// The counter value to use for the new encryption (post-increment,
    /// fused for SC).
    pub counter: u64,
    /// Present when the increment overflowed.
    pub overflow: Option<OverflowEvent>,
}

/// Per-page split-counter block: one major plus per-block minors
/// (64-bit major + 64 x 7-bit minors = exactly one 64-byte counter
/// block per data page, §IV-A).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitCounterBlock {
    /// Shared major counter.
    pub major: u64,
    /// Per-block minor counters.
    pub minors: Vec<u16>,
}

impl SplitCounterBlock {
    fn new() -> Self {
        SplitCounterBlock { major: 0, minors: vec![0; BLOCKS_PER_PAGE] }
    }
}

/// The encryption-counter state for a protected region of `blocks`
/// blocks.
///
/// ```
/// use metaleak_meta::enc_counter::{CounterScheme, CounterWidths, EncCounters};
/// let mut c = EncCounters::new(CounterScheme::Split, CounterWidths::default(), 128);
/// let out = c.increment(5);
/// assert_eq!(out.counter, 1); // major 0, minor 1
/// assert!(out.overflow.is_none());
/// ```
#[derive(Debug, Clone)]
pub struct EncCounters {
    scheme: CounterScheme,
    widths: CounterWidths,
    blocks: u64,
    /// GC: the single shared counter.
    global: u64,
    /// GC: per-block snapshot; MoC: per-block counter (lazy: absent =>
    /// zero, so multi-GiB protected regions stay cheap to model).
    per_block: CowMap<u64>,
    /// SC: per-page split counter blocks (lazy: absent => zeroed).
    pages: CowMap<SplitCounterBlock>,
}

impl EncCounters {
    /// Creates counter state for `blocks` protected blocks, all zeroed.
    ///
    /// # Panics
    /// Panics if `blocks` is 0, or if the scheme is
    /// [`CounterScheme::Split`] and `widths.minor_bits` is outside
    /// `1..=8`: a counter block stores one byte per minor, so a wider
    /// minor would drop out of the MAC'd and tree-hashed bytes.
    pub fn new(scheme: CounterScheme, widths: CounterWidths, blocks: u64) -> Self {
        assert!(blocks > 0, "protected region must be nonempty");
        if scheme == CounterScheme::Split {
            assert!(
                (1..=8).contains(&widths.minor_bits),
                "split minor counters must be 1..=8 bits wide, got {}",
                widths.minor_bits
            );
        }
        let pages = blocks.div_ceil(BLOCKS_PER_PAGE as u64);
        EncCounters {
            scheme,
            widths,
            blocks,
            global: 0,
            per_block: CowMap::new(blocks),
            pages: CowMap::new(pages),
        }
    }

    /// Forces the counter stores fully private, materializing chunks
    /// still shared with a snapshot fork (the deep-copy cost baseline
    /// of the `fork_cost` benchmark).
    pub fn unshare(&mut self) {
        self.per_block.unshare();
        self.pages.unshare();
    }

    /// The scheme in use.
    pub fn scheme(&self) -> CounterScheme {
        self.scheme
    }

    /// Number of protected blocks.
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// Width parameters.
    pub fn widths(&self) -> CounterWidths {
        self.widths
    }

    /// Index of the counter *metadata block* holding `block`'s counter.
    ///
    /// SC packs one page's counters into one block; GC snapshots and MoC
    /// counters are 64-bit, eight per metadata block (as in SGX).
    pub fn counter_block_index(&self, block: u64) -> u64 {
        match self.scheme {
            CounterScheme::Split => block / BLOCKS_PER_PAGE as u64,
            CounterScheme::Global | CounterScheme::Monolithic => block / 8,
        }
    }

    /// Number of counter metadata blocks for the protected region.
    pub fn counter_blocks(&self) -> u64 {
        match self.scheme {
            CounterScheme::Split => self.blocks.div_ceil(BLOCKS_PER_PAGE as u64),
            CounterScheme::Global | CounterScheme::Monolithic => self.blocks.div_ceil(8),
        }
    }

    /// The decryption counter currently associated with `block`.
    pub fn value(&self, block: u64) -> u64 {
        self.check(block);
        match self.scheme {
            CounterScheme::Global | CounterScheme::Monolithic => {
                self.per_block.get(block).copied().unwrap_or(0)
            }
            CounterScheme::Split => match self.pages.get(block / BLOCKS_PER_PAGE as u64) {
                Some(page) => Self::fuse(
                    page.major,
                    page.minors[block as usize % BLOCKS_PER_PAGE],
                    self.widths,
                ),
                None => 0,
            },
        }
    }

    /// The minor-counter value of `block` (SC only).
    ///
    /// # Panics
    /// Panics unless the scheme is [`CounterScheme::Split`].
    pub fn minor_value(&self, block: u64) -> u16 {
        assert_eq!(self.scheme, CounterScheme::Split, "minor counters exist only in SC");
        self.check(block);
        self.pages
            .get(block / BLOCKS_PER_PAGE as u64)
            .map(|p| p.minors[block as usize % BLOCKS_PER_PAGE])
            .unwrap_or(0)
    }

    fn fuse(major: u64, minor: u16, widths: CounterWidths) -> u64 {
        (major << widths.minor_bits) | minor as u64
    }

    fn check(&self, block: u64) {
        assert!(block < self.blocks, "block {block} outside protected region");
    }

    /// Blocks in `block`'s counter-sharing group `G` (Figure 3),
    /// excluding `block` itself — the set re-encrypted on overflow
    /// (Algorithm 1 line 5).
    pub fn sharing_group_without(&self, block: u64) -> Vec<u64> {
        let page = block / BLOCKS_PER_PAGE as u64;
        let start = page * BLOCKS_PER_PAGE as u64;
        (start..(start + BLOCKS_PER_PAGE as u64).min(self.blocks)).filter(|&b| b != block).collect()
    }

    /// Increments `block`'s counter for a write (Algorithm 1). Returns
    /// the new encryption counter and any overflow event. On overflow
    /// the internal state is already advanced (major incremented /
    /// counters reset); the caller performs the re-encryption.
    pub fn increment(&mut self, block: u64) -> IncrementOutcome {
        self.check(block);
        match self.scheme {
            CounterScheme::Global => {
                if self.global == self.widths.mono_max() {
                    // Key change; restart the shared counter.
                    self.global = 1;
                    self.per_block.clear();
                    self.per_block.insert(block, 1);
                    return IncrementOutcome {
                        counter: 1,
                        overflow: Some(OverflowEvent {
                            scope: ReencryptScope::AllMemory,
                            rekey: true,
                        }),
                    };
                }
                self.global += 1;
                self.per_block.insert(block, self.global);
                IncrementOutcome { counter: self.global, overflow: None }
            }
            CounterScheme::Monolithic => {
                let c = self.per_block.get_or_insert_with(block, || 0);
                if *c == self.widths.mono_max() {
                    self.per_block.clear();
                    self.per_block.insert(block, 1);
                    return IncrementOutcome {
                        counter: 1,
                        overflow: Some(OverflowEvent {
                            scope: ReencryptScope::AllMemory,
                            rekey: true,
                        }),
                    };
                }
                *c += 1;
                IncrementOutcome { counter: *c, overflow: None }
            }
            CounterScheme::Split => {
                let widths = self.widths;
                let page_idx = block / BLOCKS_PER_PAGE as u64;
                let slot = block as usize % BLOCKS_PER_PAGE;
                let page = self.pages.get_or_insert_with(page_idx, SplitCounterBlock::new);
                if page.minors[slot] as u64 == widths.minor_max() {
                    // Overflow: bump major, reset every minor in the
                    // group, re-encrypt the group (Algorithm 1).
                    page.major += 1;
                    for m in page.minors.iter_mut() {
                        *m = 0;
                    }
                    page.minors[slot] = 1;
                    let counter = Self::fuse(page.major, 1, widths);
                    let group = self.sharing_group_without(block);
                    return IncrementOutcome {
                        counter,
                        overflow: Some(OverflowEvent {
                            scope: ReencryptScope::Group(group),
                            rekey: false,
                        }),
                    };
                }
                page.minors[slot] += 1;
                IncrementOutcome {
                    counter: Self::fuse(page.major, page.minors[slot], widths),
                    overflow: None,
                }
            }
        }
    }

    /// Test/experiment hook: forces `block`'s minor counter to `value`
    /// (SC only), modelling an attacker-known preset state.
    ///
    /// # Panics
    /// Panics unless the scheme is SC or `value` exceeds the minor max.
    pub fn set_minor(&mut self, block: u64, value: u16) {
        assert_eq!(self.scheme, CounterScheme::Split, "minor counters exist only in SC");
        assert!(value as u64 <= self.widths.minor_max(), "value exceeds minor width");
        self.check(block);
        let page =
            self.pages.get_or_insert_with(block / BLOCKS_PER_PAGE as u64, SplitCounterBlock::new);
        page.minors[block as usize % BLOCKS_PER_PAGE] = value;
    }

    /// Serializes counter metadata block `counter_block` (the bytes the
    /// engine MACs and the tree protects).
    ///
    /// # Panics
    /// Panics if `counter_block >= self.counter_blocks()`.
    pub fn counter_block_bytes(&self, counter_block: u64) -> Vec<u8> {
        let mut buf = HashBuf::new();
        self.fill_counter_block_bytes(counter_block, &mut buf);
        buf.as_slice().to_vec()
    }

    /// Serializes a counter block into a stack buffer (the
    /// allocation-free form of [`EncCounters::counter_block_bytes`],
    /// used on the MAC/verification hot paths). SC: the little-endian
    /// major, then one byte per minor; GC/MoC: the block's eight
    /// little-endian counters.
    ///
    /// # Panics
    /// Panics if `counter_block >= self.counter_blocks()`.
    pub fn fill_counter_block_bytes(&self, counter_block: u64, out: &mut HashBuf) {
        assert!(
            counter_block < self.counter_blocks(),
            "counter block {counter_block} outside protected region"
        );
        out.clear();
        match self.scheme {
            CounterScheme::Split => {
                let mut minors = [0u8; BLOCKS_PER_PAGE];
                let major = match self.pages.get(counter_block) {
                    Some(page) => {
                        // Lossless: `new` bounds split minors to 8 bits.
                        for (b, m) in minors.iter_mut().zip(&page.minors) {
                            *b = *m as u8;
                        }
                        page.major
                    }
                    None => 0,
                };
                out.push_u64_le(major);
                out.extend(&minors);
            }
            CounterScheme::Global | CounterScheme::Monolithic => {
                let start = counter_block * 8;
                let end = (start + 8).min(self.blocks);
                for b in start..end {
                    out.push_u64_le(self.per_block.get(b).copied().unwrap_or(0));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_widths() -> CounterWidths {
        CounterWidths { minor_bits: 3, mono_bits: 4 }
    }

    #[test]
    fn split_increment_fuses_major_and_minor() {
        let mut c = EncCounters::new(CounterScheme::Split, CounterWidths::default(), 128);
        assert_eq!(c.increment(0).counter, 1);
        assert_eq!(c.increment(0).counter, 2);
        assert_eq!(c.value(0), 2);
        assert_eq!(c.value(1), 0);
    }

    #[test]
    fn split_overflow_reencrypts_page_group() {
        let mut c = EncCounters::new(CounterScheme::Split, tiny_widths(), 128);
        for _ in 0..7 {
            assert!(c.increment(5).overflow.is_none());
        }
        let out = c.increment(5);
        let ov = out.overflow.expect("8th increment of a 3-bit minor overflows");
        assert!(!ov.rekey);
        match ov.scope {
            ReencryptScope::Group(g) => {
                assert_eq!(g.len(), 63, "rest of the page");
                assert!(!g.contains(&5));
                assert!(g.iter().all(|&b| b < 64));
            }
            ReencryptScope::AllMemory => panic!("SC must not rekey"),
        }
        // Major bumped, minors reset, written block at 1.
        assert_eq!(c.minor_value(5), 1);
        assert_eq!(c.minor_value(6), 0);
        assert_eq!(c.value(5), (1 << 3) | 1);
    }

    #[test]
    fn split_overflow_count_matches_minor_width() {
        // 2^n - 1 writes saturate; the 2^n-th overflows (§V microbenchmark).
        let w = CounterWidths { minor_bits: 7, mono_bits: 64 };
        let mut c = EncCounters::new(CounterScheme::Split, w, 64);
        for i in 0..127 {
            assert!(c.increment(0).overflow.is_none(), "write {i}");
        }
        assert!(c.increment(0).overflow.is_some());
    }

    #[test]
    fn monolithic_overflow_rekeys_all_memory() {
        let mut c = EncCounters::new(CounterScheme::Monolithic, tiny_widths(), 128);
        for _ in 0..15 {
            assert!(c.increment(3).overflow.is_none());
        }
        let ov = c.increment(3).overflow.expect("mono overflow");
        assert!(ov.rekey);
        assert_eq!(ov.scope, ReencryptScope::AllMemory);
        assert_eq!(c.value(3), 1);
        assert_eq!(c.value(4), 0);
    }

    #[test]
    fn global_counter_is_shared() {
        let mut c = EncCounters::new(CounterScheme::Global, CounterWidths::default(), 128);
        assert_eq!(c.increment(0).counter, 1);
        assert_eq!(c.increment(1).counter, 2);
        assert_eq!(c.value(0), 1, "snapshot kept for decryption");
        assert_eq!(c.value(1), 2);
    }

    #[test]
    fn global_overflow_hits_after_shared_exhaustion() {
        let mut c = EncCounters::new(CounterScheme::Global, tiny_widths(), 128);
        // 15 increments spread over blocks exhaust the 4-bit counter.
        for i in 0..15u64 {
            assert!(c.increment(i % 4).overflow.is_none());
        }
        let ov = c.increment(0).overflow.expect("global overflow");
        assert!(ov.rekey);
    }

    #[test]
    fn counter_block_indexing() {
        let sc = EncCounters::new(CounterScheme::Split, CounterWidths::default(), 256);
        assert_eq!(sc.counter_block_index(0), 0);
        assert_eq!(sc.counter_block_index(63), 0);
        assert_eq!(sc.counter_block_index(64), 1);
        assert_eq!(sc.counter_blocks(), 4);
        let moc = EncCounters::new(CounterScheme::Monolithic, CounterWidths::default(), 256);
        assert_eq!(moc.counter_block_index(7), 0);
        assert_eq!(moc.counter_block_index(8), 1);
        assert_eq!(moc.counter_blocks(), 32);
    }

    #[test]
    fn counter_block_bytes_change_with_state() {
        let mut c = EncCounters::new(CounterScheme::Split, CounterWidths::default(), 128);
        let before = c.counter_block_bytes(0);
        c.increment(0);
        let after = c.counter_block_bytes(0);
        assert_ne!(before, after);
        assert_eq!(before.len(), 8 + 64);
    }

    #[test]
    fn set_minor_presets_state() {
        let mut c = EncCounters::new(CounterScheme::Split, CounterWidths::default(), 64);
        c.set_minor(2, 126);
        assert!(c.increment(2).overflow.is_none(), "126 -> 127 saturates");
        assert!(c.increment(2).overflow.is_some(), "127 -> overflow");
    }

    #[test]
    #[should_panic(expected = "outside protected region")]
    fn out_of_range_block_panics() {
        let mut c = EncCounters::new(CounterScheme::Split, CounterWidths::default(), 64);
        c.increment(64);
    }

    /// A 9-bit minor would serialize as `m as u8`, so a page whose
    /// block 5 was written 256 times would hash like a fresh page.
    #[test]
    #[should_panic(expected = "split minor counters must be 1..=8 bits wide")]
    fn split_minor_wider_than_a_byte_is_rejected() {
        let w = CounterWidths { minor_bits: 9, mono_bits: 64 };
        EncCounters::new(CounterScheme::Split, w, 128);
    }

    #[test]
    #[should_panic(expected = "split minor counters must be 1..=8 bits wide")]
    fn split_minor_of_zero_bits_is_rejected() {
        let w = CounterWidths { minor_bits: 0, mono_bits: 64 };
        EncCounters::new(CounterScheme::Split, w, 128);
    }

    /// Every value an accepted minor width can hold reaches the
    /// counter-block bytes: no two states of one block serialize alike.
    #[test]
    fn every_split_minor_value_is_bound_into_the_counter_block() {
        for minor_bits in 1..=8u8 {
            let w = CounterWidths { minor_bits, mono_bits: 64 };
            let mut c = EncCounters::new(CounterScheme::Split, w, 128);
            let mut seen = vec![c.counter_block_bytes(0)];
            for _ in 0..w.minor_max() {
                assert!(c.increment(5).overflow.is_none());
                seen.push(c.counter_block_bytes(0));
            }
            let distinct: std::collections::BTreeSet<_> = seen.iter().collect();
            assert_eq!(distinct.len(), seen.len(), "{minor_bits}-bit minors");
        }
    }

    /// A page no write has touched serializes exactly like a
    /// materialized all-zero page (the allocation-free absent path).
    #[test]
    fn absent_page_serializes_like_a_zeroed_page() {
        let mut c = EncCounters::new(CounterScheme::Split, CounterWidths::default(), 256);
        let absent = c.counter_block_bytes(1);
        c.set_minor(64, 0);
        assert_eq!(c.counter_block_bytes(1), absent);
        let mut expect = vec![0u8; 8 + BLOCKS_PER_PAGE];
        assert_eq!(absent, expect);
        c.set_minor(65, 9);
        expect[8 + 1] = 9;
        assert_eq!(c.counter_block_bytes(1), expect);
    }

    #[test]
    #[should_panic(expected = "counter block 4 outside protected region")]
    fn split_counter_block_index_is_bounds_checked() {
        let c = EncCounters::new(CounterScheme::Split, CounterWidths::default(), 256);
        c.counter_block_bytes(c.counter_blocks());
    }

    #[test]
    #[should_panic(expected = "counter block 32 outside protected region")]
    fn monolithic_counter_block_index_is_bounds_checked() {
        let c = EncCounters::new(CounterScheme::Monolithic, CounterWidths::default(), 256);
        c.counter_block_bytes(c.counter_blocks());
    }

    #[test]
    #[should_panic(expected = "minor counters exist only in SC")]
    fn minor_value_requires_split() {
        let c = EncCounters::new(CounterScheme::Global, CounterWidths::default(), 64);
        c.minor_value(0);
    }
}
