//! Serialization buffer for metadata hash/MAC inputs with inline
//! storage.
//!
//! Tree-node payloads and counter blocks for the paper's preset
//! geometries are at most ~100 bytes, but serializing them through
//! `Vec<u8>` put a heap allocation on every hash and MAC in the
//! verification hot path. [`HashBuf`] keeps a stack buffer sized for
//! the largest preset serialization (SCT L0: 16-byte node id + 8-byte
//! major + 32 two-byte minors + 8-byte parent version), so
//! serialize-then-hash round trips never allocate on those paths.
//! Custom geometries (e.g. a monolithic-counter tree over a wide
//! arity) can exceed the inline capacity; the buffer then spills to
//! the heap rather than truncating or panicking.

/// Inline capacity of a [`HashBuf`]; comfortably above the largest
/// preset metadata serialization (96 bytes for an SCT L0 embedded-hash
/// input). Writes beyond this spill to the heap.
pub const HASH_BUF_CAPACITY: usize = 160;

/// A byte buffer for building hash/MAC inputs, allocation-free up to
/// [`HASH_BUF_CAPACITY`] bytes and heap-backed beyond that.
#[derive(Debug, Clone)]
pub struct HashBuf {
    len: usize,
    bytes: [u8; HASH_BUF_CAPACITY],
    /// Heap storage once the inline array overflows; empty while the
    /// contents fit inline. Non-empty means it holds the *entire*
    /// buffer (the inline array is dead).
    spill: Vec<u8>,
}

impl Default for HashBuf {
    fn default() -> Self {
        Self::new()
    }
}

impl HashBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        HashBuf { len: 0, bytes: [0; HASH_BUF_CAPACITY], spill: Vec::new() }
    }

    /// Discards the contents. Spill capacity is retained so a reused
    /// buffer allocates at most once.
    pub fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }

    /// Bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        if self.spill.is_empty() {
            &self.bytes[..self.len]
        } else {
            &self.spill
        }
    }

    /// Number of bytes written.
    pub fn len(&self) -> usize {
        if self.spill.is_empty() {
            self.len
        } else {
            self.spill.len()
        }
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends raw bytes.
    pub fn extend(&mut self, data: &[u8]) {
        self.tail_mut(data.len()).copy_from_slice(data);
    }

    /// Appends a little-endian `u64`.
    pub fn push_u64_le(&mut self, v: u64) {
        self.extend(&v.to_le_bytes());
    }

    /// Appends each of `vs` as a little-endian `u64`, in order (one
    /// bounds check for the whole slice instead of one per element).
    pub fn push_u64s_le(&mut self, vs: &[u64]) {
        let dst = self.tail_mut(8 * vs.len());
        for (d, v) in dst.chunks_exact_mut(8).zip(vs) {
            d.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Appends each of `vs` as a little-endian `u16`, in order.
    pub fn push_u16s_le(&mut self, vs: &[u16]) {
        let dst = self.tail_mut(2 * vs.len());
        for (d, v) in dst.chunks_exact_mut(2).zip(vs) {
            d.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Grows the buffer by `n` bytes and returns them for the caller to
    /// overwrite, spilling to the heap when the inline array would
    /// overflow.
    fn tail_mut(&mut self, n: usize) -> &mut [u8] {
        if self.spill.is_empty() && self.len + n <= HASH_BUF_CAPACITY {
            let start = self.len;
            self.len += n;
            return &mut self.bytes[start..start + n];
        }
        if self.spill.is_empty() {
            // `n > 0` here (the inline array holds `len <= CAPACITY`
            // bytes), so the spill becomes non-empty and owns the
            // whole buffer from now on.
            self.spill.reserve(self.len + n);
            self.spill.extend_from_slice(&self.bytes[..self.len]);
        }
        let start = self.spill.len();
        self.spill.resize(start + n, 0);
        &mut self.spill[start..]
    }
}

impl core::ops::Deref for HashBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

// Equality and hashing cover only the written prefix: `clear` resets
// `len` without re-zeroing the inline tail, so derived impls would let
// stale trailing bytes distinguish logically-equal buffers.
impl PartialEq for HashBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for HashBuf {}

impl core::hash::Hash for HashBuf {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_vec_serialization() {
        let mut b = HashBuf::new();
        b.push_u64_le(0x0102030405060708);
        b.push_u16s_le(&[0x0a0b]);
        b.extend(&[0xff]);
        b.extend(&[1, 2, 3]);
        let mut v = Vec::new();
        v.extend_from_slice(&0x0102030405060708u64.to_le_bytes());
        v.extend_from_slice(&0x0a0bu16.to_le_bytes());
        v.push(0xff);
        v.extend_from_slice(&[1, 2, 3]);
        assert_eq!(b.as_slice(), &v[..]);
        assert_eq!(b.len(), v.len());
        b.clear();
        assert!(b.is_empty());
    }

    #[test]
    fn spills_to_heap_past_inline_capacity() {
        let mut b = HashBuf::new();
        let mut v = Vec::new();
        for i in 0..(2 * HASH_BUF_CAPACITY as u64 + 5) {
            b.push_u64_le(i);
            v.extend_from_slice(&i.to_le_bytes());
        }
        assert_eq!(b.as_slice(), &v[..]);
        assert_eq!(b.len(), v.len());
        b.clear();
        assert!(b.is_empty());
        // Reuse after a spill goes back through the same path.
        b.extend(&[7]);
        assert_eq!(b.as_slice(), &[7]);
    }

    #[test]
    fn spill_straddles_the_boundary_mid_write() {
        let mut b = HashBuf::new();
        b.extend(&[0xAA; HASH_BUF_CAPACITY - 3]);
        b.extend(&[0xBB; 8]);
        let mut v = vec![0xAA; HASH_BUF_CAPACITY - 3];
        v.extend_from_slice(&[0xBB; 8]);
        assert_eq!(b.as_slice(), &v[..]);
    }

    /// The slice pushers write exactly the bytes of one push per
    /// element, from any starting fill, inline or across the spill
    /// boundary.
    #[test]
    fn bulk_pushers_match_per_element_pushes() {
        let u64s: Vec<u64> = (0..40u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
        let u16s: Vec<u16> = (0..90u16).map(|i| i.wrapping_mul(40503)).collect();
        for prefix in [0usize, 1, 7, 100, HASH_BUF_CAPACITY - 9, HASH_BUF_CAPACITY, 300] {
            for n in [0usize, 1, 4, 32, 40] {
                let mut bulk = HashBuf::new();
                let mut each = HashBuf::new();
                bulk.extend(&vec![0x5a; prefix]);
                each.extend(&vec![0x5a; prefix]);
                bulk.push_u64s_le(&u64s[..n]);
                for v in &u64s[..n] {
                    each.push_u64_le(*v);
                }
                bulk.push_u16s_le(&u16s[..2 * n]);
                for v in &u16s[..2 * n] {
                    each.extend(&v.to_le_bytes());
                }
                assert_eq!(bulk, each, "prefix {prefix}, {n} elements");
                assert_eq!(bulk.len(), prefix + 8 * n + 4 * n);
            }
        }
    }
}
