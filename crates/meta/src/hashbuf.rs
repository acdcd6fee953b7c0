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
        if !self.spill.is_empty() {
            self.spill.extend_from_slice(data);
        } else if self.len + data.len() <= HASH_BUF_CAPACITY {
            self.bytes[self.len..self.len + data.len()].copy_from_slice(data);
            self.len += data.len();
        } else {
            self.spill.reserve(self.len + data.len());
            self.spill.extend_from_slice(&self.bytes[..self.len]);
            self.spill.extend_from_slice(data);
        }
    }

    /// Appends a little-endian `u64`.
    pub fn push_u64_le(&mut self, v: u64) {
        self.extend(&v.to_le_bytes());
    }

    /// Appends a little-endian `u16`.
    pub fn push_u16_le(&mut self, v: u16) {
        self.extend(&v.to_le_bytes());
    }

    /// Appends one byte.
    pub fn push_u8(&mut self, v: u8) {
        self.extend(&[v]);
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
        b.push_u16_le(0x0a0b);
        b.push_u8(0xff);
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
        b.push_u8(7);
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
}
