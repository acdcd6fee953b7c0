//! Integrity-tree state: hash tree (HT), split-counter tree (SCT) and
//! the SGX integrity tree (SIT), with genuine verification, lazy update
//! and the counter-overflow/subtree-reset semantics of §IV-C.
//!
//! Node hashes and child versions are real (SHA-256-derived), so replay
//! and tampering are actually detected, while every operation also
//! returns a *work report* (nodes loaded, hash operations, reset sizes)
//! that the engine converts into cycles.

use crate::enc_counter::CounterWidths;
use crate::geometry::{NodeId, TreeGeometry};
use crate::hashbuf::HashBuf;
use metaleak_crypto::sha256::digest64;
use metaleak_sim::cow::CowVec;

/// Which integrity-tree design is in use (Figure 4 / Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeKind {
    /// Hash tree: every node holds hashes of its children (8-ary BMT).
    Hash,
    /// Split-counter tree: major + per-child minor counters + embedded
    /// hash (32-ary L0, 16-ary above).
    SplitCounter,
    /// SGX integrity tree: monolithic per-child counters + embedded
    /// hash (8-ary, 56-bit counters).
    Sgx,
}

/// Content of one tree node block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodePayload {
    /// HT: truncated (64-bit) hashes of each child.
    Hashes(Vec<u64>),
    /// SCT: shared major, per-child minors, embedded hash.
    Split {
        /// Shared tree major counter.
        major: u64,
        /// Per-child tree minor counters.
        minors: Vec<u16>,
        /// Embedded hash binding payload to the parent's version.
        hash: u64,
    },
    /// SIT: per-child monolithic counters, embedded hash.
    Mono {
        /// Per-child version counters.
        counters: Vec<u64>,
        /// Embedded hash binding payload to the parent's version.
        hash: u64,
    },
}

/// A tree-counter overflow event: the subtree below `node` was reset
/// and re-hashed (§IV-C), and every attached counter block under it
/// must be re-authenticated by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeOverflowEvent {
    /// The node whose counter overflowed.
    pub node: NodeId,
    /// Number of node blocks reset + re-hashed (the subtree size).
    pub nodes_reset: u64,
    /// Attached (counter-block) indices covered by the subtree.
    pub attached: core::ops::Range<u64>,
}

/// Error from [`IntegrityTree::set_node_counter`]: the operation is
/// undefined for the tree design, or the value does not fit the
/// configured counter width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PresetError {
    /// The tree design has no counters to preset (hash trees).
    NoCounters(TreeKind),
    /// The value exceeds the counter width.
    ValueTooWide {
        /// The rejected value.
        value: u64,
        /// Maximum representable counter value.
        max: u64,
    },
}

impl core::fmt::Display for PresetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PresetError::NoCounters(kind) => {
                write!(f, "{kind:?} trees have no counters to preset")
            }
            PresetError::ValueTooWide { value, max } => {
                write!(f, "counter value {value} exceeds width (max {max})")
            }
        }
    }
}

impl std::error::Error for PresetError {}

/// Result of a tree update (leaf bump or lazy propagation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeUpdate {
    /// The node block that was modified (now dirty).
    pub dirty: NodeId,
    /// Hash operations performed.
    pub hash_ops: u64,
    /// Overflow, if the update saturated a tree counter.
    pub overflow: Option<TreeOverflowEvent>,
}

/// Result of a verification walk (Algorithm 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyWalk {
    /// Node blocks loaded from memory, leaf upwards, stopping *before*
    /// the first cached node (the temporary root).
    pub loaded: Vec<NodeId>,
    /// Hash operations performed during verification.
    pub hash_ops: u64,
    /// Whether every check passed (false indicates tampering).
    pub ok: bool,
}

/// The in-memory integrity tree over the encryption-counter blocks.
#[derive(Debug, Clone)]
pub struct IntegrityTree {
    kind: TreeKind,
    geometry: TreeGeometry,
    widths: CounterWidths,
    /// nodes[level][index]. Each level is a copy-on-write chunked
    /// array, so cloning the tree for a snapshot fork is O(levels) Arc
    /// bumps and a fork re-copies only the node chunks it dirties.
    nodes: Vec<CowVec<NodePayload>>,
}

impl IntegrityTree {
    /// Builds a zeroed tree of `kind` over `geometry`.
    pub fn new(kind: TreeKind, geometry: TreeGeometry, widths: CounterWidths) -> Self {
        let mut nodes = Vec::new();
        for level in 0..geometry.levels() {
            let arity = geometry.arity(level);
            let count = geometry.nodes_at(level) as usize;
            let proto = match kind {
                TreeKind::Hash => NodePayload::Hashes(vec![0; arity]),
                TreeKind::SplitCounter => {
                    NodePayload::Split { major: 0, minors: vec![0; arity], hash: 0 }
                }
                TreeKind::Sgx => NodePayload::Mono { counters: vec![0; arity], hash: 0 },
            };
            nodes.push(CowVec::new(count, proto));
        }
        let mut tree = IntegrityTree { kind, geometry, widths, nodes };
        tree.rehash_all();
        tree
    }

    /// The paper's default SCT (Table I: leaf 56-bit major, 7-bit minor).
    pub fn sct(covered: u64) -> Self {
        IntegrityTree::new(
            TreeKind::SplitCounter,
            TreeGeometry::sct(covered),
            CounterWidths { minor_bits: 7, mono_bits: 56 },
        )
    }

    /// The paper's default HT (8-ary BMT).
    pub fn ht(covered: u64) -> Self {
        IntegrityTree::new(TreeKind::Hash, TreeGeometry::ht(covered), CounterWidths::default())
    }

    /// The SGX integrity tree (8-ary, 56-bit monolithic counters).
    pub fn sit(covered: u64) -> Self {
        IntegrityTree::new(
            TreeKind::Sgx,
            TreeGeometry::sit(covered),
            CounterWidths { minor_bits: 7, mono_bits: 56 },
        )
    }

    /// The tree design.
    pub fn kind(&self) -> TreeKind {
        self.kind
    }

    /// The tree shape.
    pub fn geometry(&self) -> &TreeGeometry {
        &self.geometry
    }

    /// The counter widths (counter trees).
    pub fn widths(&self) -> CounterWidths {
        self.widths
    }

    /// Forces every level's node array fully private, materializing
    /// chunks still shared with a snapshot fork (the deep-copy cost
    /// baseline of the `fork_cost` benchmark).
    pub fn unshare(&mut self) {
        for level in &mut self.nodes {
            level.unshare();
        }
    }

    fn node(&self, id: NodeId) -> &NodePayload {
        self.nodes[id.level as usize].get(id.index as usize)
    }

    fn node_mut(&mut self, id: NodeId) -> &mut NodePayload {
        self.nodes[id.level as usize].get_mut(id.index as usize)
    }

    /// Serialized node content (what would live in the 64-byte node
    /// block in memory).
    pub fn node_bytes(&self, id: NodeId) -> Vec<u8> {
        let mut buf = HashBuf::new();
        self.fill_node_bytes(id, &mut buf);
        buf.as_slice().to_vec()
    }

    /// Serializes node content into a stack buffer (the allocation-free
    /// form of [`IntegrityTree::node_bytes`], used on the hash paths).
    pub fn fill_node_bytes(&self, id: NodeId, out: &mut HashBuf) {
        out.clear();
        match self.node(id) {
            NodePayload::Hashes(hs) => out.push_u64s_le(hs),
            NodePayload::Split { major, minors, hash } => {
                out.push_u64_le(*major);
                out.push_u16s_le(minors);
                out.push_u64_le(*hash);
            }
            NodePayload::Mono { counters, hash } => {
                out.push_u64s_le(counters);
                out.push_u64_le(*hash);
            }
        }
    }

    /// The version value the parent keeps for child slot `slot` of
    /// `parent` (fused major|minor for SCT, counter for SIT, child hash
    /// for HT).
    fn parent_slot_version(&self, parent: NodeId, slot: usize) -> u64 {
        match self.node(parent) {
            NodePayload::Hashes(hs) => hs[slot],
            NodePayload::Split { major, minors, .. } => {
                (major << self.widths.minor_bits) | minors[slot] as u64
            }
            NodePayload::Mono { counters, .. } => counters[slot],
        }
    }

    /// Version the leaf keeps for attached counter block `cb` — the
    /// value the engine binds into the counter-block MAC so that counter
    /// replay is detected.
    pub fn leaf_version(&self, cb: u64) -> u64 {
        let leaf = self.geometry.leaf_of(cb);
        let slot = self.geometry.leaf_slot_of(cb);
        self.parent_slot_version(leaf, slot)
    }

    /// Current minor value for attached block `cb` in the leaf.
    ///
    /// Returns `None` for tree designs without split counters (only the
    /// SCT keeps per-child minors).
    pub fn leaf_minor(&self, cb: u64) -> Option<u16> {
        let leaf = self.geometry.leaf_of(cb);
        let slot = self.geometry.leaf_slot_of(cb);
        self.node_minor(leaf, slot)
    }

    /// The minor value of child slot `slot` of `node`.
    ///
    /// Returns `None` for tree designs without split counters or for
    /// out-of-range slots.
    pub fn node_minor(&self, node: NodeId, slot: usize) -> Option<u16> {
        match self.node(node) {
            NodePayload::Split { minors, .. } => minors.get(slot).copied(),
            _ => None,
        }
    }

    /// Test/experiment hook: force a node's counter slot to `value`
    /// (models attacker-known preset state for MetaLeak-C).
    ///
    /// Fails for hash trees (which keep no counters) and for values
    /// beyond the configured counter width.
    pub fn set_node_counter(
        &mut self,
        node: NodeId,
        slot: usize,
        value: u64,
    ) -> Result<(), PresetError> {
        let widths = self.widths;
        let kind = self.kind;
        match self.node_mut(node) {
            NodePayload::Split { minors, .. } => {
                if value > widths.minor_max() {
                    return Err(PresetError::ValueTooWide { value, max: widths.minor_max() });
                }
                minors[slot] = value as u16;
            }
            NodePayload::Mono { counters, .. } => {
                if value > widths.mono_max() {
                    return Err(PresetError::ValueTooWide { value, max: widths.mono_max() });
                }
                counters[slot] = value;
            }
            NodePayload::Hashes(_) => return Err(PresetError::NoCounters(kind)),
        }
        self.reseal(node);
        Ok(())
    }

    /// Embedded-hash input: payload counters plus the parent's version
    /// of *this* node (binding the node to its parent's state).
    fn fill_embedded_hash_input(&self, id: NodeId, buf: &mut HashBuf) {
        buf.clear();
        buf.push_u64s_le(&[id.level as u64, id.index]);
        match self.node(id) {
            NodePayload::Hashes(hs) => buf.push_u64s_le(hs),
            NodePayload::Split { major, minors, .. } => {
                buf.push_u64_le(*major);
                buf.push_u16s_le(minors);
            }
            NodePayload::Mono { counters, .. } => buf.push_u64s_le(counters),
        }
        if let Some(parent) = self.geometry.parent(id) {
            let slot = self.geometry.child_slot(id).expect("non-root");
            buf.push_u64_le(self.parent_slot_version(parent, slot));
        }
    }

    /// Recomputes and stores the embedded hash of `id` (counter trees;
    /// no-op for HT whose integrity lives in the parent).
    fn reseal(&mut self, id: NodeId) {
        let mut buf = HashBuf::new();
        self.fill_embedded_hash_input(id, &mut buf);
        let h = digest64(&buf);
        match self.node_mut(id) {
            NodePayload::Hashes(_) => {}
            NodePayload::Split { hash, .. } => *hash = h,
            NodePayload::Mono { hash, .. } => *hash = h,
        }
    }

    fn embedded_hash(&self, id: NodeId) -> Option<u64> {
        match self.node(id) {
            NodePayload::Hashes(_) => None,
            NodePayload::Split { hash, .. } => Some(*hash),
            NodePayload::Mono { hash, .. } => Some(*hash),
        }
    }

    /// Reseals every node bottom-up (construction / subtree reset).
    fn rehash_all(&mut self) {
        for level in 0..self.geometry.levels() {
            for index in 0..self.geometry.nodes_at(level) {
                self.reseal(NodeId::new(level, index));
            }
        }
    }

    /// Initializes the hash tree's stored hashes from the actual initial
    /// counter-block contents, propagating upwards. `fill_cb(cb, buf)`
    /// serializes counter block `cb` into `buf` (replacing its
    /// contents). No-op for counter trees, whose embedded hashes are
    /// sealed in [`IntegrityTree::new`].
    pub fn init_leaf_hashes(&mut self, fill_cb: impl Fn(u64, &mut HashBuf)) {
        if !matches!(self.kind, TreeKind::Hash) {
            return;
        }
        let mut buf = HashBuf::new();
        for cb in 0..self.geometry.covered() {
            let leaf = self.geometry.leaf_of(cb);
            let slot = self.geometry.leaf_slot_of(cb);
            fill_cb(cb, &mut buf);
            let h = digest64(&buf);
            if let NodePayload::Hashes(hs) = self.node_mut(leaf) {
                hs[slot] = h;
            }
        }
        for level in 0..self.geometry.levels() - 1 {
            for index in 0..self.geometry.nodes_at(level) {
                let node = NodeId::new(level, index);
                self.fill_node_bytes(node, &mut buf);
                let h = digest64(&buf);
                let parent = self.geometry.parent(node).expect("non-root");
                let slot = self.geometry.child_slot(node).expect("non-root");
                if let NodePayload::Hashes(hs) = self.node_mut(parent) {
                    hs[slot] = h;
                }
            }
        }
    }

    /// Propagates `node` and every ancestor below the root (a full lazy
    /// writeback chain, as happens when the metadata cache drains).
    /// Returns one update per propagation, bottom-up.
    pub fn propagate_to_root(&mut self, node: NodeId) -> Vec<TreeUpdate> {
        let mut updates = Vec::new();
        let mut cur = node;
        while !self.geometry.is_root(cur) {
            let up = self.propagate_writeback(cur);
            let next = up.dirty;
            updates.push(up);
            cur = next;
        }
        updates
    }

    /// Bumps the version slot `slot` of `node`; returns true on overflow.
    fn bump_slot(&mut self, node: NodeId, slot: usize, child_hash: Option<u64>) -> bool {
        let widths = self.widths;
        let overflowed = match self.node_mut(node) {
            NodePayload::Hashes(hs) => {
                hs[slot] = child_hash.expect("HT updates carry the child hash");
                false
            }
            NodePayload::Split { minors, .. } => {
                if minors[slot] as u64 == widths.minor_max() {
                    true
                } else {
                    minors[slot] += 1;
                    false
                }
            }
            NodePayload::Mono { counters, .. } => {
                if counters[slot] == widths.mono_max() {
                    true
                } else {
                    counters[slot] += 1;
                    false
                }
            }
        };
        if !overflowed {
            self.reseal(node);
        }
        overflowed
    }

    /// Handles a tree-counter overflow at `node`, `slot`: resets the
    /// subtree's minors (incrementing majors) and re-hashes every node
    /// block in it, then records the triggering update (§IV-C).
    fn overflow_reset(&mut self, node: NodeId, slot: usize) -> TreeOverflowEvent {
        let subtree = self.geometry.subtree_nodes(node);
        for &n in &subtree {
            match self.node_mut(n) {
                NodePayload::Split { major, minors, .. } => {
                    *major += 1;
                    minors.iter_mut().for_each(|m| *m = 0);
                }
                NodePayload::Mono { counters, .. } => {
                    counters.iter_mut().for_each(|c| *c = 0);
                }
                NodePayload::Hashes(_) => {}
            }
        }
        // Record the triggering child update post-reset.
        match self.node_mut(node) {
            NodePayload::Split { minors, .. } => minors[slot] = 1,
            NodePayload::Mono { counters, .. } => counters[slot] = 1,
            NodePayload::Hashes(_) => {}
        }
        // Re-hash the subtree top-down so children seal against their
        // parents' final values.
        for &n in subtree.iter() {
            self.reseal(n);
        }
        for &n in subtree.iter() {
            // Second pass: descendants whose parent changed after their
            // first reseal.
            self.reseal(n);
        }
        TreeOverflowEvent {
            node,
            nodes_reset: subtree.len() as u64,
            attached: self.geometry.attached_under(node),
        }
    }

    /// Records a counter-block writeback: bumps the leaf's version slot
    /// for `cb` (HT: stores the fresh counter-block hash). The leaf node
    /// becomes dirty in the metadata cache (caller's responsibility).
    pub fn record_counter_writeback(&mut self, cb: u64, cb_bytes: &[u8]) -> TreeUpdate {
        let leaf = self.geometry.leaf_of(cb);
        let slot = self.geometry.leaf_slot_of(cb);
        let child_hash = matches!(self.kind, TreeKind::Hash).then(|| digest64(cb_bytes));
        let overflowed = self.bump_slot(leaf, slot, child_hash);
        if overflowed {
            let ev = self.overflow_reset(leaf, slot);
            let nodes = ev.nodes_reset;
            TreeUpdate { dirty: leaf, hash_ops: nodes + 1, overflow: Some(ev) }
        } else {
            TreeUpdate { dirty: leaf, hash_ops: 1, overflow: None }
        }
    }

    /// Lazy propagation: `node` is being written back from the metadata
    /// cache, so its parent's slot version is bumped (HT: parent stores
    /// the fresh node hash) and this node is re-sealed against the new
    /// parent value. Returns the *parent* as the new dirty node.
    ///
    /// # Panics
    /// Panics when called on the root (which never leaves the chip).
    pub fn propagate_writeback(&mut self, node: NodeId) -> TreeUpdate {
        let parent = self.geometry.parent(node).expect("root is pinned on-chip");
        let slot = self.geometry.child_slot(node).expect("non-root");
        let child_hash = matches!(self.kind, TreeKind::Hash).then(|| {
            let mut buf = HashBuf::new();
            self.fill_node_bytes(node, &mut buf);
            digest64(&buf)
        });
        let overflowed = self.bump_slot(parent, slot, child_hash);
        if overflowed {
            let ev = self.overflow_reset(parent, slot);
            let nodes = ev.nodes_reset;
            return TreeUpdate { dirty: parent, hash_ops: nodes + 1, overflow: Some(ev) };
        }
        // Reseal the written-back child against the parent's new version.
        self.reseal(node);
        TreeUpdate { dirty: parent, hash_ops: 2, overflow: None }
    }

    /// Verification walk for counter block `cb` (Algorithm 2): loads
    /// node blocks bottom-up until the first cached node (or the root)
    /// and checks each loaded node's integrity.
    ///
    /// `is_cached` reports metadata-cache residency of a node block.
    pub fn verify_counter_block(
        &self,
        cb: u64,
        cb_bytes: &[u8],
        is_cached: impl Fn(NodeId) -> bool,
    ) -> VerifyWalk {
        let mut loaded = Vec::new();
        let mut hash_ops = 0u64;
        let mut ok = true;
        let mut buf = HashBuf::new();

        // Check the counter block against its leaf version.
        let leaf = self.geometry.leaf_of(cb);
        let slot = self.geometry.leaf_slot_of(cb);
        if matches!(self.kind, TreeKind::Hash) {
            hash_ops += 1;
            ok &= digest64(cb_bytes) == self.parent_slot_version(leaf, slot);
        }
        // (Counter trees bind cb freshness via the engine's MAC keyed by
        // leaf_version; nothing to check here.)

        // Walk up, loading uncached nodes and verifying each one.
        let mut cur = leaf;
        loop {
            if is_cached(cur) || self.geometry.is_root(cur) {
                break;
            }
            loaded.push(cur);
            // Verify the loaded node.
            match self.kind {
                TreeKind::Hash => {
                    let parent = self.geometry.parent(cur).expect("non-root");
                    let pslot = self.geometry.child_slot(cur).expect("non-root");
                    hash_ops += 1;
                    self.fill_node_bytes(cur, &mut buf);
                    ok &= digest64(&buf) == self.parent_slot_version(parent, pslot);
                }
                TreeKind::SplitCounter | TreeKind::Sgx => {
                    hash_ops += 1;
                    self.fill_embedded_hash_input(cur, &mut buf);
                    ok &= self.embedded_hash(cur).is_some_and(|h| digest64(&buf) == h);
                }
            }
            cur = self.geometry.parent(cur).expect("non-root");
        }
        VerifyWalk { loaded, hash_ops, ok }
    }

    /// Tamper hook: corrupts the stored payload of `node` without
    /// fixing hashes — verification must subsequently fail.
    pub fn tamper_node(&mut self, node: NodeId) {
        match self.node_mut(node) {
            NodePayload::Hashes(hs) => hs[0] ^= 0xdead_beef,
            NodePayload::Split { minors, .. } => minors[0] ^= 1,
            NodePayload::Mono { counters, .. } => counters[0] ^= 1,
        }
    }

    /// Snapshot of a node's full content for replay experiments.
    pub fn snapshot_node(&self, node: NodeId) -> NodePayload {
        self.node(node).clone()
    }

    /// Restores a previously snapshotted node (a replay attack).
    pub fn restore_node(&mut self, node: NodeId, payload: NodePayload) {
        *self.node_mut(node) = payload;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn not_cached(_: NodeId) -> bool {
        false
    }

    fn sct() -> IntegrityTree {
        IntegrityTree::new(
            TreeKind::SplitCounter,
            TreeGeometry::sct(16384),
            CounterWidths { minor_bits: 3, mono_bits: 56 },
        )
    }

    fn fresh(kind: TreeKind, covered: u64) -> IntegrityTree {
        let mut t = match kind {
            TreeKind::Hash => IntegrityTree::ht(covered),
            TreeKind::SplitCounter => IntegrityTree::sct(covered),
            TreeKind::Sgx => IntegrityTree::sit(covered),
        };
        t.init_leaf_hashes(|_, buf| {
            buf.clear();
            buf.extend(&[0u8; 64]);
        });
        t
    }

    #[test]
    fn fresh_tree_verifies_everywhere() {
        for kind in [TreeKind::SplitCounter, TreeKind::Hash, TreeKind::Sgx] {
            let tree = fresh(kind, 4096);
            for cb in [0u64, 100, 4095] {
                let walk = tree.verify_counter_block(cb, &[0u8; 64], not_cached);
                assert!(walk.ok, "{kind:?} cb {cb}");
                assert_eq!(walk.loaded.len() as u8, tree.geometry().levels() - 1);
            }
        }
    }

    #[test]
    fn walk_stops_at_cached_node() {
        let tree = IntegrityTree::sct(16384);
        let leaf = tree.geometry().leaf_of(0);
        let l1 = tree.geometry().parent(leaf).unwrap();
        let walk = tree.verify_counter_block(0, &[0u8; 64], |n| n == l1);
        assert_eq!(walk.loaded, vec![leaf]);
        assert!(walk.ok);
        // Leaf cached: nothing loaded at all.
        let walk2 = tree.verify_counter_block(0, &[0u8; 64], |n| n == leaf);
        assert!(walk2.loaded.is_empty());
    }

    #[test]
    fn counter_writeback_bumps_leaf_version() {
        let mut tree = IntegrityTree::sct(16384);
        let v0 = tree.leaf_version(5);
        let up = tree.record_counter_writeback(5, &[1u8; 64]);
        assert_eq!(up.dirty, tree.geometry().leaf_of(5));
        assert!(up.overflow.is_none());
        assert_eq!(tree.leaf_version(5), v0 + 1);
        // Tree still verifies.
        assert!(tree.verify_counter_block(5, &[1u8; 64], not_cached).ok);
    }

    #[test]
    fn ht_detects_counter_block_replay() {
        let mut tree = fresh(TreeKind::Hash, 4096);
        let old = [0u8; 64];
        let new = [9u8; 64];
        let leaf = tree.geometry().leaf_of(7);
        let up = tree.record_counter_writeback(7, &old);
        // Lazy update: drain the dirty chain before verifying uncached.
        tree.propagate_to_root(up.dirty);
        assert_eq!(up.dirty, leaf);
        assert!(tree.verify_counter_block(7, &old, not_cached).ok);
        let up = tree.record_counter_writeback(7, &new);
        tree.propagate_to_root(up.dirty);
        assert!(tree.verify_counter_block(7, &new, not_cached).ok);
        // Replaying the old counter block must fail.
        assert!(!tree.verify_counter_block(7, &old, not_cached).ok);
    }

    #[test]
    fn node_tamper_is_detected() {
        for mut tree in
            [IntegrityTree::sct(4096), IntegrityTree::ht(4096), IntegrityTree::sit(4096)]
        {
            let leaf = tree.geometry().leaf_of(42);
            // A tampered leaf must fail verification of blocks under it.
            tree.tamper_node(leaf);
            let walk = tree.verify_counter_block(42, &[0u8; 64], not_cached);
            assert!(!walk.ok, "{:?}", tree.kind());
        }
    }

    #[test]
    fn node_replay_is_detected_in_counter_trees() {
        let mut tree = IntegrityTree::sct(16384);
        let leaf = tree.geometry().leaf_of(0);
        let old = tree.snapshot_node(leaf);
        // Advance the leaf twice via writebacks, then write the leaf back
        // so the parent version advances past the snapshot.
        tree.record_counter_writeback(0, &[1u8; 64]);
        tree.propagate_writeback(leaf);
        // Replay the old leaf content.
        tree.restore_node(leaf, old);
        let walk = tree.verify_counter_block(0, &[1u8; 64], not_cached);
        assert!(!walk.ok, "stale leaf must not verify against advanced parent");
    }

    #[test]
    fn propagate_marks_parent_dirty_and_still_verifies() {
        let mut tree = IntegrityTree::sct(16384);
        tree.record_counter_writeback(3, &[1u8; 64]);
        let leaf = tree.geometry().leaf_of(3);
        let up = tree.propagate_writeback(leaf);
        assert_eq!(up.dirty, tree.geometry().parent(leaf).unwrap());
        assert!(up.overflow.is_none());
        assert!(tree.verify_counter_block(3, &[1u8; 64], not_cached).ok);
    }

    #[test]
    fn leaf_minor_overflow_resets_and_reencrypt_scope_is_leaf_subtree() {
        let mut tree = sct(); // 3-bit minors
                              // Saturate the leaf slot for cb 0 (max = 7).
        for _ in 0..7 {
            assert!(tree.record_counter_writeback(0, &[0u8; 64]).overflow.is_none());
        }
        let up = tree.record_counter_writeback(0, &[0u8; 64]);
        let ev = up.overflow.expect("8th writeback overflows 3-bit minor");
        let leaf = tree.geometry().leaf_of(0);
        assert_eq!(ev.node, leaf);
        assert_eq!(ev.nodes_reset, 1, "leaf subtree is itself");
        assert_eq!(ev.attached, tree.geometry().attached_under(leaf));
        // Post-reset: triggering slot is 1, neighbors are 0, still verifies.
        assert_eq!(tree.leaf_minor(0), Some(1));
        assert_eq!(tree.leaf_minor(1), Some(0));
        assert!(tree.verify_counter_block(0, &[0u8; 64], not_cached).ok);
    }

    #[test]
    fn upper_level_overflow_resets_whole_subtree() {
        let mut tree = sct();
        let leaf = tree.geometry().leaf_of(0);
        let l1 = tree.geometry().parent(leaf).unwrap();
        let slot = tree.geometry().child_slot(leaf).unwrap();
        // Preset the L1 slot to the max so one propagation overflows.
        tree.set_node_counter(l1, slot, 7).unwrap();
        let up = tree.propagate_writeback(leaf);
        let ev = up.overflow.expect("propagation overflows L1 slot");
        assert_eq!(ev.node, l1);
        assert_eq!(ev.nodes_reset, 17, "L1 node + 16 leaf children");
        assert_eq!(ev.attached.end - ev.attached.start, 32 * 16);
        // All leaves under l1 got reset; everything verifies afterwards.
        assert_eq!(tree.node_minor(l1, slot), Some(1));
        for cb in [0u64, 31, 511] {
            assert!(tree.verify_counter_block(cb, &[0u8; 64], not_cached).ok, "cb {cb}");
        }
    }

    #[test]
    fn preset_supports_metaleak_c_counting() {
        // mPreset sets the counter to max-1; one victim writeback
        // saturates it; one attacker writeback overflows (Figure 13).
        let mut tree = sct();
        let leaf = tree.geometry().leaf_of(0);
        let l1 = tree.geometry().parent(leaf).unwrap();
        let slot = tree.geometry().child_slot(leaf).unwrap();
        tree.set_node_counter(l1, slot, 6).unwrap(); // 2^3 - 2
        assert!(tree.propagate_writeback(leaf).overflow.is_none(), "victim write saturates");
        assert!(tree.propagate_writeback(leaf).overflow.is_some(), "attacker write overflows");
    }

    #[test]
    fn sit_uses_monolithic_counters() {
        let mut tree = IntegrityTree::sit(4096);
        for _ in 0..300 {
            // Far beyond a 7-bit minor: no overflow with 56-bit counters.
            assert!(tree.record_counter_writeback(9, &[0u8; 64]).overflow.is_none());
        }
        assert_eq!(tree.leaf_version(9), 300);
    }

    #[test]
    fn hash_ops_scale_with_overflow_size() {
        let mut tree = sct();
        let small = tree.record_counter_writeback(100, &[0u8; 64]).hash_ops;
        let leaf = tree.geometry().leaf_of(0);
        let l1 = tree.geometry().parent(leaf).unwrap();
        tree.set_node_counter(l1, 0, 7).unwrap();
        let big = tree.propagate_writeback(leaf).hash_ops;
        assert!(big > small * 5, "overflow rehash ({big}) must dwarf a bump ({small})");
    }

    #[test]
    fn preset_rejects_wrong_kind_and_wide_values() {
        let mut ht = IntegrityTree::ht(4096);
        let leaf = ht.geometry().leaf_of(0);
        assert_eq!(ht.set_node_counter(leaf, 0, 1), Err(PresetError::NoCounters(TreeKind::Hash)));
        assert_eq!(ht.leaf_minor(0), None, "HT has no minors");
        let mut sct = sct(); // 3-bit minors
        let leaf = sct.geometry().leaf_of(0);
        assert_eq!(
            sct.set_node_counter(leaf, 0, 8),
            Err(PresetError::ValueTooWide { value: 8, max: 7 })
        );
        assert_eq!(sct.node_minor(leaf, usize::MAX), None, "bad slot is None, not a panic");
    }

    #[test]
    fn node_bytes_reflect_payload() {
        let mut tree = IntegrityTree::sct(4096);
        let leaf = tree.geometry().leaf_of(0);
        let before = tree.node_bytes(leaf);
        tree.record_counter_writeback(0, &[0u8; 64]);
        assert_ne!(tree.node_bytes(leaf), before);
    }

    #[test]
    #[should_panic(expected = "root is pinned")]
    fn propagating_root_panics() {
        let mut tree = IntegrityTree::sct(4096);
        let root = tree.geometry().root();
        tree.propagate_writeback(root);
    }
}
