//! mEvict: evicting integrity-tree node blocks and counter blocks from
//! the metadata caches *indirectly*, through carefully chosen data
//! accesses (§VI-A, step 1).
//!
//! Software cannot address metadata, so the attacker picks data blocks
//! whose verification paths load chosen tree node blocks, thrashing the
//! metadata-cache set of the target node `N_s`. For the probe and
//! victim counter blocks (which must miss so their reads actually walk
//! the tree), counter-cache set conflicts are driven the same way.

use crate::error::AttackError;
use metaleak_engine::secmem::SecureMemory;
use metaleak_meta::geometry::NodeId;
use metaleak_sim::addr::CoreId;
use metaleak_sim::clock::Cycles;
use metaleak_sim::trace::Tracer;

/// Evicts one counter block from the counter cache by accessing
/// attacker-owned data blocks whose counter blocks map to the same
/// counter-cache set.
#[derive(Debug, Clone)]
pub struct CounterEvictor {
    /// Attacker data blocks driving the conflicts.
    pub blocks: Vec<u64>,
    target_cb: u64,
}

impl CounterEvictor {
    /// Plans an eviction set for `target_cb`. Candidate counter blocks
    /// are congruent to the target modulo the number of counter-cache
    /// sets and outside the subtrees of every node in `avoid` (so the
    /// drive accesses never reload a monitored tree node).
    ///
    /// # Errors
    /// Fails when the protected region is too small to supply enough
    /// conflicting counter blocks.
    pub fn plan<Tr: Tracer>(
        mem: &SecureMemory<Tr>,
        target_cb: u64,
        avoid: &[NodeId],
    ) -> Result<Self, AttackError> {
        let sets = {
            // Derive the set count from two congruent indices.
            mem_counter_sets(mem)
        };
        let geometry = mem.tree().geometry();
        let total_cbs = geometry.covered();
        let forbidden: Vec<core::ops::Range<u64>> =
            avoid.iter().map(|&n| geometry.attached_under(n)).collect();
        let need = mem.mcaches().counter_ways() * 2;
        let per_cb = crate::sharing::blocks_per_counter_block(mem);
        let mut blocks = Vec::with_capacity(need);
        let mut cb = target_cb % sets;
        while blocks.len() < need && cb < total_cbs {
            let banned = cb == target_cb || forbidden.iter().any(|r| r.contains(&cb));
            if !banned {
                blocks.push(cb * per_cb);
            }
            cb += sets;
        }
        if blocks.len() < need {
            return Err(AttackError::InsufficientEvictionCandidates {
                needed: need,
                found: blocks.len(),
            });
        }
        Ok(CounterEvictor { blocks, target_cb })
    }

    /// The counter block this set evicts.
    pub fn target_cb(&self) -> u64 {
        self.target_cb
    }

    /// Runs the eviction accesses. Returns the cycles spent.
    ///
    /// # Errors
    /// [`AttackError::MeasurementInvalidated`] when the engine rejects
    /// a drive access (interference disturbed the walk); transient.
    pub fn evict<Tr: Tracer>(
        &self,
        mem: &mut SecureMemory<Tr>,
        core: CoreId,
    ) -> Result<Cycles, AttackError> {
        let mut spent = Cycles::ZERO;
        for &b in &self.blocks {
            spent += mem.flush_block(b);
            spent += mem.read(core, b)?.latency;
        }
        Ok(spent)
    }
}

/// Evicts the metadata-cache set of a target tree node by driving
/// verification walks through conflicting *leaf* node blocks.
///
/// Driver counter blocks are chosen as slot 0 of conflicting leaves, so
/// that all driver counter blocks are also congruent in the counter
/// cache: the drivers thrash each other's counters, guaranteeing their
/// accesses keep walking the tree round after round (self-sustaining
/// eviction).
#[derive(Debug, Clone)]
pub struct TreeSetEvictor {
    /// Attacker data blocks driving the conflicts.
    pub driver_blocks: Vec<u64>,
    target: NodeId,
}

impl TreeSetEvictor {
    /// Plans the eviction set for `target`.
    ///
    /// # Errors
    /// Fails when too few conflicting leaves exist outside the target's
    /// subtree (the protected region is too small relative to the tree
    /// cache).
    pub fn plan<Tr: Tracer>(mem: &SecureMemory<Tr>, target: NodeId) -> Result<Self, AttackError> {
        Self::plan_avoiding(mem, target, &[])
    }

    /// Plans an eviction set for `target`'s cache set whose driver
    /// accesses additionally stay outside the subtrees of every node in
    /// `avoid` — used when evicting path nodes without ever reloading a
    /// monitored node. The target's own subtree is always avoided.
    ///
    /// # Errors
    /// Same as [`TreeSetEvictor::plan`].
    pub fn plan_avoiding<Tr: Tracer>(
        mem: &SecureMemory<Tr>,
        target: NodeId,
        avoid: &[NodeId],
    ) -> Result<Self, AttackError> {
        let geometry = mem.tree().geometry();
        let caches = mem.mcaches();
        let target_set = caches.tree_set_index(mem.node_key(target));
        let need = caches.tree_ways() * 2;
        let mut forbidden: Vec<core::ops::Range<u64>> = vec![geometry.attached_under(target)];
        forbidden.extend(avoid.iter().map(|&n| geometry.attached_under(n)));
        let per_cb = crate::sharing::blocks_per_counter_block(mem);
        let mut driver_blocks = Vec::with_capacity(need);
        for leaf_idx in 0..geometry.nodes_at(0) {
            let leaf = NodeId::new(0, leaf_idx);
            if caches.tree_set_index(mem.node_key(leaf)) != target_set {
                continue;
            }
            let cbs = geometry.attached_under(leaf);
            if forbidden.iter().any(|r| r.contains(&cbs.start)) {
                continue; // would reload a monitored node
            }
            driver_blocks.push(cbs.start * per_cb);
            if driver_blocks.len() == need {
                break;
            }
        }
        if driver_blocks.len() < need {
            return Err(AttackError::InsufficientEvictionCandidates {
                needed: need,
                found: driver_blocks.len(),
            });
        }
        Ok(TreeSetEvictor { driver_blocks, target })
    }

    /// The node whose set this evictor thrashes.
    pub fn target(&self) -> NodeId {
        self.target
    }

    /// Runs one eviction round. Returns the cycles spent.
    ///
    /// # Errors
    /// [`AttackError::MeasurementInvalidated`] when the engine rejects
    /// a drive access (interference disturbed the walk); transient.
    pub fn evict<Tr: Tracer>(
        &self,
        mem: &mut SecureMemory<Tr>,
        core: CoreId,
    ) -> Result<Cycles, AttackError> {
        let mut spent = Cycles::ZERO;
        for &b in &self.driver_blocks {
            spent += mem.flush_block(b);
            spent += mem.read(core, b)?.latency;
        }
        Ok(spent)
    }
}

/// The composite mEvict primitive: tree-set eviction of the monitored
/// node `N_s` *and* of every below-target node on the watched
/// verification paths (otherwise those walks would stop early and never
/// reach `N_s`), plus counter eviction for each watched counter block.
#[derive(Debug, Clone)]
pub struct MetaEvictor {
    /// Thrashes the target node's set plus the below-target path-node
    /// sets (deduplicated by cache set).
    pub tree: Vec<TreeSetEvictor>,
    /// Keeps each watched counter block (probe, victim, helper) out of
    /// the counter cache so their accesses exercise the tree.
    pub counters: Vec<CounterEvictor>,
}

impl MetaEvictor {
    /// Plans a full mEvict for monitoring `target`. `path_cbs` lists
    /// every counter block whose verification path must reach the
    /// target each round (the probe's, the victim's, and any
    /// calibration helper's). `extra_avoid` lists nodes monitored by
    /// cooperating attacks whose state this evictor must never disturb
    /// by reloading (e.g. the other set of a covert channel).
    ///
    /// Besides the target's set and the below-target path sets, the
    /// target's *parent* set is also thrashed: this widens the latency
    /// gap between "walk stops at the (cached) target" and "walk
    /// continues past the (evicted) target" to two memory fetches,
    /// well clear of DRAM row-state noise.
    ///
    /// # Errors
    /// Propagates planning failures of the component evictors.
    pub fn plan<Tr: Tracer>(
        mem: &SecureMemory<Tr>,
        target: NodeId,
        path_cbs: &[u64],
        extra_avoid: &[NodeId],
    ) -> Result<Self, AttackError> {
        let geometry = mem.tree().geometry();
        let caches = mem.mcaches();
        // Nodes whose caching state must never be refreshed by drivers:
        // the target, its parent (kept evicted for band separation) and
        // any cooperating monitors' nodes.
        let parent = geometry.parent(target).filter(|p| !geometry.is_root(*p));
        let mut guard: Vec<NodeId> = vec![target];
        guard.extend(parent);
        guard.extend_from_slice(extra_avoid);
        let mut tree = vec![TreeSetEvictor::plan_avoiding(mem, target, &guard)?];
        let mut covered_sets = vec![caches.tree_set_index(mem.node_key(target))];
        if let Some(p) = parent {
            let set = caches.tree_set_index(mem.node_key(p));
            if !covered_sets.contains(&set) {
                tree.push(TreeSetEvictor::plan_avoiding(mem, p, &guard)?);
                covered_sets.push(set);
            }
        }
        let mut counters = Vec::with_capacity(path_cbs.len());
        for &cb in path_cbs {
            for node in geometry.path_to_root(cb) {
                if node.level >= target.level {
                    break;
                }
                let set = caches.tree_set_index(mem.node_key(node));
                if covered_sets.contains(&set) {
                    continue;
                }
                tree.push(TreeSetEvictor::plan_avoiding(mem, node, &guard)?);
                covered_sets.push(set);
            }
            counters.push(CounterEvictor::plan(mem, cb, &guard)?);
        }
        Ok(MetaEvictor { tree, counters })
    }

    /// Runs one full mEvict round. After this, the target node, the
    /// below-target path nodes and the watched counter blocks are
    /// (with high probability) absent from the metadata caches.
    ///
    /// # Errors
    /// Propagates transient drive-access failures of the component
    /// evictors.
    pub fn evict<Tr: Tracer>(
        &self,
        mem: &mut SecureMemory<Tr>,
        core: CoreId,
    ) -> Result<Cycles, AttackError> {
        let mut spent = Cycles::ZERO;
        for c in &self.counters {
            spent += c.evict(mem, core)?;
        }
        for t in &self.tree {
            spent += t.evict(mem, core)?;
        }
        Ok(spent)
    }
}

/// Volume-based eviction: instead of a set-conflict eviction set
/// (which randomized caches like MIRAGE deny), the attacker simply
/// drives *many* spread-out verification walks; with `k` random
/// metadata fills, the target is displaced with probability
/// `~1 - (1 - 1/N)^k` even under fully randomized placement (§IX-B,
/// Figure 18). Slower than [`TreeSetEvictor`] but
/// randomization-resistant.
#[derive(Debug, Clone)]
pub struct VolumeEvictor {
    /// Attacker data blocks whose walks flood the metadata caches.
    pub blocks: Vec<u64>,
}

impl VolumeEvictor {
    /// Plans a flood of `volume` blocks spread over distinct leaves,
    /// avoiding the subtrees of every node in `avoid`.
    ///
    /// # Errors
    /// Fails when the region cannot supply `volume` suitable leaves.
    pub fn plan<Tr: Tracer>(
        mem: &SecureMemory<Tr>,
        volume: usize,
        avoid: &[NodeId],
    ) -> Result<Self, AttackError> {
        let geometry = mem.tree().geometry();
        let forbidden: Vec<core::ops::Range<u64>> =
            avoid.iter().map(|&n| geometry.attached_under(n)).collect();
        let per_cb = crate::sharing::blocks_per_counter_block(mem);
        let leaves = geometry.nodes_at(0);
        let arity = geometry.arity(0) as u64;
        let mut blocks = Vec::with_capacity(volume);
        // Stride through leaves and slots so counter blocks spread over
        // both metadata caches' sets (the slot varies with the leaf so
        // the flood's counter blocks are NOT congruent).
        let mut i = 0u64;
        while blocks.len() < volume && i < leaves * arity {
            let leaf = i % leaves;
            let slot = (leaf + i / leaves) % arity;
            let cb = leaf * arity + slot;
            i += 1;
            if cb >= geometry.covered() || forbidden.iter().any(|r| r.contains(&cb)) {
                continue;
            }
            blocks.push(cb * per_cb);
        }
        if blocks.len() < volume {
            return Err(AttackError::InsufficientEvictionCandidates {
                needed: volume,
                found: blocks.len(),
            });
        }
        Ok(VolumeEvictor { blocks })
    }

    /// Runs the flood. Returns the cycles spent.
    ///
    /// # Errors
    /// [`AttackError::MeasurementInvalidated`] when the engine rejects
    /// a flood access (interference disturbed the walk); transient.
    pub fn evict<Tr: Tracer>(
        &self,
        mem: &mut SecureMemory<Tr>,
        core: CoreId,
    ) -> Result<Cycles, AttackError> {
        let mut spent = Cycles::ZERO;
        for &b in &self.blocks {
            spent += mem.flush_block(b);
            spent += mem.read(core, b)?.latency;
        }
        Ok(spent)
    }
}

/// Number of counter-cache sets (derived; the cache does not expose it
/// directly for counters).
fn mem_counter_sets<Tr: Tracer>(mem: &SecureMemory<Tr>) -> u64 {
    // Probe set indices of consecutive counter blocks until they wrap.
    let caches = mem.mcaches();
    let s0 = caches.counter_set_index(0);
    let mut n = 1u64;
    while caches.counter_set_index(n) != s0 {
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaleak_engine::config::SecureConfigBuilder;

    /// A mid-sized SCT memory: 64 MiB protected (16384 pages), enough
    /// leaves (512) relative to a shrunken tree cache for eviction sets.
    fn mem() -> SecureMemory {
        let mut cfg = SecureConfigBuilder::sct(16384).build();
        cfg.sim.noise_sd = 0.0;
        cfg.mcache = metaleak_meta::mcache::MetaCacheConfig {
            counter: metaleak_sim::config::CacheConfig::new(8 * 1024, 4, 2),
            tree: metaleak_sim::config::CacheConfig::new(8 * 1024, 4, 2),
        };
        SecureMemory::new(cfg)
    }

    #[test]
    fn tree_set_evictor_actually_evicts() {
        let mut m = mem();
        let core = CoreId(0);
        let victim_block = 100 * 64;
        let cb = m.counter_block_of(victim_block);
        let target = m.tree().geometry().leaf_of(cb);
        // Load the target node by reading the victim block cold.
        m.read(core, victim_block).unwrap();
        assert!(m.tree_node_cached(target), "victim access caches its leaf");
        let ev = TreeSetEvictor::plan(&m, target).unwrap();
        ev.evict(&mut m, core).unwrap();
        assert!(!m.tree_node_cached(target), "mEvict must displace the leaf");
    }

    #[test]
    fn drivers_avoid_the_target_subtree() {
        let m = mem();
        let cb = m.counter_block_of(0);
        let target = m.tree().geometry().ancestor_at(cb, 1);
        let ev = TreeSetEvictor::plan(&m, target).unwrap();
        let forbidden = m.tree().geometry().attached_under(target);
        for &b in &ev.driver_blocks {
            let dcb = m.counter_block_of(b);
            assert!(!forbidden.contains(&dcb), "driver {b} is under the target");
        }
    }

    #[test]
    fn driver_counters_share_a_counter_set() {
        let m = mem();
        let cb = m.counter_block_of(0);
        let target = m.tree().geometry().leaf_of(cb);
        let ev = TreeSetEvictor::plan(&m, target).unwrap();
        let caches = m.mcaches();
        let sets: std::collections::HashSet<usize> = ev
            .driver_blocks
            .iter()
            .map(|&b| caches.counter_set_index(m.counter_block_of(b)))
            .collect();
        assert_eq!(sets.len(), 1, "drivers must self-thrash their counters");
    }

    #[test]
    fn counter_evictor_displaces_target_cb() {
        let mut m = mem();
        let core = CoreId(0);
        let victim_block = 200 * 64;
        let cb = m.counter_block_of(victim_block);
        m.read(core, victim_block).unwrap();
        assert!(m.counter_cached(victim_block));
        let ev = CounterEvictor::plan(&m, cb, &[]).unwrap();
        ev.evict(&mut m, core).unwrap();
        assert!(!m.counter_cached(victim_block), "counter must be evicted");
    }

    #[test]
    fn eviction_is_self_sustaining_over_rounds() {
        let mut m = mem();
        let core = CoreId(0);
        let victim_block = 100 * 64;
        let cb = m.counter_block_of(victim_block);
        let target = m.tree().geometry().leaf_of(cb);
        let ev = MetaEvictor::plan(&m, target, &[cb + 1, cb], &[]).unwrap();
        for round in 0..5 {
            // Victim touches its block, caching the leaf...
            m.flush_block(victim_block);
            m.read(core, victim_block).unwrap();
            assert!(m.tree_node_cached(target), "round {round}: victim loads leaf");
            // ...and every round the evictor displaces it again.
            ev.evict(&mut m, core).unwrap();
            assert!(!m.tree_node_cached(target), "round {round}: eviction failed");
            assert!(!m.counter_cached(victim_block), "round {round}: victim cb cached");
        }
    }

    #[test]
    fn volume_evictor_displaces_without_set_knowledge() {
        let mut m = mem();
        let core = CoreId(0);
        let victim_block = 100 * 64;
        let cb = m.counter_block_of(victim_block);
        let target = m.tree().geometry().leaf_of(cb);
        // Load the target, then flood with spread-out walks; the 8 KiB
        // 4-way tree cache holds 128 nodes, so ~400 distinct fills
        // displace it with near-certainty even without set math.
        m.read(core, victim_block).unwrap();
        assert!(m.tree_node_cached(target));
        let ev = VolumeEvictor::plan(&m, 400, &[target]).unwrap();
        ev.evict(&mut m, core).unwrap();
        assert!(!m.tree_node_cached(target), "volume eviction failed");
        // And the victim's counter went with it.
        assert!(!m.counter_cached(victim_block));
    }

    #[test]
    fn volume_evictor_respects_avoid_list() {
        let m = mem();
        let cb = m.counter_block_of(0);
        let target = m.tree().geometry().ancestor_at(cb, 1);
        let ev = VolumeEvictor::plan(&m, 200, &[target]).unwrap();
        let forbidden = m.tree().geometry().attached_under(target);
        for &b in &ev.blocks {
            assert!(!forbidden.contains(&m.counter_block_of(b)));
        }
    }

    #[test]
    fn planning_fails_on_tiny_regions() {
        let m = SecureMemory::new(SecureConfigBuilder::sct(64).build());
        let target = m.tree().geometry().leaf_of(0);
        assert!(matches!(
            TreeSetEvictor::plan(&m, target),
            Err(AttackError::InsufficientEvictionCandidates { .. })
        ));
    }
}
