//! The MetaLeak-T covert channel (§VI-A, Figure 11): a trojan and a spy
//! communicate through two shared integrity-tree node blocks in
//! different metadata-cache sets — one *transmission* set (access = bit
//! '1') and one *boundary* set delimiting bit windows.

use crate::error::AttackError;
use crate::metaleak_t::MetaLeakT;
use crate::resilience::{FrameCodec, FramedOutcome};
use crate::timing::LabelledSample;
use metaleak_engine::secmem::SecureMemory;
use metaleak_sim::addr::CoreId;
use metaleak_sim::clock::Cycles;
use metaleak_sim::trace::{TraceEvent, Tracer};

/// Per-bit observation for trace rendering (Figure 11).
#[derive(Debug, Clone, Copy)]
pub struct BitRecord {
    /// Decoded bit.
    pub bit: bool,
    /// Spy's reload latency in the transmission set.
    pub tx_latency: Cycles,
    /// Spy's reload latency in the boundary set.
    pub boundary_latency: Cycles,
    /// Whether the boundary access was detected (window validity).
    pub boundary_ok: bool,
}

/// Result of a covert transmission.
#[derive(Debug, Clone)]
pub struct CovertOutcome {
    /// Bits as decoded by the spy.
    pub decoded: Vec<bool>,
    /// Per-bit observations.
    pub records: Vec<BitRecord>,
    /// Total simulated cycles consumed.
    pub cycles: Cycles,
}

impl CovertOutcome {
    /// Bit accuracy against the transmitted ground truth.
    pub fn accuracy(&self, truth: &[bool]) -> f64 {
        crate::timing::accuracy(&self.decoded, truth)
    }

    /// Raw bit rate: transmitted bits per million cycles.
    pub fn bits_per_mcycle(&self) -> f64 {
        self.decoded.len() as f64 / (self.cycles.as_u64() as f64 / 1e6)
    }

    /// Average cycles consumed per transmitted bit.
    pub fn cycles_per_bit(&self) -> f64 {
        if self.decoded.is_empty() {
            return 0.0;
        }
        self.cycles.as_u64() as f64 / self.decoded.len() as f64
    }

    /// Per-window labelled samples for leakage assessment: the sent
    /// bit (`truth[i]`) as the secret class, the spy's
    /// transmission-set reload latency as the measurement. This is the
    /// raw material for TVLA / mutual-information estimates — the
    /// aggregate [`CovertOutcome::accuracy`] alone cannot drive them.
    ///
    /// # Panics
    /// Panics if `truth.len()` differs from the number of windows.
    pub fn labelled_samples(&self, truth: &[bool]) -> Vec<LabelledSample> {
        assert_eq!(truth.len(), self.records.len(), "truth/record length mismatch");
        truth
            .iter()
            .zip(&self.records)
            .map(|(&bit, r)| LabelledSample { class: bit as u64, value: r.tx_latency.as_u64() })
            .collect()
    }
}

/// A configured MetaLeak-T covert channel.
#[derive(Debug, Clone)]
pub struct CovertChannelT {
    tx: MetaLeakT,
    boundary: MetaLeakT,
    trojan_tx_block: u64,
    trojan_boundary_block: u64,
    spy_core: CoreId,
    trojan_core: CoreId,
}

impl CovertChannelT {
    /// Sets up the channel at tree `level`. The two shared nodes are
    /// chosen in different tree-cache sets; `base_page` anchors the
    /// trojan's transmission page.
    ///
    /// # Errors
    /// Propagates monitor-planning failures, or fails if no page with a
    /// differing boundary set exists.
    pub fn new<Tr: Tracer>(
        mem: &mut SecureMemory<Tr>,
        spy_core: CoreId,
        trojan_core: CoreId,
        level: u8,
        base_page: u64,
    ) -> Result<Self, AttackError> {
        let blocks_per_page = 64u64;
        let trojan_tx_block = base_page * blocks_per_page;
        // Geometry-only planning first: the two target nodes (and the
        // parents each monitor keeps evicted) must be mutually avoided
        // by the other monitor's eviction drivers.
        let geometry = mem.tree().geometry().clone();
        let monitored_nodes = |mem: &SecureMemory<Tr>, block: u64| {
            let cb = mem.counter_block_of(block);
            let node = geometry.ancestor_at(cb, level);
            let mut v = vec![node];
            if let Some(p) = geometry.parent(node) {
                if !geometry.is_root(p) {
                    v.push(p);
                }
            }
            v
        };
        let tx_nodes = monitored_nodes(mem, trojan_tx_block);
        let tx_set = mem.mcaches().tree_set_index(mem.node_key(tx_nodes[0]));
        // Find a boundary page whose target node is in a different
        // tree-cache set and whose sharing set is disjoint from tx's.
        let mut boundary_block = None;
        for page in (base_page + 512)..(base_page + 8192) {
            let block = page * blocks_per_page;
            if block >= mem.layout().data_blocks() {
                break;
            }
            let nodes = monitored_nodes(mem, block);
            if nodes[0] == tx_nodes[0]
                || mem.mcaches().tree_set_index(mem.node_key(nodes[0])) == tx_set
            {
                continue;
            }
            boundary_block = Some((block, nodes));
            break;
        }
        let (trojan_boundary_block, boundary_nodes) =
            boundary_block.ok_or(AttackError::NoProbeBlock)?;
        let tx = MetaLeakT::with_avoid(mem, spy_core, trojan_tx_block, level, 6, &boundary_nodes)?;
        let boundary =
            MetaLeakT::with_avoid(mem, spy_core, trojan_boundary_block, level, 6, &tx_nodes)?;
        Ok(CovertChannelT {
            tx,
            boundary,
            trojan_tx_block,
            trojan_boundary_block,
            spy_core,
            trojan_core,
        })
    }

    /// The transmission-set monitor (exposed for experiments).
    pub fn tx_monitor(&self) -> &MetaLeakT {
        &self.tx
    }

    fn trojan_access<Tr: Tracer>(
        mem: &mut SecureMemory<Tr>,
        core: CoreId,
        block: u64,
    ) -> Result<(), AttackError> {
        mem.flush_block(block);
        mem.read(core, block)?;
        Ok(())
    }

    /// One bit window: spy evicts both shared nodes, the trojan encodes
    /// the bit and marks the boundary, the spy reloads both.
    fn transmit_one<Tr: Tracer>(
        &self,
        mem: &mut SecureMemory<Tr>,
        bit: bool,
    ) -> Result<BitRecord, AttackError> {
        // Spy: mEvict both shared nodes.
        self.tx.evict(mem, self.spy_core)?;
        self.boundary.evict(mem, self.spy_core)?;
        // Trojan: encode the bit, then mark the window boundary.
        if bit {
            Self::trojan_access(mem, self.trojan_core, self.trojan_tx_block)?;
        }
        Self::trojan_access(mem, self.trojan_core, self.trojan_boundary_block)?;
        // Spy: mReload both.
        let tx_probe = self.tx.probe(mem, self.spy_core)?;
        let boundary_probe = self.boundary.probe(mem, self.spy_core)?;
        let decoded = self.tx.classifier().is_fast(tx_probe.latency);
        mem.trace(TraceEvent::SampleClassified {
            class: decoded as u64,
            value: tx_probe.latency.as_u64(),
        });
        Ok(BitRecord {
            bit: decoded,
            tx_latency: tx_probe.latency,
            boundary_latency: boundary_probe.latency,
            boundary_ok: self.boundary.classifier().is_fast(boundary_probe.latency),
        })
    }

    /// Transmits `bits` from the trojan to the spy; returns the spy's
    /// decoding and the per-bit latency trace.
    ///
    /// # Errors
    /// The raw channel has no redundancy: the first invalidated window
    /// aborts the transmission with a transient error. See
    /// [`CovertChannelT::transmit_framed`] for the fault-tolerant
    /// variant.
    pub fn transmit<Tr: Tracer>(
        &self,
        mem: &mut SecureMemory<Tr>,
        bits: &[bool],
    ) -> Result<CovertOutcome, AttackError> {
        let start = mem.now();
        let mut decoded = Vec::with_capacity(bits.len());
        let mut records = Vec::with_capacity(bits.len());
        for &bit in bits {
            let record = self.transmit_one(mem, bit)?;
            decoded.push(record.bit);
            records.push(record);
        }
        Ok(CovertOutcome { decoded, records, cycles: mem.now() - start })
    }

    /// Transmits `payload` inside ECC frames: each wire bit of the
    /// Hamming-coded, repeated frame goes through one channel window;
    /// windows invalidated by interference become erasures that abstain
    /// from the majority vote instead of aborting the transfer.
    ///
    /// # Errors
    /// Only permanent errors abort (planning, parameters); transient
    /// window failures are absorbed by the framing.
    pub fn transmit_framed<Tr: Tracer>(
        &self,
        mem: &mut SecureMemory<Tr>,
        payload: &[bool],
        codec: &FrameCodec,
    ) -> Result<FramedOutcome, AttackError> {
        let start = mem.now();
        let wire = codec.encode(payload);
        let mut received: Vec<Option<bool>> = Vec::with_capacity(wire.len());
        let mut erasures = 0;
        let mut wire_samples = Vec::with_capacity(wire.len());
        for &bit in &wire {
            match self.transmit_one(mem, bit) {
                Ok(record) => {
                    received.push(Some(record.bit));
                    wire_samples.push(LabelledSample {
                        class: bit as u64,
                        value: record.tx_latency.as_u64(),
                    });
                }
                Err(e) if e.is_transient() => {
                    erasures += 1;
                    received.push(None);
                }
                Err(e) => return Err(e),
            }
        }
        let report = codec.decode(&received, payload.len())?;
        Ok(FramedOutcome {
            report,
            wire_bits: wire.len(),
            erasures,
            wire_samples,
            cycles: mem.now() - start,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaleak_engine::config::SecureConfigBuilder;
    use metaleak_sim::rng::SimRng;

    fn mem() -> SecureMemory {
        let mut cfg = SecureConfigBuilder::sct(16384).build();
        cfg.mcache = metaleak_meta::mcache::MetaCacheConfig {
            counter: metaleak_sim::config::CacheConfig::new(8 * 1024, 4, 2),
            tree: metaleak_sim::config::CacheConfig::new(8 * 1024, 4, 2),
        };
        SecureMemory::new(cfg)
    }

    #[test]
    fn covert_t_round_trips_a_known_pattern() {
        let mut m = mem();
        let ch = CovertChannelT::new(&mut m, CoreId(0), CoreId(1), 0, 100).unwrap();
        // The paper's Figure 11 pattern.
        let bits: Vec<bool> = [0u8, 1, 1, 0, 1, 0, 0, 1].iter().map(|&b| b == 1).collect();
        let out = ch.transmit(&mut m, &bits).unwrap();
        assert_eq!(out.decoded, bits, "records: {:?}", out.records);
        assert!(out.records.iter().all(|r| r.boundary_ok), "boundary sync lost");
    }

    #[test]
    fn framed_transfer_survives_sample_drops() {
        use metaleak_sim::interference::{FaultKind, FaultPlan};
        let mut cfg = SecureConfigBuilder::sct(16384).build();
        cfg.mcache = metaleak_meta::mcache::MetaCacheConfig {
            counter: metaleak_sim::config::CacheConfig::new(8 * 1024, 4, 2),
            tree: metaleak_sim::config::CacheConfig::new(8 * 1024, 4, 2),
        };
        cfg.faults = FaultPlan::clean().seeded(91).with(FaultKind::SampleDrop { rate: 0.15 });
        let mut m = SecureMemory::new(cfg);
        let ch = CovertChannelT::new(&mut m, CoreId(0), CoreId(1), 0, 100).unwrap();
        let payload: Vec<bool> = [1u8, 0, 1, 1, 0, 0, 1, 0].iter().map(|&b| b == 1).collect();
        let out = ch.transmit_framed(&mut m, &payload, &FrameCodec::new(3)).unwrap();
        assert_eq!(out.report.payload, payload, "report: {:?}", out.report);
        assert!(out.erasures > 0, "drops at 15% must have erased some windows");
    }

    #[test]
    fn labelled_samples_pair_sent_bits_with_latencies() {
        let mut m = mem();
        let ch = CovertChannelT::new(&mut m, CoreId(0), CoreId(1), 0, 100).unwrap();
        let bits: Vec<bool> = [0u8, 1, 1, 0].iter().map(|&b| b == 1).collect();
        let out = ch.transmit(&mut m, &bits).unwrap();
        let samples = out.labelled_samples(&bits);
        assert_eq!(samples.len(), bits.len());
        for (s, (&bit, r)) in samples.iter().zip(bits.iter().zip(&out.records)) {
            assert_eq!(s.class, bit as u64);
            assert_eq!(s.value, r.tx_latency.as_u64());
        }
        // On a clean channel the two classes are separated in latency:
        // a '1' window reloads a trojan-touched (cached) node.
        let fast = samples.iter().filter(|s| s.class == 1).map(|s| s.value).max().unwrap();
        let slow = samples.iter().filter(|s| s.class == 0).map(|s| s.value).min().unwrap();
        assert!(fast < slow, "class-1 max {fast} must undercut class-0 min {slow}");
        assert!(out.cycles_per_bit() > 0.0);
    }

    #[test]
    fn framed_outcome_exposes_wire_samples() {
        let mut m = mem();
        let ch = CovertChannelT::new(&mut m, CoreId(0), CoreId(1), 0, 100).unwrap();
        let payload: Vec<bool> = [1u8, 0, 1, 0].iter().map(|&b| b == 1).collect();
        let out = ch.transmit_framed(&mut m, &payload, &FrameCodec::new(3)).unwrap();
        assert_eq!(out.wire_samples.len(), out.wire_bits - out.erasures);
    }

    #[test]
    fn covert_t_accuracy_on_random_payload() {
        let mut m = mem();
        let ch = CovertChannelT::new(&mut m, CoreId(0), CoreId(1), 0, 100).unwrap();
        let mut rng = SimRng::seed_from(42);
        let bits: Vec<bool> = (0..64).map(|_| rng.chance(0.5)).collect();
        let out = ch.transmit(&mut m, &bits).unwrap();
        let acc = out.accuracy(&bits);
        assert!(acc >= 0.95, "covert-T accuracy {acc} < 0.95");
        assert!(out.bits_per_mcycle() > 0.0);
    }
}
