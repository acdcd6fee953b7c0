//! MetaLeak-T: monitoring a victim's page accesses through shared
//! integrity-tree node blocks with mEvict+mReload (§VI-A, Figure 10).

use crate::error::AttackError;
use crate::mevict::MetaEvictor;
use crate::mreload::{Probe, ProbeSample};
use crate::resilience::RetryPolicy;
use crate::sharing;
use crate::timing::ThresholdClassifier;
use metaleak_engine::secmem::SecureMemory;
use metaleak_meta::geometry::NodeId;
use metaleak_meta::tree::TreeKind;
use metaleak_sim::addr::CoreId;
use metaleak_sim::clock::Cycles;
use metaleak_sim::trace::Tracer;

/// One monitoring observation.
#[derive(Debug, Clone, Copy)]
pub struct MonitorSample {
    /// Attack verdict: did the victim access the monitored region?
    pub accessed: bool,
    /// The raw probe observation behind the verdict.
    pub probe: ProbeSample,
    /// Cycles consumed by the full mEvict+mReload round.
    pub round_cycles: Cycles,
}

/// A planned, calibrated MetaLeak-T monitor for one victim location.
#[derive(Debug, Clone)]
pub struct MetaLeakT {
    target: NodeId,
    level: u8,
    probe: Probe,
    helper_block: u64,
    evictor: MetaEvictor,
    classifier: ThresholdClassifier,
}

impl MetaLeakT {
    /// Plans a monitor for `victim_block` using the shared tree node at
    /// `level`, then calibrates the latency threshold with
    /// `calibration_rounds` self-tests per band.
    ///
    /// # Errors
    /// - [`AttackError::LevelNotShareable`] for SGX L0 (one leaf per
    ///   page — never shared across domains, §VIII-B);
    /// - planning errors when the region is too small.
    pub fn new<Tr: Tracer>(
        mem: &mut SecureMemory<Tr>,
        core: CoreId,
        victim_block: u64,
        level: u8,
        calibration_rounds: usize,
    ) -> Result<Self, AttackError> {
        Self::with_avoid(mem, core, victim_block, level, calibration_rounds, &[])
    }

    /// Like [`MetaLeakT::new`], additionally keeping the eviction
    /// drivers away from `avoid` (nodes monitored by a cooperating
    /// attack, e.g. a covert channel's other set).
    ///
    /// # Errors
    /// Same as [`MetaLeakT::new`].
    pub fn with_avoid<Tr: Tracer>(
        mem: &mut SecureMemory<Tr>,
        core: CoreId,
        victim_block: u64,
        level: u8,
        calibration_rounds: usize,
        avoid: &[NodeId],
    ) -> Result<Self, AttackError> {
        if mem.tree().kind() == TreeKind::Sgx && level == 0 {
            return Err(AttackError::LevelNotShareable { level });
        }
        let victim_cb = mem.counter_block_of(victim_block);
        let geometry = mem.tree().geometry();
        let target = geometry.ancestor_at(victim_cb, level);
        let probe_block =
            sharing::pick_probe_block(mem, victim_block, level).ok_or(AttackError::NoProbeBlock)?;
        let probe_cb = mem.counter_block_of(probe_block);
        // A helper block under the target lets the attacker
        // self-calibrate the "node cached" band. It must live under a
        // different leaf than probe and victim (for level >= 1) so its
        // walk exercises the target, not their leaves.
        let probe_leaf = geometry.leaf_of(probe_cb);
        let victim_leaf = geometry.leaf_of(victim_cb);
        let helper_cb = geometry
            .attached_under(target)
            .find(|&cb| {
                cb != probe_cb
                    && cb != victim_cb
                    && (level == 0
                        || (geometry.leaf_of(cb) != probe_leaf
                            && geometry.leaf_of(cb) != victim_leaf))
            })
            .ok_or(AttackError::NoProbeBlock)?;
        let helper_block = helper_cb * sharing::blocks_per_counter_block(mem);
        let evictor = MetaEvictor::plan(mem, target, &[probe_cb, victim_cb, helper_cb], avoid)?;
        let mut attack = MetaLeakT {
            target,
            level,
            probe: Probe::new(probe_block),
            helper_block,
            evictor,
            classifier: ThresholdClassifier::with_threshold(Cycles::new(u64::MAX)),
        };
        attack.calibrate(mem, core, calibration_rounds.max(1))?;
        Ok(attack)
    }

    /// The monitored tree node.
    pub fn target(&self) -> NodeId {
        self.target
    }

    /// Nodes a cooperating attack must avoid reloading: the target and
    /// the parent this monitor keeps evicted for band separation.
    pub fn avoid_nodes<Tr: Tracer>(&self, mem: &SecureMemory<Tr>) -> Vec<NodeId> {
        let geometry = mem.tree().geometry();
        let mut v = vec![self.target];
        if let Some(p) = geometry.parent(self.target) {
            if !geometry.is_root(p) {
                v.push(p);
            }
        }
        v
    }

    /// The monitored tree level.
    pub fn level(&self) -> u8 {
        self.level
    }

    /// The probe block.
    pub fn probe_block(&self) -> u64 {
        self.probe.block()
    }

    /// The calibrated classifier.
    pub fn classifier(&self) -> ThresholdClassifier {
        self.classifier
    }

    /// Re-calibrates the threshold: `rounds` probes with the target
    /// forced cached (via the attacker's own helper access) and
    /// `rounds` with it evicted. Individual rounds disturbed by
    /// interference are retried with the default [`RetryPolicy`].
    ///
    /// # Errors
    /// [`AttackError::CalibrationFailed`] when the two bands do not
    /// separate; [`AttackError::RetriesExhausted`] when interference
    /// never let a round complete.
    pub fn calibrate<Tr: Tracer>(
        &mut self,
        mem: &mut SecureMemory<Tr>,
        core: CoreId,
        rounds: usize,
    ) -> Result<(), AttackError> {
        let policy = RetryPolicy::default();
        let mut fast = Vec::with_capacity(rounds);
        let mut slow = Vec::with_capacity(rounds);
        // The retry unit is the whole evict->(helper)->probe sequence:
        // a dropped probe sample leaves the probe's own metadata warm,
        // so re-reading without re-evicting would always look fast.
        for _ in 0..rounds {
            // "Victim accessed": the helper loads the target node.
            let f = policy.run(mem, |m| {
                self.evictor.evict(m, core)?;
                m.flush_block(self.helper_block);
                m.read(core, self.helper_block)?;
                self.probe.reload(m, core)
            })?;
            fast.push(f.latency);

            // "Victim idle": nothing reloads the target.
            let sl = policy.run(mem, |m| {
                self.evictor.evict(m, core)?;
                self.probe.reload(m, core)
            })?;
            slow.push(sl.latency);
        }
        self.classifier = ThresholdClassifier::calibrate(&fast, &slow)?;
        Ok(())
    }

    /// Runs the mEvict step alone (used by protocols that interleave
    /// several monitors, e.g. the covert channel's two sets).
    ///
    /// # Errors
    /// Transient [`AttackError::MeasurementInvalidated`] when a drive
    /// access is rejected.
    pub fn evict<Tr: Tracer>(
        &self,
        mem: &mut SecureMemory<Tr>,
        core: CoreId,
    ) -> Result<Cycles, AttackError> {
        self.evictor.evict(mem, core)
    }

    /// Runs the mReload step alone.
    ///
    /// # Errors
    /// Transient [`AttackError::MeasurementInvalidated`] when the
    /// sample was invalidated or dropped.
    pub fn probe<Tr: Tracer>(
        &self,
        mem: &mut SecureMemory<Tr>,
        core: CoreId,
    ) -> Result<ProbeSample, AttackError> {
        self.probe.reload(mem, core)
    }

    /// Runs one monitoring round: mEvict, let the victim act, mReload.
    /// `victim_action` receives the shared memory (the victim may or
    /// may not touch the monitored page inside it).
    ///
    /// # Errors
    /// Transient [`AttackError::MeasurementInvalidated`] when the round
    /// was disturbed.
    pub fn monitor<Tr: Tracer>(
        &self,
        mem: &mut SecureMemory<Tr>,
        core: CoreId,
        victim_action: impl FnOnce(&mut SecureMemory<Tr>),
    ) -> Result<MonitorSample, AttackError> {
        let mut round = self.evictor.evict(mem, core)?;
        victim_action(mem);
        let probe = self.probe.reload(mem, core)?;
        round += probe.latency;
        Ok(MonitorSample {
            accessed: self.classifier.is_fast(probe.latency),
            probe,
            round_cycles: round,
        })
    }

    /// Average mEvict+mReload interval in cycles over `rounds` idle
    /// rounds (the temporal-resolution metric of Figure 12).
    ///
    /// # Errors
    /// Propagates disturbed rounds; see [`MetaLeakT::monitor`].
    pub fn measure_interval<Tr: Tracer>(
        &self,
        mem: &mut SecureMemory<Tr>,
        core: CoreId,
        rounds: usize,
    ) -> Result<f64, AttackError> {
        let mut total = 0u64;
        for _ in 0..rounds.max(1) {
            let s = self.monitor(mem, core, |_| {})?;
            total += s.round_cycles.as_u64();
        }
        Ok(total as f64 / rounds.max(1) as f64)
    }

    /// Bytes of victim data covered by the monitored node (the spatial
    /// coverage of Figure 12: 32 KB at the SCT leaf, growing
    /// exponentially with level).
    pub fn coverage_bytes<Tr: Tracer>(&self, mem: &SecureMemory<Tr>) -> u64 {
        let r = mem.tree().geometry().attached_under(self.target);
        (r.end - r.start) * sharing::blocks_per_counter_block(mem) * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::accuracy;
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

    fn victim_read(block: u64) -> impl FnOnce(&mut SecureMemory) {
        move |m: &mut SecureMemory| {
            // Victim state reaches the LLC/MC per the threat model
            // (cache cleansing between contexts).
            m.flush_block(block);
            m.read(CoreId(1), block).unwrap();
        }
    }

    #[test]
    fn leaf_level_monitor_detects_access_and_idle() {
        let mut m = mem();
        let core = CoreId(0);
        let victim_block = 100 * 64;
        let atk = MetaLeakT::new(&mut m, core, victim_block, 0, 6).unwrap();
        // Victim accesses: detected.
        let hit = atk.monitor(&mut m, core, victim_read(victim_block)).unwrap();
        assert!(hit.accessed, "access must be detected ({:?})", hit.probe);
        // Victim idle: not detected.
        let idle = atk.monitor(&mut m, core, |_| {}).unwrap();
        assert!(!idle.accessed, "idle must not be detected ({:?})", idle.probe);
    }

    #[test]
    fn monitor_accuracy_over_random_sequence() {
        let mut m = mem();
        let core = CoreId(0);
        let victim_block = 100 * 64;
        let atk = MetaLeakT::new(&mut m, core, victim_block, 0, 6).unwrap();
        let mut rng = SimRng::seed_from(7);
        let truth: Vec<bool> = (0..40).map(|_| rng.chance(0.5)).collect();
        let decoded: Vec<bool> = truth
            .iter()
            .map(|&bit| {
                let s = atk
                    .monitor(&mut m, core, |mm| {
                        if bit {
                            victim_read(victim_block)(mm);
                        }
                    })
                    .unwrap();
                s.accessed
            })
            .collect();
        let acc = accuracy(&decoded, &truth);
        assert!(acc >= 0.9, "MetaLeak-T accuracy {acc} below 0.9");
    }

    #[test]
    fn level1_monitor_works_and_covers_more() {
        let mut m = mem();
        let core = CoreId(0);
        let victim_block = 100 * 64;
        let atk0 = MetaLeakT::new(&mut m, core, victim_block, 0, 4).unwrap();
        let atk1 = MetaLeakT::new(&mut m, core, victim_block, 1, 4).unwrap();
        assert!(atk1.coverage_bytes(&m) > atk0.coverage_bytes(&m));
        let s = atk1.monitor(&mut m, core, victim_read(victim_block)).unwrap();
        assert!(s.accessed, "L1 monitor must see the access");
    }

    #[test]
    fn sgx_rejects_leaf_level() {
        let mut m = SecureMemory::new(SecureConfigBuilder::sit(4096).build());
        let err = MetaLeakT::new(&mut m, CoreId(0), 0, 0, 2).unwrap_err();
        assert_eq!(err, AttackError::LevelNotShareable { level: 0 });
    }

    #[test]
    fn coverage_matches_sct_leaf_spec() {
        // Paper §VI-A: a leaf node covers 32 KB (32 pages x ... for SCT
        // 32-ary over per-page counter blocks: 32 pages = 128 KB of
        // data; the paper's 32 KB figure counts 8-ary HT leaves. Check
        // the SCT arithmetic explicitly.
        let mut m = mem();
        let atk = MetaLeakT::new(&mut m, CoreId(0), 100 * 64, 0, 2).unwrap();
        assert_eq!(atk.coverage_bytes(&m), 32 * 4096);
    }

    #[test]
    fn interval_grows_available() {
        let mut m = mem();
        let core = CoreId(0);
        let atk = MetaLeakT::new(&mut m, core, 100 * 64, 0, 2).unwrap();
        let interval = atk.measure_interval(&mut m, core, 5).unwrap();
        assert!(interval > 0.0);
    }
}
