//! The MetaLeak-C covert channel (§VI-B, Figure 14): a trojan encodes a
//! 7-bit symbol as the number of writes modulating a shared tree
//! counter; the spy decodes it from the extra writes needed to overflow.

use crate::error::AttackError;
use crate::metaleak_c::{Bumper, MetaLeakC};
use crate::resilience::{FrameCodec, FramedOutcome, RetryPolicy};
use crate::timing::LabelledSample;
use metaleak_engine::secmem::SecureMemory;
use metaleak_sim::addr::CoreId;
use metaleak_sim::clock::Cycles;
use metaleak_sim::trace::Tracer;

/// Per-symbol observation (the Figure 14 trace).
#[derive(Debug, Clone)]
pub struct SymbolRecord {
    /// Decoded symbol value.
    pub symbol: u64,
    /// Spy bumps needed to trigger the overflow.
    pub spy_writes: u64,
    /// Probe latencies of the spy's bumps (last one is the spike).
    pub latencies: Vec<Cycles>,
}

/// Result of a covert-C transmission.
#[derive(Debug, Clone)]
pub struct CovertOutcomeC {
    /// Symbols as decoded by the spy.
    pub decoded: Vec<u64>,
    /// Per-symbol observations.
    pub records: Vec<SymbolRecord>,
    /// Total simulated cycles consumed.
    pub cycles: Cycles,
}

impl CovertOutcomeC {
    /// Symbol accuracy against the transmitted ground truth.
    pub fn accuracy(&self, truth: &[u64]) -> f64 {
        crate::timing::accuracy(&self.decoded, truth)
    }

    /// Average cycles consumed per transmitted symbol.
    pub fn cycles_per_symbol(&self) -> f64 {
        if self.decoded.is_empty() {
            return 0.0;
        }
        self.cycles.as_u64() as f64 / self.decoded.len() as f64
    }

    /// Per-window labelled samples for leakage assessment: the sent
    /// symbol (`truth[i]`) as the secret class, the spy's write count
    /// to the overflow spike as the measurement (the channel's actual
    /// observable — `symbol = counter_max + 1 - preset - spy_writes`).
    ///
    /// # Panics
    /// Panics if `truth.len()` differs from the number of windows.
    pub fn labelled_samples(&self, truth: &[u64]) -> Vec<LabelledSample> {
        assert_eq!(truth.len(), self.records.len(), "truth/record length mismatch");
        truth
            .iter()
            .zip(&self.records)
            .map(|(&symbol, r)| LabelledSample { class: symbol, value: r.spy_writes })
            .collect()
    }
}

/// A configured MetaLeak-C covert channel. Trojan and spy both own
/// write pools under the same child subtree; the shared counter is the
/// child's version slot in its parent node.
#[derive(Debug, Clone)]
pub struct CovertChannelC {
    spy: MetaLeakC,
    trojan: Bumper,
    spy_core: CoreId,
    trojan_core: CoreId,
}

impl CovertChannelC {
    /// Sets up the channel at tree `level` (>= 1) around `base_page`.
    ///
    /// # Errors
    /// Propagates planning failures (level 0, SGX-wide counters, tiny
    /// subtrees).
    pub fn new<Tr: Tracer>(
        mem: &SecureMemory<Tr>,
        spy_core: CoreId,
        trojan_core: CoreId,
        level: u8,
        base_page: u64,
    ) -> Result<Self, AttackError> {
        let anchor_block = base_page * 64;
        let spy = MetaLeakC::new(mem, anchor_block, level)?;
        // The trojan writes through a disjoint pool under the same child.
        let geometry = mem.tree().geometry();
        let child = spy.child();
        let exclude: Vec<u64> = geometry
            .attached_under(child)
            .take(geometry.attached_under(child).count() / 2)
            .collect();
        let trojan = Bumper::plan(mem, child, level, &exclude)?;
        Ok(CovertChannelC { spy, trojan, spy_core, trojan_core })
    }

    /// Largest symbol value transmissible per counter modulation
    /// (`counter_max - 1`; one spy bump is always needed for detection).
    pub fn max_symbol(&self) -> u64 {
        self.spy.counter_max() - 1
    }

    /// One symbol window: the trojan encodes `s` as `s` writes, then
    /// the spy bumps until the overflow spike re-arms the channel.
    /// Assumes the counter is in the post-overflow state (value 1).
    fn send_symbol<Tr: Tracer>(
        &mut self,
        mem: &mut SecureMemory<Tr>,
        s: u64,
    ) -> Result<SymbolRecord, AttackError> {
        let max = self.spy.counter_max();
        // Trojan encodes the symbol as s writes.
        for _ in 0..s {
            self.trojan.bump(mem, self.trojan_core)?;
        }
        // Spy bumps until the overflow spike; m extra writes mean
        // the trojan wrote (max + 1 - preset - m), preset = 1.
        let mut latencies = Vec::new();
        let mut m = 0;
        loop {
            m += 1;
            if m > max + 2 {
                return Err(AttackError::OverflowImpractical { writes_attempted: m });
            }
            let p = self.spy.bump_and_probe(mem, self.spy_core)?;
            latencies.push(p.latency);
            if p.overflowed {
                break;
            }
        }
        let symbol = self.spy.infer_victim_bumps(1, m);
        Ok(SymbolRecord { symbol, spy_writes: m, latencies })
    }

    /// Transmits `symbols` (each `<= max_symbol()`); returns the spy's
    /// decoding and per-symbol traces.
    ///
    /// # Errors
    /// [`AttackError::InvalidParameter`] for symbols exceeding
    /// [`CovertChannelC::max_symbol`]; propagates overflow-detection
    /// failures. The raw channel has no redundancy — the first
    /// disturbed window aborts; see
    /// [`CovertChannelC::transmit_framed`].
    pub fn transmit<Tr: Tracer>(
        &mut self,
        mem: &mut SecureMemory<Tr>,
        symbols: &[u64],
    ) -> Result<CovertOutcomeC, AttackError> {
        let start = mem.now();
        if symbols.iter().any(|&s| s > self.max_symbol()) {
            return Err(AttackError::InvalidParameter { what: "symbol exceeds channel capacity" });
        }
        // Initial mPreset: force an overflow so the counter state is
        // known (value = 1, the spy's triggering bump). Subsequent
        // overflows re-arm the channel automatically (§VI-B).
        self.spy.reset(mem, self.spy_core)?;
        let mut decoded = Vec::with_capacity(symbols.len());
        let mut records = Vec::with_capacity(symbols.len());
        for &s in symbols {
            let record = self.send_symbol(mem, s)?;
            decoded.push(record.symbol);
            records.push(record);
        }
        Ok(CovertOutcomeC { decoded, records, cycles: mem.now() - start })
    }

    /// Transmits `payload` bits inside ECC frames, one binary symbol
    /// per wire bit. A window lost to interference becomes an erasure
    /// that abstains from the majority vote; afterwards the counter
    /// state is unknown, so the channel re-arms itself with a retried
    /// mPreset before continuing.
    ///
    /// # Errors
    /// Only permanent errors abort (planning, parameters, exhausted
    /// re-arm retries); transient window failures are absorbed.
    pub fn transmit_framed<Tr: Tracer>(
        &mut self,
        mem: &mut SecureMemory<Tr>,
        payload: &[bool],
        codec: &FrameCodec,
        policy: &RetryPolicy,
    ) -> Result<FramedOutcome, AttackError> {
        let start = mem.now();
        let wire = codec.encode(payload);
        policy.run(mem, |m| self.spy.reset(m, self.spy_core).map(|_| ()))?;
        let mut received: Vec<Option<bool>> = Vec::with_capacity(wire.len());
        let mut erasures = 0;
        let mut wire_samples = Vec::with_capacity(wire.len());
        for &bit in &wire {
            match self.send_symbol(mem, bit as u64) {
                Ok(record) => {
                    received.push(Some(record.symbol == 1));
                    wire_samples
                        .push(LabelledSample { class: bit as u64, value: record.spy_writes });
                }
                Err(e) if e.is_transient() => {
                    erasures += 1;
                    received.push(None);
                    // Re-arm: the shared counter is in an unknown state.
                    policy.run(mem, |m| self.spy.reset(m, self.spy_core).map(|_| ()))?;
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
    use metaleak_meta::enc_counter::CounterWidths;
    use metaleak_sim::rng::SimRng;

    fn mem(minor_bits: u8) -> SecureMemory {
        let mut cfg = SecureConfigBuilder::sct(16384).build();
        cfg.tree_widths = CounterWidths { minor_bits, mono_bits: 56 };
        SecureMemory::new(cfg)
    }

    #[test]
    fn covert_c_round_trips_symbols() {
        let mut m = mem(3); // symbols 0..=6
        let mut ch = CovertChannelC::new(&m, CoreId(0), CoreId(1), 1, 100).unwrap();
        let symbols = vec![3, 0, 6, 1, 5, 2, 4, 6, 0, 3];
        let out = ch.transmit(&mut m, &symbols).unwrap();
        assert_eq!(out.decoded, symbols, "records: {:?}", out.records);
    }

    #[test]
    fn covert_c_accuracy_on_random_symbols() {
        let mut m = mem(3);
        let mut ch = CovertChannelC::new(&m, CoreId(0), CoreId(1), 1, 100).unwrap();
        let mut rng = SimRng::seed_from(9);
        let cap = ch.max_symbol() + 1;
        let symbols: Vec<u64> = (0..24).map(|_| rng.below(cap)).collect();
        let out = ch.transmit(&mut m, &symbols).unwrap();
        let acc = out.accuracy(&symbols);
        assert!(acc >= 0.95, "covert-C accuracy {acc} < 0.95");
    }

    #[test]
    fn labelled_samples_pair_symbols_with_spy_writes() {
        let mut m = mem(3);
        let mut ch = CovertChannelC::new(&m, CoreId(0), CoreId(1), 1, 100).unwrap();
        let symbols = vec![3, 0, 6, 1];
        let out = ch.transmit(&mut m, &symbols).unwrap();
        let samples = out.labelled_samples(&symbols);
        assert_eq!(samples.len(), symbols.len());
        for (s, (&symbol, r)) in samples.iter().zip(symbols.iter().zip(&out.records)) {
            assert_eq!(s.class, symbol);
            assert_eq!(s.value, r.spy_writes);
        }
        // The observable is deterministic on a clean channel: the
        // spy's write count decreases as the sent symbol grows.
        let max = ch.max_symbol();
        for s in &samples {
            assert_eq!(s.value, max + 1 - s.class);
        }
        assert!(out.cycles_per_symbol() > 0.0);
    }

    #[test]
    fn wider_counters_give_wider_symbols() {
        let m4 = mem(4);
        let ch = CovertChannelC::new(&m4, CoreId(0), CoreId(1), 1, 100).unwrap();
        assert_eq!(ch.max_symbol(), 14);
    }

    #[test]
    fn oversized_symbols_are_an_error_not_a_panic() {
        let mut m = mem(3);
        let mut ch = CovertChannelC::new(&m, CoreId(0), CoreId(1), 1, 100).unwrap();
        assert_eq!(
            ch.transmit(&mut m, &[7]).unwrap_err(),
            AttackError::InvalidParameter { what: "symbol exceeds channel capacity" }
        );
    }

    #[test]
    fn framed_transfer_round_trips_under_clean_conditions() {
        let mut m = mem(3);
        let mut ch = CovertChannelC::new(&m, CoreId(0), CoreId(1), 1, 100).unwrap();
        let payload: Vec<bool> = [1u8, 1, 0, 1, 0, 0, 0, 1].iter().map(|&b| b == 1).collect();
        let out = ch
            .transmit_framed(&mut m, &payload, &FrameCodec::new(3), &RetryPolicy::default())
            .unwrap();
        assert_eq!(out.report.payload, payload, "report: {:?}", out.report);
        assert_eq!(out.erasures, 0);
    }
}
