//! Self-healing attack runtime: bounded retry with backoff and ECC
//! framing (majority vote over (7,4)-Hamming codewords) for the covert
//! channels.
//!
//! Under the adversarial interference of
//! [`metaleak_sim::interference`], individual measurements get
//! invalidated (preemption), lost (sample drops) or pushed across the
//! decision threshold (jitter, co-runner bursts, DVFS drift). The
//! pieces here let the attacks degrade gracefully instead of failing:
//! transient errors are retried with backoff, and covert payloads ride
//! inside redundant frames whose bit-error rate shrinks
//! combinatorially with the repeat count.

use crate::error::AttackError;
use crate::timing::LabelledSample;
use metaleak_engine::secmem::SecureMemory;
use metaleak_sim::clock::Cycles;
use metaleak_sim::trace::Tracer;

// ---------------------------------------------------------------------
// Bounded retry with backoff.
// ---------------------------------------------------------------------

/// A unit-agnostic doubling backoff sequence: `initial`, `2*initial`,
/// `4*initial`, ... with saturating arithmetic.
///
/// [`RetryPolicy`] interprets the steps as simulated [`Cycles`] spent
/// via [`SecureMemory::advance_time`]; the bench supervisor reuses the
/// same schedule with the steps interpreted as wall-clock milliseconds
/// between trial re-runs. A zero `initial` yields an all-zero schedule
/// (retry immediately).
///
/// ```
/// use metaleak_attacks::resilience::BackoffSchedule;
/// let mut waits = BackoffSchedule::new(100);
/// assert_eq!(waits.next_wait(), 100);
/// assert_eq!(waits.next_wait(), 200);
/// assert_eq!(waits.next_wait(), 400);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffSchedule {
    next: u64,
}

impl BackoffSchedule {
    /// A schedule starting at `initial` units.
    pub fn new(initial: u64) -> Self {
        BackoffSchedule { next: initial }
    }

    /// Returns the next wait and doubles the following one
    /// (saturating).
    pub fn next_wait(&mut self) -> u64 {
        let wait = self.next;
        self.next = self.next.saturating_mul(2);
        wait
    }
}

/// A bounded retry loop with exponential backoff in simulated time.
/// Only transient errors ([`AttackError::is_transient`]) are retried;
/// permanent errors propagate immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts (>= 1) before giving up.
    pub max_attempts: u32,
    /// Backoff after the first failed attempt; doubles per retry. The
    /// wait is spent via [`SecureMemory::advance_time`], modelling the
    /// attacker yielding until the disturbance passes.
    pub backoff: Cycles,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 4, backoff: Cycles::new(256) }
    }
}

impl RetryPolicy {
    /// A policy with explicit bounds. `max_attempts` is clamped to at
    /// least 1.
    pub fn new(max_attempts: u32, backoff: Cycles) -> Self {
        RetryPolicy { max_attempts: max_attempts.max(1), backoff }
    }

    /// Runs `op` until it succeeds, a permanent error occurs, or the
    /// attempt budget is spent.
    ///
    /// # Errors
    /// The first permanent error, or
    /// [`AttackError::RetriesExhausted`] after `max_attempts` transient
    /// failures.
    pub fn run<Tr: Tracer, T>(
        &self,
        mem: &mut SecureMemory<Tr>,
        mut op: impl FnMut(&mut SecureMemory<Tr>) -> Result<T, AttackError>,
    ) -> Result<T, AttackError> {
        let attempts = self.max_attempts.max(1);
        let mut waits = BackoffSchedule::new(self.backoff.as_u64());
        for attempt in 1..=attempts {
            match op(mem) {
                Ok(v) => return Ok(v),
                Err(e) if !e.is_transient() => return Err(e),
                Err(_) if attempt < attempts => {
                    mem.advance_time(Cycles::new(waits.next_wait()));
                }
                Err(_) => {}
            }
        }
        Err(AttackError::RetriesExhausted { attempts })
    }
}

// ---------------------------------------------------------------------
// (7,4)-Hamming ECC + majority-vote framing.
// ---------------------------------------------------------------------

/// Encodes a 4-bit nibble into a 7-bit Hamming codeword
/// `[p1 p2 d1 p3 d2 d3 d4]` (parity positions 1, 2, 4).
pub fn hamming_encode_nibble(nibble: u8) -> u8 {
    let d = [nibble >> 3 & 1, nibble >> 2 & 1, nibble >> 1 & 1, nibble & 1];
    let p1 = d[0] ^ d[1] ^ d[3];
    let p2 = d[0] ^ d[2] ^ d[3];
    let p3 = d[1] ^ d[2] ^ d[3];
    p1 << 6 | p2 << 5 | d[0] << 4 | p3 << 3 | d[1] << 2 | d[2] << 1 | d[3]
}

/// Decodes a 7-bit Hamming codeword, correcting up to one flipped bit.
/// Returns `(nibble, corrected)`.
pub fn hamming_decode_nibble(codeword: u8) -> (u8, bool) {
    let bit = |pos: u32| codeword >> (7 - pos) & 1; // 1-indexed positions
    let s1 = bit(1) ^ bit(3) ^ bit(5) ^ bit(7);
    let s2 = bit(2) ^ bit(3) ^ bit(6) ^ bit(7);
    let s3 = bit(4) ^ bit(5) ^ bit(6) ^ bit(7);
    let syndrome = (s3 << 2 | s2 << 1 | s1) as u32;
    let fixed = if syndrome == 0 { codeword } else { codeword ^ (1 << (7 - syndrome)) };
    let b = |pos: u32| fixed >> (7 - pos) & 1;
    (b(3) << 3 | b(5) << 2 | b(6) << 1 | b(7), syndrome != 0)
}

/// What the receiver recovered from one framed transmission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeReport {
    /// Recovered payload bits (exactly the requested length; lost
    /// positions decode as `false`).
    pub payload: Vec<bool>,
    /// Codewords where the Hamming stage corrected a bit flip.
    pub corrected_codewords: usize,
    /// Codewords containing at least one erased slot (every repeat of
    /// that wire bit was dropped) — their nibbles are best-effort.
    pub lost_codewords: usize,
    /// Total codewords in the frame.
    pub total_codewords: usize,
}

impl DecodeReport {
    /// True when nothing was erased (all losses were recoverable).
    pub fn complete(&self) -> bool {
        self.lost_codewords == 0
    }
}

/// Result of an ECC-framed covert transmission (either channel).
#[derive(Debug, Clone)]
pub struct FramedOutcome {
    /// The receiver-side decode report (payload, corrections, losses).
    pub report: DecodeReport,
    /// Wire bits actually pushed through the channel.
    pub wire_bits: usize,
    /// Wire bits the spy failed to observe (erasures after per-window
    /// failure — these abstain from the majority vote).
    pub erasures: usize,
    /// Labelled per-window observations (sent wire bit → channel
    /// observable) for the windows that survived; erased windows are
    /// omitted. Feeds the leakage-assessment layer.
    pub wire_samples: Vec<LabelledSample>,
    /// Total simulated cycles consumed.
    pub cycles: Cycles,
}

impl FramedOutcome {
    /// Payload-bit accuracy against the transmitted ground truth.
    pub fn accuracy(&self, truth: &[bool]) -> f64 {
        crate::timing::accuracy(&self.report.payload, truth)
    }
}

/// Majority-vote + (7,4)-Hamming framing for covert payloads.
///
/// Encoding: the payload is chunked into nibbles, each Hamming-encoded
/// to 7 wire bits, and every wire bit is repeated `repeats` times
/// back-to-back. Decoding majority-votes each group of repeats (erased
/// slots abstain), then Hamming-corrects each codeword. A single
/// surviving repeat still yields the bit; a single flipped codeword bit
/// is corrected — so the framed bit-error rate falls combinatorially
/// while the raw channel's stays linear in the fault intensity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameCodec {
    repeats: usize,
}

impl FrameCodec {
    /// A codec repeating each wire bit `repeats` times (forced odd and
    /// at least 1 so votes cannot tie).
    pub fn new(repeats: usize) -> Self {
        FrameCodec { repeats: repeats.max(1) | 1 }
    }

    /// The per-bit repeat count.
    pub fn repeats(&self) -> usize {
        self.repeats
    }

    /// Wire bits needed for a `payload_len`-bit payload.
    pub fn wire_len(&self, payload_len: usize) -> usize {
        payload_len.div_ceil(4) * 7 * self.repeats
    }

    /// Encodes payload bits into wire bits.
    pub fn encode(&self, payload: &[bool]) -> Vec<bool> {
        let mut wire = Vec::with_capacity(self.wire_len(payload.len()));
        for chunk in payload.chunks(4) {
            let mut nibble = 0u8;
            for (i, &b) in chunk.iter().enumerate() {
                nibble |= (b as u8) << (3 - i);
            }
            let cw = hamming_encode_nibble(nibble);
            for pos in (0..7).rev() {
                let bit = cw >> pos & 1 == 1;
                for _ in 0..self.repeats {
                    wire.push(bit);
                }
            }
        }
        wire
    }

    /// Decodes received wire slots back into `payload_len` bits.
    /// `None` slots are erasures (dropped samples that retries could
    /// not recover); they abstain from the vote and are reported — not
    /// panicked on — when a whole vote group is erased.
    ///
    /// # Errors
    /// [`AttackError::InvalidParameter`] when `received` is shorter
    /// than the frame needs (the transmission was truncated).
    pub fn decode(
        &self,
        received: &[Option<bool>],
        payload_len: usize,
    ) -> Result<DecodeReport, AttackError> {
        let need = self.wire_len(payload_len);
        if received.len() < need {
            return Err(AttackError::InvalidParameter {
                what: "received frame shorter than the encoded payload",
            });
        }
        let total_codewords = payload_len.div_ceil(4);
        let mut payload = Vec::with_capacity(payload_len);
        let mut corrected_codewords = 0;
        let mut lost_codewords = 0;
        for cw_idx in 0..total_codewords {
            let mut codeword = 0u8;
            let mut erased = false;
            for bit_idx in 0..7 {
                let base = (cw_idx * 7 + bit_idx) * self.repeats;
                let group = &received[base..base + self.repeats];
                let ones = group.iter().flatten().filter(|&&b| b).count();
                let valid = group.iter().flatten().count();
                if valid == 0 {
                    erased = true; // abstention everywhere: bit unknown
                }
                let bit = valid > 0 && ones * 2 > valid;
                codeword = codeword << 1 | bit as u8;
            }
            let (nibble, corrected) = hamming_decode_nibble(codeword);
            if corrected {
                corrected_codewords += 1;
            }
            if erased {
                lost_codewords += 1;
            }
            for i in 0..4 {
                if payload.len() < payload_len {
                    payload.push(nibble >> (3 - i) & 1 == 1);
                }
            }
        }
        Ok(DecodeReport { payload, corrected_codewords, lost_codewords, total_codewords })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaleak_engine::config::SecureConfig;
    use metaleak_sim::rng::SimRng;

    #[test]
    fn hamming_round_trips_all_nibbles() {
        for n in 0..16u8 {
            let cw = hamming_encode_nibble(n);
            assert_eq!(hamming_decode_nibble(cw), (n, false), "nibble {n}");
        }
    }

    #[test]
    fn hamming_corrects_every_single_bit_flip() {
        for n in 0..16u8 {
            let cw = hamming_encode_nibble(n);
            for flip in 0..7 {
                let (decoded, corrected) = hamming_decode_nibble(cw ^ (1 << flip));
                assert_eq!(decoded, n, "nibble {n} flip {flip}");
                assert!(corrected);
            }
        }
    }

    #[test]
    fn frame_round_trips_arbitrary_payloads() {
        let mut rng = SimRng::seed_from(0xECC_0001);
        for repeats in [1, 3, 5] {
            let codec = FrameCodec::new(repeats);
            for len in [1usize, 4, 7, 32, 61] {
                let payload: Vec<bool> = (0..len).map(|_| rng.chance(0.5)).collect();
                let wire = codec.encode(&payload);
                assert_eq!(wire.len(), codec.wire_len(len));
                let received: Vec<Option<bool>> = wire.iter().map(|&b| Some(b)).collect();
                let report = codec.decode(&received, len).unwrap();
                assert_eq!(report.payload, payload, "repeats {repeats} len {len}");
                assert!(report.complete());
                assert_eq!(report.corrected_codewords, 0);
            }
        }
    }

    #[test]
    fn majority_vote_outlasts_minority_flips_and_drops() {
        let codec = FrameCodec::new(3);
        let payload = vec![true, false, true, true, false, true, false, false];
        let wire = codec.encode(&payload);
        let mut received: Vec<Option<bool>> = wire.iter().map(|&b| Some(b)).collect();
        // Flip one repeat of every third wire bit and drop another.
        for (i, slot) in received.iter_mut().enumerate() {
            match i % 9 {
                0 => *slot = slot.map(|b| !b),
                4 => *slot = None,
                _ => {}
            }
        }
        let report = codec.decode(&received, payload.len()).unwrap();
        assert_eq!(report.payload, payload);
        assert!(report.complete());
    }

    #[test]
    fn total_erasure_reports_losses_without_panicking() {
        let codec = FrameCodec::new(3);
        let payload = vec![true; 8];
        let wire = codec.encode(&payload);
        // Erase every slot of the first codeword.
        let received: Vec<Option<bool>> =
            wire.iter().enumerate().map(|(i, &b)| if i < 21 { None } else { Some(b) }).collect();
        let report = codec.decode(&received, payload.len()).unwrap();
        assert!(!report.complete());
        assert_eq!(report.lost_codewords, 1);
        assert_eq!(report.total_codewords, 2);
        // The second codeword still decodes.
        assert_eq!(&report.payload[4..], &payload[4..]);
    }

    #[test]
    fn truncated_frames_are_an_error() {
        let codec = FrameCodec::new(1);
        assert_eq!(
            codec.decode(&[Some(true); 6], 4),
            Err(AttackError::InvalidParameter {
                what: "received frame shorter than the encoded payload"
            })
        );
    }

    #[test]
    fn backoff_schedule_doubles_and_saturates() {
        let mut s = BackoffSchedule::new(3);
        assert_eq!([s.next_wait(), s.next_wait(), s.next_wait()], [3, 6, 12]);
        let mut near_max = BackoffSchedule::new(u64::MAX / 2 + 1);
        assert_eq!(near_max.next_wait(), u64::MAX / 2 + 1);
        assert_eq!(near_max.next_wait(), u64::MAX, "doubling saturates");
        assert_eq!(near_max.next_wait(), u64::MAX);
        let mut zero = BackoffSchedule::new(0);
        assert_eq!([zero.next_wait(), zero.next_wait()], [0, 0], "zero schedule never waits");
    }

    #[test]
    fn retry_policy_retries_transient_and_stops_on_permanent() {
        let mut mem = SecureMemory::new(SecureConfig::test_tiny());
        let policy = RetryPolicy::new(3, Cycles::new(100));
        // Succeeds on the third attempt; time must have passed waiting.
        let mut calls = 0;
        let t0 = mem.now();
        let out = policy.run(&mut mem, |_| {
            calls += 1;
            if calls < 3 {
                Err(AttackError::MeasurementInvalidated)
            } else {
                Ok(calls)
            }
        });
        assert_eq!(out, Ok(3));
        assert!(mem.now() - t0 >= Cycles::new(300), "backoff 100 + 200");
        // Permanent errors abort immediately.
        let mut calls = 0;
        let out: Result<(), _> = policy.run(&mut mem, |_| {
            calls += 1;
            Err(AttackError::NoProbeBlock)
        });
        assert_eq!(out, Err(AttackError::NoProbeBlock));
        assert_eq!(calls, 1);
        // Exhaustion is reported with the attempt count.
        let out: Result<(), _> = policy.run(&mut mem, |_| Err(AttackError::MeasurementInvalidated));
        assert_eq!(out, Err(AttackError::RetriesExhausted { attempts: 3 }));
    }
}
