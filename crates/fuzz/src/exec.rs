//! Candidate execution: paired secret-dependent trial groups through
//! the shared execution core ([`metaleak_bench::exec::PointPlan`]),
//! forking one warm snapshot copy-on-write.
//!
//! A candidate is a single sweep point rooted at its evaluation seed,
//! so its warmup draws stream `WARMUP_STREAM_BASE` and its trial `t`
//! draws stream `t`. Replaying an emitted reproducer runs the same
//! point through the same core, so a campaign evaluation and its
//! reproducer observe byte-identical samples by construction. The
//! core supervises the warmup and every trial: a panicking or
//! deadline-blown body *degrades the candidate* (its outcome carries
//! the failure) instead of aborting the campaign, and a failed warmup
//! fails every trial.

use crate::oracle::{self, Verdict};
use crate::spec::{FuzzSpec, VictimKind};
use metaleak_attacks::covert_c::CovertChannelC;
use metaleak_attacks::covert_t::CovertChannelT;
use metaleak_bench::exec::PointPlan;
use metaleak_bench::supervisor::{SupervisorPolicy, TrialOutcome};
use metaleak_engine::secmem::SecureMemory;
use metaleak_engine::snapshot::Snapshot;
use metaleak_mitigations::mirage::{MirageCache, MirageConfig};
use metaleak_sim::addr::CoreId;
use metaleak_sim::rng::SimRng;
use metaleak_sim::trace::Tracer;

/// Pooled `(class, value)` observations from one trial.
pub type Samples = Vec<(u64, u64)>;

/// Preamble bits transmitted during a tree-probe warmup (calibrates
/// the channel before the snapshot is taken, exactly once).
pub const WARMUP_PREAMBLE_BITS: usize = 8;

/// Blocks touched by the stride-loop warmup pass before the snapshot.
const STRIDE_WARM_BLOCKS: u64 = 128;

/// Synthetic probe latencies for the MIRAGE occupancy victim
/// (resident / evicted), mirroring the simulator's L1-hit vs DRAM
/// magnitudes.
const MIRAGE_HIT: u64 = 40;
/// Synthetic probe latency when the target was evicted.
const MIRAGE_MISS: u64 = 400;
/// Block-id space the MIRAGE victim's secret-dependent installs draw
/// from (disjoint from the probed target by construction).
const MIRAGE_BLOCK_SPACE: u64 = 1 << 20;

/// Warm shared state for one candidate, built once under supervision
/// and forked copy-on-write per trial.
enum Warmed<T: Tracer + Clone> {
    /// Tree-probe victim: warm memory plus a calibrated MetaLeak-T
    /// covert channel.
    Tree(Snapshot<T>, CovertChannelT),
    /// Counter-stress victim: warm memory plus a planned MetaLeak-C
    /// channel (cloned per trial — it carries mutable decode state).
    Counter(Snapshot<T>, CovertChannelC),
    /// Stride-loop victim: warm memory only.
    Stride(Snapshot<T>),
    /// MIRAGE occupancy victim: no secure memory at all, just the
    /// cache geometry (each trial builds its own randomized cache).
    Mirage(MirageConfig),
}

/// Builds the warm state for `spec` from the point's warmup stream.
/// May panic (channel planning on a hostile configuration, engine
/// invariants); the execution core supervises it.
fn warm<T: Tracer + Clone>(
    spec: &FuzzSpec,
    wrng: &mut SimRng,
    mk: &dyn Fn() -> SecureMemory<T>,
) -> Warmed<T> {
    match spec.victim {
        VictimKind::TreeProbe { level } => {
            let preamble: Vec<bool> = (0..WARMUP_PREAMBLE_BITS).map(|_| wrng.chance(0.5)).collect();
            let mut mem = mk();
            let channel = CovertChannelT::new(&mut mem, CoreId(0), CoreId(1), level, 100)
                .expect("tree channel setup");
            channel.transmit(&mut mem, &preamble).expect("preamble transmission");
            Warmed::Tree(mem.into_snapshot(), channel)
        }
        VictimKind::CounterStress => {
            let mem = mk();
            let channel = CovertChannelC::new(&mem, CoreId(0), CoreId(1), 1, 100)
                .expect("counter channel setup");
            Warmed::Counter(mem.into_snapshot(), channel)
        }
        VictimKind::StrideLoop { .. } => {
            let mut mem = mk();
            let blocks = mem.config().data_blocks();
            for b in 0..STRIDE_WARM_BLOCKS.min(blocks) {
                mem.read(CoreId(0), b).expect("warmup read");
            }
            Warmed::Stride(mem.into_snapshot())
        }
        VictimKind::MirageEvict { .. } => Warmed::Mirage(MirageConfig::default()),
    }
}

/// Runs trial `i`'s body against the warm state: fork, execute the
/// secret-dependent victim, pool labelled samples. Returns the forked
/// memory too so a tracing caller can recover its tracer (`None` for
/// the memory-less MIRAGE victim). May panic; run under supervision.
fn trial_body<T: Tracer + Clone>(
    warmed: &Warmed<T>,
    spec: &FuzzSpec,
    rng: &mut SimRng,
) -> (Samples, Option<SecureMemory<T>>) {
    match (warmed, spec.victim) {
        (Warmed::Tree(snap, channel), VictimKind::TreeProbe { .. }) => {
            let mut mem = snap.fork();
            let bits: Vec<bool> = (0..spec.payload).map(|_| rng.chance(0.5)).collect();
            let out = channel.transmit(&mut mem, &bits).expect("transmission");
            let samples = out.labelled_samples(&bits).iter().map(|s| (s.class, s.value)).collect();
            (samples, Some(mem))
        }
        (Warmed::Counter(snap, channel), VictimKind::CounterStress) => {
            let mut mem = snap.fork();
            let mut channel = channel.clone();
            let cap = channel.max_symbol() + 1;
            let symbols: Vec<u64> = (0..spec.payload).map(|_| rng.below(cap)).collect();
            let out = channel.transmit(&mut mem, &symbols).expect("transmission");
            let samples =
                out.labelled_samples(&symbols).iter().map(|s| (s.class, s.value)).collect();
            (samples, Some(mem))
        }
        (Warmed::Stride(snap), VictimKind::StrideLoop { stride, secret_offset }) => {
            let mut mem = snap.fork();
            let blocks = mem.config().data_blocks();
            let mut samples = Vec::with_capacity(spec.payload);
            for k in 0..spec.payload as u64 {
                let secret = rng.chance(0.5);
                let offset = if secret { secret_offset } else { 0 };
                let block = (k * stride + offset) % blocks;
                let r = mem.read(CoreId(0), block).expect("probe read");
                samples.push((secret as u64, r.latency.as_u64()));
            }
            (samples, Some(mem))
        }
        (Warmed::Mirage(config), VictimKind::MirageEvict { installs }) => {
            let mut cache = MirageCache::new(*config, rng.next_u64());
            let target = MIRAGE_BLOCK_SPACE; // outside the install space
            let mut samples = Vec::with_capacity(spec.payload);
            for _ in 0..spec.payload {
                cache.access(target);
                let secret = rng.chance(0.5);
                if secret {
                    for _ in 0..installs {
                        cache.access(rng.below(MIRAGE_BLOCK_SPACE));
                    }
                }
                let value = if cache.contains(target) { MIRAGE_HIT } else { MIRAGE_MISS };
                samples.push((secret as u64, value));
            }
            (samples, None)
        }
        _ => unreachable!("warm state built from the same spec"),
    }
}

/// Runs all `trials` of `spec` as one sweep point rooted at `seed`,
/// with memories from `mk`: trial `t` on stream `t`, outcomes in
/// index order. Each successful trial also returns its forked
/// memory's tracer (`None` for the memory-less MIRAGE victim).
pub(crate) fn run_spec_with<T: Tracer + Clone>(
    spec: &FuzzSpec,
    seed: u64,
    trials: usize,
    policy: &SupervisorPolicy,
    mk: impl Fn() -> SecureMemory<T>,
) -> Vec<TrialOutcome<(Samples, Option<T>)>> {
    let plan = PointPlan { seed, point: 0, trials, policy };
    plan.run(
        |wrng| warm(spec, wrng, &mk),
        |warmed, rng, _| {
            let (samples, mem) = trial_body(warmed, spec, rng);
            (samples, mem.map(SecureMemory::into_tracer))
        },
    )
}

/// Runs all `trials` of `spec` untraced as one sweep point rooted at
/// `seed`: trial `t` on stream `t`, outcomes in index order. With zero
/// trials it still warms, and returns no outcomes.
pub fn run_spec(
    spec: &FuzzSpec,
    seed: u64,
    trials: usize,
    policy: &SupervisorPolicy,
) -> Vec<TrialOutcome<Samples>> {
    run_spec_with(spec, seed, trials, policy, || SecureMemory::new(spec.build_config()))
        .into_iter()
        .map(|out| out.map(|(samples, _)| samples))
        .collect()
}

/// Everything the campaign needs to judge one candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// The oracle's verdict over the pooled samples.
    pub verdict: Verdict,
    /// Total pooled samples across completed trials.
    pub samples: usize,
    /// Trials that failed (panic or deadline) after retries.
    pub failed_trials: usize,
    /// `true` iff any warmup or trial failed: the candidate is
    /// *degraded* — never admitted to the corpus, never a minimization
    /// acceptance — but the campaign continues.
    pub degraded: bool,
}

impl Evaluation {
    /// A degraded or clean non-leak evaluation is never a corpus hit.
    pub fn is_hit(&self) -> bool {
        self.verdict.leak && !self.degraded
    }
}

/// Runs and judges one candidate: `trials` supervised trial groups,
/// samples pooled, oracle applied. Degradation is sticky — one failed
/// trial poisons the candidate's verdict but nothing else.
pub fn evaluate(
    spec: &FuzzSpec,
    seed: u64,
    trials: usize,
    policy: &SupervisorPolicy,
) -> Evaluation {
    let outcomes = run_spec(spec, seed, trials, policy);
    let mut pooled: Samples = Vec::new();
    let mut failed = 0usize;
    for out in outcomes {
        match out {
            TrialOutcome::Done(mut s) => pooled.append(&mut s),
            TrialOutcome::Failed(_) => failed += 1,
        }
    }
    let degraded = failed > 0;
    let verdict = oracle::judge(&pooled);
    Evaluation { verdict, samples: pooled.len(), failed_trials: failed, degraded }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaleak::configs::Preset;

    fn quiet_policy() -> SupervisorPolicy {
        SupervisorPolicy {
            deadline_cycles: None,
            wall_ms: None,
            retries: 0,
            backoff_ms: 0,
            inject: Vec::new(),
        }
    }

    #[test]
    fn counter_stress_is_a_known_leak() {
        let spec = FuzzSpec::preset(Preset::Sct, VictimKind::CounterStress);
        let eval = evaluate(&spec, 0xF122, 2, &quiet_policy());
        assert!(!eval.degraded, "counter channel must run clean");
        assert!(eval.is_hit(), "paper channel not rediscovered: {:?}", eval.verdict);
    }

    #[test]
    fn clean_stride_preset_is_not_a_leak() {
        let spec =
            FuzzSpec::preset(Preset::Sct, VictimKind::StrideLoop { stride: 8, secret_offset: 0 });
        let eval = evaluate(&spec, 0xF122, 2, &quiet_policy());
        assert!(!eval.degraded);
        assert!(!eval.is_hit(), "secret-independent victim judged leaky: {:?}", eval.verdict);
    }

    #[test]
    fn injected_trial_zero_spares_the_warmup() {
        // Trial 0 shares its index with the single point's warmup; the
        // injection names the trial, so trial 1 still runs.
        let spec = FuzzSpec::preset(Preset::Sct, VictimKind::CounterStress);
        let policy = SupervisorPolicy { inject: vec![0], ..quiet_policy() };
        let out = run_spec(&spec, 0xF122, 2, &policy);
        assert!(out[0].is_failed());
        assert!(!out[1].is_failed(), "warmup must not be injected");
        assert_eq!(evaluate(&spec, 0xF122, 2, &policy).failed_trials, 1);
    }

    #[test]
    fn injected_panic_degrades_candidate_not_campaign() {
        let spec = FuzzSpec::preset(Preset::Sct, VictimKind::CounterStress);
        let policy = SupervisorPolicy { inject: vec![1], ..quiet_policy() };
        let eval = evaluate(&spec, 0xF122, 2, &policy);
        assert!(eval.degraded, "injected failure must mark the candidate degraded");
        assert_eq!(eval.failed_trials, 1);
        assert!(!eval.is_hit(), "degraded candidates never enter the corpus");
    }

    #[test]
    fn evaluation_is_seed_deterministic() {
        let spec = FuzzSpec::preset(Preset::Sct, VictimKind::TreeProbe { level: 0 });
        let a = evaluate(&spec, 0xF122, 2, &quiet_policy());
        let b = evaluate(&spec, 0xF122, 2, &quiet_policy());
        assert_eq!(a, b);
    }
}
