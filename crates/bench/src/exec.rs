//! The execution core shared by the harness, `metaleak-serve` and
//! `leakfuzz`: one index-ordered parallel map ([`map_indexed`]) and one
//! sweep-point runner ([`PointPlan`]).
//!
//! # Seeding
//!
//! The caller gives a root seed. Sweep point `p` warms on stream
//! `WARMUP_STREAM_BASE + p` and its trial `t` runs on stream
//! `p * trials_per_point + t`, both split from that root. The figure
//! bins use the experiment seed as the root, serve uses the point's
//! seed, and leakfuzz uses the candidate's evaluation seed with a
//! single point, so trial `t` of a candidate is stream `t`. A warmup
//! therefore draws the same randomness whether it runs once per point
//! or again inside every trial, and a trial draws the same randomness
//! whichever thread or scheduler runs it.
//!
//! # Failures
//!
//! Warmups and trials both run under [`supervisor::supervise`]. A
//! warmup is never fault-injected: the policy's injection list names
//! trials. A warmup that fails all its attempts becomes one failure row
//! per trial of its point that has no outcome yet, each carrying the
//! warmup's kind and error under the trial's own index.

use crate::supervisor::{self, SupervisorPolicy, TrialFailure, TrialOutcome};
use metaleak_sim::rng::SimRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// First stream id reserved for per-sweep-point warmup streams.
/// Disjoint from trial ids and from
/// [`crate::harness::AUX_STREAM_BASE`] streams.
pub const WARMUP_STREAM_BASE: u64 = 1 << 33;

/// The RNG stream feeding sweep point `point`'s warmup under root
/// `seed`.
pub(crate) fn warmup_stream(seed: u64, point: usize) -> SimRng {
    SimRng::seed_from(seed).split(WARMUP_STREAM_BASE + point as u64)
}

/// Maps `f` over `0..n` on up to `threads` scoped workers and returns
/// the results **in index order**, whatever order they completed in.
/// With one worker (or at most one item) `f` runs on the calling
/// thread, so thread-local state such as a [`crate::diag`] sink stays
/// in effect.
///
/// A panic in `f` propagates once every worker has finished its
/// current item; supervised callers never panic.
pub fn map_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = f(i);
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner().unwrap_or_else(PoisonError::into_inner).expect("every index mapped")
        })
        .collect()
}

/// One sweep point: warm once, then run each trial supervised on its
/// own stream. See the module docs for the stream ids and the failure
/// rules.
#[derive(Debug, Clone, Copy)]
pub struct PointPlan<'a> {
    /// Root seed the warmup and trial streams split from.
    pub seed: u64,
    /// The point's index `p`.
    pub point: usize,
    /// Trials per point.
    pub trials: usize,
    /// Supervision for the warmup and every trial.
    pub policy: &'a SupervisorPolicy,
}

impl PointPlan<'_> {
    /// The global index (and stream id) of the point's trial `t`.
    pub fn trial_id(&self, t: usize) -> usize {
        self.point * self.trials + t
    }

    /// Runs the warmup under supervision, exempt from fault injection.
    pub(crate) fn warm<S>(&self, warmup: impl Fn(&mut SimRng) -> S) -> TrialOutcome<S> {
        let policy = SupervisorPolicy { inject: Vec::new(), ..self.policy.clone() };
        supervisor::supervise(&policy, self.point, || {
            warmup(&mut warmup_stream(self.seed, self.point))
        })
    }

    /// Runs the point's trial `t` under supervision; every attempt
    /// re-splits the trial's original stream.
    pub(crate) fn trial<T>(&self, t: usize, body: impl Fn(&mut SimRng) -> T) -> TrialOutcome<T> {
        let i = self.trial_id(t);
        supervisor::supervise(self.policy, i, || {
            body(&mut SimRng::seed_from(self.seed).split(i as u64))
        })
    }

    /// The stand-in failures for a point whose warmup failed: one per
    /// trial without an outcome yet (`has_outcome(i)` false), keyed by
    /// global trial index.
    pub(crate) fn warmup_failures<T>(
        &self,
        warm: &TrialFailure,
        has_outcome: impl Fn(usize) -> bool,
    ) -> Vec<(usize, TrialOutcome<T>)> {
        (0..self.trials)
            .map(|t| self.trial_id(t))
            .filter(|&i| !has_outcome(i))
            .map(|i| (i, TrialOutcome::Failed(TrialFailure { trial: i, ..warm.clone() })))
            .collect()
    }

    /// Warms the point, then runs its trials in order on this thread.
    /// `body` gets the warm state, the trial's stream and its global
    /// index. Always returns `trials` outcomes; with zero trials the
    /// warmup still runs.
    pub fn run<S, T>(
        &self,
        warmup: impl Fn(&mut SimRng) -> S,
        body: impl Fn(&S, &mut SimRng, usize) -> T,
    ) -> Vec<TrialOutcome<T>> {
        match self.warm(warmup) {
            TrialOutcome::Done(state) => (0..self.trials)
                .map(|t| self.trial(t, |rng| body(&state, rng, self.trial_id(t))))
                .collect(),
            TrialOutcome::Failed(wf) => {
                self.warmup_failures(&wf, |_| false).into_iter().map(|(_, o)| o).collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet() -> SupervisorPolicy {
        SupervisorPolicy { retries: 0, backoff_ms: 0, ..SupervisorPolicy::default() }
    }

    #[test]
    fn trials_return_in_index_order() {
        assert_eq!(map_indexed(16, 4, |i| i * 10), (0..16).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn zero_trials_is_fine() {
        let out: Vec<usize> = map_indexed(0, 4, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn trial_streams_are_independent_of_thread_count() {
        let policy = quiet();
        let plan = PointPlan { seed: 0xDEAD, point: 0, trials: 12, policy: &policy };
        let draw =
            |threads| map_indexed(12, threads, |i| plan.trial(i, |rng| rng.next_u64()).unwrap());
        assert_eq!(draw(1), draw(8));
    }

    #[test]
    fn trial_streams_differ_across_trials_and_seeds() {
        let policy = quiet();
        let draw = |seed| {
            let plan = PointPlan { seed, point: 0, trials: 4, policy: &policy };
            map_indexed(4, 2, |i| plan.trial(i, |rng| rng.next_u64()).unwrap())
        };
        let a = draw(1);
        assert_eq!(a.iter().collect::<std::collections::HashSet<_>>().len(), 4);
        assert_ne!(a, draw(2));
    }

    #[test]
    fn point_streams_follow_the_convention() {
        let policy = quiet();
        let plan = PointPlan { seed: 9, point: 2, trials: 3, policy: &policy };
        assert_eq!(plan.trial_id(1), 7);
        let got = plan.trial(1, |rng| rng.next_u64()).unwrap();
        assert_eq!(got, SimRng::seed_from(9).split(7).next_u64());
        let warm = plan.warm(|wrng| wrng.next_u64()).unwrap();
        assert_eq!(warm, SimRng::seed_from(9).split(WARMUP_STREAM_BASE + 2).next_u64());
    }

    #[test]
    fn warmups_are_never_injected() {
        let policy = SupervisorPolicy { inject: vec![0, 1], ..quiet() };
        let plan = PointPlan { seed: 3, point: 0, trials: 2, policy: &policy };
        assert!(!plan.warm(|_| ()).is_failed(), "warmup index 0 must not be injected");
        let out = plan.run(|wrng| wrng.next_u64(), |&w, rng, _| w ^ rng.next_u64());
        assert!(out.iter().all(TrialOutcome::is_failed), "trials 0 and 1 are injected");
    }

    #[test]
    fn failed_warmup_fails_each_trial_without_an_outcome() {
        let policy = quiet();
        let plan = PointPlan { seed: 3, point: 1, trials: 3, policy: &policy };
        let out: Vec<TrialOutcome<u64>> = plan.run(|_| panic!("cold"), |_: &(), _, _| 0);
        let rows: Vec<(usize, &str)> = out
            .iter()
            .map(|o| o.as_failed().map(|f| (f.trial, f.error.as_str())).unwrap())
            .collect();
        assert_eq!(rows, vec![(3, "cold"), (4, "cold"), (5, "cold")]);
        let TrialOutcome::Failed(wf) = plan.warm(|_| -> u64 { panic!("cold") }) else {
            panic!("warmup must fail")
        };
        let left: Vec<usize> =
            plan.warmup_failures::<u64>(&wf, |i| i == 4).into_iter().map(|(i, _)| i).collect();
        assert_eq!(left, vec![3, 5]);
    }

    #[test]
    fn zero_trials_still_warm() {
        let policy = quiet();
        let warmed = std::sync::atomic::AtomicBool::new(false);
        let plan = PointPlan { seed: 1, point: 0, trials: 0, policy: &policy };
        let out: Vec<TrialOutcome<()>> =
            plan.run(|_| warmed.store(true, Ordering::SeqCst), |_, _, _| ());
        assert!(out.is_empty());
        assert!(warmed.load(Ordering::SeqCst));
    }
}
