//! Greedy delta-debugging of a hit back toward its preset.
//!
//! A raw corpus hit usually carries freeloading mutations — config
//! overrides and interference processes that rode along but aren't
//! what leaks. The minimizer walks a fixed-order reduction list (drop
//! each fault, clear each config override, return each victim
//! parameter toward its preset, shrink the payload), re-evaluating
//! after every step with the candidate's *own* evaluation seed (a
//! controlled comparison: identical trial randomness, only the spec
//! differs). A reduction is kept iff the oracle still says leak *and*
//! no trial degraded; otherwise the axis is pinned as load-bearing.
//! The loop runs to fixpoint, so an already-minimal spec comes back
//! unchanged with zero accepted steps.

use crate::exec::{self, Evaluation};
use crate::spec::{FuzzSpec, VictimKind, INSTALL_MENU, OFFSET_MENU, PAYLOAD_MENU};
use metaleak_bench::spec::Overrides;
use metaleak_bench::supervisor::SupervisorPolicy;

/// The minimizer's result: the reduced spec, its (re-)evaluation, and
/// how many reductions were accepted.
#[derive(Debug, Clone, PartialEq)]
pub struct Minimized {
    /// The spec at fixpoint: every remaining delta from the preset is
    /// load-bearing.
    pub spec: FuzzSpec,
    /// The evaluation of the fixpoint spec (always a non-degraded
    /// leak — minimization starts from one and only accepts such).
    pub eval: Evaluation,
    /// Accepted reduction steps (0 = the input was already minimal).
    pub steps: usize,
}

fn menu_step_down<T: Copy + PartialEq>(menu: &[T], current: T) -> Option<T> {
    let i = menu.iter().position(|&m| m == current)?;
    if i == 0 {
        None
    } else {
        Some(menu[i - 1])
    }
}

/// The fixed-order candidate reductions of `spec`: each is one step
/// strictly closer to the preset. Order matters for determinism and
/// matches the documentation in `DESIGN.md` §12.
fn reductions(spec: &FuzzSpec) -> Vec<FuzzSpec> {
    let preset = spec.preset_of();
    let mut out = Vec::new();
    // 1. Drop each interference process, highest index first (so the
    //    surviving indices stay stable across a pass).
    for i in (0..spec.faults.len()).rev() {
        let mut s = spec.clone();
        s.faults.remove(i);
        out.push(s);
    }
    // 2. Clear each config override.
    let o = spec.overrides;
    if o.mee_extra.is_some() {
        out.push(FuzzSpec { overrides: Overrides { mee_extra: None, ..o }, ..spec.clone() });
    }
    if o.pages.is_some() {
        out.push(FuzzSpec { overrides: Overrides { pages: None, ..o }, ..spec.clone() });
    }
    if o.noise_sd.is_some() {
        out.push(FuzzSpec { overrides: Overrides { noise_sd: None, ..o }, ..spec.clone() });
    }
    if o.tree_minor_bits.is_some() {
        out.push(FuzzSpec { overrides: Overrides { tree_minor_bits: None, ..o }, ..spec.clone() });
    }
    // 3. Return victim parameters toward the preset: the full jump
    //    first, then a single menu step for the graded parameters.
    if spec.victim != preset.victim {
        out.push(FuzzSpec { victim: preset.victim, ..spec.clone() });
    }
    match spec.victim {
        VictimKind::StrideLoop { stride, secret_offset } => {
            if let Some(o) = menu_step_down(&OFFSET_MENU, secret_offset) {
                out.push(FuzzSpec {
                    victim: VictimKind::StrideLoop { stride, secret_offset: o },
                    ..spec.clone()
                });
            }
        }
        VictimKind::MirageEvict { installs } => {
            if let Some(k) = menu_step_down(&INSTALL_MENU, installs) {
                out.push(FuzzSpec {
                    victim: VictimKind::MirageEvict { installs: k },
                    ..spec.clone()
                });
            }
        }
        VictimKind::TreeProbe { .. } | VictimKind::CounterStress => {}
    }
    // 4. Shrink the payload one menu step.
    if let Some(p) = menu_step_down(&PAYLOAD_MENU, spec.payload) {
        out.push(FuzzSpec { payload: p, ..spec.clone() });
    }
    out.retain(|s| s != spec && s.validate().is_ok());
    out
}

/// Minimizes a confirmed hit to fixpoint. `eval` must be the hit's
/// evaluation under `seed` (it is returned unchanged when no reduction
/// survives).
pub fn minimize(
    spec: &FuzzSpec,
    eval: &Evaluation,
    seed: u64,
    trials: usize,
    policy: &SupervisorPolicy,
) -> Minimized {
    debug_assert!(eval.is_hit(), "minimization starts from a confirmed hit");
    let mut current = spec.clone();
    let mut current_eval = eval.clone();
    let mut steps = 0usize;
    loop {
        let mut reduced = false;
        for candidate in reductions(&current) {
            let e = exec::evaluate(&candidate, seed, trials, policy);
            if e.is_hit() {
                current = candidate;
                current_eval = e;
                steps += 1;
                reduced = true;
                break; // restart the pass from the smaller spec
            }
        }
        if !reduced {
            return Minimized { spec: current, eval: current_eval, steps };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FaultFamily, FaultSpec};
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
    fn already_minimal_spec_is_a_fixpoint() {
        // The counter-stress preset at the smallest payload admits no
        // reduction at all: the minimizer must return it unchanged.
        let spec = FuzzSpec {
            payload: PAYLOAD_MENU[0],
            ..FuzzSpec::preset(Preset::Sct, VictimKind::CounterStress)
        };
        let policy = quiet_policy();
        let eval = exec::evaluate(&spec, 0xF122, 2, &policy);
        assert!(eval.is_hit(), "precondition: the preset leaks");
        let min = minimize(&spec, &eval, 0xF122, 2, &policy);
        assert_eq!(min.spec, spec, "fixpoint must not move");
        assert_eq!(min.steps, 0);
        assert_eq!(min.eval, eval);
    }

    #[test]
    fn freeloading_overrides_are_stripped() {
        // Interference and a pages override riding along on the
        // counter channel are not load-bearing; minimization should
        // strip them back to (or at least toward) the preset.
        let spec = FuzzSpec {
            overrides: Overrides { pages: Some(8192), ..Overrides::default() },
            faults: vec![FaultSpec { family: FaultFamily::Drop, level: 1 }],
            ..FuzzSpec::preset(Preset::Sct, VictimKind::CounterStress)
        };
        let policy = quiet_policy();
        let eval = exec::evaluate(&spec, 0xF123, 2, &policy);
        assert!(eval.is_hit(), "precondition: the loaded spec still leaks");
        let min = minimize(&spec, &eval, 0xF123, 2, &policy);
        assert!(min.steps >= 2, "expected both riders stripped, got {} steps", min.steps);
        assert!(min.spec.faults.is_empty());
        assert_eq!(min.spec.overrides.pages, None);
        assert!(min.eval.is_hit());
    }
}
