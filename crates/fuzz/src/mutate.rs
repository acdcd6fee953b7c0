//! The seeded mutation engine over the bounded [`FuzzSpec`] space.
//!
//! Everything here is a pure function of `(spec, space, SimRng
//! stream)`: the campaign derives candidate `i`'s generator stream
//! from the campaign seed and `i` alone, so mutation decisions are
//! reproducible across thread counts and kill-and-resume. Mutations
//! are menu steps, not continuous perturbations — each operator moves
//! one axis to an adjacent or random menu entry, which keeps the
//! delta-debugger's reduction steps aligned with the generator's.

use crate::spec::{
    FaultSpec, FuzzSpec, VictimKind, FAULT_FAMILIES, INSTALL_MENU, MAX_FAULTS, MEE_MENU,
    NOISE_MENU, OFFSET_MENU, PAGES_MENU, PAYLOAD_MENU, STRIDE_MENU,
};
use metaleak::configs::Preset;
use metaleak_sim::rng::SimRng;

/// A named subspace of the full search space: which base
/// configurations and victim families the campaign may draw from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Space {
    /// The subspace name (`full` / `sct-counter` / `mirage`).
    pub name: &'static str,
    /// Base configurations in play.
    pub bases: Vec<Preset>,
    /// Victim families in play, by wire name.
    pub victims: Vec<&'static str>,
}

/// Resolves a subspace by name:
///
/// - `full` — every base, every victim family;
/// - `sct-counter` — the SCT base with the counter-overflow and
///   stride victims (contains the known planted counter channel; CI's
///   smoke subspace);
/// - `mirage` — the MIRAGE randomized-metadata-cache occupancy
///   victims the paper's set-conflict attacks don't reach.
pub fn space(name: &str) -> Option<Space> {
    match name {
        "full" => Some(Space {
            name: "full",
            bases: vec![Preset::Sct, Preset::Ht, Preset::Sit],
            victims: vec!["tree_probe", "counter_stress", "stride_loop", "mirage_evict"],
        }),
        "sct-counter" => Some(Space {
            name: "sct-counter",
            bases: vec![Preset::Sct],
            victims: vec!["counter_stress", "stride_loop"],
        }),
        "mirage" => {
            Some(Space { name: "mirage", bases: vec![Preset::Sct], victims: vec!["mirage_evict"] })
        }
        _ => None,
    }
}

/// The names of every predefined subspace, for CLI usage text.
pub const SPACE_NAMES: [&str; 3] = ["full", "sct-counter", "mirage"];

fn preset_victim(family: &str) -> VictimKind {
    match family {
        "tree_probe" => VictimKind::TreeProbe { level: 0 },
        "counter_stress" => VictimKind::CounterStress,
        "stride_loop" => VictimKind::StrideLoop { stride: STRIDE_MENU[3], secret_offset: 0 },
        "mirage_evict" => VictimKind::MirageEvict { installs: 0 },
        other => unreachable!("unknown victim family {other}"),
    }
}

fn compatible(base: Preset, family: &str) -> bool {
    family != "counter_stress" || base == Preset::Sct
}

impl Space {
    /// The campaign's seed corpus: the preset spec of every
    /// `base × compatible victim family` pair, in deterministic order.
    pub fn seed_specs(&self) -> Vec<FuzzSpec> {
        let mut specs = Vec::new();
        for &base in &self.bases {
            for family in &self.victims {
                if compatible(base, family) {
                    specs.push(FuzzSpec::preset(base, preset_victim(family)));
                }
            }
        }
        specs
    }
}

fn pick<T: Copy>(rng: &mut SimRng, menu: &[T]) -> T {
    menu[rng.index(menu.len())]
}

/// One menu-step mutation of a single axis. Returns a candidate that
/// may violate cross-field constraints; the caller validates.
fn mutate_once(spec: &FuzzSpec, space: &Space, rng: &mut SimRng) -> FuzzSpec {
    let mut out = spec.clone();
    match rng.index(8) {
        0 => out.payload = pick(rng, &PAYLOAD_MENU),
        1 => {
            out.overrides.tree_minor_bits =
                if rng.chance(0.4) { None } else { Some(1 + rng.below(7) as u8) }
        }
        2 => {
            out.overrides.noise_sd =
                if rng.chance(0.4) { None } else { Some(pick(rng, &NOISE_MENU)) }
        }
        3 => {
            out.overrides.pages = if rng.chance(0.4) { None } else { Some(pick(rng, &PAGES_MENU)) }
        }
        4 => {
            out.overrides.mee_extra =
                if rng.chance(0.4) { None } else { Some(pick(rng, &MEE_MENU)) }
        }
        5 => {
            // Grow, shrink or re-roll the interference plan.
            if !out.faults.is_empty() && rng.chance(0.34) {
                let i = rng.index(out.faults.len());
                out.faults.remove(i);
            } else if out.faults.len() < MAX_FAULTS {
                out.faults.push(FaultSpec {
                    family: pick(rng, &FAULT_FAMILIES),
                    level: 1 + rng.below(3) as u8,
                });
            } else {
                let i = rng.index(out.faults.len());
                out.faults[i].level = 1 + rng.below(3) as u8;
            }
        }
        6 => {
            // Step the victim's own parameters within its family.
            out.victim = match out.victim {
                VictimKind::TreeProbe { .. } => VictimKind::TreeProbe { level: rng.below(3) as u8 },
                VictimKind::CounterStress => VictimKind::CounterStress,
                VictimKind::StrideLoop { .. } => VictimKind::StrideLoop {
                    stride: pick(rng, &STRIDE_MENU),
                    secret_offset: pick(rng, &OFFSET_MENU),
                },
                VictimKind::MirageEvict { .. } => {
                    VictimKind::MirageEvict { installs: pick(rng, &INSTALL_MENU) }
                }
            }
        }
        _ => {
            // Jump to a different compatible victim family with random
            // parameters — the only cross-family operator.
            let families: Vec<&&str> =
                space.victims.iter().filter(|f| compatible(out.base, f)).collect();
            let family = *families[rng.index(families.len())];
            out.victim = match family {
                "tree_probe" => VictimKind::TreeProbe { level: rng.below(3) as u8 },
                "counter_stress" => VictimKind::CounterStress,
                "stride_loop" => VictimKind::StrideLoop {
                    stride: pick(rng, &STRIDE_MENU),
                    secret_offset: pick(rng, &OFFSET_MENU),
                },
                "mirage_evict" => VictimKind::MirageEvict { installs: pick(rng, &INSTALL_MENU) },
                other => unreachable!("unknown victim family {other}"),
            };
        }
    }
    out
}

/// Derives a new valid candidate from `parent` by one or two menu
/// steps. Invalid intermediates (cross-field constraint violations)
/// are re-rolled; after a bounded number of rejections the parent is
/// returned unchanged (still valid, merely not novel — the corpus
/// dedupe absorbs it).
pub fn mutate(parent: &FuzzSpec, space: &Space, rng: &mut SimRng) -> FuzzSpec {
    let steps = 1 + rng.index(2);
    let mut current = parent.clone();
    for _ in 0..steps {
        for _attempt in 0..16 {
            let candidate = mutate_once(&current, space, rng);
            if candidate.validate().is_ok() {
                current = candidate;
                break;
            }
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_specs_cover_every_compatible_pair() {
        let full = space("full").unwrap();
        let seeds = full.seed_specs();
        // 3 bases × 4 families, minus counter_stress on ht and sit.
        assert_eq!(seeds.len(), 10);
        for s in &seeds {
            s.validate().expect("seed spec validates");
        }
        assert_eq!(space("sct-counter").unwrap().seed_specs().len(), 2);
        assert!(space("nonsense").is_none());
    }

    #[test]
    fn mutation_always_yields_valid_specs() {
        let sp = space("full").unwrap();
        let mut rng = SimRng::seed_from(7);
        let mut current = FuzzSpec::preset(Preset::Sct, VictimKind::CounterStress);
        for _ in 0..500 {
            current = mutate(&current, &sp, &mut rng);
            current.validate().expect("mutant validates");
            assert_eq!(current.base, Preset::Sct, "mutation never changes the base");
        }
    }

    #[test]
    fn mutation_is_stream_deterministic() {
        let sp = space("full").unwrap();
        let parent = FuzzSpec::preset(Preset::Sit, VictimKind::TreeProbe { level: 1 });
        let a = mutate(&parent, &sp, &mut SimRng::seed_from(42).split(3));
        let b = mutate(&parent, &sp, &mut SimRng::seed_from(42).split(3));
        assert_eq!(a, b);
        assert_eq!(a.content_key(), b.content_key());
    }

    #[test]
    fn subspace_mutations_stay_inside_the_subspace() {
        let sp = space("mirage").unwrap();
        let mut rng = SimRng::seed_from(9);
        let mut current = sp.seed_specs().remove(0);
        for _ in 0..200 {
            current = mutate(&current, &sp, &mut rng);
            assert_eq!(current.victim.family_name(), "mirage_evict");
        }
    }
}
