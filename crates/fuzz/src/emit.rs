//! Standalone reproducer emission: every minimized finding leaves the
//! campaign as an artifact anyone can re-run without the fuzzer.
//!
//! Two pieces per finding, both under the campaign output directory:
//!
//! - `<name>.repro.json` — the minimized spec plus the exact seed and
//!   trial count, i.e. a generated experiment-bin spec. `leakfuzz
//!   replay <file>` re-executes it under the existing harness.
//! - a replayed experiment artifact (`<name>.jsonl` + `<name>.meta.json`
//!   and, for victims with a secure-memory trace, `<name>.trace.jsonl`)
//!   written through [`metaleak_bench::harness::Experiment`] — so
//!   `leakscan --require-leak <name>` independently confirms the
//!   verdict from the artifact alone, and `tracescan`-style attribution
//!   ([`metaleak_analysis::attribution`]) says *where* the cycles leak.
//!
//! The reproducer name is `fuzz_` plus the first twelve hex digits of
//! the minimized spec's content key: collision-resistant, stable
//! across campaigns, and greppable back to `findings.jsonl`.

use crate::exec::{self, Samples};
use crate::oracle::{self, Verdict};
use crate::spec::FuzzSpec;
use metaleak_analysis::attribution;
use metaleak_bench::harness::{Experiment, RunSettings, Trial};
use metaleak_bench::json::Json;
use metaleak_bench::json::JsonObj;
use metaleak_bench::supervisor::{SupervisorPolicy, TrialOutcome};
use metaleak_engine::secmem::SecureMemory;
use metaleak_sim::trace::RingTracer;
use std::io;
use std::path::{Path, PathBuf};

/// Events retained by the attribution trace ring. Big enough for a
/// full minimized trial; the ring handles overflow by counting drops.
pub const TRACE_CAPACITY: usize = 1 << 16;

/// Hex digits of the content key folded into the reproducer name.
pub const NAME_KEY_DIGITS: usize = 12;

/// A standalone reproducer: everything needed to re-run one finding
/// under the existing harness.
#[derive(Debug, Clone, PartialEq)]
pub struct Reproducer {
    /// Artifact name (`fuzz_<key prefix>`).
    pub name: String,
    /// The minimized spec.
    pub spec: FuzzSpec,
    /// The evaluation seed the finding was confirmed with.
    pub seed: u64,
    /// Trial-group count the finding was confirmed with.
    pub trials: usize,
}

impl Reproducer {
    /// Builds the reproducer for a minimized finding.
    pub fn for_finding(spec: FuzzSpec, seed: u64, trials: usize) -> Reproducer {
        let key = spec.content_key();
        Reproducer { name: format!("fuzz_{}", &key[..NAME_KEY_DIGITS]), spec, seed, trials }
    }

    fn to_json(&self) -> Json {
        JsonObj::new()
            .field("name", self.name.as_str())
            .field("spec", self.spec.canonical())
            .field("seed", self.seed)
            .field("trials", self.trials)
            .build()
    }

    /// Parses a reproducer from its JSON form.
    ///
    /// # Errors
    /// A description of the malformed field.
    pub fn from_json(v: &Json) -> Result<Reproducer, String> {
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or("reproducer needs a string \"name\"")?
            .to_owned();
        let spec = FuzzSpec::from_json(v.get("spec").ok_or("missing \"spec\"")?)
            .map_err(|e| format!("bad spec: {e}"))?;
        let seed = v.get("seed").and_then(Json::as_u64).ok_or("missing integer \"seed\"")?;
        let trials = v.get("trials").and_then(Json::as_u64).ok_or("missing \"trials\"")?;
        Ok(Reproducer { name, spec, seed, trials: trials as usize })
    }

    /// Writes `<name>.repro.json` under `dir`, returning the path.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn save(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.repro.json", self.name));
        std::fs::write(&path, format!("{}\n", self.to_json().render()))?;
        Ok(path)
    }

    /// Loads a reproducer from a `.repro.json` file.
    ///
    /// # Errors
    /// Filesystem errors, or a parse failure rendered into
    /// [`io::ErrorKind::InvalidData`].
    pub fn load(path: &Path) -> io::Result<Reproducer> {
        let text = std::fs::read_to_string(path)?;
        let json = Json::parse(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
        Reproducer::from_json(&json).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// What replaying a reproducer produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// The artifact name that was written.
    pub name: String,
    /// The oracle's verdict over the replayed pooled samples.
    pub verdict: Verdict,
    /// Pooled samples across completed trials.
    pub samples: usize,
    /// Trials that failed after retries.
    pub failed_trials: usize,
    /// Cycle attribution of the traced trial, `(category, cycles)`
    /// hottest-first; empty when the victim leaves no secure-memory
    /// trace (MIRAGE) or the trace could not be loaded.
    pub attribution: Vec<(String, u64)>,
}

/// Replays a reproducer into an experiment artifact under `out_dir`
/// and attributes where the cycles go.
///
/// Trial rows replicate the campaign's evaluation exactly (same
/// seeding convention), so the artifact's `leakscan` verdict and the
/// campaign's oracle verdict agree by construction. Trial 0 is
/// re-executed once more with a [`RingTracer`] to attach the
/// attribution trace — tracing is passive, so the traced rerun cannot
/// change the rows.
///
/// # Errors
/// A rendered description of artifact-write failures. Trial failures
/// are *not* errors — they land in the artifact as failure rows and in
/// [`ReplayOutcome::failed_trials`].
pub fn replay(
    rep: &Reproducer,
    out_dir: &Path,
    threads: usize,
    policy: &SupervisorPolicy,
) -> Result<ReplayOutcome, String> {
    let outcomes = exec::run_spec(&rep.spec, rep.seed, rep.trials, policy);

    // The attribution pass: trial 0 once more, traced — the same point
    // with one trial. Skipped when trial 0 failed (nothing meaningful
    // to trace).
    let trace_log = if matches!(outcomes.first(), Some(TrialOutcome::Done(_))) {
        let mk = || {
            SecureMemory::builder(rep.spec.build_config())
                .tracer(RingTracer::new(TRACE_CAPACITY))
                .build()
        };
        match exec::run_spec_with(&rep.spec, rep.seed, 1, policy, mk).pop() {
            Some(TrialOutcome::Done((_, tracer))) => tracer.map(RingTracer::into_log),
            _ => None,
        }
    } else {
        None
    };

    let traced = trace_log.is_some();
    let settings = RunSettings {
        threads: threads.max(1),
        out_dir: Some(out_dir.to_path_buf()),
        quick: true,
        sharing: true,
        journal: false,
        trace: traced,
        policy: policy.clone(),
    };
    let exp = Experiment::with_settings(&rep.name, rep.seed, settings)
        .config("spec", rep.spec.canonical())
        .config("content_key", rep.spec.content_key().as_str())
        .config("trials", rep.trials)
        .config("base", rep.spec.base.name())
        .config("victim", rep.spec.victim.family_name());

    let mut pooled: Samples = Vec::new();
    let mut rows: Vec<Trial> = Vec::new();
    let mut failed = 0usize;
    let mut trace_log = trace_log;
    for (i, out) in outcomes.into_iter().enumerate() {
        match out {
            TrialOutcome::Done(samples) => {
                let classes: Vec<u64> = samples.iter().map(|&(c, _)| c).collect();
                let values: Vec<u64> = samples.iter().map(|&(_, v)| v).collect();
                let mut row = Trial::new(i)
                    .field("config", rep.spec.base.name())
                    .field("seed", rep.seed)
                    .labelled_samples(&classes, &values);
                if i == 0 {
                    if let Some(log) = trace_log.take() {
                        row = row.with_trace(log);
                    }
                }
                pooled.extend_from_slice(&samples);
                rows.push(row);
            }
            TrialOutcome::Failed(f) => {
                failed += 1;
                exp.note_failure(f);
            }
        }
    }

    exp.finish(&rows).map_err(|e| format!("artifact write failed: {e}"))?;

    let attribution = if traced {
        let trace_path = out_dir.join(format!("{}.trace.jsonl", rep.name));
        match attribution::load_trace(&trace_path) {
            Ok(data) => attribution::attribute(&data).attributed,
            Err(e) => {
                metaleak_bench::diag::warn(&format!(
                    "leakfuzz: attribution unavailable for {}: {e:?}",
                    rep.name
                ));
                Vec::new()
            }
        }
    } else {
        Vec::new()
    };

    Ok(ReplayOutcome {
        name: rep.name.clone(),
        verdict: oracle::judge(&pooled),
        samples: pooled.len(),
        failed_trials: failed,
        attribution,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::VictimKind;
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

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("metaleak-fuzz-emit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn reproducer_roundtrips_through_disk() {
        let dir = temp_dir("roundtrip");
        let spec = FuzzSpec::preset(Preset::Sct, VictimKind::CounterStress);
        let rep = Reproducer::for_finding(spec, 0xABCD, 3);
        assert!(rep.name.starts_with("fuzz_"));
        assert_eq!(rep.name.len(), 5 + NAME_KEY_DIGITS);
        let path = rep.save(&dir).expect("save");
        let back = Reproducer::load(&path).expect("load");
        assert_eq!(rep, back);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_confirms_the_counter_channel_and_attributes_it() {
        let dir = temp_dir("replay");
        let spec = FuzzSpec::preset(Preset::Sct, VictimKind::CounterStress);
        let rep = Reproducer::for_finding(spec, 0xF122, 2);
        let out = replay(&rep, &dir, 1, &quiet_policy()).expect("replay");
        assert!(out.verdict.leak, "replayed verdict must reproduce: {:?}", out.verdict);
        assert_eq!(out.failed_trials, 0);
        assert!(!out.attribution.is_empty(), "counter channel must attribute cycles");
        assert!(dir.join(format!("{}.jsonl", rep.name)).exists());
        assert!(dir.join(format!("{}.meta.json", rep.name)).exists());
        assert!(dir.join(format!("{}.trace.jsonl", rep.name)).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mirage_replay_has_no_trace_but_still_judges() {
        let dir = temp_dir("mirage");
        let spec = FuzzSpec::preset(Preset::Sct, VictimKind::MirageEvict { installs: 0 });
        let rep = Reproducer::for_finding(spec, 0xF122, 2);
        let out = replay(&rep, &dir, 1, &quiet_policy()).expect("replay");
        assert!(out.attribution.is_empty(), "memory-less victim leaves no trace");
        assert!(!out.verdict.leak, "secret-independent MIRAGE preset is clean");
        assert!(!dir.join(format!("{}.trace.jsonl", rep.name)).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
