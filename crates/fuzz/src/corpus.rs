//! The coverage-style corpus: content-keyed dedupe plus the findings
//! catalogue a campaign accumulates.
//!
//! Two layers of dedupe, both over [`FuzzSpec::content_key`]:
//!
//! - **candidate keys** — every evaluated spec is remembered, so a
//!   mutation path that re-derives an already-tried spec costs one
//!   lookup instead of a re-evaluation and a duplicate finding;
//! - **finding keys** — hits that delta-debug down to the *same*
//!   minimal spec are catalogued once (the first discovery wins, in
//!   candidate-index order, which keeps `findings.jsonl` byte-stable
//!   across thread counts).

use crate::spec::FuzzSpec;
use metaleak_bench::json::{Json, JsonObj};
use metaleak_bench::supervisor::JournalValue;
use std::collections::BTreeSet;

/// A catalogued finding: the minimized reproducer attached to a hit.
#[derive(Debug, Clone, PartialEq)]
pub struct FindingRecord {
    /// The delta-debugged minimal spec.
    pub min_spec: FuzzSpec,
    /// Content key of the minimal spec (the finding's identity).
    pub min_key: String,
    /// Welch t-statistic of the minimized spec's evaluation.
    pub t: f64,
    /// Bias-corrected mutual information (bits/observation) of the
    /// minimized evaluation.
    pub mi_bits: f64,
    /// Accepted delta-debugging steps (0 = the hit was born minimal).
    pub min_steps: usize,
    /// Artifact name of the emitted reproducer (`fuzz_<key prefix>`),
    /// empty when emission was skipped or failed.
    pub repro: String,
    /// Tracescan cycle attribution of the reproducer's traced trial:
    /// `(category, cycles)` hottest-first. Empty for victims with no
    /// secure-memory trace (MIRAGE) or when emission was skipped.
    pub attribution: Vec<(String, u64)>,
}

impl FindingRecord {
    fn to_json(&self) -> Json {
        JsonObj::new()
            .field("min_spec", self.min_spec.canonical())
            .field("min_key", self.min_key.as_str())
            .field("t", self.t)
            .field("mi_bits", self.mi_bits)
            .field("min_steps", self.min_steps)
            .field("repro", self.repro.as_str())
            .field(
                "attribution",
                Json::Arr(
                    self.attribution
                        .iter()
                        .map(|(cat, cycles)| {
                            JsonObj::new()
                                .field("category", cat.as_str())
                                .field("cycles", *cycles)
                                .build()
                        })
                        .collect(),
                ),
            )
            .build()
    }

    fn from_json(v: &Json) -> Option<Self> {
        let attribution = v
            .get("attribution")?
            .as_arr()?
            .iter()
            .map(|e| Some((e.get("category")?.as_str()?.to_owned(), e.get("cycles")?.as_u64()?)))
            .collect::<Option<Vec<_>>>()?;
        Some(FindingRecord {
            min_spec: FuzzSpec::from_json(v.get("min_spec")?).ok()?,
            min_key: v.get("min_key")?.as_str()?.to_owned(),
            t: v.get("t")?.as_f64()?,
            mi_bits: v.get("mi_bits")?.as_f64()?,
            min_steps: v.get("min_steps")?.as_u64()? as usize,
            repro: v.get("repro")?.as_str()?.to_owned(),
            attribution,
        })
    }
}

/// Everything the campaign decided about one candidate — the unit the
/// campaign journal records and replays on resume.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateRecord {
    /// Candidate index within the campaign (also its journal key).
    pub index: usize,
    /// The candidate spec as generated.
    pub spec: FuzzSpec,
    /// Content key of the candidate spec.
    pub key: String,
    /// Oracle t-statistic over the pooled samples.
    pub t: f64,
    /// Oracle mutual information (bits/observation).
    pub mi_bits: f64,
    /// Pooled samples across completed trials.
    pub samples: usize,
    /// Trials that failed after retries.
    pub failed_trials: usize,
    /// Whether any warmup/trial failure degraded the candidate.
    pub degraded: bool,
    /// The oracle's leak verdict (`|t| > 4.5` and MI above the floor).
    pub leak: bool,
    /// Whether this was the first time the campaign saw this key.
    pub fresh: bool,
    /// The minimized finding, for fresh non-degraded hits whose
    /// minimal form was itself new.
    pub finding: Option<FindingRecord>,
}

impl JournalValue for CandidateRecord {
    fn to_json(&self) -> Json {
        let mut obj = JsonObj::new()
            .field("index", self.index)
            .field("spec", self.spec.canonical())
            .field("key", self.key.as_str())
            .field("t", self.t)
            .field("mi_bits", self.mi_bits)
            .field("samples", self.samples)
            .field("failed_trials", self.failed_trials)
            .field("degraded", self.degraded)
            .field("leak", self.leak)
            .field("fresh", self.fresh);
        if let Some(f) = &self.finding {
            obj = obj.field("finding", f.to_json());
        }
        obj.build()
    }

    fn from_json(v: &Json) -> Option<Self> {
        let finding = match v.get("finding") {
            Some(f) => Some(FindingRecord::from_json(f)?),
            None => None,
        };
        Some(CandidateRecord {
            index: v.get("index")?.as_u64()? as usize,
            spec: FuzzSpec::from_json(v.get("spec")?).ok()?,
            key: v.get("key")?.as_str()?.to_owned(),
            t: v.get("t")?.as_f64()?,
            mi_bits: v.get("mi_bits")?.as_f64()?,
            samples: v.get("samples")?.as_u64()? as usize,
            failed_trials: v.get("failed_trials")?.as_u64()? as usize,
            degraded: v.get("degraded")?.as_bool()?,
            leak: v.get("leak")?.as_bool()?,
            fresh: v.get("fresh")?.as_bool()?,
            finding,
        })
    }
}

/// The in-memory corpus. Rebuilt deterministically on resume by
/// replaying journal records in candidate-index order.
#[derive(Debug, Default)]
pub struct Corpus {
    seen: BTreeSet<String>,
    finding_keys: BTreeSet<String>,
    findings: Vec<CandidateRecord>,
}

impl Corpus {
    /// An empty corpus.
    pub fn new() -> Self {
        Corpus::default()
    }

    /// Marks a candidate key as evaluated; returns `true` iff it was
    /// new (the candidate is *fresh*).
    pub fn note_candidate(&mut self, key: &str) -> bool {
        self.seen.insert(key.to_owned())
    }

    /// Whether a minimal-spec key is already catalogued.
    pub fn has_finding(&self, min_key: &str) -> bool {
        self.finding_keys.contains(min_key)
    }

    /// Admits a record carrying a finding. Returns `false` (and keeps
    /// the corpus unchanged) when the minimal key is already
    /// catalogued — the duplicate-path case.
    pub fn admit(&mut self, record: CandidateRecord) -> bool {
        let Some(f) = &record.finding else {
            return false;
        };
        if !self.finding_keys.insert(f.min_key.clone()) {
            return false;
        }
        self.findings.push(record);
        true
    }

    /// Catalogued findings in discovery (candidate-index) order.
    pub fn findings(&self) -> &[CandidateRecord] {
        &self.findings
    }

    /// Number of catalogued findings.
    pub fn len(&self) -> usize {
        self.findings.len()
    }

    /// Whether nothing has been catalogued yet.
    pub fn is_empty(&self) -> bool {
        self.findings.is_empty()
    }

    /// The minimized specs of catalogued findings — the parent pool
    /// the mutation engine draws from alongside the space's seeds.
    pub fn parents(&self) -> Vec<&FuzzSpec> {
        self.findings.iter().filter_map(|r| r.finding.as_ref().map(|f| &f.min_spec)).collect()
    }

    /// Renders one `findings.jsonl` line per catalogued finding:
    /// candidate identity, config delta from the preset, oracle
    /// values, the minimized spec and its reproducer/attribution.
    pub fn findings_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.findings {
            let f = r.finding.as_ref().expect("catalogued records carry findings");
            let row = JsonObj::new()
                .field("index", r.index)
                .field("key", r.key.as_str())
                .field("spec", r.spec.canonical())
                .field("delta", r.spec.delta_json())
                .field("t", r.t)
                .field("mi_bits", r.mi_bits)
                .field("samples", r.samples)
                .field("min_spec", f.min_spec.canonical())
                .field("min_key", f.min_key.as_str())
                .field("min_delta", f.min_spec.delta_json())
                .field("min_t", f.t)
                .field("min_mi_bits", f.mi_bits)
                .field("min_steps", f.min_steps)
                .field("repro", f.repro.as_str())
                .field(
                    "attribution",
                    Json::Arr(
                        f.attribution
                            .iter()
                            .map(|(cat, cycles)| {
                                JsonObj::new()
                                    .field("category", cat.as_str())
                                    .field("cycles", *cycles)
                                    .build()
                            })
                            .collect(),
                    ),
                )
                .build();
            out.push_str(&row.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::VictimKind;
    use metaleak::configs::Preset;

    fn record(index: usize, min_key: &str) -> CandidateRecord {
        let spec = FuzzSpec::preset(Preset::Sct, VictimKind::CounterStress);
        CandidateRecord {
            index,
            key: spec.content_key(),
            t: 12.5,
            mi_bits: 0.8,
            samples: 128,
            failed_trials: 0,
            degraded: false,
            leak: true,
            fresh: true,
            finding: Some(FindingRecord {
                min_spec: spec.clone(),
                min_key: min_key.to_owned(),
                t: 12.5,
                mi_bits: 0.8,
                min_steps: 0,
                repro: "fuzz_abc".to_owned(),
                attribution: vec![("dram_counter".to_owned(), 4000)],
            }),
            spec,
        }
    }

    #[test]
    fn candidate_records_roundtrip_through_journal_json() {
        let r = record(3, "deadbeef");
        let back = CandidateRecord::from_json(&r.to_json()).expect("roundtrip");
        assert_eq!(r, back);
        let mut no_finding = record(4, "x");
        no_finding.finding = None;
        no_finding.leak = false;
        let back = CandidateRecord::from_json(&no_finding.to_json()).expect("roundtrip");
        assert_eq!(no_finding, back);
    }

    #[test]
    fn findings_dedupe_on_the_minimal_key() {
        let mut corpus = Corpus::new();
        assert!(corpus.admit(record(0, "samekey")));
        assert!(!corpus.admit(record(5, "samekey")), "same minimal spec catalogued once");
        assert!(corpus.admit(record(7, "otherkey")));
        assert_eq!(corpus.len(), 2);
        assert_eq!(corpus.parents().len(), 2);
        let jsonl = corpus.findings_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"min_key\":\"otherkey\""));
    }

    #[test]
    fn candidate_dedupe_reports_freshness_once() {
        let mut corpus = Corpus::new();
        assert!(corpus.note_candidate("k1"));
        assert!(!corpus.note_candidate("k1"));
        assert!(corpus.note_candidate("k2"));
    }
}
