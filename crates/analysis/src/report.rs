//! Assembling leakage reports from validated experiment data.
//!
//! [`assess`] runs every applicable analyzer over one experiment's
//! rows; [`LeakReport`] collects the per-experiment assessments and
//! renders the two artifacts `leakscan` emits: a machine JSON report
//! (byte-deterministic: seeded bootstrap, name-sorted experiments, no
//! wall-clock or thread-count fields) and a human markdown summary.
//!
//! ## Row schema conventions
//!
//! Analyzers fire based on which fields an experiment's JSONL rows
//! carry:
//!
//! | fields | analyzer |
//! |---|---|
//! | `sample_class` + `sample_value` (parallel arrays) | TVLA (Welch), MI, bootstrap effect CI |
//! | `bit_accuracy` or `symbol_accuracy`, optional `alphabet`, `cycles_per_symbol` | channel capacity (BSC/MSC) |
//! | `det_score` + `det_label` | ROC / AUC |

use crate::bootstrap::{self, BootstrapCi};
use crate::capacity::{self, CapacityEstimate, DEFAULT_CLOCK_HZ};
use crate::ingest::{ExperimentData, ScanEntry};
use crate::mi::{self, MiEstimate};
use crate::roc::{self, RocCurve};
use crate::welch::{self, WelchResult, TVLA_THRESHOLD};
use metaleak_bench::json::{Json, JsonObj};
use metaleak_sim::rng::SimRng;

/// RNG stream id (relative to the experiment seed) reserved for the
/// bootstrap resampler, far above the harness's trial and aux streams.
const BOOTSTRAP_STREAM: u64 = 1 << 48;

/// The leakage assessment of one experiment.
#[derive(Debug, Clone)]
pub struct Assessment {
    /// Experiment name.
    pub name: String,
    /// Root seed the harness recorded (drives the bootstrap streams).
    pub seed: u64,
    /// Number of JSONL rows (including failure rows).
    pub rows: usize,
    /// Number of `"failed":true` rows — a degraded run when nonzero.
    pub failed: usize,
    /// Number of pooled labelled samples.
    pub samples: usize,
    /// TVLA verdict, when labelled samples were available.
    pub tvla: Option<WelchResult>,
    /// Bootstrap CI on the between-class mean difference.
    pub effect_ci: Option<BootstrapCi>,
    /// Mutual-information estimate, when labelled samples exist.
    pub mi: Option<MiEstimate>,
    /// Channel-capacity estimate, when accuracy fields exist.
    pub capacity: Option<CapacityEstimate>,
    /// ROC curve, when detector scores exist.
    pub roc: Option<RocCurve>,
}

impl Assessment {
    /// The headline verdict: `Some(true)` = leaks (|t| clears the TVLA
    /// threshold), `Some(false)` = assessed and below threshold,
    /// `None` = no labelled samples to assess.
    pub fn leaks(&self) -> Option<bool> {
        self.tvla.as_ref().map(WelchResult::leaks)
    }
}

/// Runs every applicable analyzer over one experiment.
pub fn assess(data: &ExperimentData) -> Assessment {
    let labelled = data.labelled_samples();
    let as_f64: Vec<(u64, f64)> = labelled.iter().map(|&(c, v)| (c, v as f64)).collect();

    // The bootstrap resamples exactly the populations the t-test
    // compared.
    let populations = welch::class_populations(&as_f64);
    let tvla = populations.as_ref().and_then(|(a, b)| welch::welch_t(a, b));
    let mi = mi::mutual_information(&labelled, mi::default_bins(labelled.len()));

    // Bootstrap the between-class effect with a stream derived from
    // the experiment's own seed: byte-reproducible by construction.
    let effect_ci = populations.filter(|_| tvla.is_some()).and_then(|(a, b)| {
        let mut rng = SimRng::seed_from(data.seed).split(BOOTSTRAP_STREAM);
        bootstrap::mean_diff_ci(&a, &b, bootstrap::DEFAULT_RESAMPLES, 0.95, &mut rng)
    });

    // Capacity from accuracy fields (bit channels default to a binary
    // alphabet; symbol channels record theirs explicitly).
    let capacity = data
        .mean_field("bit_accuracy")
        .map(|acc| (acc, 2))
        .or_else(|| {
            data.mean_field("symbol_accuracy").map(|acc| {
                let alphabet = data
                    .mean_field("alphabet")
                    .map(|a| a.round() as u64)
                    .filter(|&a| a >= 2)
                    .unwrap_or(2);
                (acc, alphabet)
            })
        })
        .map(|(acc, alphabet)| {
            let period = data.mean_field("cycles_per_symbol").unwrap_or(0.0);
            capacity::estimate(acc, alphabet, period, DEFAULT_CLOCK_HZ)
        });

    // ROC from labelled detector scores.
    let roc = {
        let mut pos = Vec::new();
        let mut neg = Vec::new();
        for row in data.ok_rows() {
            if let (Some(score), Some(label)) = (
                row.get("det_score").and_then(Json::as_f64),
                row.get("det_label").and_then(Json::as_u64),
            ) {
                if label == 0 { &mut neg } else { &mut pos }.push(score);
            }
        }
        roc::roc_from_scores(&pos, &neg)
    };

    Assessment {
        name: data.name.clone(),
        seed: data.seed,
        rows: data.rows.len(),
        failed: data.failed,
        samples: labelled.len(),
        tvla,
        effect_ci,
        mi,
        capacity,
        roc,
    }
}

/// A full leakage report over an experiment directory.
#[derive(Debug, Clone, Default)]
pub struct LeakReport {
    /// Assessed experiments, in name order.
    pub assessments: Vec<Assessment>,
    /// Experiments refused at ingest, as `(name, reason)`.
    pub refused: Vec<(String, String)>,
}

impl LeakReport {
    /// Builds the report from a directory scan.
    pub fn from_entries(entries: &[ScanEntry]) -> LeakReport {
        let mut report = LeakReport::default();
        for entry in entries {
            match entry {
                ScanEntry::Loaded(data) => report.assessments.push(assess(data)),
                ScanEntry::Refused { name, error } => {
                    report.refused.push((name.clone(), error.to_string()));
                }
            }
        }
        report
    }

    /// Looks up an assessment by experiment name.
    pub fn assessment(&self, name: &str) -> Option<&Assessment> {
        self.assessments.iter().find(|a| a.name == name)
    }

    /// Renders the machine-readable JSON report. Deterministic: field
    /// order is fixed, experiments arrive name-sorted from the scan,
    /// and nothing timing- or machine-dependent is included.
    pub fn to_json(&self) -> Json {
        let experiments: Vec<Json> = self.assessments.iter().map(assessment_json).collect();
        let refused: Vec<Json> = self
            .refused
            .iter()
            .map(|(name, reason)| {
                JsonObj::new().field("name", name.as_str()).field("reason", reason.as_str()).build()
            })
            .collect();
        let leaking = self.assessments.iter().filter(|a| a.leaks() == Some(true)).count();
        let degraded = self.assessments.iter().filter(|a| a.failed > 0).count();
        JsonObj::new()
            .field("leakscan_version", 1u64)
            .field("tvla_threshold", TVLA_THRESHOLD)
            .field("experiments", Json::Arr(experiments))
            .field("refused", Json::Arr(refused))
            .field(
                "summary",
                JsonObj::new()
                    .field("analyzed", self.assessments.len())
                    .field("leaking", leaking)
                    .field("degraded", degraded)
                    .field("refused", self.refused.len())
                    .build(),
            )
            .build()
    }

    /// Renders the human-readable markdown summary.
    pub fn to_markdown(&self) -> String {
        let mut out = String::from("# leakscan report\n\n");
        out.push_str(&format!(
            "TVLA fixed-vs-random verdict at |t| > {TVLA_THRESHOLD}; \
             MI in bits per observation; capacity via symmetric-channel formula at 3 GHz.\n\n"
        ));
        out.push_str("| experiment | verdict | |t| | MI (bits) | capacity (bits/sym) | kbit/s | AUC | samples | failed |\n");
        out.push_str("|---|---|---|---|---|---|---|---|---|\n");
        for a in &self.assessments {
            let verdict = match a.leaks() {
                Some(true) => "**LEAKS**",
                Some(false) => "no leak detected",
                None => "not assessable",
            };
            let fmt_opt = |v: Option<f64>| match v {
                Some(x) => format!("{x:.3}"),
                None => "-".to_owned(),
            };
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} | {} | {} | {} |\n",
                a.name,
                verdict,
                match a.tvla {
                    Some(t) => format!("{:.1}", t.t.abs()),
                    None => "-".to_owned(),
                },
                fmt_opt(a.mi.map(|m| m.bits)),
                fmt_opt(a.capacity.map(|c| c.bits_per_symbol)),
                fmt_opt(a.capacity.map(|c| c.bits_per_second / 1e3)),
                fmt_opt(a.roc.as_ref().map(|r| r.auc)),
                a.samples,
                if a.failed > 0 { format!("**{}**", a.failed) } else { "0".to_owned() },
            ));
        }
        if !self.refused.is_empty() {
            out.push_str("\n## Refused inputs\n\n");
            for (name, reason) in &self.refused {
                out.push_str(&format!("- `{name}`: {reason}\n"));
            }
        }
        for a in &self.assessments {
            if let Some(ci) = &a.effect_ci {
                out.push_str(&format!(
                    "\n`{}` between-class mean difference: {:.1} cycles \
                     (95% bootstrap CI [{:.1}, {:.1}], {} resamples)\n",
                    a.name, ci.point, ci.lo, ci.hi, ci.resamples
                ));
            }
        }
        out
    }
}

fn assessment_json(a: &Assessment) -> Json {
    let mut obj = JsonObj::new()
        .field("name", a.name.as_str())
        .field("seed", a.seed)
        .field("rows", a.rows)
        .field("failed_trials", a.failed)
        .field("samples", a.samples)
        .field(
            "verdict",
            match a.leaks() {
                Some(true) => "leaks",
                Some(false) => "no-leak-detected",
                None => "not-assessable",
            },
        );
    obj = match &a.tvla {
        Some(t) => obj.field(
            "tvla",
            JsonObj::new()
                .field("t", t.t)
                .field("abs_t", t.t.abs())
                .field("df", t.df)
                .field("threshold", TVLA_THRESHOLD)
                .field("leaks", t.leaks())
                .field("mean_a", t.mean_a)
                .field("mean_b", t.mean_b)
                .field("n_a", t.n_a)
                .field("n_b", t.n_b)
                .build(),
        ),
        None => obj.field("tvla", Json::Null),
    };
    obj = match &a.effect_ci {
        Some(ci) => obj.field(
            "effect_ci",
            JsonObj::new()
                .field("point", ci.point)
                .field("lo", ci.lo)
                .field("hi", ci.hi)
                .field("level", ci.level)
                .field("resamples", ci.resamples)
                .build(),
        ),
        None => obj.field("effect_ci", Json::Null),
    };
    obj = match &a.mi {
        Some(m) => obj.field(
            "mi",
            JsonObj::new()
                .field("bits", m.bits)
                .field("plugin_bits", m.plugin_bits)
                .field("bias_correction", m.bias_correction)
                .field("classes", m.classes)
                .field("bins", m.bins)
                .build(),
        ),
        None => obj.field("mi", Json::Null),
    };
    obj = match &a.capacity {
        Some(c) => obj.field(
            "capacity",
            JsonObj::new()
                .field("error_rate", c.error_rate)
                .field("alphabet", c.alphabet)
                .field("bits_per_symbol", c.bits_per_symbol)
                .field("cycles_per_symbol", c.cycles_per_symbol)
                .field("raw_symbols_per_second", c.raw_symbols_per_second)
                .field("bits_per_second", c.bits_per_second)
                .build(),
        ),
        None => obj.field("capacity", Json::Null),
    };
    obj = match &a.roc {
        Some(r) => obj.field(
            "roc",
            JsonObj::new().field("auc", r.auc).field("points", r.points.len()).build(),
        ),
        None => obj.field("roc", Json::Null),
    };
    obj.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::load_experiment;
    use std::path::{Path, PathBuf};

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("metaleak_report_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_leaky_experiment(dir: &Path, name: &str, seed: u64) {
        // Two trials, class 0 fast (~40 cy) vs class 1 slow (~300 cy).
        let mut rows = Vec::new();
        for t in 0..2u64 {
            let classes: Vec<u64> = (0..100).map(|i| (i % 2) as u64).collect();
            let values: Vec<u64> = (0..100u64)
                .map(|i| if i % 2 == 0 { 40 + (i + t) % 5 } else { 300 + (i + t) % 7 })
                .collect();
            rows.push(
                JsonObj::new()
                    .field("trial", t)
                    .field("sample_class", classes)
                    .field("sample_value", values)
                    .field("bit_accuracy", 0.99f64)
                    .field("cycles_per_symbol", 10_000.0f64)
                    .build(),
            );
        }
        let body: String = rows.iter().map(|r| r.render() + "\n").collect();
        std::fs::write(dir.join(format!("{name}.jsonl")), body).unwrap();
        let meta = JsonObj::new()
            .field("experiment", name)
            .field("seed", seed)
            .field("rows", rows.len())
            .field("complete", true)
            .build();
        std::fs::write(dir.join(format!("{name}.meta.json")), meta.render() + "\n").unwrap();
    }

    #[test]
    fn leaky_fixture_is_assessed_as_leaking_with_consistent_capacity() {
        let dir = scratch("leaky");
        write_leaky_experiment(&dir, "exp", 7);
        let data = load_experiment(&dir.join("exp.jsonl")).unwrap();
        let a = assess(&data);
        assert_eq!(a.leaks(), Some(true));
        let t = a.tvla.unwrap();
        assert!(t.t.abs() > 100.0, "clean separation must saturate the t-stat, got {}", t.t);
        // MI of a clean binary channel: ~1 bit.
        assert!(a.mi.unwrap().bits > 0.9);
        // Capacity exactly matches the BSC formula on the fixture.
        let cap = a.capacity.unwrap();
        assert!((cap.bits_per_symbol - crate::capacity::bsc_capacity(0.01)).abs() < 1e-12);
        assert!((cap.raw_symbols_per_second - 300_000.0).abs() < 1e-6);
        // Effect CI excludes zero and points the right way (class 0
        // mean minus class 1 mean is negative).
        let ci = a.effect_ci.unwrap();
        assert!(ci.hi < 0.0, "CI [{}, {}] must exclude 0", ci.lo, ci.hi);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_json_is_deterministic_and_complete() {
        let dir = scratch("det");
        write_leaky_experiment(&dir, "exp_a", 1);
        write_leaky_experiment(&dir, "exp_b", 2);
        std::fs::write(dir.join("orphan.jsonl"), "{}\n").unwrap();
        let render = || {
            let entries = crate::ingest::scan_dir(&dir).unwrap();
            LeakReport::from_entries(&entries).to_json().render()
        };
        let first = render();
        assert_eq!(first, render(), "report must be byte-identical across runs");
        assert!(first.contains("\"analyzed\":2"));
        assert!(first.contains("\"refused\":[{\"name\":\"orphan\""));
        assert!(first.contains("\"verdict\":\"leaks\""));
        // Round-trips through the parser.
        let parsed = Json::parse(&first).unwrap();
        assert_eq!(
            parsed.get("summary").and_then(|s| s.get("leaking")).and_then(Json::as_u64),
            Some(2)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn markdown_mentions_every_experiment_and_refusal() {
        let dir = scratch("md");
        write_leaky_experiment(&dir, "exp_a", 1);
        std::fs::write(dir.join("orphan.jsonl"), "{}\n").unwrap();
        let entries = crate::ingest::scan_dir(&dir).unwrap();
        let md = LeakReport::from_entries(&entries).to_markdown();
        assert!(md.contains("exp_a"));
        assert!(md.contains("**LEAKS**"));
        assert!(md.contains("orphan"));
        assert!(md.contains("Refused inputs"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unlabelled_experiment_is_not_assessable() {
        let dir = scratch("unlabelled");
        let row = JsonObj::new().field("trial", 0usize).field("latency", 120u64).build();
        std::fs::write(dir.join("x.jsonl"), row.render() + "\n").unwrap();
        let meta = JsonObj::new()
            .field("seed", 0u64)
            .field("rows", 1usize)
            .field("complete", true)
            .build();
        std::fs::write(dir.join("x.meta.json"), meta.render()).unwrap();
        let data = load_experiment(&dir.join("x.jsonl")).unwrap();
        let a = assess(&data);
        assert_eq!(a.leaks(), None);
        assert!(a.tvla.is_none() && a.mi.is_none() && a.capacity.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn roc_rows_produce_auc() {
        let dir = scratch("roc");
        let mut rows = Vec::new();
        for i in 0..20u64 {
            let (label, score) = if i % 2 == 0 {
                (1u64, 0.8 + (i as f64) / 100.0)
            } else {
                (0u64, 0.2 + (i as f64) / 100.0)
            };
            rows.push(
                JsonObj::new()
                    .field("trial", i)
                    .field("det_score", score)
                    .field("det_label", label)
                    .build(),
            );
        }
        let body: String = rows.iter().map(|r| r.render() + "\n").collect();
        std::fs::write(dir.join("d.jsonl"), body).unwrap();
        let meta = JsonObj::new()
            .field("seed", 3u64)
            .field("rows", rows.len())
            .field("complete", true)
            .build();
        std::fs::write(dir.join("d.meta.json"), meta.render()).unwrap();
        let data = load_experiment(&dir.join("d.jsonl")).unwrap();
        let a = assess(&data);
        assert_eq!(a.leaks(), None);
        let roc = a.roc.expect("det_score/det_label rows must yield a ROC");
        assert!((roc.auc - 1.0).abs() < 1e-12, "separated scores, auc = {}", roc.auc);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
