//! Sweep specifications: the JSON job language, its validation, and
//! the content key that addresses finished artifacts.
//!
//! A spec names a covert-channel victim, a list of secure-memory
//! configurations and a list of seeds; the sweep runs every
//! `configuration × seed` point with `trials_per_point` supervised
//! trials each. Parsing is *lenient about unknown keys* (they warn
//! through the [`metaleak_bench::diag`] sink attributed to the
//! submitting job) and *strict about known ones*: every recognized
//! field is bounds-checked, and configuration overrides go through the
//! shared spec core ([`metaleak_bench::spec`]) and its
//! `SecureConfigBuilder` path, so a spec can never construct a memory
//! shape the engine's own builder would not. An override that could
//! not take effect on any swept configuration is rejected rather than
//! silently ignored.
//!
//! # Content addressing
//!
//! [`SweepSpec::content_key`] is the shared core's content key over
//! the canonical rendering of the spec (fixed field order, defaults
//! materialized) under the `metaleak-serve/v1` protocol tag. Two
//! submissions share a key exactly when they would execute the same
//! trials on the same seed streams against the same engine state
//! layout — which is what makes the artifact cache sound: the
//! execution core ([`metaleak_bench::exec`]) draws every stream from
//! the point's seed and the point and trial indices, so the key covers
//! every bit of entropy the execution consumes.

use metaleak::configs::Preset;
use metaleak_bench::diag;
use metaleak_bench::json::{Json, JsonObj};
use metaleak_bench::spec::{self, Overrides, SpecError};
use metaleak_crypto::sha256;
use metaleak_engine::config::SecureConfig;

/// Version tag folded into every content key: bump when the server's
/// execution semantics change in a way that invalidates cached
/// artifacts (seeding convention, row schema, trial structure).
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound on `configs × seeds` points per job.
pub const MAX_POINTS: usize = 64;

/// Upper bound on trials per sweep point.
pub const MAX_TRIALS_PER_POINT: usize = 64;

/// Upper bound on bits/symbols transmitted per trial.
pub const MAX_PAYLOAD: usize = 4096;

/// The covert channel a sweep drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Victim {
    /// MetaLeak-T: tree-cache timing channel (Figure 11).
    CovertT,
    /// MetaLeak-C: counter-overflow channel (Figure 14).
    CovertC,
}

impl Victim {
    /// The wire name (`"covert_t"` / `"covert_c"`).
    pub fn name(self) -> &'static str {
        match self {
            Victim::CovertT => "covert_t",
            Victim::CovertC => "covert_c",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "covert_t" => Some(Victim::CovertT),
            "covert_c" => Some(Victim::CovertC),
            _ => None,
        }
    }
}

/// Gate requirement attached to a spec: what the leakage assessment
/// must conclude for the job's gate verdict to pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Requirement {
    /// The experiment must show a leak (|t| above the TVLA threshold).
    Leak,
    /// The experiment must be clean.
    Clean,
    /// No gate: the report is informational.
    None,
}

impl Requirement {
    fn name(self) -> &'static str {
        match self {
            Requirement::Leak => "leak",
            Requirement::Clean => "clean",
            Requirement::None => "none",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "leak" => Some(Requirement::Leak),
            "clean" => Some(Requirement::Clean),
            "none" => Some(Requirement::None),
            _ => None,
        }
    }
}

/// A validated sweep specification.
///
/// # Example
///
/// Parse the same JSON a client would `POST /jobs`; the canonical
/// render (and hence the content key) is independent of field order
/// and whitespace in the submission:
///
/// ```
/// use metaleak_serve::spec::SweepSpec;
///
/// let spec = SweepSpec::parse(
///     r#"{"experiment":"demo","victim":"covert_t","configs":["sct"],
///         "seeds":[7],"trials_per_point":2,"payload_per_trial":16,
///         "preamble_bits":8,"require":"leak"}"#,
/// ).expect("valid spec");
/// assert_eq!(spec.experiment, "demo");
/// assert_eq!(spec.points(), 1); // 1 config x 1 seed
///
/// let shuffled = SweepSpec::parse(
///     r#"{ "require":"leak", "preamble_bits":8, "payload_per_trial":16,
///          "trials_per_point":2, "seeds":[7], "configs":["sct"],
///          "victim":"covert_t", "experiment":"demo" }"#,
/// ).expect("valid spec");
/// assert_eq!(spec.canonical().render(), shuffled.canonical().render());
/// ```
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Artifact base name (`<experiment>.jsonl` / `.meta.json`).
    pub experiment: String,
    /// The covert channel to drive.
    pub victim: Victim,
    /// Configurations swept (outer sweep axis).
    pub configs: Vec<Preset>,
    /// Seeds swept (inner sweep axis).
    pub seeds: Vec<u64>,
    /// Supervised trials per `configuration × seed` point.
    pub trials_per_point: usize,
    /// Bits (MetaLeak-T) or symbols (MetaLeak-C) per trial.
    pub payload_per_trial: usize,
    /// Priming bits transmitted during each point's warmup before the
    /// snapshot is taken (MetaLeak-T only).
    pub preamble_bits: usize,
    /// Configuration overrides: `tree_minor_bits` (the MetaLeak-C
    /// capacity knob, SCT only), `noise_sd` and `pages`.
    pub overrides: Overrides,
    /// Gate requirement evaluated into the job's report.
    pub require: Requirement,
    /// Failure budget: admits degraded artifacts to assessment and
    /// fails the gate when more trials were lost.
    pub max_failed_trials: Option<usize>,
    /// Global trial indices whose bodies deterministically panic —
    /// the supervisor's fault-injection hook, exposed for poisoning
    /// tests.
    pub fail_trials: Vec<usize>,
    /// Supervised retries after each trial's first attempt.
    pub retries: u32,
}

impl SweepSpec {
    /// Parses and validates a spec from JSON text. Unknown keys warn
    /// through [`diag`] (so the server attributes them to the
    /// submitting job); known keys with wrong types or out-of-bounds
    /// values are hard errors.
    pub fn parse(text: &str) -> Result<SweepSpec, SpecError> {
        let json = Json::parse(text).map_err(|e| SpecError::new(format!("invalid JSON: {e}")))?;
        SweepSpec::from_json(&json)
    }

    /// Parses and validates a spec from an already-parsed JSON value.
    pub fn from_json(json: &Json) -> Result<SweepSpec, SpecError> {
        let Json::Obj(fields) = json else {
            return Err(SpecError::new("spec must be a JSON object"));
        };
        const KNOWN: [&str; 14] = [
            "experiment",
            "victim",
            "configs",
            "seeds",
            "trials_per_point",
            "payload_per_trial",
            "preamble_bits",
            "tree_minor_bits",
            "noise_sd",
            "pages",
            "require",
            "max_failed_trials",
            "fail_trials",
            "retries",
        ];
        for (key, _) in fields {
            if !KNOWN.contains(&key.as_str()) {
                diag::warn_once(key, &format!("ignoring unknown spec field {key:?}"));
            }
        }

        let experiment = json
            .get("experiment")
            .and_then(Json::as_str)
            .ok_or_else(|| SpecError::new("missing string field \"experiment\""))?
            .to_owned();
        if experiment.is_empty()
            || experiment.len() > 64
            || !experiment
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_' || b == b'-')
        {
            return Err(SpecError::new("\"experiment\" must be 1-64 chars of [a-z0-9_-]"));
        }

        let victim = json
            .get("victim")
            .and_then(Json::as_str)
            .ok_or_else(|| SpecError::new("missing string field \"victim\""))?;
        let victim = Victim::parse(victim).ok_or_else(|| {
            SpecError::new(format!("unknown victim {victim:?} (covert_t | covert_c)"))
        })?;

        let configs = str_list(json, "configs")?
            .iter()
            .map(|s| {
                Preset::parse(s)
                    .ok_or_else(|| SpecError::new(format!("unknown config {s:?} (sct | ht | sit)")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        if configs.is_empty() {
            return Err(SpecError::new("\"configs\" must name at least one configuration"));
        }
        if victim == Victim::CovertC && configs.iter().any(|&c| c != Preset::Sct) {
            return Err(SpecError::new("covert_c sweeps support only the \"sct\" configuration"));
        }

        let seeds = u64_list(json, "seeds")?;
        if seeds.is_empty() {
            return Err(SpecError::new("\"seeds\" must list at least one seed"));
        }
        for (i, s) in seeds.iter().enumerate() {
            if seeds[..i].contains(s) {
                return Err(SpecError::new(format!(
                    "duplicate seed {s} (seed streams must be distinct)"
                )));
            }
        }
        if configs.len() * seeds.len() > MAX_POINTS {
            return Err(SpecError::new(format!(
                "configs × seeds exceeds {MAX_POINTS} sweep points"
            )));
        }

        let trials_per_point = usize_field(json, "trials_per_point", 1, MAX_TRIALS_PER_POINT, 2)?;
        let payload_per_trial = usize_field(json, "payload_per_trial", 1, MAX_PAYLOAD, 32)?;
        let preamble_bits = usize_field(json, "preamble_bits", 0, 1024, 16)?;
        let retries = usize_field(json, "retries", 0, 8, 0)? as u32;

        let tree_minor_bits = match json.get("tree_minor_bits") {
            None => None,
            Some(v) => {
                let bits = v.as_u64().filter(|&b| (1..=7).contains(&b)).ok_or_else(|| {
                    SpecError::new("\"tree_minor_bits\" must be an integer in 1..=7")
                })?;
                Some(bits as u8)
            }
        };
        let noise_sd = match json.get("noise_sd") {
            None => None,
            Some(v) => {
                let sd = v
                    .as_f64()
                    .filter(|sd| sd.is_finite() && *sd >= 0.0 && *sd <= 1000.0)
                    .ok_or_else(|| {
                        SpecError::new("\"noise_sd\" must be a finite number in 0..=1000")
                    })?;
                Some(sd)
            }
        };
        let pages = match json.get("pages") {
            None => None,
            Some(v) => {
                let p = v.as_u64().filter(|&p| (4096..=65536).contains(&p)).ok_or_else(|| {
                    SpecError::new("\"pages\" must be an integer in 4096..=65536")
                })?;
                Some(p)
            }
        };

        let require = match json.get("require") {
            None => Requirement::None,
            Some(v) => {
                let s = v.as_str().ok_or_else(|| SpecError::new("\"require\" must be a string"))?;
                Requirement::parse(s).ok_or_else(|| {
                    SpecError::new(format!("unknown requirement {s:?} (leak | clean | none)"))
                })?
            }
        };
        let max_failed_trials = match json.get("max_failed_trials") {
            None => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or_else(|| SpecError::new("\"max_failed_trials\" must be an integer"))?
                    as usize,
            ),
        };
        let fail_trials = match json.get("fail_trials") {
            None => Vec::new(),
            Some(_) => u64_list(json, "fail_trials")?.iter().map(|&t| t as usize).collect(),
        };

        let overrides = Overrides { tree_minor_bits, noise_sd, pages, mee_extra: None };
        overrides.check(&configs)?;
        let spec = SweepSpec {
            experiment,
            victim,
            configs,
            seeds,
            trials_per_point,
            payload_per_trial,
            preamble_bits,
            overrides,
            require,
            max_failed_trials,
            fail_trials,
            retries,
        };
        for &t in &spec.fail_trials {
            if t >= spec.total_trials() {
                return Err(SpecError::new(format!(
                    "\"fail_trials\" index {t} out of range (job has {} trials)",
                    spec.total_trials()
                )));
            }
        }
        // Exercise the builder path once per configuration: a spec is
        // only valid if the engine's own builder accepts its shape.
        for &preset in &spec.configs {
            let _ = spec.build_config(preset);
        }
        Ok(spec)
    }

    /// Number of sweep points (`configs × seeds`).
    pub fn points(&self) -> usize {
        self.configs.len() * self.seeds.len()
    }

    /// Total supervised trials across the sweep.
    pub fn total_trials(&self) -> usize {
        self.points() * self.trials_per_point
    }

    /// The configuration and seed behind sweep point `p` (points are
    /// numbered `config-major`: `p = cfg_idx * seeds.len() + seed_idx`).
    pub fn point(&self, p: usize) -> (Preset, u64) {
        (self.configs[p / self.seeds.len()], self.seeds[p % self.seeds.len()])
    }

    /// The secure-memory configuration of one sweep axis entry, with
    /// the spec's overrides applied.
    pub fn build_config(&self, preset: Preset) -> SecureConfig {
        self.overrides.builder(preset).build()
    }

    /// The canonical JSON rendering: fixed field order with every
    /// default materialized, so two specs that execute identically
    /// render identically.
    pub fn canonical(&self) -> Json {
        let obj = JsonObj::new()
            .field("experiment", self.experiment.as_str())
            .field("victim", self.victim.name())
            .field(
                "configs",
                Json::Arr(self.configs.iter().map(|c| Json::from(c.name())).collect()),
            )
            .field("seeds", self.seeds.clone())
            .field("trials_per_point", self.trials_per_point)
            .field("payload_per_trial", self.payload_per_trial)
            .field("preamble_bits", self.preamble_bits);
        let mut obj = self.overrides.render_into(obj).field("require", self.require.name());
        if let Some(max) = self.max_failed_trials {
            obj = obj.field("max_failed_trials", max);
        }
        if !self.fail_trials.is_empty() {
            obj = obj.field(
                "fail_trials",
                self.fail_trials.iter().map(|&t| t as u64).collect::<Vec<u64>>(),
            );
        }
        obj.field("retries", self.retries).build()
    }

    /// The content key addressing this spec's artifacts (see the
    /// module docs).
    pub fn content_key(&self) -> String {
        spec::content_key(&format!("metaleak-serve/v{PROTOCOL_VERSION}"), &self.canonical())
    }

    /// The artifact seed recorded in the commit record (and used for
    /// analysis bootstrap streams): a digest of the canonical spec, so
    /// distinct sweeps never share analysis randomness.
    pub fn artifact_seed(&self) -> u64 {
        sha256::digest64(self.canonical().render().as_bytes())
    }
}

fn str_list(json: &Json, key: &str) -> Result<Vec<String>, SpecError> {
    json.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| SpecError::new(format!("missing array field {key:?}")))?
        .iter()
        .map(|v| v.as_str().map(str::to_owned))
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| SpecError::new(format!("{key:?} must be an array of strings")))
}

fn u64_list(json: &Json, key: &str) -> Result<Vec<u64>, SpecError> {
    json.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| SpecError::new(format!("missing array field {key:?}")))?
        .iter()
        .map(Json::as_u64)
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| SpecError::new(format!("{key:?} must be an array of non-negative integers")))
}

fn usize_field(
    json: &Json,
    key: &str,
    min: usize,
    max: usize,
    default: usize,
) -> Result<usize, SpecError> {
    match json.get(key) {
        None => Ok(default),
        Some(v) => {
            v.as_u64().map(|n| n as usize).filter(|n| (min..=max).contains(n)).ok_or_else(|| {
                SpecError::new(format!("{key:?} must be an integer in {min}..={max}"))
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> String {
        r#"{"experiment":"smoke","victim":"covert_t","configs":["sct"],"seeds":[7]}"#.to_owned()
    }

    #[test]
    fn minimal_spec_parses_with_defaults() {
        let spec = SweepSpec::parse(&minimal()).expect("parse");
        assert_eq!(spec.experiment, "smoke");
        assert_eq!(spec.victim, Victim::CovertT);
        assert_eq!(spec.points(), 1);
        assert_eq!(spec.trials_per_point, 2);
        assert_eq!(spec.require, Requirement::None);
    }

    #[test]
    fn content_key_is_stable_and_seed_sensitive() {
        let a = SweepSpec::parse(&minimal()).unwrap();
        let b = SweepSpec::parse(&minimal()).unwrap();
        assert_eq!(a.content_key(), b.content_key());
        let c = SweepSpec::parse(&minimal().replace("[7]", "[8]")).unwrap();
        assert_ne!(a.content_key(), c.content_key(), "seed change must change the key");
    }

    #[test]
    fn content_key_derivation_is_pinned() {
        // The cache key material: protocol tag, engine state shape and
        // the canonical render, one per line. A change here re-keys
        // every cached artifact.
        let spec = SweepSpec::parse(&minimal()).unwrap();
        let canonical = spec.canonical().render();
        assert_eq!(
            canonical,
            r#"{"experiment":"smoke","victim":"covert_t","configs":["sct"],"seeds":[7],"trials_per_point":2,"payload_per_trial":32,"preamble_bits":16,"require":"none","retries":0}"#
        );
        let material = format!("metaleak-serve/v1\n{}\n{canonical}", metaleak_engine::STATE_SHAPE);
        assert_eq!(spec.content_key(), sha256::hex(&sha256::Sha256::digest(material.as_bytes())));
    }

    #[test]
    fn tree_minor_bits_without_an_sct_config_is_rejected() {
        // The knob cannot take effect on HT or SIT; accepting it would
        // key identical trials under two content keys.
        let text = minimal()
            .replace("[\"sct\"]", "[\"ht\",\"sit\"]")
            .replace("\"seeds\"", "\"tree_minor_bits\":3,\"seeds\"");
        let e = SweepSpec::parse(&text).expect_err("knob without an sct config");
        assert!(e.0.contains("tree_minor_bits") && e.0.contains("sct"), "{e}");
        let mixed = text.replace("[\"ht\",\"sit\"]", "[\"sct\",\"ht\"]");
        assert!(SweepSpec::parse(&mixed).is_ok(), "the knob applies to the sct points");
    }

    #[test]
    fn content_key_covers_every_knob() {
        let base = SweepSpec::parse(&minimal()).unwrap();
        let mutations = [
            ("\"experiment\":\"smoke\"", "\"experiment\":\"smoke2\""),
            ("\"victim\":\"covert_t\"", "\"victim\":\"covert_c\""),
            ("\"configs\":[\"sct\"]", "\"configs\":[\"sct\",\"ht\"]"),
            ("\"seeds\":[7]", "\"seeds\":[7,9]"),
        ];
        for (from, to) in mutations {
            let mutated = SweepSpec::parse(&minimal().replace(from, to)).unwrap();
            assert_ne!(base.content_key(), mutated.content_key(), "{from} -> {to}");
        }
    }

    #[test]
    fn unknown_fields_warn_but_parse() {
        let captured = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = captured.clone();
        let spec = diag::with_sink(
            std::sync::Arc::new(move |msg: &str| sink.lock().unwrap().push(msg.to_owned())),
            || SweepSpec::parse(&minimal().replace("\"seeds\"", "\"frobnicate\":true,\"seeds\"")),
        )
        .expect("lenient parse");
        assert_eq!(spec.experiment, "smoke");
        let warnings = captured.lock().unwrap();
        assert!(warnings.iter().any(|w| w.contains("frobnicate")), "{warnings:?}");
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let cases = [
            ("not json", "invalid JSON"),
            ("[1,2]", "must be a JSON object"),
            (r#"{"victim":"covert_t","configs":["sct"],"seeds":[1]}"#, "experiment"),
            (
                r#"{"experiment":"UPPER","victim":"covert_t","configs":["sct"],"seeds":[1]}"#,
                "a-z0-9_-",
            ),
            (r#"{"experiment":"x","victim":"nope","configs":["sct"],"seeds":[1]}"#, "victim"),
            (r#"{"experiment":"x","victim":"covert_t","configs":[],"seeds":[1]}"#, "at least one"),
            (
                r#"{"experiment":"x","victim":"covert_t","configs":["sct"],"seeds":[1,1]}"#,
                "duplicate seed",
            ),
            (
                r#"{"experiment":"x","victim":"covert_c","configs":["ht"],"seeds":[1]}"#,
                "only the \"sct\"",
            ),
            (
                r#"{"experiment":"x","victim":"covert_t","configs":["sct"],"seeds":[1],"trials_per_point":0}"#,
                "trials_per_point",
            ),
            (
                r#"{"experiment":"x","victim":"covert_t","configs":["sct"],"seeds":[1],"fail_trials":[99]}"#,
                "out of range",
            ),
            (
                r#"{"experiment":"x","victim":"covert_t","configs":["sct"],"seeds":[1],"tree_minor_bits":9}"#,
                "tree_minor_bits",
            ),
        ];
        for (text, needle) in cases {
            let e = SweepSpec::parse(text).expect_err(text);
            assert!(e.0.contains(needle), "{text} -> {e}");
        }
    }

    #[test]
    fn point_numbering_is_config_major() {
        let spec = SweepSpec::parse(
            r#"{"experiment":"x","victim":"covert_t","configs":["sct","sit"],"seeds":[3,5]}"#,
        )
        .unwrap();
        assert_eq!(spec.points(), 4);
        assert_eq!(spec.point(0), (Preset::Sct, 3));
        assert_eq!(spec.point(1), (Preset::Sct, 5));
        assert_eq!(spec.point(2), (Preset::Sit, 3));
        assert_eq!(spec.point(3), (Preset::Sit, 5));
    }

    #[test]
    fn overrides_flow_through_the_builder() {
        let spec = SweepSpec::parse(
            r#"{"experiment":"x","victim":"covert_c","configs":["sct"],"seeds":[1],"tree_minor_bits":3,"pages":8192,"noise_sd":1.5}"#,
        )
        .unwrap();
        let cfg = spec.build_config(Preset::Sct);
        assert_eq!(cfg.tree_widths.minor_bits, 3);
        assert_eq!(cfg.data_pages, 8192);
        assert!((cfg.sim.noise_sd - 1.5).abs() < 1e-12);
    }
}
