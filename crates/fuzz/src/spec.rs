//! The bounded candidate language: one point of the configuration ×
//! victim × interference search space.
//!
//! A [`FuzzSpec`] is everything a candidate execution depends on: a
//! base configuration [`Preset`], a small set of bounds-checked config
//! [`Overrides`] (applied by the shared spec core
//! [`metaleak_bench::spec`] through `SecureConfigBuilder`, so the
//! fuzzer can never construct a memory shape the engine's own builder
//! would not), a parameterized secret-dependent victim program, and a
//! bounded
//! [`FaultKind`]-based interference plan. Every knob draws from a
//! small quantized menu rather than a continuum — that keeps the
//! space finite, makes mutation and delta-debugging steps meaningful,
//! and guarantees two candidates that execute identically render
//! identically.
//!
//! # Content addressing
//!
//! [`FuzzSpec::content_key`] is the shared core's content key (the
//! one `metaleak-serve` uses) over the canonical JSON rendering (fixed
//! field order, defaults materialized) under the `metaleak-fuzz/v1`
//! protocol tag. The corpus dedupes hits on this key, so a leak found
//! twice through different mutation paths is catalogued once — and an
//! engine refactor that changes simulated state invalidates every
//! stale key.

use metaleak::configs::Preset;
use metaleak_bench::json::{Json, JsonObj};
use metaleak_bench::spec::{self, Overrides, SpecError};
use metaleak_bench::supervisor::JournalValue;
use metaleak_engine::config::SecureConfig;
use metaleak_sim::interference::{FaultKind, FaultPlan};

/// Version tag folded into every content key: bump when the fuzzer's
/// execution semantics change in a way that invalidates corpus keys
/// (seeding convention, victim structure, oracle input shape).
pub const PROTOCOL_VERSION: u32 = 1;

/// Maximum fault processes per candidate interference plan.
pub const MAX_FAULTS: usize = 3;

/// Samples-per-trial menu (bits, symbols or probed reads per trial).
pub const PAYLOAD_MENU: [usize; 5] = [8, 16, 32, 64, 128];

/// Gaussian latency-jitter override menu (cycles of standard
/// deviation).
pub const NOISE_MENU: [f64; 4] = [5.0, 20.0, 60.0, 120.0];

/// Protected-region size override menu (pages). Matches the bounds
/// the serve layer accepts.
pub const PAGES_MENU: [u64; 3] = [4096, 8192, 16384];

/// MEE pipeline-overhead override menu (extra cycles).
pub const MEE_MENU: [u64; 2] = [20, 40];

/// Stride menu for the stride-loop victim (blocks between reads).
pub const STRIDE_MENU: [u64; 6] = [1, 2, 4, 8, 64, 512];

/// Secret-offset menu for the stride-loop victim (blocks added when
/// the secret bit is set; 0 = secret-independent, i.e. clean).
pub const OFFSET_MENU: [u64; 6] = [0, 1, 8, 64, 512, 4096];

/// Install-count menu for the MIRAGE eviction victim (random lines
/// installed per set secret bit; 0 = secret-independent).
pub const INSTALL_MENU: [u64; 4] = [0, 500, 2000, 8000];

/// The interference RNG seed every candidate plan uses. Fixed so a
/// spec fully determines its execution — the *plan*, not its seed, is
/// the mutation axis.
pub const FAULT_PLAN_SEED: u64 = 0xF0CC_1EA4_CAFE_0001;

/// One parameterized secret-dependent victim program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VictimKind {
    /// The MetaLeak-T tree-cache probe at a chosen tree level
    /// (`CovertChannelT`): the known paper channel on SCT/HT, and the
    /// SIT variant at deeper levels.
    TreeProbe {
        /// Integrity-tree level the probe monitors (0..=2).
        level: u8,
    },
    /// The MetaLeak-C counter-overflow channel (`CovertChannelC`) —
    /// the known SCT counter channel. Only valid on the `sct` base.
    CounterStress,
    /// A secret-dependent data-access pattern run directly against
    /// `SecureMemory`: each probe reads block
    /// `base + k*stride + secret*secret_offset`, and the observable is
    /// the read latency. `secret_offset == 0` is secret-independent
    /// (the clean preset); nonzero offsets may or may not shift the
    /// metadata path — that is what the fuzzer explores.
    StrideLoop {
        /// Blocks between consecutive probe reads.
        stride: u64,
        /// Extra block offset applied when the secret bit is 1.
        secret_offset: u64,
    },
    /// A secret-dependent occupancy victim on the MIRAGE randomized
    /// metadata cache (the §IX-B configuration the paper's
    /// set-conflict attacks don't reach): when the secret bit is 1 the
    /// victim installs `installs` random lines before the attacker
    /// probes its target's residency. `installs == 0` is
    /// secret-independent.
    MirageEvict {
        /// Random lines installed per set secret bit.
        installs: u64,
    },
}

impl VictimKind {
    /// The wire name of the victim family.
    pub fn family_name(self) -> &'static str {
        match self {
            VictimKind::TreeProbe { .. } => "tree_probe",
            VictimKind::CounterStress => "counter_stress",
            VictimKind::StrideLoop { .. } => "stride_loop",
            VictimKind::MirageEvict { .. } => "mirage_evict",
        }
    }

    fn canonical(self) -> Json {
        let obj = JsonObj::new().field("kind", self.family_name());
        match self {
            VictimKind::TreeProbe { level } => obj.field("level", level).build(),
            VictimKind::CounterStress => obj.build(),
            VictimKind::StrideLoop { stride, secret_offset } => {
                obj.field("stride", stride).field("secret_offset", secret_offset).build()
            }
            VictimKind::MirageEvict { installs } => obj.field("installs", installs).build(),
        }
    }

    fn from_json(v: &Json) -> Result<Self, SpecError> {
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| SpecError::new("victim needs a string \"kind\""))?;
        match kind {
            "tree_probe" => {
                let level = v
                    .get("level")
                    .and_then(Json::as_u64)
                    .filter(|&l| l <= 2)
                    .ok_or_else(|| SpecError::new("tree_probe \"level\" must be in 0..=2"))?;
                Ok(VictimKind::TreeProbe { level: level as u8 })
            }
            "counter_stress" => Ok(VictimKind::CounterStress),
            "stride_loop" => {
                let menu_u64 = |key: &str, menu: &[u64]| {
                    v.get(key).and_then(Json::as_u64).filter(|x| menu.contains(x)).ok_or_else(
                        || SpecError::new(format!("stride_loop {key:?} must be one of {menu:?}")),
                    )
                };
                Ok(VictimKind::StrideLoop {
                    stride: menu_u64("stride", &STRIDE_MENU)?,
                    secret_offset: menu_u64("secret_offset", &OFFSET_MENU)?,
                })
            }
            "mirage_evict" => {
                let installs = v
                    .get("installs")
                    .and_then(Json::as_u64)
                    .filter(|x| INSTALL_MENU.contains(x))
                    .ok_or_else(|| {
                        SpecError::new(format!(
                            "mirage_evict \"installs\" must be one of {INSTALL_MENU:?}"
                        ))
                    })?;
                Ok(VictimKind::MirageEvict { installs })
            }
            other => Err(SpecError::new(format!("unknown victim kind {other:?}"))),
        }
    }
}

/// The six fault families a candidate plan can draw from — the
/// [`FaultKind`] processes of `metaleak-sim`, parameterized by a
/// small intensity level instead of raw floats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultFamily {
    /// Gaussian latency jitter.
    Gaussian,
    /// Sinusoidal DVFS-style latency drift.
    Drift,
    /// Co-runner metadata-cache eviction bursts.
    Eviction,
    /// OS preemption gaps.
    Preemption,
    /// Lost probe samples.
    Drop,
    /// Duplicated probe samples.
    Duplicate,
}

/// Every fault family, in canonical (wire) order.
pub const FAULT_FAMILIES: [FaultFamily; 6] = [
    FaultFamily::Gaussian,
    FaultFamily::Drift,
    FaultFamily::Eviction,
    FaultFamily::Preemption,
    FaultFamily::Drop,
    FaultFamily::Duplicate,
];

impl FaultFamily {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            FaultFamily::Gaussian => "gaussian",
            FaultFamily::Drift => "drift",
            FaultFamily::Eviction => "eviction",
            FaultFamily::Preemption => "preemption",
            FaultFamily::Drop => "drop",
            FaultFamily::Duplicate => "duplicate",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<Self> {
        FAULT_FAMILIES.into_iter().find(|f| f.name() == s)
    }
}

/// One bounded fault process: a family at an intensity level 1..=3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// The fault family.
    pub family: FaultFamily,
    /// Intensity level (1..=3); parameters grow linearly with it.
    pub level: u8,
}

impl FaultSpec {
    /// The concrete seeded [`FaultKind`] this spec denotes.
    pub fn to_fault_kind(self) -> FaultKind {
        let l = self.level as f64;
        match self.family {
            FaultFamily::Gaussian => FaultKind::GaussianNoise { sd: 30.0 * l },
            FaultFamily::Drift => FaultKind::LatencyDrift { amplitude: 0.05 * l, period: 40_000 },
            FaultFamily::Eviction => {
                FaultKind::EvictionBurst { rate: 0.02 * l, burst_len: 2 * self.level as u32 }
            }
            FaultFamily::Preemption => {
                FaultKind::PreemptionGap { rate: 0.004 * l, min_cycles: 2_000, max_cycles: 30_000 }
            }
            FaultFamily::Drop => FaultKind::SampleDrop { rate: 0.01 * l },
            FaultFamily::Duplicate => FaultKind::SampleDuplicate { rate: 0.01 * l },
        }
    }

    fn canonical(self) -> Json {
        JsonObj::new().field("family", self.family.name()).field("level", self.level).build()
    }

    fn from_json(v: &Json) -> Result<Self, SpecError> {
        let family = v
            .get("family")
            .and_then(Json::as_str)
            .and_then(FaultFamily::parse)
            .ok_or_else(|| SpecError::new("fault needs a known \"family\""))?;
        let level = v
            .get("level")
            .and_then(Json::as_u64)
            .filter(|&l| (1..=3).contains(&l))
            .ok_or_else(|| SpecError::new("fault \"level\" must be in 1..=3"))?;
        Ok(FaultSpec { family, level: level as u8 })
    }
}

/// One candidate of the search space. See the module docs for the
/// role each axis plays.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzSpec {
    /// Base configuration preset.
    pub base: Preset,
    /// The secret-dependent victim program.
    pub victim: VictimKind,
    /// Samples per trial (bits / symbols / probed reads), from
    /// [`PAYLOAD_MENU`].
    pub payload: usize,
    /// Config overrides: tree minor-counter width (SCT only, 1..=7),
    /// `noise_sd` from [`NOISE_MENU`], `pages` from [`PAGES_MENU`] and
    /// `mee_extra` from [`MEE_MENU`].
    pub overrides: Overrides,
    /// Bounded interference plan (at most [`MAX_FAULTS`] processes).
    pub faults: Vec<FaultSpec>,
}

impl FuzzSpec {
    /// The minimal (preset) spec for a base configuration and victim
    /// family: default victim parameters, no config overrides, no
    /// interference. This is what the delta-debugger minimizes toward.
    pub fn preset(base: Preset, victim: VictimKind) -> FuzzSpec {
        let victim = match victim {
            VictimKind::TreeProbe { .. } => VictimKind::TreeProbe { level: base.covert_t_level() },
            VictimKind::CounterStress => VictimKind::CounterStress,
            VictimKind::StrideLoop { .. } => {
                VictimKind::StrideLoop { stride: STRIDE_MENU[3], secret_offset: 0 }
            }
            VictimKind::MirageEvict { .. } => VictimKind::MirageEvict { installs: 0 },
        };
        FuzzSpec {
            base,
            victim,
            payload: PAYLOAD_MENU[2],
            overrides: Overrides::default(),
            faults: Vec::new(),
        }
    }

    /// Validates the spec's bounds and cross-field constraints.
    ///
    /// # Errors
    /// [`SpecError`] naming the violated constraint.
    pub fn validate(&self) -> Result<(), SpecError> {
        if !PAYLOAD_MENU.contains(&self.payload) {
            return Err(SpecError::new(format!("payload must be one of {PAYLOAD_MENU:?}")));
        }
        let o = &self.overrides;
        if o.tree_minor_bits.is_some_and(|bits| !(1..=7).contains(&bits)) {
            return Err(SpecError::new("tree_minor_bits must be in 1..=7"));
        }
        o.check(&[self.base])?;
        if o.noise_sd.is_some_and(|sd| !NOISE_MENU.contains(&sd)) {
            return Err(SpecError::new(format!("noise_sd must be one of {NOISE_MENU:?}")));
        }
        if o.pages.is_some_and(|p| !PAGES_MENU.contains(&p)) {
            return Err(SpecError::new(format!("pages must be one of {PAGES_MENU:?}")));
        }
        if o.mee_extra.is_some_and(|m| !MEE_MENU.contains(&m)) {
            return Err(SpecError::new(format!("mee_extra must be one of {MEE_MENU:?}")));
        }
        if self.faults.len() > MAX_FAULTS {
            return Err(SpecError::new(format!("at most {MAX_FAULTS} fault processes")));
        }
        for f in &self.faults {
            if !(1..=3).contains(&f.level) {
                return Err(SpecError::new("fault level must be in 1..=3"));
            }
        }
        match self.victim {
            VictimKind::CounterStress if self.base != Preset::Sct => {
                Err(SpecError::new("counter_stress requires the sct base"))
            }
            VictimKind::TreeProbe { level } if level > 2 => {
                Err(SpecError::new("tree_probe level must be in 0..=2"))
            }
            VictimKind::StrideLoop { stride, secret_offset } => {
                if !STRIDE_MENU.contains(&stride) {
                    return Err(SpecError::new(format!("stride must be one of {STRIDE_MENU:?}")));
                }
                if !OFFSET_MENU.contains(&secret_offset) {
                    return Err(SpecError::new(format!(
                        "secret_offset must be one of {OFFSET_MENU:?}"
                    )));
                }
                Ok(())
            }
            VictimKind::MirageEvict { installs } if !INSTALL_MENU.contains(&installs) => {
                Err(SpecError::new(format!("installs must be one of {INSTALL_MENU:?}")))
            }
            _ => Ok(()),
        }
    }

    /// Builds the secure-memory configuration this spec denotes: the
    /// overrides through the shared spec core, then the interference
    /// plan.
    pub fn build_config(&self) -> SecureConfig {
        let mut builder = self.overrides.builder(self.base);
        if !self.faults.is_empty() {
            let mut plan = FaultPlan::clean().seeded(FAULT_PLAN_SEED);
            for f in &self.faults {
                plan = plan.with(f.to_fault_kind());
            }
            builder = builder.faults(plan);
        }
        builder.build()
    }

    fn faults_json(&self) -> Json {
        Json::Arr(self.faults.iter().map(|f| f.canonical()).collect())
    }

    /// The canonical JSON rendering: fixed field order with every
    /// default materialized, so two specs that execute identically
    /// render identically.
    pub fn canonical(&self) -> Json {
        let obj = JsonObj::new()
            .field("base", self.base.name())
            .field("victim", self.victim.canonical())
            .field("payload", self.payload);
        self.overrides.render_into(obj).field("faults", self.faults_json()).build()
    }

    /// Parses and validates a spec from its canonical JSON form.
    ///
    /// # Errors
    /// [`SpecError`] on unknown fields, wrong types or out-of-menu
    /// values.
    pub fn from_json(v: &Json) -> Result<FuzzSpec, SpecError> {
        let Json::Obj(fields) = v else {
            return Err(SpecError::new("spec must be a JSON object"));
        };
        const KNOWN: [&str; 8] = [
            "base",
            "victim",
            "payload",
            "tree_minor_bits",
            "noise_sd",
            "pages",
            "mee_extra",
            "faults",
        ];
        for (key, _) in fields {
            if !KNOWN.contains(&key.as_str()) {
                return Err(SpecError::new(format!("unknown spec field {key:?}")));
            }
        }
        let base = v
            .get("base")
            .and_then(Json::as_str)
            .and_then(Preset::parse)
            .ok_or_else(|| SpecError::new("\"base\" must be sct | ht | sit"))?;
        let victim = VictimKind::from_json(
            v.get("victim").ok_or_else(|| SpecError::new("missing \"victim\""))?,
        )?;
        let payload = v
            .get("payload")
            .and_then(Json::as_u64)
            .ok_or_else(|| SpecError::new("\"payload\" must be an integer"))?
            as usize;
        let opt_u64 = |key: &str| {
            v.get(key)
                .map(|x| {
                    x.as_u64().ok_or_else(|| SpecError::new(format!("{key:?} must be an integer")))
                })
                .transpose()
        };
        let overrides = Overrides {
            tree_minor_bits: opt_u64("tree_minor_bits")?.map(|b| b as u8),
            noise_sd: v
                .get("noise_sd")
                .map(|x| x.as_f64().ok_or_else(|| SpecError::new("\"noise_sd\" must be a number")))
                .transpose()?,
            pages: opt_u64("pages")?,
            mee_extra: opt_u64("mee_extra")?,
        };
        let faults = v
            .get("faults")
            .and_then(Json::as_arr)
            .ok_or_else(|| SpecError::new("missing array \"faults\""))?
            .iter()
            .map(FaultSpec::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let spec = FuzzSpec { base, victim, payload, overrides, faults };
        spec.validate()?;
        Ok(spec)
    }

    /// The content key addressing this spec in the corpus (see the
    /// module docs), so keys go stale exactly when cached serve
    /// artifacts would.
    pub fn content_key(&self) -> String {
        spec::content_key(&format!("metaleak-fuzz/v{PROTOCOL_VERSION}"), &self.canonical())
    }

    /// The preset this spec is a delta from (same base, same victim
    /// family, everything else reset).
    pub fn preset_of(&self) -> FuzzSpec {
        FuzzSpec::preset(self.base, self.victim)
    }

    /// The delta from this spec's preset, as a JSON object naming only
    /// the axes that differ — what a `findings.jsonl` record reports
    /// as "what had to change for the leak to appear".
    pub fn delta_json(&self) -> Json {
        let preset = self.preset_of();
        let mut obj = JsonObj::new();
        if self.victim != preset.victim {
            obj = obj.field("victim", self.victim.canonical());
        }
        if self.payload != preset.payload {
            obj = obj.field("payload", self.payload);
        }
        // A preset has no overrides, so every override set is a delta.
        obj = self.overrides.render_into(obj);
        if self.faults != preset.faults {
            obj = obj.field("faults", self.faults_json());
        }
        obj.build()
    }
}

impl JournalValue for FuzzSpec {
    fn to_json(&self) -> Json {
        self.canonical()
    }

    fn from_json(v: &Json) -> Option<Self> {
        FuzzSpec::from_json(v).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Default overrides with one knob set.
    fn with(set: impl FnOnce(&mut Overrides)) -> Overrides {
        let mut o = Overrides::default();
        set(&mut o);
        o
    }

    #[test]
    fn content_key_derivation_is_pinned() {
        // The corpus key material: protocol tag, engine state shape
        // and the canonical render, one per line. A change here
        // re-keys every corpus entry and reproducer.
        let spec = FuzzSpec::preset(Preset::Sct, VictimKind::CounterStress);
        let canonical = spec.canonical().render();
        assert_eq!(
            canonical,
            r#"{"base":"sct","victim":{"kind":"counter_stress"},"payload":32,"faults":[]}"#
        );
        let material = format!("metaleak-fuzz/v1\n{}\n{canonical}", metaleak_engine::STATE_SHAPE);
        let expected = metaleak_crypto::sha256::Sha256::digest(material.as_bytes());
        assert_eq!(spec.content_key(), metaleak_crypto::sha256::hex(&expected));
    }

    #[test]
    fn preset_specs_validate_and_roundtrip() {
        for base in [Preset::Sct, Preset::Ht, Preset::Sit] {
            for victim in [
                VictimKind::TreeProbe { level: 0 },
                VictimKind::StrideLoop { stride: 8, secret_offset: 0 },
                VictimKind::MirageEvict { installs: 0 },
            ] {
                let spec = FuzzSpec::preset(base, victim);
                spec.validate().expect("preset validates");
                let back = FuzzSpec::from_json(&spec.canonical()).expect("roundtrip");
                assert_eq!(spec, back);
            }
        }
        let counter = FuzzSpec::preset(Preset::Sct, VictimKind::CounterStress);
        counter.validate().expect("counter preset");
        assert_eq!(counter, FuzzSpec::from_json(&counter.canonical()).unwrap());
    }

    #[test]
    fn content_key_covers_every_axis() {
        let base = FuzzSpec::preset(Preset::Sct, VictimKind::TreeProbe { level: 0 });
        let mut variants = vec![
            FuzzSpec { payload: 64, ..base.clone() },
            FuzzSpec { overrides: with(|o| o.tree_minor_bits = Some(3)), ..base.clone() },
            FuzzSpec { overrides: with(|o| o.noise_sd = Some(20.0)), ..base.clone() },
            FuzzSpec { overrides: with(|o| o.pages = Some(8192)), ..base.clone() },
            FuzzSpec { overrides: with(|o| o.mee_extra = Some(20)), ..base.clone() },
            FuzzSpec {
                faults: vec![FaultSpec { family: FaultFamily::Gaussian, level: 2 }],
                ..base.clone()
            },
            FuzzSpec { victim: VictimKind::TreeProbe { level: 1 }, ..base.clone() },
            FuzzSpec::preset(Preset::Ht, VictimKind::TreeProbe { level: 0 }),
        ];
        let mut keys: Vec<String> = vec![base.content_key()];
        for v in variants.drain(..) {
            v.validate().expect("variant validates");
            let k = v.content_key();
            assert!(!keys.contains(&k), "key collision for {v:?}");
            keys.push(k);
        }
    }

    #[test]
    fn cross_field_constraints_are_enforced() {
        let bad = FuzzSpec {
            overrides: with(|o| o.tree_minor_bits = Some(3)),
            ..FuzzSpec::preset(Preset::Ht, VictimKind::TreeProbe { level: 0 })
        };
        assert!(bad.validate().is_err(), "tree_minor_bits off sct must fail");
        let bad = FuzzSpec::preset(Preset::Ht, VictimKind::CounterStress);
        assert!(bad.validate().is_err(), "counter_stress off sct must fail");
        let bad =
            FuzzSpec { payload: 7, ..FuzzSpec::preset(Preset::Sct, VictimKind::CounterStress) };
        assert!(bad.validate().is_err(), "off-menu payload must fail");
    }

    #[test]
    fn delta_names_only_changed_axes() {
        let spec = FuzzSpec {
            overrides: with(|o| o.noise_sd = Some(20.0)),
            faults: vec![FaultSpec { family: FaultFamily::Drop, level: 1 }],
            ..FuzzSpec::preset(Preset::Sct, VictimKind::TreeProbe { level: 0 })
        };
        let delta = spec.delta_json().render();
        assert!(delta.contains("noise_sd"), "{delta}");
        assert!(delta.contains("faults"), "{delta}");
        assert!(!delta.contains("pages"), "{delta}");
        assert_eq!(spec.preset_of().delta_json().render(), "{}");
    }

    #[test]
    fn overrides_flow_through_the_builder() {
        let spec = FuzzSpec {
            overrides: Overrides {
                tree_minor_bits: Some(3),
                noise_sd: Some(20.0),
                pages: Some(8192),
                mee_extra: None,
            },
            faults: vec![FaultSpec { family: FaultFamily::Eviction, level: 2 }],
            ..FuzzSpec::preset(Preset::Sct, VictimKind::CounterStress)
        };
        let cfg = spec.build_config();
        assert_eq!(cfg.tree_widths.minor_bits, 3);
        assert_eq!(cfg.data_pages, 8192);
        assert!((cfg.sim.noise_sd - 20.0).abs() < 1e-12);
        assert_eq!(cfg.faults.faults.len(), 1);
    }
}
