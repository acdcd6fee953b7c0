//! The spec core shared by `metaleak-serve` sweep specs and `leakfuzz`
//! candidates: one validation error, one set of configuration
//! overrides applied through [`SecureConfigBuilder`] on top of a
//! [`Preset`], and one content key.
//!
//! Each spec language keeps its own knob bounds, row schema and
//! canonical field order; what they share is how a spec becomes a
//! secure-memory configuration and how its canonical rendering
//! becomes a key.

use crate::json::{Json, JsonObj};
use metaleak::configs::Preset;
use metaleak_crypto::sha256::{self, Sha256};
use metaleak_engine::config::SecureConfigBuilder;

/// A spec that failed validation; the message names the violated rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl SpecError {
    /// A validation error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        SpecError(msg.into())
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SpecError {}

/// Bounded secure-memory overrides on top of a [`Preset`]. `None`
/// keeps the preset's value.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Overrides {
    /// Tree minor-counter width (SCT only).
    pub tree_minor_bits: Option<u8>,
    /// Gaussian latency-jitter standard deviation in cycles.
    pub noise_sd: Option<f64>,
    /// Protected-region size in pages.
    pub pages: Option<u64>,
    /// Extra MEE pipeline cycles.
    pub mee_extra: Option<u64>,
}

impl Overrides {
    /// Rejects overrides that cannot take effect on any of `presets`:
    /// only SCT has tree minor counters, so a `tree_minor_bits` knob
    /// without an SCT design would change a spec's key but not its
    /// trials.
    ///
    /// # Errors
    /// [`SpecError`] naming the rule.
    pub fn check(&self, presets: &[Preset]) -> Result<(), SpecError> {
        if self.tree_minor_bits.is_some() && !presets.contains(&Preset::Sct) {
            return Err(SpecError::new(
                "\"tree_minor_bits\" applies only to the \"sct\" configuration",
            ));
        }
        Ok(())
    }

    /// A builder holding `preset`'s base configuration with these
    /// overrides applied; callers may chain further settings.
    pub fn builder(&self, preset: Preset) -> SecureConfigBuilder {
        let mut builder = SecureConfigBuilder::from_config(preset.config(self.tree_minor_bits));
        if let Some(sd) = self.noise_sd {
            builder = builder.noise_sd(sd);
        }
        if let Some(pages) = self.pages {
            builder = builder.data_pages(pages);
        }
        if let Some(extra) = self.mee_extra {
            builder = builder.mee_extra(extra);
        }
        builder
    }

    /// Appends the overrides that are set to a canonical rendering, in
    /// a fixed order.
    pub fn render_into(&self, mut obj: JsonObj) -> JsonObj {
        if let Some(bits) = self.tree_minor_bits {
            obj = obj.field("tree_minor_bits", bits);
        }
        if let Some(sd) = self.noise_sd {
            obj = obj.field("noise_sd", sd);
        }
        if let Some(pages) = self.pages {
            obj = obj.field("pages", pages);
        }
        if let Some(extra) = self.mee_extra {
            obj = obj.field("mee_extra", extra);
        }
        obj
    }
}

/// The content key of a canonical spec rendering: SHA-256 over the
/// protocol tag (e.g. `metaleak-serve/v1`), the engine's
/// [`metaleak_engine::STATE_SHAPE`] tag and the rendering, one per
/// line. An engine change that alters simulated state therefore never
/// reuses a stale key.
pub fn content_key(protocol: &str, canonical: &Json) -> String {
    let material = format!("{protocol}\n{}\n{}", metaleak_engine::STATE_SHAPE, canonical.render());
    sha256::hex(&Sha256::digest(material.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_minor_bits_need_an_sct_design() {
        let o = Overrides { tree_minor_bits: Some(3), ..Overrides::default() };
        assert!(o.check(&[Preset::Sct]).is_ok());
        assert!(o.check(&[Preset::Ht, Preset::Sct]).is_ok());
        let e = o.check(&[Preset::Ht, Preset::Sit]).expect_err("no sct design");
        assert!(e.0.contains("tree_minor_bits"), "{e}");
        assert!(Overrides::default().check(&[Preset::Sit]).is_ok());
    }

    #[test]
    fn overrides_flow_through_the_builder_and_render_in_order() {
        let o = Overrides {
            tree_minor_bits: Some(3),
            noise_sd: Some(1.5),
            pages: Some(8192),
            mee_extra: Some(20),
        };
        let cfg = o.builder(Preset::Sct).build();
        assert_eq!(cfg.tree_widths.minor_bits, 3);
        assert_eq!(cfg.data_pages, 8192);
        assert!((cfg.sim.noise_sd - 1.5).abs() < 1e-12);
        assert_eq!(
            o.render_into(JsonObj::new()).build().render(),
            r#"{"tree_minor_bits":3,"noise_sd":1.5,"pages":8192,"mee_extra":20}"#
        );
    }
}
