//! Experiment configurations.
//!
//! The paper simulates a 64 GB memory behind a 256 KB metadata cache
//! (a ~260000:1 footprint-to-cache ratio). Simulating 64 GB of
//! protected state is not tractable here, so the experiment configs
//! scale both sides down together: a 64 MiB protected region behind
//! 8 KB metadata caches preserves the eviction pressure (8192:1) and
//! the number of conflicting tree nodes per cache set that the
//! attacks' eviction sets rely on.

use metaleak_engine::config::{SecureConfig, SecureConfigBuilder};
use metaleak_meta::enc_counter::CounterWidths;
use metaleak_meta::mcache::MetaCacheConfig;
use metaleak_sim::config::CacheConfig;

/// Protected pages used by the experiments (64 MiB).
pub const EXPERIMENT_PAGES: u64 = 16384;

fn scaled_mcache() -> MetaCacheConfig {
    MetaCacheConfig {
        counter: CacheConfig::new(8 * 1024, 4, 2),
        tree: CacheConfig::new(8 * 1024, 4, 2),
    }
}

/// The primary simulated design: split counters + split-counter tree
/// (VAULT-style, Table I), experiment-scaled metadata caches.
pub fn sct_experiment() -> SecureConfig {
    let mut cfg = SecureConfigBuilder::sct(EXPERIMENT_PAGES).build();
    cfg.mcache = scaled_mcache();
    cfg
}

/// The hash-tree design (Bonsai Merkle Tree \[12\]).
pub fn ht_experiment() -> SecureConfig {
    let mut cfg = SecureConfigBuilder::ht(EXPERIMENT_PAGES).build();
    cfg.mcache = scaled_mcache();
    cfg
}

/// The SGX-like design: monolithic 56-bit counters, 8-ary SIT, MEE
/// latency profile (Figure 7).
pub fn sgx_experiment() -> SecureConfig {
    let mut cfg = SecureConfigBuilder::sit(EXPERIMENT_PAGES).build();
    cfg.mcache = scaled_mcache();
    cfg
}

/// SCT with narrowed tree minor counters so MetaLeak-C presets finish
/// in `2^bits` writes. The paper's hardware uses 7-bit tree minors
/// (128-write presets); narrower counters exercise the identical
/// mechanism at lower simulation cost.
pub fn sct_experiment_with_tree_bits(minor_bits: u8) -> SecureConfig {
    let mut cfg = sct_experiment();
    cfg.tree_widths = CounterWidths { minor_bits, mono_bits: 56 };
    cfg
}

/// One of the three experiment designs, by wire name: the `configs`
/// axis of a `metaleak-serve` sweep and the `base` of a `leakfuzz`
/// candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// Split counters + split-counter tree ([`sct_experiment`]).
    Sct,
    /// Bonsai Merkle hash tree ([`ht_experiment`]).
    Ht,
    /// SGX-like monolithic counters and 8-ary SIT ([`sgx_experiment`]).
    Sit,
}

impl Preset {
    /// The wire name (`"sct"` / `"ht"` / `"sit"`).
    pub fn name(self) -> &'static str {
        match self {
            Preset::Sct => "sct",
            Preset::Ht => "ht",
            Preset::Sit => "sit",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<Self> {
        [Preset::Sct, Preset::Ht, Preset::Sit].into_iter().find(|p| p.name() == s)
    }

    /// The tree level the MetaLeak-T probe monitors in the Figure 11
    /// setup: level 0 on the SCT and HT trees, level 1 on the SIT.
    pub fn covert_t_level(self) -> u8 {
        match self {
            Preset::Sct | Preset::Ht => 0,
            Preset::Sit => 1,
        }
    }

    /// The design's base configuration, with the tree minor-counter
    /// width narrowed to `tree_minor_bits` when given. Only SCT has
    /// tree minor counters; other designs ignore the width.
    pub fn config(self, tree_minor_bits: Option<u8>) -> SecureConfig {
        match (self, tree_minor_bits) {
            (Preset::Sct, Some(bits)) => sct_experiment_with_tree_bits(bits),
            (Preset::Sct, None) => sct_experiment(),
            (Preset::Ht, _) => ht_experiment(),
            (Preset::Sit, _) => sgx_experiment(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaleak_meta::tree::TreeKind;

    #[test]
    fn presets_have_expected_shapes() {
        assert_eq!(sct_experiment().tree_kind, TreeKind::SplitCounter);
        assert_eq!(ht_experiment().tree_kind, TreeKind::Hash);
        assert_eq!(sgx_experiment().tree_kind, TreeKind::Sgx);
        assert_eq!(sct_experiment_with_tree_bits(3).tree_widths.minor_bits, 3);
    }

    #[test]
    fn presets_round_trip_their_wire_names() {
        for p in [Preset::Sct, Preset::Ht, Preset::Sit] {
            assert_eq!(Preset::parse(p.name()), Some(p));
        }
        assert_eq!(Preset::parse("sgx"), None);
        assert_eq!(Preset::Sit.config(None).tree_kind, TreeKind::Sgx);
        assert_eq!(Preset::Sct.config(Some(3)).tree_widths.minor_bits, 3);
    }

    #[test]
    fn pressure_ratio_is_preserved() {
        let cfg = sct_experiment();
        let footprint = cfg.data_blocks() * 64;
        let cache = cfg.mcache.tree.capacity_bytes as u64;
        assert_eq!(footprint / cache, 8192);
    }
}
