//! # metaleak-mitigations
//!
//! Defense models for the MetaLeak study (§IX):
//!
//! - [`mirage`] — a MIRAGE-style randomized cache, used to show that
//!   state-of-the-art cache randomization does not stop mEvict
//!   (Figure 18);
//! - [`partition`] — static per-domain integrity-tree partitioning with
//!   its stranding and re-hash cost model (§IX-C);
//! - [`detector`] — a CC-Hunter-style auditor flagging periodic
//!   metadata-cache contention (covert-channel detection);
//! - [`analysis`] — the defense-vs-attack effectiveness matrix.

#![warn(missing_docs)]

pub mod analysis;
pub mod detector;
pub mod mirage;
pub mod partition;

pub use analysis::{evaluate, Attack, Defense, Effectiveness};
pub use detector::{ContentionDetector, DetectionVerdict, SweepPoint};
pub use mirage::{eviction_probability, MirageCache, MirageConfig};
pub use partition::{PartitionError, TreePartition};
