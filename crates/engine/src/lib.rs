//! # metaleak-engine
//!
//! The secure memory engine of the MetaLeak reproduction: the component
//! that a secure processor places between the last-level cache and
//! DRAM. It combines
//!
//! - counter-mode encryption over [`metaleak_meta::enc_counter`]
//!   (Algorithm 1, incl. overflow re-encryption),
//! - per-block MAC authentication bound to counters and addresses,
//! - integrity-tree verification over [`metaleak_meta::tree`]
//!   (Algorithm 2, lazy update, subtree resets), and
//! - the memory-side timing model of [`metaleak_sim`],
//!
//! exposing the four access paths of Figure 5 with genuine tamper /
//! replay detection and cycle-accounted latencies.
//!
//! ```
//! use metaleak_engine::prelude::*;
//!
//! let mut mem = SecureMemory::new(SecureConfig::test_tiny());
//! mem.write(CoreId(0), 0, [1u8; 64])?;
//! let read = mem.read(CoreId(0), 0)?;
//! assert_eq!(read.data, [1u8; 64]);
//! # Ok::<(), metaleak_engine::secmem::SecureMemError>(())
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod secmem;
pub mod snapshot;

pub use config::{SecureConfig, SecureConfigBuilder};
pub use secmem::{
    AccessPath, ReadResult, SecureMemError, SecureMemory, SecureMemoryBuilder, TamperKind,
    WriteResult,
};
pub use snapshot::Snapshot;

/// Version tag of the engine's in-memory state representation.
///
/// Bumped whenever the layout of [`SecureMemory`]'s state containers
/// changes in a way that alters what a snapshot or a journaled trial
/// value means — most recently the move to structurally-shared
/// copy-on-write state. The supervisor records this tag in each
/// journal's identity header so a resumed run never replays trials
/// journaled by a binary with a different state shape.
pub const STATE_SHAPE: &str = "cow-v1";

/// Convenient glob import: the blessed import surface of the engine.
///
/// Downstream crates and bins should reach for `use
/// metaleak_engine::prelude::*;` rather than deep module paths — every
/// type needed to configure, build, run and snapshot the engine is
/// re-exported here, and additions to this list are the engine's
/// API-stability commitment.
pub mod prelude {
    pub use crate::config::{SecureConfig, SecureConfigBuilder};
    pub use crate::secmem::{
        AccessPath, ReadResult, SecureMemError, SecureMemory, SecureMemoryBuilder, TamperKind,
        WriteResult,
    };
    pub use crate::snapshot::Snapshot;
    pub use metaleak_sim::addr::CoreId;
    pub use metaleak_sim::clock::Cycles;
    pub use metaleak_sim::interference::{FaultKind, FaultPlan, SampleFate};
    pub use metaleak_sim::trace::{NullTracer, PathClass, RingTracer, TraceLog, Tracer};
}
