//! # metaleak-attacks
//!
//! The MetaLeak side-channel framework (the paper's primary
//! contribution):
//!
//! - **MetaLeak-T** ([`metaleak_t`], [`covert_t`]) — mEvict+mReload over
//!   shared integrity-tree node blocks: monitors a victim's page
//!   accesses without any data sharing (§VI-A);
//! - **MetaLeak-C** ([`metaleak_c`], [`covert_c`]) — mPreset+mOverflow
//!   over shared tree counters: observes victim *writes* through the
//!   latency storm of counter-overflow handling (§VI-B);
//! - [`dual`] — two mutually-avoiding monitors over two victim pages,
//!   stepped one victim iteration per window: the SGX-Step-style
//!   interleaving the MetaLeak-T case studies of §VIII run on;
//! - supporting primitives: latency classification ([`timing`]),
//!   implicit-sharing arithmetic ([`sharing`]), indirect metadata
//!   eviction ([`mevict`]), timed reloads ([`mreload`]) and the
//!   self-healing runtime ([`resilience`]: bounded retries and the ECC
//!   framing both covert channels' `transmit_framed` use).
//!
//! ```
//! use metaleak_attacks::MetaLeakT;
//! use metaleak_engine::prelude::*;
//!
//! // 64 MiB protected region; a small tree cache keeps eviction sets
//! // cheap to build for the example.
//! let cfg = SecureConfigBuilder::sct(16384)
//!     .mcache(metaleak_meta::mcache::MetaCacheConfig {
//!         counter: metaleak_sim::config::CacheConfig::new(8 * 1024, 4, 2),
//!         tree: metaleak_sim::config::CacheConfig::new(8 * 1024, 4, 2),
//!     })
//!     .build();
//! let mut mem = SecureMemory::new(cfg);
//! let victim_block = 100 * 64;
//! let monitor = MetaLeakT::new(&mut mem, CoreId(0), victim_block, 0, 4)?;
//! let sample = monitor.monitor(&mut mem, CoreId(0), |m| {
//!     m.flush_block(victim_block);
//!     m.read(CoreId(1), victim_block).unwrap();
//! })?;
//! assert!(sample.accessed);
//! # Ok::<(), metaleak_attacks::AttackError>(())
//! ```

#![warn(missing_docs)]

pub mod covert_c;
pub mod covert_t;
pub mod dual;
pub mod error;
pub mod metaleak_c;
pub mod metaleak_t;
pub mod mevict;
pub mod mreload;
pub mod resilience;
pub mod sharing;
pub mod timing;

pub use covert_c::{CovertChannelC, CovertOutcomeC};
pub use covert_t::{CovertChannelT, CovertOutcome};
pub use dual::{find_partner_block, victim_touch, DualPageMonitor, WindowSample};
pub use error::AttackError;
pub use metaleak_c::{Bumper, MetaLeakC, OverflowProbe};
pub use metaleak_t::{MetaLeakT, MonitorSample};
pub use mevict::{CounterEvictor, MetaEvictor, TreeSetEvictor, VolumeEvictor};
pub use resilience::{DecodeReport, FrameCodec, FramedOutcome, RetryPolicy};
pub use timing::LabelledSample;
