//! # metaleak-crypto
//!
//! From-scratch cryptographic primitives used by the secure-memory
//! engine of the MetaLeak reproduction: AES-128 ([`aes`]), a GHASH-style
//! MAC over GF(2^128) ([`ghash`]), SHA-256 ([`sha256`]) and the
//! latency-modelled on-chip [`engine::CryptoEngine`] that combines them
//! for counter-mode encryption, data authentication and tree hashing.
//!
//! These implementations are functional (real test vectors pass, tamper
//! detection genuinely works) but are simulation substrates only — they
//! are not hardened and must never be used for production cryptography.
//!
//! On x86-64 the hot kernels run on the CPU's AES-NI, PCLMULQDQ and
//! SHA-NI units when runtime detection finds them; the portable code is
//! the fallback everywhere else and the reference every hardware path
//! is tested against. The choice changes host speed only: outputs are
//! bit-identical, and the engine's modelled latencies do not depend on
//! it.
//!
//! ```
//! use metaleak_crypto::engine::CryptoEngine;
//!
//! let engine = CryptoEngine::new(*b"an example key!!");
//! let plaintext = [7u8; 64];
//! let ciphertext = engine.encrypt_block(&plaintext, 0x40, 1);
//! assert_eq!(engine.decrypt_block(&ciphertext, 0x40, 1), plaintext);
//! ```

#![deny(missing_docs)]

pub mod aes;
pub mod engine;
pub mod ghash;
pub mod sha256;

pub use engine::{Block, CryptoEngine, CryptoLatency};
