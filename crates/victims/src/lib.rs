//! # metaleak-victims
//!
//! Victim workloads for the MetaLeak case studies, implemented from
//! scratch so the leaking control flow is genuine:
//!
//! - [`bignum`] — arbitrary-precision arithmetic (the substrate);
//! - [`rsa`] — libgcrypt-style RSA with square-and-multiply modular
//!   exponentiation (§VIII-B1, Listing 2);
//! - [`modinv`] — mbedTLS-style binary extended-Euclidean modular
//!   inversion with the `shift_r`/`sub_mpi` gadget (§VIII-B2);
//! - [`jpeg`] — a libjpeg-style encoder with the `encode_one_block`
//!   zero/non-zero coefficient gadget (§VIII-A, Listing 1), plus the
//!   attacker's image-reconstruction pipeline.
//!
//! The victims are pure algorithms that *emit their secret-dependent
//! access events* through observer callbacks; the case-study glue
//! (`metaleak::casestudy`) maps those events onto simulated pages and
//! drives the MetaLeak monitors.

#![warn(missing_docs)]

pub mod bignum;
pub mod jpeg;
pub mod modinv;
pub mod rsa;

pub use bignum::BigUint;
pub use jpeg::GrayImage;
pub use rsa::RsaKey;

/// Fraction of positions where two sequences agree.
///
/// # Panics
/// Panics on length mismatch or empty input.
pub fn accuracy_of<T: PartialEq>(observed: &[T], truth: &[T]) -> f64 {
    assert_eq!(observed.len(), truth.len(), "length mismatch");
    assert!(!truth.is_empty(), "empty sequences");
    observed.iter().zip(truth).filter(|(a, b)| a == b).count() as f64 / truth.len() as f64
}
