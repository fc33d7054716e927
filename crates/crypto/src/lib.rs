//! Cryptographic substrate for the RMCC secure-memory reproduction.
//!
//! This crate implements, from scratch, every cryptographic building block
//! the paper *"Self-Reinforcing Memoization for Cryptography Calculations in
//! Secure Memory Systems"* (MICRO 2022) relies on:
//!
//! * [`aes`] — FIPS-197 AES-128/AES-256 block encryption (encrypt-only, as
//!   counter mode needs), selectable per [`Backend`]: byte-wise reference,
//!   T-tables (`fast`, the default), or the bitsliced constant-time
//!   `hardened` circuit that processes 8 blocks per call.
//! * [`clmul`] — carry-less multiplication, including RMCC's truncated
//!   128×128→128 middle-bits combiner (Figure 11).
//! * [`otp`] — one-time-pad pipelines: the SGX-style baseline (address and
//!   counter in a single AES) and RMCC's split counter-only/address-only
//!   pipeline.
//! * [`mac`] — Galois-field dot-product MACs and pad-XOR block
//!   encryption/decryption (Figure 2).
//! * [`nist`] — a subset of the NIST SP 800-22 randomness suite used to
//!   reproduce the paper's §IV-D1 empirical randomness check.
//! * [`stats`] — the static invocation-cost model (AES/clmul per block per
//!   pipeline) and the deterministic paid/saved tally telemetry consumes.
//!
//! # Example: encrypt, MAC, verify, decrypt
//!
//! ```
//! use rmcc_crypto::mac::{compute_mac, verify_mac, xor_with_pads, MacKeys};
//! use rmcc_crypto::otp::{KeySet, OtpPipeline, RmccOtp};
//!
//! let pipeline = RmccOtp::new(KeySet::from_master(42));
//! let mac_keys = MacKeys::from_seed(42);
//!
//! let plaintext = [0x5au8; 64];
//! let (addr, counter) = (0x1234, 17);
//!
//! // Write path: encrypt + MAC.
//! let pads = pipeline.block_pads(addr, counter);
//! let ciphertext = xor_with_pads(&plaintext, &pads);
//! let mac = compute_mac(&mac_keys, &ciphertext, pads.mac);
//!
//! // Read path: verify + decrypt.
//! assert!(verify_mac(&mac_keys, &ciphertext, pads.mac, mac));
//! assert_eq!(xor_with_pads(&ciphertext, &pads), plaintext);
//! ```

#![forbid(unsafe_code)]
// Test code may use lossy casts freely; clippy.toml has no in-tests knob for them.
#![cfg_attr(test, allow(clippy::cast_possible_truncation))]
#![deny(missing_docs)]

pub mod aes;
mod bitslice;
pub mod clmul;
pub mod mac;
pub mod nist;
pub mod otp;
pub mod stats;

pub use aes::{encrypt_u128_lanes, Aes, AesVariant, Backend, KeyLengthError};
pub use clmul::{clmul128, clmul64, clmul_truncate_mid, Product256};
pub use mac::{compute_mac, verify_mac, xor_with_pads, DataBlock, MacKeys};
pub use otp::{BlockPads, KeySet, OtpPipeline, PadPurpose, RmccOtp, SgxOtp};
pub use stats::{CryptoCost, CryptoStats};
