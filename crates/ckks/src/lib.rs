//! # ark-ckks — RNS-CKKS with bootstrapping, Min-KS and OF-Limb
//!
//! A from-scratch implementation of the CKKS fully homomorphic
//! encryption scheme as described in the ARK paper (MICRO 2022),
//! including its two algorithmic contributions:
//!
//! - **Min-KS** (minimum key-switching): rewriting arithmetic-progression
//!   rotation patterns so whole BSGS passes reuse a single evaluation key;
//! - **OF-Limb** (on-the-fly limb extension): storing plaintexts as their
//!   `q_0` limb only and regenerating the remaining limbs at use time.
//!
//! Functional validation runs at reduced ring degrees; the paper-scale
//! parameter sets exist for data-size analytics and the `ark-core`
//! accelerator model.

#![forbid(unsafe_code)]

pub mod bootstrap;
pub mod ciphertext;
pub mod dft;
pub mod encoding;
pub mod error;
pub mod evalmod;
pub mod keys;
pub mod keyswitch;
pub mod lintrans;
pub mod minks;
pub mod oflimb;
pub mod ops;
pub mod packing;
pub mod params;
pub mod wire;

pub use ciphertext::{Ciphertext, Plaintext};
pub use error::{ArkError, ArkResult};
pub use keys::{EvalKey, PublicKey, RotationKeys, SecretKey};
pub use params::{CkksContext, CkksParams};
