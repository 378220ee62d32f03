//! # ark-fhe — reproduction of ARK (MICRO 2022)
//!
//! The front door is the [`engine`] module: a session-style [`Engine`]
//! over a backend-agnostic [`engine::HeEvaluator`] trait, so one HE
//! program executes functionally (real RNS-CKKS arithmetic, decryptable
//! results) or on the modeled ARK hardware (a cycle-level
//! [`arch::SimReport`]) without changing a line.
//!
//! Umbrella re-exports of the workspace members:
//!
//! - [`math`] — modular arithmetic, NTT, RNS polynomials, base conversion.
//! - [`ckks`] — the RNS-CKKS scheme with bootstrapping, Min-KS and OF-Limb.
//! - [`arch`] — the ARK accelerator model (cycle-level simulator).
//! - [`workloads`] — HE-op trace generators (H-(I)DFT, bootstrapping,
//!   HELR, ResNet-20, sorting) and analytic op counters.
//!
//! The serving layer lives one crate up: `ark-serve` (which depends on
//! this crate, so it is not re-exported here) hosts engines behind a
//! TCP protocol, shipping ciphertexts and keys through the
//! [`math::wire`] format.
//!
//! See `README.md` for a tour and `DESIGN.md` for the system inventory.

#![forbid(unsafe_code)]

pub mod engine;
pub mod error;
pub mod verify;

pub use ark_ckks as ckks;
pub use ark_core as arch;
pub use ark_math as math;
pub use ark_workloads as workloads;

pub use engine::{Backend, Engine, HeEvaluator, HeProgram, KeyChain, Outcome, ProgramInput};
pub use error::{ArkError, ArkResult};
pub use verify::{AbstractEvaluator, AbstractInput, VerifyContext, VerifyFinding, VerifyReport};
