//! Typed errors of the unified engine API.
//!
//! One error enum serves the whole stack: the functional scheme in
//! [`ark_ckks`] and the session layer in [`crate::engine`] both report
//! [`ArkError`], so a program written against the backend-agnostic
//! [`crate::engine::HeEvaluator`] trait propagates a single error type
//! regardless of which backend executes it.
//!
//! The variants split into three families:
//!
//! - **scheme usage errors** — [`ArkError::LevelMismatch`],
//!   [`ArkError::ScaleMismatch`], [`ArkError::MissingRotationKey`],
//!   [`ArkError::MissingConjugationKey`], [`ArkError::ModulusChainExhausted`],
//!   [`ArkError::LevelOutOfRange`] — raised by `ark-ckks` entry points
//!   and, for every evaluator of a session, by the one `(level, scale)`
//!   front in [`crate::verify`];
//! - **session errors** — [`ArkError::KeyChainMissing`],
//!   [`ArkError::UnsupportedOnBackend`] — raised by [`crate::engine::Engine`]
//!   when an operation needs material or a backend the session was not
//!   built with;
//! - **construction errors** — [`ArkError::InvalidParams`],
//!   [`ArkError::EntropyUnavailable`] — raised by
//!   [`crate::engine::EngineBuilder::build`].

pub use ark_ckks::error::{ArkError, ArkResult};
