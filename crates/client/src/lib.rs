//! # ark-client — the portable, sans-I/O client core
//!
//! Everything a client of an `ark-serve` server needs, minus the
//! socket: the wire-protocol codecs ([`protocol`]), the transportable
//! register-based HE program IR ([`program`]), and the
//! [`core::ClientCore`] state machine that turns raw bytes into typed
//! protocol [`core::Event`]s and typed errors.
//!
//! The crate never touches `std::net`, `std::thread`, or a clock, so
//! it compiles for `wasm32-unknown-unknown` as-is — a browser client
//! encrypts locally, moves bytes through `fetch`/WebSocket glue, and
//! drives the exact state machine the native client uses. The blocking
//! TCP transport is `ark_serve::Client`, a thin adapter over
//! [`core::ClientCore`].
//!
//! Every decoder in this crate is *total* over untrusted bytes:
//! malformed input yields a typed [`ark_ckks::error::ArkError`], never
//! a panic, and declared lengths are bounded before any allocation.
//! The workspace `fuzz/` harness drives these entry points directly.

#![forbid(unsafe_code)]

pub mod core;
pub mod program;
pub mod protocol;

pub use crate::core::{ClientCore, CoreConfig, Event, Ticket};
pub use crate::program::{Program, Reg};
pub use crate::protocol::EngineInfo;
