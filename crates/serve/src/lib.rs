//! # ark-serve — a batched multi-session FHE serving runtime
//!
//! The missing deployment layer over [`ark_fhe`]: ciphertexts and keys
//! leave the process through the [`ark_math::wire`] format, sessions
//! multiplex onto one server process, and evaluation rides the
//! engine's limb-parallel thread pool.
//!
//! - [`Program`] — a wire-serializable register-based HE program (the
//!   transportable counterpart of [`ark_fhe::engine::HeProgram`]),
//!   defined in `ark_client::program` and re-exported here;
//! - the protocol — length-prefixed messages over TCP (`std::net`
//!   only, like everything in this workspace), every post-handshake
//!   message enveloped with a request id so one connection can
//!   pipeline. Its sans-I/O codecs are `ark_client::protocol`;
//! - [`server::Server`] — the serving runtime: a blocking reader and
//!   writer thread per connection (framing with the client's own
//!   `ark_client::protocol::MessageAssembler` and message writer),
//!   N workers popping one bounded job queue (typed `BUSY`
//!   load-shedding when it is full) and evaluating over one shared key
//!   chain per parameter set;
//! - [`client::Client`] — a blocking client: encrypt locally, evaluate
//!   remotely (serially or pipelined via tickets), decrypt locally.
//!   A thin `TcpStream` adapter over the sans-I/O
//!   `ark_client::ClientCore` state machine (which also compiles to
//!   wasm32 for browser transports).
//!
//! See `examples/serve_roundtrip.rs` for the loopback end-to-end flow
//! on both the software and the simulated backend, and the "Serving
//! fabric" and "Client core" sections of `DESIGN.md` for the
//! architecture.

#![forbid(unsafe_code)]

pub mod client;
pub mod server;

pub use ark_client::{EngineInfo, Program, Reg};
pub use client::{Client, ClientBuilder, Ticket};
pub use server::{Server, ServerConfig, ServerHandle};
