//! # ark-net — length-prefixed message buffers, kept for the benchmark
//!
//! No product code uses this crate: `ark-serve` and `ark-client` frame
//! every message with `ark_client::protocol`'s `MessageAssembler`,
//! `open_message` and `close_message`. It stays only because
//! `benchmark/src/layers.rs` times [`FrameBuf`] and [`OutBuf`] (its
//! `net.framebuf_reassemble_us` and `net.outbuf_flush_us` rows) and
//! `benchmark/Cargo.lock` records the `ark-serve → ark-net` edge. It
//! goes once the benchmark times the product's framing instead.
//!
//! [`FrameBuf`] re-establishes `u32`-length-prefixed message boundaries
//! from bytes read in arbitrary splits, with the claimed length bounded
//! before anything is allocated; [`OutBuf`] queues outbound messages and
//! writes them out, surviving partial writes.

#![forbid(unsafe_code)]

mod conn;

pub use conn::{FrameBuf, OutBuf};
