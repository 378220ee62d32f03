//! # ark-net — length-prefixed message buffers
//!
//! The transport framing under `ark-serve`: each message is a `u32`
//! little-endian byte count, then the body. [`FrameBuf`] re-establishes
//! message boundaries from bytes read in arbitrary splits, with the
//! claimed length bounded before anything is allocated; [`OutBuf`]
//! queues outbound messages and writes them out, surviving partial
//! writes. No dependencies and no sockets: the caller owns the stream
//! and hands bytes in and writers down.

#![forbid(unsafe_code)]

mod conn;

pub use conn::{FrameBuf, OutBuf};
