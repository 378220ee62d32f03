//! Blocking length-prefixed message I/O for the raw-socket test peers.
#![allow(dead_code)] // each test binary uses its own subset

use std::io::{self, Read, Write};

/// Writes one `u32`-length-prefixed message.
pub fn send(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)
}

/// Reads one message, bounding the declared length before allocating.
pub fn recv(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if !(1..=1 << 20).contains(&len) {
        return Err(io::ErrorKind::InvalidData.into());
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(body)
}
