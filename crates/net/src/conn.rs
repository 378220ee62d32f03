//! Per-connection buffered frame assembly and emission for
//! length-prefixed messages (`u32` little-endian byte count, then the
//! message body — the `ark-serve` transport envelope).
//!
//! Sockets deliver bytes in arbitrary splits; these buffers
//! re-establish message boundaries on the read side ([`FrameBuf`]) and
//! absorb partial writes on the write side ([`OutBuf`]). Both are
//! transport-only: the message bodies they carry are opaque here (the
//! `ARKW` frame validation lives a layer up).

use std::collections::VecDeque;
use std::io::{self, Write};

/// Reassembles length-prefixed messages from an arbitrary byte stream.
///
/// `max_message` bounds a single message's claimed length (a hostile
/// prefix must not drive the allocation); the caller bounds how many
/// bytes buffer up by how much it reads before draining messages.
#[derive(Debug)]
pub struct FrameBuf {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted once it outgrows the tail).
    start: usize,
    max_message: usize,
}

impl FrameBuf {
    /// An empty assembly buffer accepting messages up to `max_message`
    /// body bytes.
    pub fn new(max_message: usize) -> Self {
        Self {
            buf: Vec::new(),
            start: 0,
            max_message,
        }
    }

    /// Bytes currently buffered and not yet returned as messages.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Appends bytes as they were read off the stream.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete message body, if one is fully buffered.
    ///
    /// # Errors
    ///
    /// `InvalidData` when a length prefix is zero or exceeds
    /// `max_message` — the stream has no recoverable boundary after
    /// that, so the caller should drop the connection.
    pub fn next_message(&mut self) -> io::Result<Option<Vec<u8>>> {
        let avail = self.buffered();
        if avail < 4 {
            self.compact();
            return Ok(None);
        }
        let p = &self.buf[self.start..];
        let len = u32::from_le_bytes([p[0], p[1], p[2], p[3]]) as usize;
        if len == 0 || len > self.max_message {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("message length {len} outside 1..={}", self.max_message),
            ));
        }
        if avail < 4 + len {
            self.compact();
            return Ok(None);
        }
        let body = self.buf[self.start + 4..self.start + 4 + len].to_vec();
        self.start += 4 + len;
        self.compact();
        Ok(Some(body))
    }

    /// Reclaims the consumed prefix once it dominates the buffer, so
    /// long-lived connections do not grow without bound.
    fn compact(&mut self) {
        if self.start > 4096 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

/// Queues outbound messages and flushes them through a writer,
/// surviving partial writes (and `WouldBlock` from a nonblocking one).
/// Each queued message gets the `u32` length prefix on its way in.
#[derive(Debug, Default)]
pub struct OutBuf {
    /// Pending segments; the front one may be partially written.
    queue: VecDeque<Vec<u8>>,
    /// Write offset into the front segment.
    front_off: usize,
    /// Total unwritten bytes across all segments.
    pending: usize,
}

impl OutBuf {
    /// An empty emission buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Unwritten bytes queued (the number a slow reader is holding
    /// hostage — the server bounds this and sheds the connection past
    /// a budget).
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// True when everything queued has been written.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Queues one message (`body` travels after its length prefix).
    ///
    /// # Errors
    ///
    /// `InvalidInput` if the body exceeds the `u32` length space.
    pub fn push_message(&mut self, body: Vec<u8>) -> io::Result<()> {
        let len = u32::try_from(body.len()).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidInput, "message exceeds u32 length")
        })?;
        if len == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "empty messages are not representable on this transport",
            ));
        }
        self.pending += 4 + body.len();
        self.queue.push_back(len.to_le_bytes().to_vec());
        self.queue.push_back(body);
        Ok(())
    }

    /// Writes as much as the writer accepts: everything, on a blocking
    /// one. Returns `true` when the buffer fully drained.
    ///
    /// # Errors
    ///
    /// Transport errors other than `WouldBlock`/`Interrupted` pass
    /// through; the connection is unusable after one.
    pub fn flush(&mut self, w: &mut impl Write) -> io::Result<bool> {
        while let Some(front) = self.queue.front() {
            match w.write(&front[self.front_off..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    self.front_off += n;
                    self.pending -= n;
                    if self.front_off == front.len() {
                        self.queue.pop_front();
                        self.front_off = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(false)
                }
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_reassemble_across_arbitrary_splits() {
        let mut wire = Vec::new();
        let messages: Vec<Vec<u8>> = vec![vec![1], vec![2; 300], vec![3; 5]];
        for m in &messages {
            wire.extend_from_slice(&(m.len() as u32).to_le_bytes());
            wire.extend_from_slice(m);
        }
        // feed one byte at a time — the worst split
        let mut fb = FrameBuf::new(1024);
        let mut got = Vec::new();
        for &b in &wire {
            fb.push_bytes(&[b]);
            while let Some(m) = fb.next_message().unwrap() {
                got.push(m);
            }
        }
        assert_eq!(got, messages);
        assert_eq!(fb.buffered(), 0);
    }

    #[test]
    fn hostile_length_prefix_is_rejected() {
        let mut fb = FrameBuf::new(1024);
        fb.push_bytes(&u32::MAX.to_le_bytes());
        assert!(fb.next_message().is_err());
        let mut fb = FrameBuf::new(1024);
        fb.push_bytes(&0u32.to_le_bytes());
        assert!(fb.next_message().is_err());
    }

    /// A writer that accepts at most `cap` bytes per call and
    /// interleaves `WouldBlock`s.
    struct Dribble {
        out: Vec<u8>,
        cap: usize,
        calls: usize,
    }

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(3) {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "later"));
            }
            let n = buf.len().min(self.cap);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn outbuf_survives_partial_writes_and_wouldblock() {
        let mut ob = OutBuf::new();
        let bodies: Vec<Vec<u8>> = vec![vec![9; 10], vec![8; 500], vec![7; 3]];
        for b in &bodies {
            ob.push_message(b.clone()).unwrap();
        }
        let mut w = Dribble {
            out: Vec::new(),
            cap: 7,
            calls: 0,
        };
        while !ob.flush(&mut w).unwrap() {}
        assert!(ob.is_empty());
        // the byte stream parses back into the same messages
        let mut fb = FrameBuf::new(1024);
        fb.push_bytes(&w.out);
        for b in &bodies {
            assert_eq!(fb.next_message().unwrap().unwrap(), *b);
        }
        assert_eq!(fb.buffered(), 0);
    }
}
