//! The `ark-wire` binary format: versioned, self-describing frames for
//! everything that crosses a process boundary.
//!
//! A deployment of the paper's system ships ciphertexts, plaintexts and
//! evaluation keys between clients and an accelerator-backed server —
//! the very bytes whose movement dominates ARK's cost model. This
//! module defines the byte-level container those objects travel in and
//! the codec for the one type this crate owns, [`RnsPoly`]. Higher
//! layers (`ark-ckks`, `ark-core`, `ark-serve`) stack their own
//! payloads inside the same frame.
//!
//! # Frame layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//!      0     4  magic  b"ARKW"
//!      4     2  format version (currently 3)
//!      6     2  kind tag (what the payload encodes; see `kind`)
//!      8     8  parameter-set fingerprint (0 if not parameter-bound)
//!     16     8  payload length `len` in bytes
//!     24   len  payload
//! 24+len     8  XXH64 (seed 0) checksum over bytes [0, 24+len)
//! ```
//!
//! # One hashing pass
//!
//! The checksum is XXH64 (seed 0): four independent multiply-rotate
//! lanes over each 32-byte stripe. It hashed a 480 KiB buffer in about
//! 55 µs (≈ 9 GB/s) on a 2-core Xeon host where FNV-1a — a byte-serial
//! xor-multiply chain, frame version 1's checksum — took 740 µs and a
//! copy 15 µs. A frame nested in another frame's payload (a ciphertext
//! inside an `EVALUATE`) sits in two chains, and every producer and
//! consumer here still walks a buffer **once**, whatever its nesting:
//! each cache-sized chunk of a nested frame goes into both chains
//! before the walk moves on. [`FrameWriter`] seals an outer frame and
//! the frames nested in it in one pass, [`read_nested_frames`] verifies
//! them in one pass, and [`checksum`], [`write_frame`] and
//! [`read_frame`] are the same pass with nothing nested.
//!
//! # Residues at their prime's byte width
//!
//! A limb row of an [`RnsPoly`] holds `N` residues modulo one prime
//! `q_i`, and only `bits(q_i)` of each residue's 64 bits carry
//! information. [`encode_poly`] ships each in `k_i = ⌈bits(q_i)/8⌉`
//! bytes, with `k_i` read from the basis both ends share (the parameter
//! fingerprint binds it), not from the data: every length stays a
//! function of shape and the header has no width field. A ciphertext
//! over the `small` chain (one 55-bit and nine 40- or 41-bit primes)
//! takes 54 bytes per coefficient instead of 80. The packing is by
//! whole bytes: each residue is one unaligned 8-byte store or load, and
//! a bit-granular form cost more codec time than its few extra saved
//! bytes were worth.
//!
//! # Versioning rules
//!
//! The version covers the *frame container and every payload codec*: any
//! incompatible payload change bumps it, and readers reject frames whose
//! version differs from [`VERSION`] with
//! [`WireError::UnsupportedVersion`] — there is no silent best-effort
//! parse. The kind tag namespace is append-only; tags are never reused.
//!
//! # Safety on untrusted bytes
//!
//! Every `read_*` path is total: truncation, corruption and
//! out-of-range values surface as typed [`WireError`]s, never panics or
//! unbounded allocations (reads are bounds-checked against the actual
//! buffer before any vector is reserved).

use crate::poly::{Representation, RnsBasis, RnsPoly};
use std::ops::Range;

/// The four magic bytes opening every frame.
pub const MAGIC: [u8; 4] = *b"ARKW";

/// Current (and only) wire-format version. Version 3 ships each
/// residue of an [`RnsPoly`] limb row in its prime's byte width
/// ([`encode_poly`]) instead of a full `u64`; version 2 replaced version
/// 1's FNV-1a checksum with XXH64.
pub const VERSION: u16 = 3;

/// Fixed bytes before the payload: magic + version + kind + fingerprint
/// + payload length.
pub const HEADER_LEN: usize = 4 + 2 + 2 + 8 + 8;

/// Trailing checksum bytes.
pub const CHECKSUM_LEN: usize = 8;

/// Well-known kind tags. The namespace is append-only and shared by all
/// layers: `ark-math` owns 1, `ark-ckks` 3 and 8–10, `ark-core` 7,
/// and the `ark-serve` protocol 0x10–0x1F.
///
/// Tags 2, 4, 5 and 6 — the materialized plaintext, public-key,
/// evaluation-key and rotation-key-set frames — are *retired, never
/// reused*: keys ship only seed-compressed (8–10) and no peer sends a
/// plaintext, so a frame carrying one of them is a typed
/// [`WireError::WrongKind`] to every reader.
pub mod kind {
    /// A bare [`super::RnsPoly`](crate::poly::RnsPoly).
    pub const RNS_POLY: u16 = 1;
    /// An `ark-ckks` ciphertext.
    pub const CIPHERTEXT: u16 = 3;
    /// An `ark-core` simulation report.
    pub const SIM_REPORT: u16 = 7;
    /// An `ark-ckks` seed-compressed evaluation key (`a` halves
    /// re-derived from a seed; only the `b` halves ship).
    pub const COMPRESSED_EVAL_KEY: u16 = 8;
    /// An `ark-ckks` seed-compressed public key.
    pub const COMPRESSED_PUBLIC_KEY: u16 = 9;
    /// An `ark-ckks` seed-compressed rotation-key set.
    pub const COMPRESSED_ROTATION_KEYS: u16 = 10;
}

/// Typed failure of a wire read. Wrapped as `ArkError::Wire` by the
/// scheme layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WireError {
    /// The buffer ends before the structure it claims to hold.
    Truncated {
        /// Bytes the read needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The frame does not open with [`MAGIC`].
    BadMagic {
        /// The four bytes found instead.
        found: [u8; 4],
    },
    /// The frame was written by an incompatible format version.
    UnsupportedVersion {
        /// Version in the frame header.
        found: u16,
        /// Version this reader implements.
        supported: u16,
    },
    /// The frame holds a different kind of payload than requested.
    WrongKind {
        /// Kind tag the caller expected.
        expected: u16,
        /// Kind tag in the header.
        found: u16,
    },
    /// The checksum does not match the frame content (corruption).
    ChecksumMismatch {
        /// Checksum recomputed over the received bytes.
        computed: u64,
        /// Checksum stored in the frame.
        stored: u64,
    },
    /// The frame was produced under a different parameter set.
    FingerprintMismatch {
        /// Fingerprint of the decoder's parameter set.
        expected: u64,
        /// Fingerprint in the frame header.
        found: u64,
    },
    /// The payload is structurally invalid (bad enum tag, out-of-range
    /// residue, inconsistent shape, …).
    Malformed {
        /// Human-readable description of the violation.
        what: String,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, available } => {
                write!(f, "truncated frame: needed {needed} bytes, had {available}")
            }
            WireError::BadMagic { found } => {
                write!(f, "bad magic {found:02x?} (expected {MAGIC:02x?})")
            }
            WireError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported wire version {found} (reader speaks {supported})"
                )
            }
            WireError::WrongKind { expected, found } => {
                write!(f, "wrong frame kind {found} (expected {expected})")
            }
            WireError::ChecksumMismatch { computed, stored } => {
                write!(
                    f,
                    "checksum mismatch: computed {computed:#018x}, frame stores {stored:#018x}"
                )
            }
            WireError::FingerprintMismatch { expected, found } => {
                write!(
                    f,
                    "parameter fingerprint mismatch: decoder has {expected:#018x}, \
                     frame was produced under {found:#018x}"
                )
            }
            WireError::Malformed { what } => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Result alias for wire reads.
pub type WireResult<T> = Result<T, WireError>;

// ---------------------------------------------------------------------
// checksum
// ---------------------------------------------------------------------

const PRIME_1: u64 = 0x9e37_79b1_85eb_ca87;
const PRIME_2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const PRIME_3: u64 = 0x1656_67b1_9e37_79f9;
const PRIME_4: u64 = 0x85eb_ca77_c2b2_ae63;
const PRIME_5: u64 = 0x27d4_eb2f_1656_67c5;

/// XXH64's stripe: four independent 8-byte lanes.
const STRIPE: usize = 32;

/// Bytes one step of a nested walk feeds to both chains: small enough
/// that the outer chain reads what the nested one just pulled into L1.
const WALK_CHUNK: usize = 4096;

#[cfg(test)]
thread_local! {
    /// Bytes walked by the pass on this thread, and the byte count of
    /// each chain as it was digested, in order — lets a test pin "one
    /// walk over the buffer, every chain fed exactly its own bytes".
    static LEDGER: std::cell::RefCell<(usize, Vec<u64>)> =
        const { std::cell::RefCell::new((0, Vec::new())) };
}

fn round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(PRIME_2))
        .rotate_left(31)
        .wrapping_mul(PRIME_1)
}

fn merge(acc: u64, lane: u64) -> u64 {
    (acc ^ round(0, lane))
        .wrapping_mul(PRIME_1)
        .wrapping_add(PRIME_4)
}

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("len 8"))
}

/// Streaming XXH64 with seed 0 (the published xxHash specification):
/// four independent lanes advance over each 32-byte stripe, so four
/// multiplies are in flight where a byte-serial hash has one. The
/// digest of a byte string does not depend on how it was split into
/// [`Xxh64::update`] calls.
struct Xxh64 {
    lanes: [u64; 4],
    /// The bytes of the unfinished stripe.
    tail: [u8; STRIPE],
    tail_len: usize,
    total: u64,
}

impl Xxh64 {
    fn new() -> Self {
        Self {
            lanes: [
                PRIME_1.wrapping_add(PRIME_2),
                PRIME_2,
                0,
                PRIME_1.wrapping_neg(),
            ],
            tail: [0; STRIPE],
            tail_len: 0,
            total: 0,
        }
    }

    fn update(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.tail_len > 0 {
            let take = (STRIPE - self.tail_len).min(bytes.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < STRIPE {
                return;
            }
            let tail = self.tail;
            self.stripes(&tail);
            self.tail_len = 0;
        }
        let whole = bytes.len() - bytes.len() % STRIPE;
        self.stripes(&bytes[..whole]);
        let rest = &bytes[whole..];
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    /// Folds whole stripes into the lanes.
    fn stripes(&mut self, bytes: &[u8]) {
        let [mut a, mut b, mut c, mut d] = self.lanes;
        for s in bytes.chunks_exact(STRIPE) {
            a = round(a, le_u64(&s[0..]));
            b = round(b, le_u64(&s[8..]));
            c = round(c, le_u64(&s[16..]));
            d = round(d, le_u64(&s[24..]));
        }
        self.lanes = [a, b, c, d];
    }

    fn digest(&self) -> u64 {
        #[cfg(test)]
        LEDGER.with(|l| l.borrow_mut().1.push(self.total));
        let [a, b, c, d] = self.lanes;
        let mut acc = if self.total >= STRIPE as u64 {
            let acc = a
                .rotate_left(1)
                .wrapping_add(b.rotate_left(7))
                .wrapping_add(c.rotate_left(12))
                .wrapping_add(d.rotate_left(18));
            [a, b, c, d].into_iter().fold(acc, merge)
        } else {
            PRIME_5
        };
        acc = acc.wrapping_add(self.total);
        let mut rest = &self.tail[..self.tail_len];
        while rest.len() >= 8 {
            acc = (acc ^ round(0, le_u64(rest)))
                .rotate_left(27)
                .wrapping_mul(PRIME_1)
                .wrapping_add(PRIME_4);
            rest = &rest[8..];
        }
        if rest.len() >= 4 {
            let lane = u32::from_le_bytes(rest[..4].try_into().expect("len 4")) as u64;
            acc = (acc ^ lane.wrapping_mul(PRIME_1))
                .rotate_left(23)
                .wrapping_mul(PRIME_2)
                .wrapping_add(PRIME_3);
            rest = &rest[4..];
        }
        for &byte in rest {
            acc = (acc ^ (byte as u64).wrapping_mul(PRIME_5))
                .rotate_left(11)
                .wrapping_mul(PRIME_1);
        }
        acc ^= acc >> 33;
        acc = acc.wrapping_mul(PRIME_2);
        acc ^= acc >> 29;
        acc = acc.wrapping_mul(PRIME_3);
        acc ^ (acc >> 32)
    }
}

/// The one walk: feeds `bytes` to the outer chain and, inside a nested
/// frame, to that frame's chain too, a chunk at a time so that each
/// byte is read from memory once.
fn walk(outer: &mut Xxh64, mut inner: Option<&mut Xxh64>, bytes: &[u8]) {
    #[cfg(test)]
    LEDGER.with(|l| l.borrow_mut().0 += bytes.len());
    for chunk in bytes.chunks(WALK_CHUNK) {
        if let Some(inner) = inner.as_deref_mut() {
            inner.update(chunk);
        }
        outer.update(chunk);
    }
}

/// One pass over a frame's bytes: the outer frame's chain, and where
/// the pass crosses a nested frame, that frame's chain beside it.
struct Chains {
    outer: Xxh64,
    /// Bytes `[0, pos)` are in the outer chain.
    pos: usize,
}

impl Chains {
    fn new() -> Self {
        Self {
            outer: Xxh64::new(),
            pos: 0,
        }
    }

    /// Advances the outer chain alone to `end`.
    fn advance(&mut self, bytes: &[u8], end: usize) {
        walk(&mut self.outer, None, &bytes[self.pos..end]);
        self.pos = end;
    }

    /// Advances the outer chain alone to `end` and returns its digest.
    fn outer_to(&mut self, bytes: &[u8], end: usize) -> u64 {
        self.advance(bytes, end);
        self.outer.digest()
    }

    /// Advances the outer chain to the nested frame at `frame`, then
    /// both chains over its header and payload. Returns the nested
    /// chain's digest and stops *at* its checksum slot, which the outer
    /// chain hashes next — after a sealer has filled it.
    fn nested(&mut self, bytes: &[u8], frame: &Range<usize>) -> u64 {
        self.advance(bytes, frame.start);
        let slot = frame.end - CHECKSUM_LEN;
        let mut inner = Xxh64::new();
        walk(&mut self.outer, Some(&mut inner), &bytes[frame.start..slot]);
        self.pos = slot;
        inner.digest()
    }
}

/// XXH64 (seed 0) over `bytes` — fast, dependency-free corruption
/// detection (not a MAC; authenticity is out of scope for the wire
/// layer).
pub fn checksum(bytes: &[u8]) -> u64 {
    Chains::new().outer_to(bytes, bytes.len())
}

// ---------------------------------------------------------------------
// little-endian write helpers
// ---------------------------------------------------------------------

/// Appends a `u16` little-endian.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32` little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `i64` little-endian.
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its IEEE-754 bit pattern, little-endian.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

// ---------------------------------------------------------------------
// bounds-checked reader
// ---------------------------------------------------------------------

/// A bounds-checked cursor over a payload: every read either yields a
/// value or a typed [`WireError::Truncated`].
#[derive(Debug, Clone, Copy)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Takes `n` raw bytes.
    pub fn take(&mut self, n: usize) -> WireResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> WireResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> WireResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> WireResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> WireResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> WireResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads an IEEE-754 `f64`.
    pub fn f64(&mut self) -> WireResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Asserts the payload was fully consumed (trailing garbage is a
    /// framing bug, not padding).
    pub fn finish(&self) -> WireResult<()> {
        if self.remaining() != 0 {
            return Err(WireError::Malformed {
                what: format!("{} unconsumed payload bytes", self.remaining()),
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// frames
// ---------------------------------------------------------------------

/// A decoded frame header plus a borrowed view of its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// Kind tag of the payload.
    pub kind: u16,
    /// Parameter-set fingerprint the frame was produced under.
    pub fingerprint: u64,
    /// The payload bytes (checksum verified, unless the frame came
    /// from [`peek_frame`]).
    pub payload: &'a [u8],
}

impl<'a> Frame<'a> {
    /// Checks the kind tag and the parameter fingerprint — the common
    /// opening of every typed decoder.
    pub fn expecting(self, kind: u16, fingerprint: u64) -> WireResult<Self> {
        if self.kind != kind {
            return Err(WireError::WrongKind {
                expected: kind,
                found: self.kind,
            });
        }
        if self.fingerprint != fingerprint {
            return Err(WireError::FingerprintMismatch {
                expected: fingerprint,
                found: self.fingerprint,
            });
        }
        Ok(self)
    }
}

/// Writes one frame, and the frames nested in its payload, straight
/// into a caller's buffer, then seals every checksum in one hashing
/// pass ([`FrameWriter::finish`]). Payload encoders append through
/// [`FrameWriter::payload`]; until `finish` the checksum slots are
/// blank, so a writer that is dropped instead leaves no valid frame.
#[must_use = "a frame is not sealed until `.finish()` is called"]
#[derive(Debug)]
pub struct FrameWriter<'a> {
    out: &'a mut Vec<u8>,
    /// Where the outer frame starts in `out`.
    start: usize,
    /// The nested frames, relative to `start`.
    nested: Vec<Range<usize>>,
}

impl<'a> FrameWriter<'a> {
    /// Appends a frame header to `out`; the payload follows.
    pub fn begin(out: &'a mut Vec<u8>, kind: u16, fingerprint: u64) -> Self {
        let start = out.len();
        put_header(out, kind, fingerprint);
        Self {
            out,
            start,
            nested: Vec::new(),
        }
    }

    /// The buffer, for appending payload bytes.
    pub fn payload(&mut self) -> &mut Vec<u8> {
        self.out
    }

    /// Appends a whole frame to the payload: header, whatever `body`
    /// appends, and a checksum slot that [`FrameWriter::finish`] fills
    /// in the same pass as the outer one.
    pub fn nest(&mut self, kind: u16, fingerprint: u64, body: impl FnOnce(&mut Vec<u8>)) {
        let start = self.out.len();
        put_header(self.out, kind, fingerprint);
        body(self.out);
        close_frame(self.out, start);
        self.nested
            .push(start - self.start..self.out.len() - self.start);
    }

    /// Closes the frame and seals it and every nested frame: each byte
    /// is hashed in one loop, a nested byte into both of its chains.
    pub fn finish(self) {
        close_frame(self.out, self.start);
        let frame = &mut self.out[self.start..];
        let mut chains = Chains::new();
        for n in &self.nested {
            let sum = chains.nested(frame, n);
            frame[n.end - CHECKSUM_LEN..n.end].copy_from_slice(&sum.to_le_bytes());
        }
        let slot = frame.len() - CHECKSUM_LEN;
        let sum = chains.outer_to(frame, slot);
        frame[slot..].copy_from_slice(&sum.to_le_bytes());
    }
}

fn put_header(out: &mut Vec<u8>, kind: u16, fingerprint: u64) {
    out.extend_from_slice(&MAGIC);
    put_u16(out, VERSION);
    put_u16(out, kind);
    put_u64(out, fingerprint);
    put_u64(out, 0); // payload length, patched by `close_frame`
}

/// Patches the payload length of the frame begun at `start` and
/// reserves its checksum slot.
fn close_frame(out: &mut Vec<u8>, start: usize) {
    let len = (out.len() - start - HEADER_LEN) as u64;
    out[start + 16..start + HEADER_LEN].copy_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&[0; CHECKSUM_LEN]);
}

/// Wraps a payload in a full frame: header, payload, checksum.
pub fn write_frame(kind: u16, fingerprint: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + CHECKSUM_LEN);
    let mut frame = FrameWriter::begin(&mut out, kind, fingerprint);
    frame.payload().extend_from_slice(payload);
    frame.finish();
    out
}

/// Parses the header of the frame at the front of `bytes` and bounds
/// its declared length against the buffer — every check of
/// [`read_frame`] but the checksum, and not a payload byte touched. The
/// frame it returns is **unverified**: good for routing on the kind
/// tag and for finding where nested frames lie, nothing else.
pub fn peek_frame(bytes: &[u8]) -> WireResult<(Frame<'_>, usize)> {
    // the smallest well-formed frame is an empty payload between the
    // header and the checksum; anything shorter cannot hold both
    // (found by fuzz_frame: a buffer in HEADER_LEN..HEADER_LEN+CHECKSUM_LEN
    // declaring payload_len 0 overran the checksum slice)
    if bytes.len() < HEADER_LEN + CHECKSUM_LEN {
        return Err(WireError::Truncated {
            needed: HEADER_LEN + CHECKSUM_LEN,
            available: bytes.len(),
        });
    }
    let magic: [u8; 4] = bytes[0..4].try_into().expect("len 4");
    if magic != MAGIC {
        return Err(WireError::BadMagic { found: magic });
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().expect("len 2"));
    if version != VERSION {
        return Err(WireError::UnsupportedVersion {
            found: version,
            supported: VERSION,
        });
    }
    let kind = u16::from_le_bytes(bytes[6..8].try_into().expect("len 2"));
    let fingerprint = u64::from_le_bytes(bytes[8..16].try_into().expect("len 8"));
    let payload_len = u64::from_le_bytes(bytes[16..24].try_into().expect("len 8"));
    // bound the length against the buffer *before* any arithmetic that
    // could overflow or any allocation an attacker could inflate
    let body = bytes.len() - (HEADER_LEN + CHECKSUM_LEN);
    if payload_len > body as u64 {
        // the declared length may not fit a 32-bit `usize`: saturate
        let needed = usize::try_from(payload_len)
            .ok()
            .and_then(|len| len.checked_add(HEADER_LEN + CHECKSUM_LEN))
            .unwrap_or(usize::MAX);
        return Err(WireError::Truncated {
            needed,
            available: bytes.len(),
        });
    }
    let payload_len = payload_len as usize;
    Ok((
        Frame {
            kind,
            fingerprint,
            payload: &bytes[HEADER_LEN..HEADER_LEN + payload_len],
        },
        HEADER_LEN + payload_len + CHECKSUM_LEN,
    ))
}

/// A verified frame together with the frames nested in its payload.
#[derive(Debug, Clone, PartialEq)]
pub struct NestedFrames<'a> {
    /// The outer frame.
    pub frame: Frame<'a>,
    /// Total bytes the outer frame occupies.
    pub used: usize,
    /// What [`read_frame`] would return on each nested frame, in
    /// order. A malformed header ends the list with its error: nothing
    /// says where the next frame would start.
    pub nested: Vec<WireResult<(Frame<'a>, usize)>>,
}

/// [`read_frame`] for a frame whose payload holds `count` frames back
/// to back from payload offset `first`: verifies the outer checksum and
/// every nested one in a single pass over the bytes. A header-only walk
/// finds the nested frames first, each declared length bounded by the
/// enclosing payload before a byte is hashed. An outer failure is the
/// error, as it would be from `read_frame`; nested failures are
/// reported per frame, so a consumer meets them in payload order.
///
/// # Panics
///
/// If `first` lies beyond the payload.
pub fn read_nested_frames(
    bytes: &[u8],
    first: usize,
    count: usize,
) -> WireResult<NestedFrames<'_>> {
    let (frame, used) = peek_frame(bytes)?;
    let mut nested = Vec::new();
    let mut at = first;
    for _ in 0..count {
        let walked = peek_frame(&frame.payload[at..]);
        let len = walked.as_ref().map(|(_, len)| *len).ok();
        nested.push(walked);
        match len {
            Some(len) => at += len,
            None => break,
        }
    }
    let mut chains = Chains::new();
    let mut start = HEADER_LEN + first;
    for result in &mut nested {
        let Ok((_, len)) = *result else { break };
        let computed = chains.nested(bytes, &(start..start + len));
        start += len;
        if let Err(e) = check_slot(bytes, start, computed) {
            *result = Err(e);
        }
    }
    let computed = chains.outer_to(bytes, used - CHECKSUM_LEN);
    check_slot(bytes, used, computed)?;
    Ok(NestedFrames {
        frame,
        used,
        nested,
    })
}

/// Compares a chain with the checksum stored in the slot ending at
/// `frame_end`.
fn check_slot(bytes: &[u8], frame_end: usize, computed: u64) -> WireResult<()> {
    let stored = u64::from_le_bytes(
        bytes[frame_end - CHECKSUM_LEN..frame_end]
            .try_into()
            .expect("len 8"),
    );
    if computed != stored {
        return Err(WireError::ChecksumMismatch { computed, stored });
    }
    Ok(())
}

/// Parses one frame from the front of `bytes`, verifying magic, version
/// and checksum. Returns the frame and the total bytes it consumed (so
/// frames can be concatenated).
pub fn read_frame(bytes: &[u8]) -> WireResult<(Frame<'_>, usize)> {
    let read = read_nested_frames(bytes, 0, 0)?;
    Ok((read.frame, read.used))
}

/// Like [`read_frame`], but additionally checks the kind tag and the
/// parameter fingerprint — the common shape of every typed decoder.
pub fn read_frame_expecting(
    bytes: &[u8],
    kind: u16,
    fingerprint: u64,
) -> WireResult<(Frame<'_>, usize)> {
    let (frame, used) = read_frame(bytes)?;
    Ok((frame.expecting(kind, fingerprint)?, used))
}

// ---------------------------------------------------------------------
// RnsPoly codec
// ---------------------------------------------------------------------

/// Bytes one residue modulo `q` occupies in a limb row: `⌈bits(q)/8⌉`.
fn residue_width(q: u64) -> usize {
    (64 - q.leading_zeros() as usize).div_ceil(8)
}

/// Bytes of the limb rows of a degree-`n` poly over `indices`.
fn rows_len(n: usize, indices: &[usize], basis: &RnsBasis) -> usize {
    let widths: usize = indices
        .iter()
        .map(|&idx| residue_width(basis.modulus(idx).value()))
        .sum();
    n * widths
}

/// Payload bytes [`encode_poly`] will emit for `poly` over `basis`: a
/// function of the poly's shape and the basis, never of its residues.
pub fn poly_encoded_len(poly: &RnsPoly, basis: &RnsBasis) -> usize {
    // n, rep, limb count, per-limb basis index, then the limb rows
    4 + 1 + 2 + poly.level_count() * 4 + rows_len(poly.n(), poly.limb_indices(), basis)
}

/// Appends the payload encoding of `poly`, whose limbs are over
/// `basis`:
///
/// ```text
/// u32 n | u8 representation | u16 limb_count
/// limb_count × u32 basis index
/// limb_count × n × k_i-byte residues, k_i = ⌈bits(q_i)/8⌉
/// ```
///
/// Each limb row is its `n` residues back to back, little-endian, each
/// in the `k_i` bytes its prime needs: a 40-bit prime's residues take 5
/// bytes, not 8. The width comes from the basis, so the row lengths are
/// known from the header alone. The output is sized once; every residue
/// is one 8-byte store at stride `k_i`, the next store overwriting its
/// zero high bytes, and the slack past the last one is cut off.
pub fn encode_poly(out: &mut Vec<u8>, poly: &RnsPoly, basis: &RnsBasis) {
    put_u32(out, poly.n() as u32);
    out.push(match poly.representation() {
        Representation::Coefficient => 0,
        Representation::Evaluation => 1,
    });
    put_u16(out, poly.level_count() as u16);
    for &idx in poly.limb_indices() {
        put_u32(out, idx as u32);
    }
    let mut at = out.len();
    let end = at + rows_len(poly.n(), poly.limb_indices(), basis);
    out.resize(end + 8, 0);
    let rows = poly.flat().chunks_exact(poly.n());
    for (&idx, row) in poly.limb_indices().iter().zip(rows) {
        let k = residue_width(basis.modulus(idx).value());
        for &w in row {
            out[at..at + 8].copy_from_slice(&w.to_le_bytes());
            at += k;
        }
    }
    out.truncate(end);
}

/// Reads one limb row of `n` residues `k` bytes wide from the front of
/// `bytes` into `data`, returning whether any was `≥ q`. A residue is
/// one 8-byte load, masked to `k` bytes; only the last few of the
/// buffer, whose load would run past its end, are copied out first.
fn read_row(bytes: &[u8], n: usize, k: usize, q: u64, data: &mut Vec<u64>) -> bool {
    let mask = u64::MAX >> (64 - 8 * k);
    let whole = if bytes.len() >= 8 {
        ((bytes.len() - 8) / k + 1).min(n)
    } else {
        0
    };
    let mut unreduced = false;
    data.extend((0..whole).map(|j| {
        let w = le_u64(&bytes[j * k..j * k + 8]) & mask;
        unreduced |= w >= q;
        w
    }));
    data.extend(bytes[whole * k..n * k].chunks_exact(k).map(|r| {
        let mut word = [0; 8];
        word[..k].copy_from_slice(r);
        let w = u64::from_le_bytes(word);
        unreduced |= w >= q;
        w
    }));
    unreduced
}

/// Decodes a polynomial, validating every field against `basis`: the
/// degree must match, each limb index must name a basis prime (no
/// duplicates), and every residue must be reduced modulo its prime.
/// Attacker-controlled bytes can therefore never materialize a poly
/// that violates the invariants the panic-checking ops rely on. The
/// rows' bytes are bounds-checked before the residue buffer is
/// allocated; it holds at most `8 / min k_i` times the row bytes.
pub fn decode_poly(cur: &mut Cursor<'_>, basis: &RnsBasis) -> WireResult<RnsPoly> {
    let n = cur.u32()? as usize;
    if n != basis.n() {
        return Err(WireError::Malformed {
            what: format!("poly degree {n} does not match basis degree {}", basis.n()),
        });
    }
    let rep = match cur.u8()? {
        0 => Representation::Coefficient,
        1 => Representation::Evaluation,
        t => {
            return Err(WireError::Malformed {
                what: format!("unknown representation tag {t}"),
            })
        }
    };
    let limb_count = cur.u16()? as usize;
    if limb_count == 0 || limb_count > basis.len() {
        return Err(WireError::Malformed {
            what: format!(
                "limb count {limb_count} outside 1..={} for this basis",
                basis.len()
            ),
        });
    }
    let mut indices = Vec::with_capacity(limb_count);
    for _ in 0..limb_count {
        let idx = cur.u32()? as usize;
        if idx >= basis.len() {
            return Err(WireError::Malformed {
                what: format!("limb index {idx} outside basis of {} primes", basis.len()),
            });
        }
        if indices.contains(&idx) {
            return Err(WireError::Malformed {
                what: format!("duplicate limb index {idx}"),
            });
        }
        indices.push(idx);
    }
    // remaining payload must cover the rows before any allocation
    let rows_needed = rows_len(n, &indices, basis);
    if cur.remaining() < rows_needed {
        return Err(WireError::Truncated {
            needed: rows_needed,
            available: cur.remaining(),
        });
    }
    // fill the flat limb-major buffer directly — the wire layout already
    // streams whole limb rows in storage order
    let mut data = Vec::with_capacity(limb_count * n);
    for &idx in &indices {
        let q = basis.modulus(idx).value();
        let k = residue_width(q);
        let row = data.len();
        if read_row(&cur.bytes[cur.pos..], n, k, q, &mut data) {
            let w = data[row..].iter().find(|&&w| w >= q).expect("flagged row");
            return Err(WireError::Malformed {
                what: format!("residue {w} not reduced modulo q_{idx} = {q}"),
            });
        }
        cur.pos += n * k;
    }
    Ok(RnsPoly::from_flat(basis, &indices, rep, data))
}

/// Convenience: a standalone single-poly frame.
pub fn poly_to_frame(poly: &RnsPoly, basis: &RnsBasis, fingerprint: u64) -> Vec<u8> {
    let mut payload = Vec::with_capacity(poly_encoded_len(poly, basis));
    encode_poly(&mut payload, poly, basis);
    write_frame(kind::RNS_POLY, fingerprint, &payload)
}

/// Convenience: parses a standalone single-poly frame produced by
/// [`poly_to_frame`] under the same basis and fingerprint.
pub fn poly_from_frame(bytes: &[u8], basis: &RnsBasis, fingerprint: u64) -> WireResult<RnsPoly> {
    let (frame, _) = read_frame_expecting(bytes, kind::RNS_POLY, fingerprint)?;
    let mut cur = Cursor::new(frame.payload);
    let poly = decode_poly(&mut cur, basis)?;
    cur.finish()?;
    Ok(poly)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primes::generate_ntt_primes;
    use rand::SeedableRng;

    fn basis() -> RnsBasis {
        RnsBasis::new(32, &generate_ntt_primes(32, 40, 3))
    }

    fn sample_poly(b: &RnsBasis, seed: u64) -> RnsPoly {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        RnsPoly::random_uniform(b, &[0, 1, 2], Representation::Evaluation, &mut rng)
    }

    #[test]
    fn poly_roundtrips() {
        let b = basis();
        let p = sample_poly(&b, 1);
        let bytes = poly_to_frame(&p, &b, 0xfeed);
        let q = poly_from_frame(&bytes, &b, 0xfeed).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn frames_concatenate() {
        let b = basis();
        let p = sample_poly(&b, 2);
        let mut bytes = poly_to_frame(&p, &b, 7);
        let first_len = bytes.len();
        bytes.extend_from_slice(&poly_to_frame(&p, &b, 7));
        let (f1, used) = read_frame(&bytes).unwrap();
        assert_eq!(used, first_len);
        assert_eq!(f1.kind, kind::RNS_POLY);
        let (f2, _) = read_frame(&bytes[used..]).unwrap();
        assert_eq!(f1.payload, f2.payload);
    }

    #[test]
    fn truncation_is_typed() {
        let b = basis();
        let bytes = poly_to_frame(&sample_poly(&b, 3), &b, 0);
        for cut in [0, 3, HEADER_LEN - 1, HEADER_LEN + 5, bytes.len() - 1] {
            let err = poly_from_frame(&bytes[..cut], &b, 0).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn header_without_room_for_checksum_is_typed() {
        // fuzz_frame regression (corpus: regress-000-truncated-checksum.bin):
        // a buffer of HEADER_LEN..HEADER_LEN+CHECKSUM_LEN bytes declaring
        // payload_len 0 used to slice past the end reading the checksum
        let b = basis();
        let bytes = poly_to_frame(&sample_poly(&b, 10), &b, 0);
        for cut in HEADER_LEN..HEADER_LEN + CHECKSUM_LEN {
            let mut short = bytes[..cut].to_vec();
            short[16..24].copy_from_slice(&0u64.to_le_bytes());
            assert!(
                matches!(read_frame(&short).unwrap_err(), WireError::Truncated { .. }),
                "len {cut}"
            );
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let b = basis();
        let mut bytes = poly_to_frame(&sample_poly(&b, 4), &b, 0);
        bytes[0] ^= 0xff;
        assert!(matches!(
            poly_from_frame(&bytes, &b, 0).unwrap_err(),
            WireError::BadMagic { .. }
        ));
    }

    #[test]
    fn truncation_past_a_huge_declared_length_saturates() {
        // `needed` is exact where it fits a usize and saturates where it
        // does not, on 32-bit targets (the wasm32 client) too
        let mut bytes = write_frame(kind::RNS_POLY, 0, &[7; 40]);
        let body = (bytes.len() - HEADER_LEN - CHECKSUM_LEN) as u64;
        for (declared, needed) in [
            (body + 1, Some(bytes.len() + 1)),
            (u32::MAX as u64, usize::try_from(u32::MAX as u64 + 32).ok()),
            (u64::MAX, None),
        ] {
            bytes[16..24].copy_from_slice(&declared.to_le_bytes());
            assert_eq!(
                peek_frame(&bytes).unwrap_err(),
                WireError::Truncated {
                    needed: needed.unwrap_or(usize::MAX),
                    available: bytes.len()
                },
                "declared {declared}"
            );
        }
    }

    #[test]
    fn wrong_version_rejected() {
        // version 1 is the FNV-1a frame of protocol v4 and before, and
        // version 2 the full-word residue rows of protocol v5: the
        // version alone tells them apart, and it does before a byte is
        // hashed
        let b = basis();
        for found in [1u16, 2, 0x7f] {
            let mut bytes = poly_to_frame(&sample_poly(&b, 5), &b, 0);
            bytes[4..6].copy_from_slice(&found.to_le_bytes());
            let hashed = ledger(|| {
                assert_eq!(
                    poly_from_frame(&bytes, &b, 0).unwrap_err(),
                    WireError::UnsupportedVersion {
                        found,
                        supported: 3
                    }
                )
            });
            assert_eq!(hashed, (0, vec![]), "version {found}");
        }
    }

    #[test]
    fn flipped_payload_byte_fails_checksum() {
        let b = basis();
        let mut bytes = poly_to_frame(&sample_poly(&b, 6), &b, 0);
        let mid = HEADER_LEN + 10;
        bytes[mid] ^= 0x01;
        assert!(matches!(
            poly_from_frame(&bytes, &b, 0).unwrap_err(),
            WireError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn fingerprint_mismatch_rejected() {
        let b = basis();
        let bytes = poly_to_frame(&sample_poly(&b, 7), &b, 1);
        assert!(matches!(
            poly_from_frame(&bytes, &b, 2).unwrap_err(),
            WireError::FingerprintMismatch {
                expected: 2,
                found: 1
            }
        ));
    }

    #[test]
    fn oversized_length_field_cannot_inflate_allocation() {
        let b = basis();
        let mut bytes = poly_to_frame(&sample_poly(&b, 8), &b, 0);
        // claim a payload of 2^60 bytes; the reader must reject against
        // the actual buffer size, not trust the field
        bytes[16..24].copy_from_slice(&(1u64 << 60).to_le_bytes());
        assert!(matches!(
            read_frame(&bytes).unwrap_err(),
            WireError::Truncated { .. }
        ));
    }

    #[test]
    fn unreduced_residue_rejected() {
        let b = basis();
        let p = sample_poly(&b, 9);
        let mut payload = Vec::new();
        encode_poly(&mut payload, &p, &b);
        // first residue word sits after n/rep/count and 3 limb indices
        let off = 4 + 1 + 2 + 3 * 4;
        payload[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let framed = write_frame(kind::RNS_POLY, 0, &payload);
        assert!(matches!(
            poly_from_frame(&framed, &b, 0).unwrap_err(),
            WireError::Malformed { .. }
        ));
    }

    /// A prime `≡ 1 mod 64` of exactly `bits` bits.
    fn prime_of_bits(bits: u32) -> u64 {
        [bits, bits - 1]
            .into_iter()
            .flat_map(|center| generate_ntt_primes(32, center, 4))
            .find(|q| 64 - q.leading_zeros() == bits)
            .expect("a prime of that width near 2^bits")
    }

    #[test]
    fn limb_rows_take_their_primes_byte_width() {
        let primes = [40, 41, 46, 56].map(prime_of_bits);
        assert_eq!(primes.map(residue_width), [5, 6, 6, 7]);
        let b = RnsBasis::new(32, &primes);
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        for indices in [&[0usize, 1, 2, 3][..], &[3, 0], &[2]] {
            let p = RnsPoly::random_uniform(&b, indices, Representation::Coefficient, &mut rng);
            let rows: usize = indices.iter().map(|&i| 32 * residue_width(primes[i])).sum();
            let len = 4 + 1 + 2 + 4 * indices.len() + rows;
            let mut payload = vec![0xee];
            encode_poly(&mut payload, &p, &b);
            assert_eq!(payload.len(), 1 + len);
            assert_eq!(poly_encoded_len(&p, &b), len);
            let mut cur = Cursor::new(&payload[1..]);
            assert_eq!(decode_poly(&mut cur, &b).unwrap(), p);
            cur.finish().unwrap();
        }
    }

    #[test]
    fn q_minus_one_roundtrips_and_q_is_refused_in_every_residue_slot() {
        // every limb of a four-prime basis, as the last row of the
        // buffer (whose last residues are loaded padded) and in front of
        // another row; first, middle and last residue of the row
        let primes = [40, 41, 46, 56].map(prime_of_bits);
        let b = RnsBasis::new(32, &primes);
        for indices in [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]] {
            for at_pos in [3, 0] {
                let at_idx = indices[at_pos];
                let q = primes[at_idx];
                let k = residue_width(q);
                for j in [0, 17, 31] {
                    let mut data = vec![0; 4 * 32];
                    data[at_pos * 32 + j] = q - 1;
                    let p = RnsPoly::from_flat(&b, &indices, Representation::Evaluation, data);
                    let mut payload = Vec::new();
                    encode_poly(&mut payload, &p, &b);
                    assert_eq!(
                        decode_poly(&mut Cursor::new(&payload), &b).unwrap(),
                        p,
                        "q - 1 at limb {at_idx} residue {j}"
                    );
                    let row = 4
                        + 1
                        + 2
                        + 4 * 4
                        + (0..at_pos)
                            .map(|r| 32 * residue_width(primes[indices[r]]))
                            .sum::<usize>();
                    payload[row + j * k..row + (j + 1) * k].copy_from_slice(&q.to_le_bytes()[..k]);
                    assert_eq!(
                        decode_poly(&mut Cursor::new(&payload), &b).unwrap_err(),
                        WireError::Malformed {
                            what: format!("residue {q} not reduced modulo q_{at_idx} = {q}")
                        },
                        "q at limb {at_idx} residue {j}"
                    );
                }
            }
            // the widest value the last residue's bytes can spell
            let mut payload = Vec::new();
            let p = RnsPoly::zero(&b, &indices, Representation::Evaluation);
            encode_poly(&mut payload, &p, &b);
            let end = payload.len();
            payload[end - residue_width(primes[indices[3]])..].fill(0xff);
            assert!(matches!(
                decode_poly(&mut Cursor::new(&payload), &b).unwrap_err(),
                WireError::Malformed { .. }
            ));
        }
    }

    #[test]
    fn a_row_short_by_one_byte_is_truncated_before_any_residue_is_read() {
        let primes = [40, 41, 46, 56].map(prime_of_bits);
        let b = RnsBasis::new(32, &primes);
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let p = RnsPoly::random_uniform(&b, &[0, 1, 2, 3], Representation::Evaluation, &mut rng);
        let mut payload = Vec::new();
        encode_poly(&mut payload, &p, &b);
        let rows = 32 * (5 + 6 + 6 + 7);
        // the whole rows are checked against the buffer up front: the
        // error names all of them, not the one residue that ran out
        assert_eq!(
            decode_poly(&mut Cursor::new(&payload[..payload.len() - 1]), &b).unwrap_err(),
            WireError::Truncated {
                needed: rows,
                available: rows - 1
            }
        );
    }

    #[test]
    fn trailing_garbage_rejected() {
        let b = basis();
        let p = sample_poly(&b, 10);
        let mut payload = Vec::new();
        encode_poly(&mut payload, &p, &b);
        payload.push(0);
        let framed = write_frame(kind::RNS_POLY, 0, &payload);
        assert!(matches!(
            poly_from_frame(&framed, &b, 0).unwrap_err(),
            WireError::Malformed { .. }
        ));
    }

    /// `prefix ‖ children ‖ suffix` as one frame through the one-pass
    /// writer, and where the first child starts in its payload.
    fn nested_frame(prefix: &[u8], children: &[&[u8]], suffix: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut frame = FrameWriter::begin(&mut out, 0x14, 7);
        frame.payload().extend_from_slice(prefix);
        for (i, child) in children.iter().enumerate() {
            frame.nest(kind::CIPHERTEXT, i as u64, |out| {
                out.extend_from_slice(child)
            });
        }
        frame.payload().extend_from_slice(suffix);
        frame.finish();
        out
    }

    /// Runs `f` and returns the bytes the pass walked and the byte
    /// count of every chain it digested, in order.
    fn ledger(f: impl FnOnce()) -> (usize, Vec<u64>) {
        LEDGER.with(|l| *l.borrow_mut() = (0, Vec::new()));
        f();
        LEDGER.with(|l| l.take())
    }

    #[test]
    fn every_byte_is_hashed_in_exactly_one_loop() {
        // sealing or verifying a B-byte request is one walk over the B
        // bytes in front of the outer checksum, in which each nested
        // frame's chain takes exactly that frame's bytes in front of its
        // own checksum, and the outer chain takes all B of them
        let (a, b) = (vec![0xa5u8; 3 * WALK_CHUNK + 5], vec![0x3cu8; 333]);
        let chains = |bytes: &[u8]| {
            let outer = (bytes.len() - CHECKSUM_LEN) as u64;
            let nested = |len: usize| (HEADER_LEN + len) as u64;
            (
                outer as usize,
                vec![nested(a.len()), nested(b.len()), outer],
            )
        };
        let mut bytes = Vec::new();
        let sealing = ledger(|| bytes = nested_frame(b"program", &[&a, &b], b""));
        assert_eq!(sealing, chains(&bytes));
        let verifying = ledger(|| {
            let read = read_nested_frames(&bytes, 7, 2).unwrap();
            assert!(read.nested.iter().all(Result::is_ok));
        });
        assert_eq!(verifying, chains(&bytes));
        // with nothing nested it is the same walk and one chain
        let plain = write_frame(kind::RNS_POLY, 0, &a);
        let outer = plain.len() - CHECKSUM_LEN;
        let reading = ledger(|| assert!(read_frame(&plain).is_ok()));
        assert_eq!(reading, (outer, vec![outer as u64]));
        let hashing = ledger(|| assert_ne!(checksum(&a), 0));
        assert_eq!(hashing, (a.len(), vec![a.len() as u64]));
    }

    #[test]
    fn one_pass_writer_spells_nested_write_frame() {
        // the first child spans several walk chunks
        let (a, b) = (vec![1u8; 2 * WALK_CHUNK + 13], Vec::new());
        let mut payload = b"head".to_vec();
        payload.extend_from_slice(&write_frame(kind::CIPHERTEXT, 0, &a));
        payload.extend_from_slice(&write_frame(kind::CIPHERTEXT, 1, &b));
        payload.extend_from_slice(b"tail");
        assert_eq!(
            nested_frame(b"head", &[&a, &b], b"tail"),
            write_frame(0x14, 7, &payload)
        );
    }

    #[test]
    fn nested_failures_are_reported_per_frame_and_outer_failures_first() {
        let (a, b) = (vec![1u8; 40], vec![2u8; 24]);
        let good = nested_frame(b"xy", &[&a, &b], b"");
        let first_child = HEADER_LEN + 2;
        let reseal = |bytes: &mut Vec<u8>| {
            let end = bytes.len() - CHECKSUM_LEN;
            let sum = checksum(&bytes[..end]);
            bytes[end..].copy_from_slice(&sum.to_le_bytes());
        };

        // a flipped nested payload byte under a valid outer checksum:
        // that frame fails, its neighbour still verifies
        let mut bytes = good.clone();
        bytes[first_child + HEADER_LEN + 3] ^= 1;
        reseal(&mut bytes);
        let read = read_nested_frames(&bytes, 2, 2).unwrap();
        let failure = read.nested[0].clone().unwrap_err();
        assert!(matches!(failure, WireError::ChecksumMismatch { .. }));
        assert_eq!(failure, read_frame(&bytes[first_child..]).unwrap_err());
        assert_eq!(read.nested[1].as_ref().unwrap().0.payload, &b[..]);

        // the same flip without resealing: the outer mismatch is the
        // error, exactly `read_frame`'s
        let mut bytes = good.clone();
        bytes[first_child + HEADER_LEN + 3] ^= 1;
        assert_eq!(
            read_nested_frames(&bytes, 2, 2).unwrap_err(),
            read_frame(&bytes).unwrap_err()
        );

        // a nested header that cannot be walked ends the list
        let mut bytes = good.clone();
        bytes[first_child] ^= 0xff;
        reseal(&mut bytes);
        let read = read_nested_frames(&bytes, 2, 2).unwrap();
        assert_eq!(read.nested.len(), 1);
        assert!(matches!(read.nested[0], Err(WireError::BadMagic { .. })));

        // a nested length reaching past the enclosing payload is
        // refused on the header, before a byte is hashed
        let mut bytes = good.clone();
        bytes[first_child + 16..first_child + 24].copy_from_slice(&(1u64 << 40).to_le_bytes());
        reseal(&mut bytes);
        let (walked, chains) = ledger(|| {
            let read = read_nested_frames(&bytes, 2, 2).unwrap();
            assert!(matches!(read.nested[0], Err(WireError::Truncated { .. })));
        });
        let outer = bytes.len() - CHECKSUM_LEN;
        assert_eq!((walked, chains), (outer, vec![outer as u64]));

        // more frames claimed than the payload holds
        let read = read_nested_frames(&good, 2, 9).unwrap();
        assert_eq!(read.nested.len(), 3);
        assert_eq!(
            read.nested[2],
            Err(WireError::Truncated {
                needed: HEADER_LEN + CHECKSUM_LEN,
                available: 0
            })
        );
    }

    #[test]
    fn checksum_is_stable() {
        // published XXH64 answers for seed 0: a silent change would break
        // every frame ever written. The 39-byte input takes the stripe
        // loop, then the 8-, 4- and 1-byte tail steps.
        assert_eq!(checksum(b""), 0xef46_db37_51d8_e999);
        assert_eq!(checksum(b"abc"), 0x44bc_2cf5_ad77_0999);
        assert_eq!(
            checksum(b"Nobody inspects the spammish repetition"),
            0xfbce_a83c_8a37_8bf1
        );
        assert_ne!(checksum(b"ark"), checksum(b"ark\0"));
    }

    proptest::proptest! {
        #[test]
        fn any_split_gives_the_one_shot_digest(
            words in proptest::collection::vec(0u32..256, 0..200),
            cuts in proptest::collection::vec(0usize..200, 0..8),
        ) {
            let bytes: Vec<u8> = words.iter().map(|&w| w as u8).collect();
            let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(bytes.len())).collect();
            cuts.sort_unstable();
            let mut split = Xxh64::new();
            let mut from = 0;
            for &cut in cuts.iter().chain([&bytes.len()]) {
                split.update(&bytes[from..cut]);
                from = cut;
            }
            proptest::prop_assert_eq!(split.digest(), checksum(&bytes));
        }
    }
}
