//! Wire codecs for the scheme types: ciphertexts and seed-compressed key
//! material as [`ark_math::wire`] frames.
//!
//! Everything a CKKS deployment ships — the ciphertexts clients upload,
//! the results they download, the public/evaluation/rotation keys a
//! server hands out — encodes here. Keys travel seed-compressed, as
//! they are held: the public seed of the `A` halves plus the `B`
//! limbs (see [`crate::keys`]); the materialized key and plaintext
//! kinds are retired. A fresh symmetric ciphertext travels the same
//! way, its `A` as the seed it expands from ([`SEEDED_A`]), once the
//! encoder has checked that the seed regenerates `A`. The *secret* key has
//! deliberately no codec: secret material never crosses the wire in
//! this system, and leaving the encoder out makes that a type-level
//! property rather than a convention.
//!
//! # Parameter fingerprint
//!
//! Every frame carries [`param_fingerprint`], an XXH64 hash of the
//! arithmetic-relevant [`CkksParams`] fields (`log N`, `L`, `dnum` and
//! the three prime widths, plus the secret Hamming weight). Prime
//! generation is deterministic in those fields, so equal fingerprints
//! imply identical RNS bases; a frame produced under any other
//! parameter set is rejected with [`WireError::FingerprintMismatch`]
//! before a single payload byte is interpreted.
//!
//! # Validation
//!
//! Decoders re-establish every invariant the panic-checking scheme ops
//! rely on: limb sets must equal the exact chain (or extended) index
//! set for the claimed level, components must agree on representation,
//! residues must be reduced (enforced by [`ark_math::wire::decode_poly`]),
//! scales must be finite and positive, and evaluation keys must carry
//! exactly `dnum` decomposition pieces. Attacker-controlled bytes thus
//! yield typed [`ArkError::Wire`] errors, never panics.

use crate::ciphertext::Ciphertext;
use crate::error::{ArkError, ArkResult};
use crate::keys::{EvalKey, PublicKey, RotationKeys};
use crate::params::{CkksContext, CkksParams};
use ark_math::automorphism::GaloisElement;
use ark_math::poly::{Representation, RnsPoly};
use ark_math::wire::{
    self, checksum, decode_poly, encode_poly, kind, put_f64, put_u16, put_u32, put_u64, read_frame,
    read_frame_expecting, Cursor, Frame, FrameWriter, WireError,
};

/// Upper bound on rotation keys in one rotation-key-set frame — far
/// above any real set (Min-KS needs ~2 per transform iteration, the
/// baseline ~40 per transform) but low enough that a hostile count
/// field cannot drive large allocations.
pub const MAX_ROTATION_KEYS: usize = 4096;

/// Fingerprint of the arithmetic-relevant parameter fields: the frame
/// checksum ([`checksum`], XXH64) of their encoding.
/// Equal fingerprints imply identical prime chains (generation is
/// deterministic), hence wire-compatible ciphertexts and keys.
pub fn param_fingerprint(params: &CkksParams) -> u64 {
    let mut bytes = Vec::with_capacity(64);
    bytes.extend_from_slice(b"ark-ckks-params-v1");
    put_u32(&mut bytes, params.log_n);
    put_u64(&mut bytes, params.max_level as u64);
    put_u64(&mut bytes, params.dnum as u64);
    put_u32(&mut bytes, params.q0_bits);
    put_u32(&mut bytes, params.scale_bits);
    put_u32(&mut bytes, params.special_bits);
    put_u64(&mut bytes, params.secret_hamming_weight as u64);
    checksum(&bytes)
}

fn malformed(what: impl Into<String>) -> ArkError {
    ArkError::Wire(WireError::Malformed { what: what.into() })
}

/// Checks a decoded level/scale pair and that `poly` is an
/// evaluation-representation polynomial over the exact chain set for
/// that level. Evaluation representation is the resident form of every
/// ciphertext and plaintext; accepting coefficient-representation
/// bytes here would let hostile frames reach the `assert!`s inside the
/// element-wise ops.
fn check_chain_poly(ctx: &CkksContext, poly: &RnsPoly, level: usize, scale: f64) -> ArkResult<()> {
    if level > ctx.params().max_level {
        return Err(malformed(format!(
            "level {level} exceeds chain maximum {}",
            ctx.params().max_level
        )));
    }
    if !(scale.is_finite() && scale > 0.0) {
        return Err(malformed(format!("scale {scale} is not finite-positive")));
    }
    if poly.representation() != Representation::Evaluation {
        return Err(malformed(
            "ciphertext/plaintext polynomials must be in evaluation representation",
        ));
    }
    if poly.limb_indices() != ctx.chain_indices(level) {
        return Err(malformed(format!(
            "limb set {:?} is not the chain set for level {level}",
            poly.limb_indices()
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// payload codecs (embeddable inside larger frames, e.g. ark-serve)
// ---------------------------------------------------------------------

/// Representation code of a ciphertext's `A` slot that carries a seed
/// instead of limb rows: `u32 n | u8 2 | u64 seed`. It sits where
/// [`decode_poly`] reads its representation byte, whose codes are 0
/// (coefficient) and 1 (evaluation), so [`decode_poly`] refuses it as
/// an unknown tag; only [`decode_ciphertext`] reads it, in the `A` slot.
pub const SEEDED_A: u8 = 2;

/// Bytes of a seeded `A` slot: `u32 n | u8 code | u64 seed`.
const SEEDED_A_LEN: usize = 4 + 1 + 8;

/// The seed `ct`'s `A` ships as, if it has one: its `a_seed` hint,
/// kept only if regenerating `A` from it over `A`'s own limb set gives
/// `A` word for word, in evaluation representation and over `B`'s
/// limbs (what the decoder expands). A stale or hand-set hint is
/// dropped here, so a wrong `A` never reaches the wire. The check
/// stops at the first word that differs.
fn shipped_seed(ctx: &CkksContext, ct: &Ciphertext) -> Option<u64> {
    ct.a_seed.filter(|&seed| {
        ct.a.representation() == Representation::Evaluation
            && ct.a.limb_indices() == ct.b.limb_indices()
            && ct.a.matches_seed(ctx.basis(), seed)
    })
}

/// Appends the ciphertext payload with `A` in the form `seed` decided:
/// `u32 level | f64 scale | poly B | A`, where `A` is a full poly, or
/// the seeded slot when `seed` is `Some`.
fn encode_ciphertext_as(out: &mut Vec<u8>, ctx: &CkksContext, ct: &Ciphertext, seed: Option<u64>) {
    put_u32(out, ct.level as u32);
    put_f64(out, ct.scale);
    encode_poly(out, &ct.b, ctx.basis());
    match seed {
        Some(seed) => {
            put_u32(out, ct.a.n() as u32);
            out.push(SEEDED_A);
            put_u64(out, seed);
        }
        None => encode_poly(out, &ct.a, ctx.basis()),
    }
}

/// Frame bytes [`encode_ciphertext_as`] with `seed` produces, header
/// and checksum included.
fn frame_len_as(ctx: &CkksContext, ct: &Ciphertext, seed: Option<u64>) -> usize {
    let basis = ctx.basis();
    let a = match seed {
        Some(_) => SEEDED_A_LEN,
        None => wire::poly_encoded_len(&ct.a, basis),
    };
    let payload = 4 + 8 + wire::poly_encoded_len(&ct.b, basis) + a;
    wire::HEADER_LEN + payload + wire::CHECKSUM_LEN
}

/// Appends the ciphertext payload: `u32 level | f64 scale | poly B | A`.
/// `A` is the 13-byte seeded slot ([`SEEDED_A`]) when the ciphertext's
/// seed hint regenerates its `A` exactly, and a full poly otherwise.
pub fn encode_ciphertext(out: &mut Vec<u8>, ctx: &CkksContext, ct: &Ciphertext) {
    encode_ciphertext_as(out, ctx, ct, shipped_seed(ctx, ct));
}

/// Decodes and validates a ciphertext payload. A seeded `A` slot is
/// read only after `B` has passed validation, and expands over `B`'s
/// limb set in evaluation representation; the ciphertext keeps the
/// seed as its hint.
pub fn decode_ciphertext(cur: &mut Cursor<'_>, ctx: &CkksContext) -> ArkResult<Ciphertext> {
    let level = cur.u32()? as usize;
    let scale = cur.f64()?;
    let b = decode_poly(cur, ctx.basis())?;
    check_chain_poly(ctx, &b, level, scale)?;
    let mut slot = *cur;
    let n = slot.u32()? as usize;
    if slot.u8()? == SEEDED_A {
        if n != ctx.params().n() {
            return Err(malformed(format!(
                "seeded A degree {n} does not match basis degree {}",
                ctx.params().n()
            )));
        }
        let seed = slot.u64()?;
        *cur = slot;
        let a = RnsPoly::from_seed(
            ctx.basis(),
            b.limb_indices(),
            Representation::Evaluation,
            seed,
        );
        return Ok(Ciphertext {
            b,
            a,
            level,
            scale,
            a_seed: Some(seed),
        });
    }
    let a = decode_poly(cur, ctx.basis())?;
    check_chain_poly(ctx, &a, level, scale)?;
    Ok(Ciphertext::new(b, a, level, scale))
}

// ---------------------------------------------------------------------
// seed-compressed key codecs (runtime data generation on the wire:
// only the seed and the B halves exist, in memory and on the wire)
// ---------------------------------------------------------------------

/// Decodes one `B` half of a key over the expected limb set, in
/// evaluation representation.
fn decode_key_b(
    cur: &mut Cursor<'_>,
    ctx: &CkksContext,
    expect_limbs: &[usize],
) -> ArkResult<RnsPoly> {
    let b = decode_poly(cur, ctx.basis())?;
    if b.limb_indices() != expect_limbs {
        return Err(malformed("key component has the wrong limb set"));
    }
    if b.representation() != Representation::Evaluation {
        return Err(malformed(
            "key material must be in evaluation representation",
        ));
    }
    Ok(b)
}

/// Appends the compressed-evaluation-key payload:
/// `u64 a_seed | u16 dnum | dnum × poly B` over the extended basis.
pub fn encode_compressed_eval_key(out: &mut Vec<u8>, ctx: &CkksContext, key: &EvalKey) {
    put_u64(out, key.a_seed);
    put_u16(out, key.b_pieces.len() as u16);
    for b in &key.b_pieces {
        encode_poly(out, b, ctx.basis());
    }
}

/// Decodes and validates a compressed-evaluation-key payload (`dnum`
/// `B` halves over the full extended basis).
pub fn decode_compressed_eval_key(cur: &mut Cursor<'_>, ctx: &CkksContext) -> ArkResult<EvalKey> {
    let a_seed = cur.u64()?;
    let count = cur.u16()? as usize;
    if count != ctx.params().dnum {
        return Err(malformed(format!(
            "compressed evaluation key has {count} pieces, parameter set requires dnum = {}",
            ctx.params().dnum
        )));
    }
    let expect = ctx.extended_indices(ctx.params().max_level);
    let mut b_pieces = Vec::with_capacity(count);
    for _ in 0..count {
        b_pieces.push(decode_key_b(cur, ctx, expect)?);
    }
    Ok(EvalKey { a_seed, b_pieces })
}

/// Appends the compressed-public-key payload: `u64 a_seed | poly B`
/// over the full chain.
pub fn encode_compressed_public_key(out: &mut Vec<u8>, ctx: &CkksContext, key: &PublicKey) {
    put_u64(out, key.a_seed);
    encode_poly(out, &key.b, ctx.basis());
}

/// Decodes and validates a compressed-public-key payload.
pub fn decode_compressed_public_key(
    cur: &mut Cursor<'_>,
    ctx: &CkksContext,
) -> ArkResult<PublicKey> {
    let a_seed = cur.u64()?;
    let expect = ctx.chain_indices(ctx.params().max_level);
    let b = decode_key_b(cur, ctx, expect)?;
    Ok(PublicKey { a_seed, b })
}

/// Appends the compressed-rotation-key-set payload:
/// `u16 count | count × (u64 galois | compressed eval-key payload)`.
/// `keys` must yield strictly ascending Galois elements, as
/// [`RotationKeys::iter`] does: the decoder rejects any other order.
pub fn encode_compressed_rotation_keys<'a, I>(out: &mut Vec<u8>, ctx: &CkksContext, keys: I)
where
    I: IntoIterator<Item = (u64, &'a EvalKey)>,
    I::IntoIter: ExactSizeIterator,
{
    let keys = keys.into_iter();
    put_u16(out, keys.len() as u16);
    for (g, key) in keys {
        put_u64(out, g);
        encode_compressed_eval_key(out, ctx, key);
    }
}

/// Decodes and validates a compressed-rotation-key-set payload.
/// Galois elements must be odd, in `1..2N`, and strictly ascending.
pub fn decode_compressed_rotation_keys(
    cur: &mut Cursor<'_>,
    ctx: &CkksContext,
) -> ArkResult<RotationKeys> {
    let count = cur.u16()? as usize;
    if count > MAX_ROTATION_KEYS {
        return Err(malformed(format!(
            "rotation key count {count} exceeds the {MAX_ROTATION_KEYS} cap"
        )));
    }
    let two_n = 2 * ctx.params().n() as u64;
    let mut keys = RotationKeys::new();
    let mut prev: Option<u64> = None;
    for _ in 0..count {
        let g = cur.u64()?;
        if g % 2 == 0 || g == 0 || g >= two_n {
            return Err(malformed(format!(
                "invalid Galois element {g} for 2N = {two_n}"
            )));
        }
        if prev.is_some_and(|p| g <= p) {
            return Err(malformed("Galois elements must be strictly ascending"));
        }
        prev = Some(g);
        keys.insert(GaloisElement(g), decode_compressed_eval_key(cur, ctx)?);
    }
    Ok(keys)
}

// ---------------------------------------------------------------------
// standalone and nested frames
// ---------------------------------------------------------------------

/// Serializes a ciphertext as a standalone frame.
pub fn write_ciphertext(ctx: &CkksContext, ct: &Ciphertext) -> Vec<u8> {
    let seed = shipped_seed(ctx, ct);
    let mut out = Vec::with_capacity(frame_len_as(ctx, ct, seed));
    let mut frame = FrameWriter::begin(&mut out, kind::CIPHERTEXT, param_fingerprint(ctx.params()));
    encode_ciphertext_as(frame.payload(), ctx, ct, seed);
    frame.finish();
    out
}

/// Decodes a whole frame payload with `decode`: trailing bytes are
/// malformed.
fn decode_exact<T>(
    payload: &[u8],
    decode: impl FnOnce(&mut Cursor<'_>) -> ArkResult<T>,
) -> ArkResult<T> {
    let mut cur = Cursor::new(payload);
    let value = decode(&mut cur)?;
    cur.finish().map_err(ArkError::Wire)?;
    Ok(value)
}

/// Reads a standalone seed-compressed public key frame, verifying kind,
/// fingerprint, checksum and payload invariants.
pub fn read_compressed_public_key(ctx: &CkksContext, bytes: &[u8]) -> ArkResult<PublicKey> {
    let fp = param_fingerprint(ctx.params());
    let (frame, _) = read_frame_expecting(bytes, kind::COMPRESSED_PUBLIC_KEY, fp)?;
    decode_exact(frame.payload, |cur| decode_compressed_public_key(cur, ctx))
}

/// Reads a standalone seed-compressed rotation key set frame, verifying
/// kind, fingerprint, checksum and payload invariants.
pub fn read_compressed_rotation_keys(ctx: &CkksContext, bytes: &[u8]) -> ArkResult<RotationKeys> {
    let fp = param_fingerprint(ctx.params());
    let (frame, _) = read_frame_expecting(bytes, kind::COMPRESSED_ROTATION_KEYS, fp)?;
    decode_exact(frame.payload, |cur| {
        decode_compressed_rotation_keys(cur, ctx)
    })
}

/// Nests one ciphertext frame per element of `cts` in the payload of
/// `frame`, each sealed with the enclosing frame in the same hashing
/// pass. Each ciphertext's wire form is decided once; the payload is
/// reserved for all of them and the enclosing checksum up front.
pub fn nest_ciphertexts(frame: &mut FrameWriter<'_>, ctx: &CkksContext, cts: &[Ciphertext]) {
    let fp = param_fingerprint(ctx.params());
    let seeds: Vec<Option<u64>> = cts.iter().map(|ct| shipped_seed(ctx, ct)).collect();
    let bytes: usize = cts
        .iter()
        .zip(&seeds)
        .map(|(ct, &seed)| frame_len_as(ctx, ct, seed))
        .sum();
    frame.payload().reserve(bytes + wire::CHECKSUM_LEN);
    for (ct, seed) in cts.iter().zip(seeds) {
        frame.nest(kind::CIPHERTEXT, fp, |out| {
            encode_ciphertext_as(out, ctx, ct, seed)
        });
    }
}

/// Nests a seed-compressed public key frame in the payload of `frame`,
/// sealed with it like [`nest_ciphertexts`].
pub fn nest_compressed_public_key(frame: &mut FrameWriter<'_>, ctx: &CkksContext, key: &PublicKey) {
    let fp = param_fingerprint(ctx.params());
    frame.nest(kind::COMPRESSED_PUBLIC_KEY, fp, |out| {
        encode_compressed_public_key(out, ctx, key)
    });
}

/// Nests a seed-compressed evaluation key frame in the payload of
/// `frame`, sealed with it like [`nest_ciphertexts`].
pub fn nest_compressed_eval_key(frame: &mut FrameWriter<'_>, ctx: &CkksContext, key: &EvalKey) {
    let fp = param_fingerprint(ctx.params());
    frame.nest(kind::COMPRESSED_EVAL_KEY, fp, |out| {
        encode_compressed_eval_key(out, ctx, key)
    });
}

/// Nests a seed-compressed rotation key set frame in the payload of
/// `frame`, sealed with it like [`nest_ciphertexts`].
pub fn nest_compressed_rotation_keys<'a, I>(frame: &mut FrameWriter<'_>, ctx: &CkksContext, keys: I)
where
    I: IntoIterator<Item = (u64, &'a EvalKey)>,
    I::IntoIter: ExactSizeIterator,
{
    let fp = param_fingerprint(ctx.params());
    frame.nest(kind::COMPRESSED_ROTATION_KEYS, fp, |out| {
        encode_compressed_rotation_keys(out, ctx, keys)
    });
}

/// Reads a ciphertext frame from the *front* of `bytes`, returning the
/// ciphertext and the bytes consumed — the shape `ark-serve` uses to
/// walk a payload of concatenated frames.
pub fn read_ciphertext_prefix(ctx: &CkksContext, bytes: &[u8]) -> ArkResult<(Ciphertext, usize)> {
    let (frame, used) = read_frame(bytes)?;
    Ok((ciphertext_from_frame(ctx, frame)?, used))
}

/// Decodes a ciphertext from a frame whose checksum is already
/// verified — one of the nested frames of
/// [`ark_math::wire::read_nested_frames`] — checking kind,
/// fingerprint and payload invariants.
pub fn ciphertext_from_frame(ctx: &CkksContext, frame: Frame<'_>) -> ArkResult<Ciphertext> {
    let frame = frame.expecting(kind::CIPHERTEXT, param_fingerprint(ctx.params()))?;
    decode_exact(frame.payload, |cur| decode_ciphertext(cur, ctx))
}

/// Exact wire size of a ciphertext frame (header + payload + checksum):
/// a function of its level, the context's primes and whether its `A`
/// ships seeded (which this decides as [`encode_ciphertext`] does).
pub fn ciphertext_frame_len(ctx: &CkksContext, ct: &Ciphertext) -> usize {
    frame_len_as(ctx, ct, shipped_seed(ctx, ct))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::max_error;
    use ark_math::cfft::C64;
    use ark_math::wire::write_frame;
    use rand::SeedableRng;

    #[test]
    fn fingerprint_distinguishes_parameter_sets() {
        let fps = [
            CkksParams::tiny(),
            CkksParams::small(),
            CkksParams::boot_test(),
            CkksParams::ark(),
            CkksParams::lattigo(),
            CkksParams::f1(),
            CkksParams::hundred_x(),
        ]
        .map(|p| param_fingerprint(&p));
        for i in 0..fps.len() {
            for j in i + 1..fps.len() {
                assert_ne!(fps[i], fps[j], "sets {i} and {j} collide");
            }
        }
        // stable across calls and independent of the descriptive name
        assert_eq!(
            param_fingerprint(&CkksParams::tiny()),
            param_fingerprint(&CkksParams {
                name: "renamed",
                ..CkksParams::tiny()
            })
        );
    }

    #[test]
    fn ciphertext_survives_the_wire_and_still_decrypts() {
        let ctx = CkksContext::new(CkksParams::tiny());
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let sk = ctx.gen_secret_key(&mut rng);
        let msg: Vec<C64> = (0..ctx.params().slots())
            .map(|i| C64::new(0.1 * i as f64, -0.02 * i as f64))
            .collect();
        let pt = ctx.encode(&msg, 2, ctx.params().scale());
        let ct = ctx.encrypt(&pt, &sk, &mut rng);
        let bytes = write_ciphertext(&ctx, &ct);
        assert_eq!(bytes.len(), ciphertext_frame_len(&ctx, &ct));
        let back = read_ciphertext_prefix(&ctx, &bytes).unwrap().0;
        assert_eq!(back, ct);
        let out = ctx.decrypt_decode(&back, &sk);
        assert!(max_error(&msg, &out) < 1e-5);
    }

    #[test]
    fn cross_parameter_set_decode_rejected() {
        let tiny = CkksContext::new(CkksParams::tiny());
        let small = CkksContext::new(CkksParams::small());
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let sk = tiny.gen_secret_key(&mut rng);
        let pt = tiny.encode(&[C64::new(1.0, 0.0)], 1, tiny.params().scale());
        let ct = tiny.encrypt(&pt, &sk, &mut rng);
        let bytes = write_ciphertext(&tiny, &ct);
        assert!(matches!(
            read_ciphertext_prefix(&small, &bytes).unwrap_err(),
            ArkError::Wire(WireError::FingerprintMismatch { .. })
        ));
    }

    #[test]
    fn wrong_kind_rejected() {
        let ctx = CkksContext::new(CkksParams::tiny());
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let sk = ctx.gen_secret_key(&mut rng);
        let pk = ctx.gen_public_key_seeded(&sk, 0x5eed, 0x9015e);
        let mut payload = Vec::new();
        encode_compressed_public_key(&mut payload, &ctx, &pk);
        let bytes = write_frame(
            kind::COMPRESSED_PUBLIC_KEY,
            param_fingerprint(ctx.params()),
            &payload,
        );
        assert!(matches!(
            read_ciphertext_prefix(&ctx, &bytes).unwrap_err(),
            ArkError::Wire(WireError::WrongKind { .. })
        ));
    }

    #[test]
    fn coefficient_representation_ciphertext_rejected() {
        // a structurally-valid frame whose polys are in coefficient
        // representation must not decode: it would reach the
        // evaluation-representation asserts inside the element-wise ops
        let ctx = CkksContext::new(CkksParams::tiny());
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let sk = ctx.gen_secret_key(&mut rng);
        let pt = ctx.encode(&[C64::new(0.5, 0.0)], 2, ctx.params().scale());
        let mut ct = ctx.encrypt(&pt, &sk, &mut rng);
        ct.b.to_coeff(ctx.basis());
        ct.a.to_coeff(ctx.basis());
        let bytes = write_ciphertext(&ctx, &ct);
        assert!(matches!(
            read_ciphertext_prefix(&ctx, &bytes).unwrap_err(),
            ArkError::Wire(WireError::Malformed { .. })
        ));
    }

    #[test]
    fn tampered_level_field_rejected() {
        let ctx = CkksContext::new(CkksParams::tiny());
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let sk = ctx.gen_secret_key(&mut rng);
        let pt = ctx.encode(&[C64::new(0.5, 0.0)], 2, ctx.params().scale());
        let ct = ctx.encrypt(&pt, &sk, &mut rng);
        // re-frame with a level that disagrees with the limb set; the
        // checksum is valid, so only semantic validation can catch it
        let mut payload = Vec::new();
        put_u32(&mut payload, 3);
        put_f64(&mut payload, ct.scale);
        encode_poly(&mut payload, &ct.b, ctx.basis());
        encode_poly(&mut payload, &ct.a, ctx.basis());
        let framed = write_frame(kind::CIPHERTEXT, param_fingerprint(ctx.params()), &payload);
        assert!(matches!(
            read_ciphertext_prefix(&ctx, &framed).unwrap_err(),
            ArkError::Wire(WireError::Malformed { .. })
        ));
    }
}
