//! Property tests of the wire format: round-trips across parameter
//! sets, plus negative tests against every corruption class an
//! untrusted peer can produce — truncation, bad magic, wrong version,
//! flipped checksum bytes, and cross-parameter-set decode.

use ark_ckks::error::{ArkError, ArkResult};
use ark_ckks::params::{CkksContext, CkksParams};
use ark_ckks::wire::{
    ciphertext_frame_len, decode_compressed_eval_key, encode_compressed_eval_key,
    encode_compressed_public_key, encode_compressed_rotation_keys, param_fingerprint,
    read_ciphertext_prefix, read_compressed_public_key, read_compressed_rotation_keys,
    write_ciphertext,
};
use ark_ckks::{Ciphertext, EvalKey, SecretKey};
use ark_math::cfft::C64;
use ark_math::poly::{Representation, RnsPoly};
use ark_math::wire::{
    decode_poly, encode_poly, kind, poly_encoded_len, read_frame_expecting, write_frame, Cursor,
    WireError, CHECKSUM_LEN, HEADER_LEN, MAGIC, VERSION,
};
use proptest::prelude::*;
use rand::SeedableRng;
use std::sync::OnceLock;

struct Fixture {
    ctx: CkksContext,
    sk: SecretKey,
}

impl Fixture {
    fn new(params: CkksParams) -> Self {
        let ctx = CkksContext::new(params);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1001);
        let sk = ctx.gen_secret_key(&mut rng);
        Fixture { ctx, sk }
    }
}

/// Two functional parameter sets with different degrees, chains and
/// fingerprints.
fn fixtures() -> &'static (Fixture, Fixture) {
    static F: OnceLock<(Fixture, Fixture)> = OnceLock::new();
    F.get_or_init(|| {
        (
            Fixture::new(CkksParams::tiny()),
            Fixture::new(CkksParams::small()),
        )
    })
}

/// A fresh seeded encryption: `seed` seeds the error generator and is
/// the `A` seed (distinct per call site, so no two share `A`).
fn encrypt(f: &Fixture, msg: &[(f64, f64)], level: usize, seed: u64) -> Ciphertext {
    let m: Vec<C64> = msg.iter().map(|&(re, im)| C64::new(re, im)).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let pt = f.ctx.encode(&m, level, f.ctx.params().scale());
    f.ctx.encrypt_seeded(&pt, &f.sk, seed, &mut rng)
}

/// Bytes of a residue modulo `q`, worked out here from the prime alone.
fn width(q: u64) -> usize {
    (64 - q.leading_zeros() as usize).div_ceil(8)
}

/// Payload bytes of a poly over `indices`: its header and `Σ N·k_i`.
fn poly_len(ctx: &CkksContext, indices: &[usize]) -> usize {
    let basis = ctx.basis();
    let widths: usize = indices
        .iter()
        .map(|&i| width(basis.modulus(i).value()))
        .sum();
    4 + 1 + 2 + 4 * indices.len() + basis.n() * widths
}

/// A standalone frame of `kind` around the payload `encode` appends.
fn frame(f: &Fixture, kind: u16, encode: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut payload = Vec::new();
    encode(&mut payload);
    write_frame(kind, param_fingerprint(f.ctx.params()), &payload)
}

/// Reads a standalone compressed-evaluation-key frame the way the
/// typed readers do: kind, fingerprint, checksum, then the payload,
/// consumed exactly.
fn read_eval_key(f: &Fixture, bytes: &[u8]) -> ArkResult<EvalKey> {
    let fp = param_fingerprint(f.ctx.params());
    let (frame, _) = read_frame_expecting(bytes, kind::COMPRESSED_EVAL_KEY, fp)?;
    let mut cur = Cursor::new(frame.payload);
    let key = decode_compressed_eval_key(&mut cur, &f.ctx)?;
    cur.finish()?;
    Ok(key)
}

fn msg_strategy(slots: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), slots)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    // Ciphertexts round-trip bit-exactly on both parameter sets, at
    // every level the message strategy covers.
    #[test]
    fn ciphertext_roundtrips_on_both_parameter_sets(
        m in msg_strategy(16),
        level in 1usize..=3,
        seed in 0u64..1000,
    ) {
        for f in [&fixtures().0, &fixtures().1] {
            let ct = encrypt(f, &m, level, seed);
            let bytes = write_ciphertext(&f.ctx, &ct);
            let (back, _) = read_ciphertext_prefix(&f.ctx, &bytes).unwrap();
            prop_assert_eq!(&back, &ct);
            // and the round-tripped ciphertext decrypts to the same bits
            let d1 = f.ctx.decrypt_decode(&ct, &f.sk);
            let d2 = f.ctx.decrypt_decode(&back, &f.sk);
            for (a, b) in d1.iter().zip(&d2) {
                prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
                prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    }

    // Any truncation of a valid frame yields `Truncated`, never a
    // panic or a bogus ciphertext.
    #[test]
    fn every_truncation_is_typed(
        m in msg_strategy(16),
        cut_frac in 0.0f64..1.0,
    ) {
        let f = &fixtures().0;
        let ct = encrypt(f, &m, 2, 7);
        let bytes = write_ciphertext(&f.ctx, &ct);
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        let err = read_ciphertext_prefix(&f.ctx, &bytes[..cut]).unwrap_err();
        prop_assert!(matches!(err, ArkError::Wire(WireError::Truncated { .. })),
            "cut at {}: {:?}", cut, err);
    }

    // Flipping any single byte of a frame is detected: header fields
    // fail their own checks, payload/checksum bytes fail the checksum.
    #[test]
    fn any_flipped_byte_is_rejected(
        m in msg_strategy(16),
        pos_frac in 0.0f64..1.0,
        bit in 0u32..8,
    ) {
        let f = &fixtures().0;
        let ct = encrypt(f, &m, 2, 11);
        let mut bytes = write_ciphertext(&f.ctx, &ct);
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        let err = read_ciphertext_prefix(&f.ctx, &bytes).unwrap_err();
        prop_assert!(matches!(err, ArkError::Wire(_)), "flip at {}: {:?}", pos, err);
    }

    // A frame written under one parameter set never decodes under the
    // other, in either direction.
    #[test]
    fn cross_parameter_set_decode_rejected(
        m in msg_strategy(16),
        direction in 0usize..2,
    ) {
        let (a, b) = fixtures();
        let (src, dst) = if direction == 0 { (a, b) } else { (b, a) };
        let ct = encrypt(src, &m, 1, 13);
        let bytes = write_ciphertext(&src.ctx, &ct);
        let err = read_ciphertext_prefix(&dst.ctx, &bytes).unwrap_err();
        prop_assert!(matches!(
            err,
            ArkError::Wire(WireError::FingerprintMismatch { .. })
        ));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    // wire encode → decode is bit-identical to the generated key (its
    // seed and `B` halves), on both parameter sets and for arbitrary
    // master pairs.
    #[test]
    fn compressed_eval_key_roundtrips_on_both_parameter_sets(
        a_master in 0u64..u64::MAX,
        noise_master in 0u64..u64::MAX,
    ) {
        for f in [&fixtures().0, &fixtures().1] {
            let eager = f.ctx.gen_mult_key_seeded(&f.sk, a_master, noise_master);
            let bytes = frame(f, kind::COMPRESSED_EVAL_KEY, |out| {
                encode_compressed_eval_key(out, &f.ctx, &eager)
            });
            // the frame is exactly the seed and `dnum` `B` halves over
            // the extended basis, each residue in its prime's byte width
            let ctx = &f.ctx;
            let extended = ctx.extended_indices(ctx.params().max_level);
            let piece = poly_len(ctx, extended);
            let exact = HEADER_LEN + 8 + 2 + ctx.params().dnum * piece + CHECKSUM_LEN;
            prop_assert_eq!(bytes.len(), exact);
            let back = read_eval_key(f, &bytes).unwrap();
            prop_assert_eq!(back, eager);
        }
    }

    // same round-trip for a rotation-key set and the public key.
    #[test]
    fn compressed_key_set_and_public_key_roundtrip(
        a_master in 0u64..u64::MAX,
        noise_master in 0u64..u64::MAX,
    ) {
        for f in [&fixtures().0, &fixtures().1] {
            let set = f.ctx.gen_rotation_keys_seeded(&[1, 2], false, &f.sk, a_master, noise_master);
            let bytes = frame(f, kind::COMPRESSED_ROTATION_KEYS, |out| {
                encode_compressed_rotation_keys(out, &f.ctx, set.iter())
            });
            let back = read_compressed_rotation_keys(&f.ctx, &bytes).unwrap();
            prop_assert_eq!(back.iter().collect::<Vec<_>>(), set.iter().collect::<Vec<_>>());

            let pk = f.ctx.gen_public_key_seeded(&f.sk, a_master, noise_master);
            let pk_bytes = frame(f, kind::COMPRESSED_PUBLIC_KEY, |out| {
                encode_compressed_public_key(out, &f.ctx, &pk)
            });
            let pk_back = read_compressed_public_key(&f.ctx, &pk_bytes).unwrap();
            prop_assert_eq!(pk_back, pk);
        }
    }

    // truncation fuzz on the new kind tag: every cut is a typed
    // Truncated, never a panic or a half-decoded key.
    #[test]
    fn compressed_eval_key_truncation_is_typed(cut_frac in 0.0f64..1.0) {
        let f = &fixtures().0;
        let key = f.ctx.gen_mult_key_seeded(&f.sk, 0x5eed, 0xe401);
        let bytes = frame(f, kind::COMPRESSED_EVAL_KEY, |out| {
            encode_compressed_eval_key(out, &f.ctx, &key)
        });
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        let err = read_eval_key(f, &bytes[..cut]).unwrap_err();
        prop_assert!(matches!(err, ArkError::Wire(WireError::Truncated { .. })),
            "cut at {}: {:?}", cut, err);
    }

    // bit-flip fuzz: any single flipped bit in a compressed-key frame
    // is rejected with a typed wire error.
    #[test]
    fn compressed_eval_key_bit_flip_is_rejected(
        pos_frac in 0.0f64..1.0,
        bit in 0u32..8,
    ) {
        let f = &fixtures().0;
        let key = f.ctx.gen_mult_key_seeded(&f.sk, 0x5eed, 0xe402);
        let mut bytes = frame(f, kind::COMPRESSED_EVAL_KEY, |out| {
            encode_compressed_eval_key(out, &f.ctx, &key)
        });
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        let err = read_eval_key(f, &bytes).unwrap_err();
        prop_assert!(matches!(err, ArkError::Wire(_)), "flip at {}: {:?}", pos, err);
    }
}

/// `rotate_large`'s parameters: `N = 2^15`, six limbs.
fn rotate_large_params() -> CkksParams {
    CkksParams {
        log_n: 15,
        max_level: 5,
        dnum: 3,
        q0_bits: 55,
        scale_bits: 45,
        special_bits: 55,
        ..CkksParams::small()
    }
}

#[test]
fn ciphertext_length_is_the_sum_of_prime_widths_at_every_level() {
    for (params, per_coeff) in [
        (CkksParams::tiny(), 22),
        (CkksParams::small(), 54),
        (CkksParams::boot_test(), 127),
        (rotate_large_params(), 37),
    ] {
        let ctx = CkksContext::new(params);
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let max = ctx.params().max_level;
        let top = ctx.chain_indices(max);
        let widths: usize = top
            .iter()
            .map(|&i| width(ctx.basis().modulus(i).value()))
            .sum();
        assert_eq!(widths, per_coeff, "{}", ctx.params().name);
        for level in 0..=max {
            let indices = ctx.chain_indices(level);
            let random = |rng: &mut rand::rngs::StdRng| {
                RnsPoly::random_uniform(ctx.basis(), indices, Representation::Evaluation, rng)
            };
            let ct = Ciphertext::new(
                random(&mut rng),
                random(&mut rng),
                level,
                ctx.params().scale(),
            );
            let bytes = write_ciphertext(&ctx, &ct);
            let exact = HEADER_LEN + 4 + 8 + 2 * poly_len(&ctx, indices) + CHECKSUM_LEN;
            assert_eq!(bytes.len(), exact, "{} level {level}", ctx.params().name);
            assert_eq!(ciphertext_frame_len(&ctx, &ct), exact);
            assert_eq!(read_ciphertext_prefix(&ctx, &bytes).unwrap(), (ct, exact));
        }
    }
}

#[test]
fn a_poly_over_the_ark_basis_is_the_sum_of_its_prime_widths() {
    // Table III's ARK set: 24 chain primes (60 and 44 bits) and 6
    // special ones (60 bits) at N = 2^16
    let ctx = CkksContext::new(CkksParams::ark());
    let all: Vec<usize> = (0..ctx.basis().len()).collect();
    assert_eq!(all.len(), 30);
    let mut rng = rand::rngs::StdRng::seed_from_u64(37);
    let p = RnsPoly::random_uniform(ctx.basis(), &all, Representation::Evaluation, &mut rng);
    let mut payload = Vec::new();
    encode_poly(&mut payload, &p, ctx.basis());
    assert_eq!(payload.len(), poly_len(&ctx, &all));
    assert_eq!(poly_encoded_len(&p, ctx.basis()), payload.len());
    let mut cur = Cursor::new(&payload);
    assert_eq!(decode_poly(&mut cur, ctx.basis()).unwrap(), p);
    cur.finish().unwrap();
}

#[test]
fn compressed_and_materialized_kinds_do_not_cross_decode() {
    let f = &fixtures().0;
    let fp = param_fingerprint(f.ctx.params());
    let key = f.ctx.gen_mult_key_seeded(&f.sk, 0xabcd, 0xef01);
    let compressed = frame(f, kind::COMPRESSED_EVAL_KEY, |out| {
        encode_compressed_eval_key(out, &f.ctx, &key)
    });
    let ct = write_ciphertext(&f.ctx, &encrypt(f, &[(0.5, 0.0); 16], 2, 23));
    // a compressed frame is not a ciphertext, and vice versa: the kind
    // tags keep the decoders apart
    assert!(matches!(
        read_ciphertext_prefix(&f.ctx, &compressed).unwrap_err(),
        ArkError::Wire(WireError::WrongKind { .. })
    ));
    assert!(matches!(
        read_eval_key(f, &ct).unwrap_err(),
        ArkError::Wire(WireError::WrongKind { .. })
    ));
    // the retired materialized tags (2 plaintext, 4 public key, 5 eval
    // key, 6 rotation keys) around payloads that decode under the right
    // tag: well-formed frames every remaining reader refuses by kind
    for retired in [2u16, 4, 5, 6] {
        for frame in [&compressed, &ct] {
            let payload = &frame[HEADER_LEN..frame.len() - CHECKSUM_LEN];
            let bytes = write_frame(retired, fp, payload);
            assert!(matches!(
                read_eval_key(f, &bytes).unwrap_err(),
                ArkError::Wire(WireError::WrongKind { expected: kind::COMPRESSED_EVAL_KEY, found })
                    if found == retired
            ));
            assert!(matches!(
                read_ciphertext_prefix(&f.ctx, &bytes).unwrap_err(),
                ArkError::Wire(WireError::WrongKind { expected: kind::CIPHERTEXT, found })
                    if found == retired
            ));
        }
    }
}

#[test]
fn bad_magic_and_wrong_version_are_distinct_errors() {
    let f = &fixtures().0;
    let ct = encrypt(f, &[(0.5, 0.0); 16], 2, 17);
    let good = write_ciphertext(&f.ctx, &ct);

    let mut bad_magic = good.clone();
    bad_magic[..4].copy_from_slice(b"NOPE");
    assert!(matches!(
        read_ciphertext_prefix(&f.ctx, &bad_magic).unwrap_err(),
        ArkError::Wire(WireError::BadMagic { found }) if &found == b"NOPE"
    ));

    let mut wrong_version = good.clone();
    wrong_version[4..6].copy_from_slice(&(VERSION + 1).to_le_bytes());
    assert!(matches!(
        read_ciphertext_prefix(&f.ctx, &wrong_version).unwrap_err(),
        ArkError::Wire(WireError::UnsupportedVersion { found, supported })
            if found == VERSION + 1 && supported == VERSION
    ));

    // flipping exactly a trailing checksum byte must also fail
    let mut bad_sum = good;
    let last = bad_sum.len() - 1;
    bad_sum[last] ^= 0x80;
    assert!(matches!(
        read_ciphertext_prefix(&f.ctx, &bad_sum).unwrap_err(),
        ArkError::Wire(WireError::ChecksumMismatch { .. })
    ));
}

#[test]
fn frame_header_layout_is_pinned() {
    // the layout constants are a cross-process contract — pin them so
    // an accidental change fails loudly
    assert_eq!(&MAGIC, b"ARKW");
    assert_eq!(VERSION, 3);
    assert_eq!(HEADER_LEN, 24);
    let f = &fixtures().0;
    let ct = encrypt(f, &[(0.1, 0.2); 16], 2, 19);
    let bytes = write_ciphertext(&f.ctx, &ct);
    assert_eq!(&bytes[..4], b"ARKW");
    let fp = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    assert_eq!(fp, param_fingerprint(f.ctx.params()));
}

/// Bytes of the seeded `A` slot: `u32 n | u8 2 | u64 seed`.
const SEEDED_SLOT: usize = 13;

#[test]
fn a_fresh_ciphertext_ships_its_a_as_the_seeded_slot() {
    for params in [
        CkksParams::tiny(),
        CkksParams::small(),
        CkksParams::boot_test(),
        rotate_large_params(),
    ] {
        let ctx = CkksContext::new(params);
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let sk = ctx.gen_secret_key(&mut rng);
        let max = ctx.params().max_level;
        for level in [0, max] {
            let name = format!("{} level {level}", ctx.params().name);
            let pt = ctx.encode(&[C64::new(0.25, -0.5)], level, ctx.params().scale());
            let ct = ctx.encrypt_seeded(&pt, &sk, 0x5eed + level as u64, &mut rng);
            let full = Ciphertext {
                a_seed: None,
                ..ct.clone()
            };
            let seeded_bytes = write_ciphertext(&ctx, &ct);
            let full_bytes = write_ciphertext(&ctx, &full);
            let a_poly = poly_len(&ctx, ctx.chain_indices(level));
            assert_eq!(
                seeded_bytes.len(),
                full_bytes.len() - a_poly + SEEDED_SLOT,
                "{name}"
            );
            assert_eq!(ciphertext_frame_len(&ctx, &ct), seeded_bytes.len());
            assert_eq!(ciphertext_frame_len(&ctx, &full), full_bytes.len());
            let (back, used) = read_ciphertext_prefix(&ctx, &seeded_bytes).unwrap();
            assert_eq!((&back, used), (&ct, seeded_bytes.len()), "{name}");
            assert_eq!(back.a_seed, ct.a_seed);
            assert_eq!(write_ciphertext(&ctx, &back), seeded_bytes);
            assert_eq!(read_ciphertext_prefix(&ctx, &full_bytes).unwrap().0, ct);
        }
    }
    // `rotate_large`'s full-level `A` slot: 31 header bytes and 37
    // bytes a coefficient, 1 212 447 bytes in all
    let ctx = CkksContext::new(rotate_large_params());
    assert_eq!(poly_len(&ctx, ctx.chain_indices(5)), 1_212_447);
}

#[test]
fn an_overwritten_or_hand_set_seed_ships_the_full_a() {
    let f = &fixtures().0;
    let ct = encrypt(f, &[(0.5, 0.25); 16], 2, 43);
    let pk = f.ctx.gen_public_key_seeded(&f.sk, 0x5eed, 0x9015e);
    let pt = f
        .ctx
        .encode(&[C64::new(0.5, 0.25)], 2, f.ctx.params().scale());
    let mut rng = rand::rngs::StdRng::seed_from_u64(47);
    let public = f.ctx.encrypt_public(&pt, &pk, &mut rng);
    assert_eq!(public.a_seed, None);
    let full_len = write_ciphertext(&f.ctx, &public).len();
    // `negate` rewrites `A` and carries the seed along, stale
    let negated = f.ctx.negate(&ct);
    assert_eq!(negated.a_seed, ct.a_seed);
    let hand_set = Ciphertext {
        a_seed: Some(ct.a_seed.unwrap() ^ 1),
        ..ct.clone()
    };
    for stale in [negated, hand_set] {
        let bytes = write_ciphertext(&f.ctx, &stale);
        assert_eq!(bytes.len(), full_len);
        assert_eq!(ciphertext_frame_len(&f.ctx, &stale), full_len);
        let (back, _) = read_ciphertext_prefix(&f.ctx, &bytes).unwrap();
        assert_eq!(back, stale);
        assert_eq!(back.a_seed, None);
    }
}

#[test]
fn a_dropped_seeded_ciphertext_still_ships_seeded() {
    let f = &fixtures().1;
    let ct = encrypt(f, &[(0.5, 0.25); 16], 5, 53);
    for level in [4, 1, 0] {
        let dropped = f.ctx.mod_drop_to(&ct, level).unwrap();
        let bytes = write_ciphertext(&f.ctx, &dropped);
        let full = Ciphertext {
            a_seed: None,
            ..dropped.clone()
        };
        let a_poly = poly_len(&f.ctx, f.ctx.chain_indices(level));
        assert_eq!(
            bytes.len(),
            write_ciphertext(&f.ctx, &full).len() - a_poly + SEEDED_SLOT
        );
        let (back, _) = read_ciphertext_prefix(&f.ctx, &bytes).unwrap();
        assert_eq!(back, dropped);
        assert_eq!(back.a_seed, ct.a_seed);
    }
}

#[test]
fn the_seeded_code_is_refused_where_a_poly_is_read_and_bad_slots_are_typed() {
    let f = &fixtures().0;
    let ct = encrypt(f, &[(0.5, 0.0); 16], 2, 59);
    let mut payload = Vec::new();
    ark_ckks::wire::encode_ciphertext(&mut payload, &f.ctx, &ct);
    let slot = payload.len() - SEEDED_SLOT;
    assert_eq!(payload[slot + 4], ark_ckks::wire::SEEDED_A);
    // the poly decoder knows codes 0 and 1 only
    let err = decode_poly(&mut Cursor::new(&payload[slot..]), f.ctx.basis()).unwrap_err();
    assert!(
        matches!(&err, WireError::Malformed { what } if what == "unknown representation tag 2"),
        "{err:?}"
    );
    let decode = |bytes: &[u8]| {
        let mut cur = Cursor::new(bytes);
        ark_ckks::wire::decode_ciphertext(&mut cur, &f.ctx)
    };
    assert_eq!(decode(&payload).unwrap(), ct);
    // a seeded slot of the wrong degree
    let mut wrong_n = payload.clone();
    wrong_n[slot..slot + 4].copy_from_slice(&64u32.to_le_bytes());
    assert!(matches!(
        decode(&wrong_n).unwrap_err(),
        ArkError::Wire(WireError::Malformed { .. })
    ));
    // cut anywhere inside the seed
    for cut in slot + 5..payload.len() {
        assert!(matches!(
            decode(&payload[..cut]).unwrap_err(),
            ArkError::Wire(WireError::Truncated { .. })
        ));
    }
}
