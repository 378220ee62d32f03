//! Golden-bytes wire-compatibility test: the ARKW byte stream produced
//! for a fully deterministic ciphertext (fixed params, seeded keygen and
//! encryption) is pinned by hash. Storage refactors (e.g. the flat
//! limb-major `RnsPoly`) must not change a single wire byte — limb rows
//! stream in storage order as little-endian residues of their prime's
//! byte width, so the contract is layout-independent by design. If this
//! test breaks, the wire format changed and `VERSION` must be bumped
//! instead.

use ark_ckks::params::{CkksContext, CkksParams};
use ark_ckks::wire::{param_fingerprint, read_ciphertext_prefix, write_ciphertext};
use ark_ckks::Ciphertext;
use ark_math::cfft::C64;
use ark_math::wire::{MAGIC, VERSION};
use rand::SeedableRng;

/// FNV-1a, implemented independently here so the pin does not depend on
/// library internals (the frame layer itself checksums with XXH64).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The golden ciphertexts' frames: a uniform-`A` encryption (full
/// form) and then a seeded one (`A` as its 8-byte seed), with the
/// seeded ciphertext itself.
fn golden_ciphertext_bytes() -> (CkksContext, [Vec<u8>; 2], Ciphertext) {
    let ctx = CkksContext::new(CkksParams::tiny());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xA12C);
    let sk = ctx.gen_secret_key(&mut rng);
    let m: Vec<C64> = (0..ctx.params().slots())
        .map(|i| C64::new(0.125 * i as f64, -0.0625 * i as f64))
        .collect();
    let pt = ctx.encode(&m, 2, ctx.params().scale());
    let full = ctx.encrypt(&pt, &sk, &mut rng);
    let seeded = ctx.encrypt_seeded(&pt, &sk, 0x5eed, &mut rng);
    let bytes = [
        write_ciphertext(&ctx, &full),
        write_ciphertext(&ctx, &seeded),
    ];
    (ctx, bytes, seeded)
}

#[test]
fn ciphertext_wire_bytes_are_pinned() {
    let (ctx, [full, seeded], seeded_ct) = golden_ciphertext_bytes();
    for (bytes, golden) in [
        (&full, (GOLDEN_CT_LEN, GOLDEN_CT_FNV)),
        (&seeded, (GOLDEN_CT_SEEDED_LEN, GOLDEN_CT_SEEDED_FNV)),
    ] {
        // Header invariants of every ARKW frame.
        assert_eq!(&bytes[..4], MAGIC);
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), VERSION);
        // The full-stream pin: any byte change (layout leak, field
        // reorder, width change) lands here.
        assert_eq!(
            (bytes.len(), fnv1a(bytes)),
            golden,
            "ARKW ciphertext byte stream changed — wire compatibility broken"
        );
        // And it still round-trips, in the same form.
        let (back, _) = read_ciphertext_prefix(&ctx, bytes).expect("golden bytes decode");
        assert_eq!(&write_ciphertext(&ctx, &back), bytes);
    }
    // the seeded frame carries the seeded ciphertext, whose full form
    // is as long as any other ciphertext's at that level
    assert_eq!(read_ciphertext_prefix(&ctx, &seeded).unwrap().0, seeded_ct);
    let unseeded = Ciphertext {
        a_seed: None,
        ..seeded_ct
    };
    assert_eq!(write_ciphertext(&ctx, &unseeded).len(), GOLDEN_CT_LEN);
}

#[test]
fn param_fingerprints_are_pinned() {
    // The fingerprint binds frames to a parameter set; a silent change
    // would let old blobs decode under different parameters.
    assert_eq!(param_fingerprint(&CkksParams::tiny()), GOLDEN_FP_TINY);
    assert_eq!(param_fingerprint(&CkksParams::small()), GOLDEN_FP_SMALL);
    assert_eq!(param_fingerprint(&CkksParams::ark()), GOLDEN_FP_ARK);
}

// Pinned constants. To regenerate after an *intentional* format change
// (which must also bump VERSION), run with `--nocapture` on the
// printing test below and update. Last regenerated for VERSION 3,
// whose residues take their prime's byte width (7 + 5 + 5 bytes a
// coefficient at level 2 of `tiny`, not 24): the stream shrank from
// 1618 to 1170 bytes; the fingerprints, which hash the parameters with
// the unchanged XXH64, did not move. The seeded form, a second
// encryption whose `A` expands from the seed 0x5eed, ships that `A` as
// a 13-byte slot in place of its poly.
const GOLDEN_CT_LEN: usize = 1170;
const GOLDEN_CT_FNV: u64 = 0xfccb_7646_7bba_e969;
const GOLDEN_CT_SEEDED_LEN: usize = 620;
const GOLDEN_CT_SEEDED_FNV: u64 = 0x9f10_67e3_c838_b7d3;
const GOLDEN_FP_TINY: u64 = 0x7789_dffd_a8e0_349d;
const GOLDEN_FP_SMALL: u64 = 0xc920_5ff1_a1f7_6919;
const GOLDEN_FP_ARK: u64 = 0x55f6_ad47_c8c6_150d;

#[test]
#[ignore = "utility: prints current golden values for re-pinning"]
fn print_golden_values() {
    let (_, [full, seeded], _) = golden_ciphertext_bytes();
    println!("GOLDEN_CT_LEN: usize = {};", full.len());
    println!("GOLDEN_CT_FNV: u64 = {:#018x};", fnv1a(&full));
    println!("GOLDEN_CT_SEEDED_LEN: usize = {};", seeded.len());
    println!("GOLDEN_CT_SEEDED_FNV: u64 = {:#018x};", fnv1a(&seeded));
    println!(
        "GOLDEN_FP_TINY: u64 = {:#018x};",
        param_fingerprint(&CkksParams::tiny())
    );
    println!(
        "GOLDEN_FP_SMALL: u64 = {:#018x};",
        param_fingerprint(&CkksParams::small())
    );
    println!(
        "GOLDEN_FP_ARK: u64 = {:#018x};",
        param_fingerprint(&CkksParams::ark())
    );
}
