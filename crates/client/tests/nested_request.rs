//! Exhaustive corruption of one `EVALUATE` request — a `tiny`
//! ciphertext nested in the request frame: the one-pass decode
//! (`read_nested_frames`, then `ciphertext_from_frame` per input)
//! must reject every single-byte flip and every truncation with the
//! error the sequential decoders give (`read_frame` on the request,
//! then `read_ciphertext_prefix` per input), and accept what they
//! accept.

use ark_ckks::error::{ArkError, ArkResult};
use ark_ckks::params::{CkksContext, CkksParams};
use ark_ckks::wire as ckks_wire;
use ark_ckks::Ciphertext;
use ark_client::core::evaluate_frame;
use ark_client::program::Program;
use ark_math::cfft::C64;
use ark_math::wire::{
    checksum, peek_frame, read_frame, read_nested_frames, Cursor, CHECKSUM_LEN, HEADER_LEN,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `(program, input count)` off the front of an `EVALUATE` payload.
fn head(cur: &mut Cursor<'_>) -> ArkResult<(Program, usize)> {
    let program = Program::decode(cur)?;
    Ok((program, cur.u16()? as usize))
}

/// The decode as it was before the one-pass core: one hashing pass over
/// the request, one more over each input.
fn sequential(ctx: &CkksContext, bytes: &[u8]) -> ArkResult<Vec<Ciphertext>> {
    let (frame, _) = read_frame(bytes)?;
    let mut cur = Cursor::new(frame.payload);
    let (_, n_inputs) = head(&mut cur)?;
    let rest = cur.take(cur.remaining())?;
    let mut inputs = Vec::new();
    let mut off = 0;
    for _ in 0..n_inputs {
        let (ct, used) = ckks_wire::read_ciphertext_prefix(ctx, &rest[off..])?;
        off += used;
        inputs.push(ct);
    }
    Ok(inputs)
}

/// The decode the server's shard workers run: locate the inputs on the
/// unverified payload, verify everything in one pass, then consume the
/// per-input results in order.
fn one_pass(ctx: &CkksContext, bytes: &[u8]) -> ArkResult<Vec<Ciphertext>> {
    let (unverified, _) = peek_frame(bytes)?;
    let mut cur = Cursor::new(unverified.payload);
    let head = head(&mut cur);
    let first = unverified.payload.len() - cur.remaining();
    let n_inputs = head.as_ref().map_or(0, |(_, n)| *n);
    let request = read_nested_frames(bytes, first, n_inputs)?;
    head?;
    let mut inputs = Vec::new();
    for input in request.nested {
        let (frame, _) = input?;
        inputs.push(ckks_wire::ciphertext_from_frame(ctx, frame)?);
    }
    Ok(inputs)
}

/// Recomputes the outer checksum, so that damage inside the payload
/// reaches the nested decoders.
fn reseal(bytes: &mut [u8]) {
    let end = bytes.len() - CHECKSUM_LEN;
    let sum = checksum(&bytes[..end]);
    bytes[end..].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn every_flip_and_truncation_is_rejected_as_the_sequential_decoders_reject_it() {
    let ctx = CkksContext::new(CkksParams::tiny());
    let mut rng = StdRng::seed_from_u64(16);
    let sk = ctx.gen_secret_key(&mut rng);
    let pt = ctx.encode(&[C64::new(0.25, -0.5)], 3, ctx.params().scale());
    let ct = ctx.encrypt(&pt, &sk, &mut rng);
    let mut program = Program::new(1);
    let x = program.reg(0);
    let sum = program.add(x, x);
    program.output(sum);
    let good = evaluate_frame(7, &program, std::slice::from_ref(&ct), &ctx).unwrap();
    assert_eq!(one_pass(&ctx, &good).unwrap(), vec![ct.clone()]);
    assert_eq!(sequential(&ctx, &good).unwrap(), vec![ct]);

    let agree = |bytes: &[u8], what: &str| {
        let (got, want) = (one_pass(&ctx, bytes), sequential(&ctx, bytes));
        assert_eq!(got, want, "{what}");
        want
    };
    let rejected = |bytes: &[u8], what: &str| {
        assert!(agree(bytes, what).is_err(), "{what}: accepted");
    };
    let mut nested_failures = 0;
    for at in 0..good.len() {
        for mask in [0x01u8, 0x80, 0xff] {
            // as it arrives: the request's own checksum catches it
            // (or its header does)
            let mut bytes = good.clone();
            bytes[at] ^= mask;
            rejected(&bytes, &format!("flip {mask:#04x} at {at}"));
            // under a valid request checksum the damage is the program
            // decoder's to catch (a flip may also spell another valid
            // program), or the nested frame's header or checksum, or
            // the ciphertext decoder's
            if (HEADER_LEN..good.len() - CHECKSUM_LEN).contains(&at) {
                reseal(&mut bytes);
                let outcome = agree(&bytes, &format!("resealed flip {mask:#04x} at {at}"));
                nested_failures += usize::from(matches!(outcome, Err(ArkError::Wire(_))));
            }
        }
    }
    assert!(
        nested_failures > good.len(),
        "resealed flips reach the nested decoders"
    );
    for len in 0..good.len() {
        rejected(&good[..len], &format!("truncated to {len}"));
    }
    // a payload cut short under a valid header and checksum: the nested
    // frame no longer fits its enclosing payload
    for len in 0..good.len() - HEADER_LEN - CHECKSUM_LEN {
        let mut bytes = good[..HEADER_LEN + len].to_vec();
        bytes[16..HEADER_LEN].copy_from_slice(&(len as u64).to_le_bytes());
        bytes.extend_from_slice(&[0; CHECKSUM_LEN]);
        reseal(&mut bytes);
        rejected(&bytes, &format!("payload truncated to {len}"));
    }
}
