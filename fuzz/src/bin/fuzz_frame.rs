//! Fuzz target: wire-frame decoding — the outermost untrusted
//! boundary. Drives [`ark_math::wire::read_frame`] plus every typed
//! decoder that consumes a frame's payload (polys, ciphertexts,
//! compressed keys, the client's decoders of server responses, serve
//! control payloads). Malformed bytes must yield typed errors, never
//! panics.
//!
//! Differential on top: the one-pass verifier
//! ([`ark_math::wire::read_nested_frames`]) must agree with `read_frame`
//! on every input — on the outer frame, and on each frame the header
//! walk finds nested in it — or the run aborts.

use ark_ckks::params::{CkksContext, CkksParams};
use ark_ckks::wire as ckks_wire;
use ark_client::core::{decode_eval_keys, decode_result_cts};
use ark_client::protocol;
use ark_math::wire::{self, Cursor};

/// Runs the one-pass verifier over `data` as a frame nesting `count`
/// frames from payload offset `first`, and demands what sequential
/// `read_frame` calls return: the same outer result, and frame by
/// frame the same nested one, up to the first header that cannot be
/// walked.
fn one_pass_agrees(data: &[u8], first: usize, count: usize) {
    let read = match (
        wire::read_nested_frames(data, first, count),
        wire::read_frame(data),
    ) {
        (Err(got), Err(want)) => return assert_eq!(got, want),
        (Ok(read), Ok(want)) => {
            assert_eq!((read.frame, read.used), want);
            read
        }
        (got, want) => panic!("one pass {got:?}, read_frame {want:?}"),
    };
    let mut at = first;
    for got in &read.nested {
        let rest = &read.frame.payload[at..];
        assert_eq!(got, &wire::read_frame(rest));
        match wire::peek_frame(rest) {
            Ok((_, len)) => at += len,
            Err(_) => break,
        }
    }
}

fn main() {
    let opts = ark_fuzz::parse_args("frame");
    let ctx = CkksContext::new(CkksParams::tiny());
    let fp = ckks_wire::param_fingerprint(ctx.params());
    ark_fuzz::run("frame", &opts, |data| {
        // frame container (magic, version, kind, fingerprint, length,
        // checksum)
        let _ = wire::read_frame(data);
        let _ = wire::read_frame_expecting(data, wire::kind::CIPHERTEXT, fp);
        // the shapes the protocol nests: frames from the front of the
        // payload (key responses), and behind a `u16` count
        // (`RESULT_CTS`; a request's program is a longer prefix)
        let payload = wire::peek_frame(data).map_or(&[][..], |(frame, _)| frame.payload);
        one_pass_agrees(data, 0, 4);
        if let Ok(count) = Cursor::new(payload).u16() {
            one_pass_agrees(data, 2, count as usize);
        }
        // and the input itself as the nested frames of an intact outer
        // one, where mutation alone rarely gets: once whole, once cut
        let mut twice = data.to_vec();
        twice.extend_from_slice(&data[..data.len() / 2]);
        one_pass_agrees(
            &wire::write_frame(protocol::msg::EVAL_KEYS, fp, &twice),
            0,
            3,
        );
        // the input as a bare payload: a frame's checksum stops every
        // mutation of its payload, so only here do hostile limb rows
        // reach the row decoder
        let _ = wire::decode_poly(&mut Cursor::new(data), ctx.basis());
        let _ = ckks_wire::decode_ciphertext(&mut Cursor::new(data), &ctx);
        // nested typed payloads, each total over hostile bytes
        let _ = wire::poly_from_frame(data, ctx.basis(), fp);
        let _ = ckks_wire::read_ciphertext_prefix(&ctx, data);
        let _ = ckks_wire::read_compressed_public_key(&ctx, data);
        let _ = ckks_wire::read_compressed_rotation_keys(&ctx, data);
        // the client's decoders of server bytes (an `EVAL_KEYS` payload
        // is nested key frames, a `RESULT_CTS` one counted ciphertexts),
        // over the input and over the payload of the frame it opens with
        for bytes in [data, payload] {
            let _ = decode_eval_keys(&ctx, bytes);
            let _ = decode_result_cts(&ctx, bytes);
        }
        // serve control codecs over a raw payload cursor
        let _ = protocol::decode_server_info(&mut Cursor::new(data));
        let _ = protocol::decode_stats(&mut Cursor::new(data));
        let _ = protocol::decode_error(&mut Cursor::new(data));
        let _ = protocol::decode_busy(&mut Cursor::new(data));
        let _ = protocol::split_envelope(data);
    });
}
