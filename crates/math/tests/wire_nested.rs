//! Differential property test of the one-pass hashing core in
//! `ark_math::wire`: over random frame trees, [`FrameWriter`] must emit
//! the bytes the nested `write_frame` spelling emits, and
//! [`read_nested_frames`] must return what `read_frame` on the outer
//! frame followed by `read_frame` on each nested frame returns — the
//! same `Ok`, the same `WireError` variant and fields — on well-formed,
//! corrupted and truncated input alike.

use ark_math::wire::{
    peek_frame, read_frame, read_nested_frames, write_frame, FrameWriter, HEADER_LEN,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// One tree: bytes in front of the nested frames, their payloads, bytes
/// behind them.
#[derive(Debug, Clone)]
struct Tree {
    prefix: Vec<u8>,
    children: Vec<Vec<u8>>,
    suffix: Vec<u8>,
}

/// Payload lengths around the word size, zero included.
fn bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    vec((0u32..256).prop_map(|b| b as u8), 0..=max)
}

fn tree() -> impl Strategy<Value = Tree> {
    (bytes(19), vec(bytes(41), 0..=4), bytes(9)).prop_map(|(prefix, children, suffix)| Tree {
        prefix,
        children,
        suffix,
    })
}

/// The spelling every producer used before the one-pass writer: frame
/// each child, concatenate, frame the lot.
fn spelled(tree: &Tree) -> Vec<u8> {
    let mut payload = tree.prefix.clone();
    for (i, child) in tree.children.iter().enumerate() {
        payload.extend_from_slice(&write_frame(3, i as u64, child));
    }
    payload.extend_from_slice(&tree.suffix);
    write_frame(0x14, 0xfeed, &payload)
}

fn one_pass(tree: &Tree) -> Vec<u8> {
    let mut out = vec![0xee; 5]; // the writer appends; what is there stays
    let mut frame = FrameWriter::begin(&mut out, 0x14, 0xfeed);
    frame.payload().extend_from_slice(&tree.prefix);
    for (i, child) in tree.children.iter().enumerate() {
        frame.nest(3, i as u64, |out| out.extend_from_slice(child));
    }
    frame.payload().extend_from_slice(&tree.suffix);
    frame.finish();
    assert_eq!(out[..5], [0xee; 5]);
    out.split_off(5)
}

/// Checks the one-pass verifier against the sequential spelling on
/// `bytes`, for `count` frames claimed from payload offset `first`.
fn assert_agrees(bytes: &[u8], first: usize, count: usize) {
    let outer = read_frame(bytes);
    let read = match (read_nested_frames(bytes, first, count), outer) {
        (Err(got), Err(want)) => {
            assert_eq!(got, want);
            return;
        }
        (Ok(read), Ok((frame, used))) => {
            assert_eq!((read.frame, read.used), (frame, used));
            read
        }
        (got, want) => panic!("one pass {got:?}, read_frame {want:?}"),
    };
    let payload = read.frame.payload;
    let mut at = first;
    let mut walked = 0;
    for got in &read.nested {
        assert_eq!(got, &read_frame(&payload[at..]), "nested frame {walked}");
        walked += 1;
        // a checksum failure leaves the walk intact; a header failure
        // ends it
        match peek_frame(&payload[at..]) {
            Ok((_, len)) => at += len,
            Err(_) => break,
        }
    }
    assert_eq!(walked, read.nested.len());
    let header_failed =
        matches!(read.nested.last(), Some(Err(_))) && peek_frame(&payload[at..]).is_err();
    assert!(walked == count || header_failed, "walk stopped early");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn sealed_bytes_equal_the_nested_write_frame_spelling(tree in tree()) {
        prop_assert_eq!(one_pass(&tree), spelled(&tree));
    }

    #[test]
    fn one_pass_verifier_agrees_with_sequential_reads(
        tree in tree(),
        extra in 0usize..3,
        flips in vec((any::<u64>(), 1u32..=255), 0..3),
        reseal in any::<bool>(),
        cut in prop_oneof![Just(None), any::<u64>().prop_map(Some)],
    ) {
        let mut bytes = spelled(&tree);
        for (at, mask) in flips {
            let at = at as usize % bytes.len();
            bytes[at] ^= mask as u8;
        }
        if reseal {
            // a valid outer checksum over the damage, so that nested
            // failures surface
            let payload = bytes[HEADER_LEN..bytes.len() - 8].to_vec();
            let resealed = write_frame(0x14, 0xfeed, &payload);
            if bytes[..HEADER_LEN] == resealed[..HEADER_LEN] {
                bytes = resealed;
            }
        }
        if let Some(cut) = cut {
            bytes.truncate(cut as usize % (bytes.len() + 1));
        }
        let first = tree.prefix.len();
        let payload_len = peek_frame(&bytes).map_or(0, |(frame, _)| frame.payload.len());
        // the real count, a hostile one, and a start that is not a
        // frame boundary
        assert_agrees(&bytes, first.min(payload_len), tree.children.len() + extra);
        assert_agrees(&bytes, (first + 1).min(payload_len), tree.children.len());
        assert_agrees(&bytes, 0, 0);
    }
}
