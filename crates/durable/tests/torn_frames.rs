//! Satellite pinning of the frame reader's torn-tail contract: truncating a
//! valid segment at **every** byte offset, the reader must (a) never panic,
//! (b) never return a partial frame, and (c) report the exact recoverable
//! prefix — the magic plus every whole frame that fits strictly inside the
//! cut.
//!
//! An exhaustive loop covers a fixed representative segment at every
//! offset; a property test repeats the exercise over randomly generated
//! delta sequences (random names, quantities including `inf`, expiry
//! frontiers) with the cut offset chosen per case.
//!
//! The journal presizes its segments, so a kill leaves the cut followed by
//! zero bytes nothing wrote. Both also check the contract with such a zero
//! tail after every cut: the scanner reads it as unwritten space.

use proptest::prelude::*;
use tin_durable::frame::{encode_delta, scan_segment, write_frame, SEGMENT_MAGIC};
use tin_durable::DurabilityError;
use tin_graph::{GraphDelta, Interaction, Node, NodeId};

/// Builds a segment byte image and returns `(bytes, boundaries)`, where
/// `boundaries[k]` is the byte length of the prefix containing exactly `k`
/// whole frames (boundaries[0] is the magic length).
fn build_segment(deltas: &[GraphDelta]) -> (Vec<u8>, Vec<u64>) {
    let mut bytes = SEGMENT_MAGIC.to_vec();
    let mut boundaries = vec![bytes.len() as u64];
    for d in deltas {
        let payload = encode_delta(d).unwrap();
        write_frame(&mut bytes, &payload).unwrap();
        boundaries.push(bytes.len() as u64);
    }
    (bytes, boundaries)
}

/// The contract under truncation at `cut`: scanning `bytes[..cut]` with a
/// tolerant reader yields exactly the frames whose boundary is `<= cut`,
/// reports `valid_bytes` equal to that boundary, and flags a torn tail iff
/// the cut landed strictly inside a frame (or inside the magic).
fn assert_truncation_contract(bytes: &[u8], boundaries: &[u64], deltas: &[GraphDelta], cut: usize) {
    assert_contract_of(&bytes[..cut], boundaries, deltas, cut);
}

/// The same contract when `zeros` zero bytes follow the cut, as in a
/// presized segment a kill left behind.
///
/// Stripping the zeros may also take zero bytes the torn frame wrote (the
/// high bytes of its length field). The verdict stays the same because a
/// frame's first byte, the low byte of its payload length, is nonzero for
/// every payload these tests build, so what is left is still a piece of
/// the torn frame.
fn assert_zero_tail_contract(
    bytes: &[u8],
    boundaries: &[u64],
    deltas: &[GraphDelta],
    cut: usize,
    zeros: usize,
) {
    for &b in &boundaries[..boundaries.len() - 1] {
        assert_ne!(bytes[b as usize], 0, "the frame at {b} starts with a zero");
    }
    let mut image = bytes[..cut].to_vec();
    image.resize(cut + zeros, 0);
    assert_contract_of(&image, boundaries, deltas, cut);
}

/// Checks the truncation contract at `cut` on the scan of `image`.
fn assert_contract_of(image: &[u8], boundaries: &[u64], deltas: &[GraphDelta], cut: usize) {
    let cut_u = cut as u64;
    let zeros = image.len() - cut;
    let scan = scan_segment(image, 0, true, "seg")
        .unwrap_or_else(|e| panic!("cut at {cut} + {zeros} zeros: {e}"));
    let whole = boundaries.iter().filter(|&&b| b > 0 && b <= cut_u).count();
    // boundaries[0] is the magic, not a frame.
    let whole_frames = whole.saturating_sub(if cut_u >= boundaries[0] { 1 } else { 0 });
    assert_eq!(
        scan.frames, whole_frames as u64,
        "cut at {cut} + {zeros} zeros: wrong frame count"
    );
    assert_eq!(scan.deltas.len(), whole_frames, "cut at {cut} + {zeros}");
    // Exact recoverable prefix: the largest boundary at or below the cut
    // (0 when even the magic is cut short).
    let expect_valid = boundaries
        .iter()
        .copied()
        .filter(|&b| b <= cut_u)
        .max()
        .unwrap_or(0);
    assert_eq!(
        scan.valid_bytes, expect_valid,
        "cut at {cut} + {zeros} zeros: wrong recoverable prefix"
    );
    let on_boundary = boundaries.contains(&cut_u);
    assert_eq!(
        scan.torn.is_some(),
        !on_boundary,
        "cut at {cut} + {zeros} zeros: torn flag (boundaries {boundaries:?})"
    );
    if let Some(torn) = &scan.torn {
        assert_eq!(
            torn.offset, expect_valid,
            "cut at {cut} + {zeros}: torn offset"
        );
    }
    // Never a partial frame: every returned delta is bit-identical to the
    // original at its index.
    for (i, (got, end)) in scan.deltas.iter().enumerate() {
        assert_eq!(got, &deltas[i], "cut at {cut} + {zeros}: frame {i} differs");
        assert_eq!(
            *end,
            boundaries[i + 1],
            "cut at {cut} + {zeros}: frame {i} end"
        );
    }
}

/// A small but representative delta mix: empty delta, multi-record delta,
/// unicode names, an infinite quantity, an expiry frontier.
fn representative_deltas() -> Vec<GraphDelta> {
    vec![
        GraphDelta::new(0, vec![], vec![]).unwrap(),
        GraphDelta::new(
            0,
            vec![
                Node {
                    name: "alice".into(),
                },
                Node {
                    name: "böb µ-unit".into(),
                },
            ],
            vec![
                (NodeId(0), NodeId(1), Interaction::new(3, 2.5)),
                (NodeId(1), NodeId(0), Interaction::new(5, f64::INFINITY)),
            ],
        )
        .unwrap(),
        GraphDelta::new(
            2,
            vec![Node {
                name: "carol".into(),
            }],
            vec![(NodeId(1), NodeId(2), Interaction::new(9, 0.125))],
        )
        .unwrap()
        .expire_before(4),
    ]
}

/// Every byte offset of the representative segment, exhaustively, each
/// cut also followed by a zero tail of 1 to 400 bytes, as the unwritten
/// rest of a presized segment.
#[test]
fn truncation_at_every_byte_offset_recovers_exact_prefix() {
    let deltas = representative_deltas();
    let (bytes, boundaries) = build_segment(&deltas);
    for cut in 0..=bytes.len() {
        assert_truncation_contract(&bytes, &boundaries, &deltas, cut);
        for zeros in [1, 7, 8, 9, 1 + cut * 37 % 400] {
            assert_zero_tail_contract(&bytes, &boundaries, &deltas, cut, zeros);
        }
    }
}

/// An all-zero header is never a frame: followed by a valid frame, with
/// or without zeros after it, it is corruption at its own offset whatever
/// the tolerance, never a torn tail that would drop the frame after it.
#[test]
fn zeroed_header_before_a_frame_is_corruption() {
    let deltas = representative_deltas();
    let (clean, boundaries) = build_segment(&deltas[..1]);
    let mut next = Vec::new();
    write_frame(&mut next, &encode_delta(&deltas[1]).unwrap()).unwrap();
    for gap in [8, 9, 20] {
        for tail in [0, 100] {
            let mut bytes = clean.clone();
            bytes.resize(bytes.len() + gap, 0);
            bytes.extend_from_slice(&next);
            bytes.resize(bytes.len() + tail, 0);
            for tolerate in [true, false] {
                match scan_segment(&bytes, 0, tolerate, "seg") {
                    Err(DurabilityError::CorruptFrame { frame, offset, .. }) => {
                        assert_eq!(frame, 1, "gap {gap}, tail {tail}, tolerate {tolerate}");
                        assert_eq!(offset, boundaries[1]);
                    }
                    other => panic!("gap {gap}, tail {tail}, tolerate {tolerate}: {other:?}"),
                }
            }
        }
    }
}

/// The intolerant reader (non-final segments) must reject every cut that is
/// not a frame boundary, and accept every cut that is.
#[test]
fn intolerant_reader_rejects_every_non_boundary_cut() {
    let deltas = representative_deltas();
    let (bytes, boundaries) = build_segment(&deltas);
    for cut in 0..=bytes.len() {
        let result = scan_segment(&bytes[..cut], 0, false, "seg");
        if boundaries.contains(&(cut as u64)) {
            let scan = result.unwrap_or_else(|e| panic!("boundary cut {cut} rejected: {e}"));
            assert!(scan.torn.is_none());
        } else {
            assert!(result.is_err(), "non-boundary cut {cut} accepted");
        }
    }
}

/// Builds one valid delta on top of `base` existing nodes from raw spec
/// data: `new` fresh nodes and interactions derived over the combined id
/// space (quantity code 19 becomes `inf`).
fn build_delta(base: u32, new: u32, raw: &[(u8, i64, u32)]) -> GraphDelta {
    let nodes = (0..new)
        .map(|i| Node {
            name: format!("node {base} #{i}"),
        })
        .collect();
    let total = base + new;
    let interactions = raw
        .iter()
        .filter_map(|&(pair, t, q)| {
            if total < 2 {
                return None;
            }
            let s = pair as u32 % total;
            let d = (s + 1 + (pair as u32 / 7) % (total - 1)) % total;
            let q = if q == 19 { f64::INFINITY } else { q as f64 };
            Some((NodeId(s), NodeId(d), Interaction::new(t, q)))
        })
        .collect();
    GraphDelta::new(base as usize, nodes, interactions).unwrap()
}

/// A random sequence of stacking deltas (each delta's base is the node
/// count left by its predecessors), generated as raw spec data and folded
/// into deltas in one map — the shim's `FlatMap` cannot chain a `Vec` of
/// strategies.
fn delta_sequence() -> impl Strategy<Value = Vec<GraphDelta>> {
    proptest::collection::vec(
        (
            1u32..4,
            proptest::collection::vec((any::<u8>(), 0i64..50, 0u32..20), 0..5),
        ),
        1..5,
    )
    .prop_map(|specs| {
        let mut base = 0u32;
        let mut deltas = Vec::with_capacity(specs.len());
        for (new, raw) in specs {
            deltas.push(build_delta(base, new, &raw));
            base += new;
        }
        deltas
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Random segments, random cut offsets, random zero tails: the
    /// truncation contract holds with and without the zeros.
    #[test]
    fn truncation_contract_holds_for_random_segments(
        deltas in delta_sequence(),
        cut_frac in 0u32..=1000,
        zeros in 1usize..400,
    ) {
        let (bytes, boundaries) = build_segment(&deltas);
        let cut = (bytes.len() as u64 * cut_frac as u64 / 1000) as usize;
        assert_truncation_contract(&bytes, &boundaries, &deltas, cut);
        assert_zero_tail_contract(&bytes, &boundaries, &deltas, cut, zeros);
        // And the two edges of the file, always.
        for edge in [0, bytes.len()] {
            assert_truncation_contract(&bytes, &boundaries, &deltas, edge);
            assert_zero_tail_contract(&bytes, &boundaries, &deltas, edge, zeros);
        }
    }

    /// Encode→frame→scan round-trips every random delta bit-exactly.
    #[test]
    fn random_segment_roundtrip(deltas in delta_sequence()) {
        let (bytes, _) = build_segment(&deltas);
        let scan = scan_segment(&bytes, 0, false, "seg").unwrap();
        prop_assert_eq!(scan.frames as usize, deltas.len());
        for (i, (got, _)) in scan.deltas.iter().enumerate() {
            prop_assert_eq!(got, &deltas[i]);
        }
    }
}
