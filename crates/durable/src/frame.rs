//! The journal frame codec.
//!
//! ## Frame format
//!
//! A segment file is an 8-byte magic (`TINJRNL1`) followed by frames:
//!
//! ```text
//! [payload length: u32 LE] [checksum: u32 LE] [payload bytes]
//! ```
//!
//! The checksum is CRC-32 (see [`crate::crc`]) over the 4 length bytes
//! followed by the payload, so a flipped bit in either the length field or
//! the payload fails verification.
//!
//! ## Payload format
//!
//! The payload is a [`GraphDelta`] in the hardened text codec's field
//! grammar (PR 4): a header line, one line per new vertex name (the whole
//! line is the name, so embedded spaces survive; names containing line
//! breaks are rejected at write time), and one line per interaction record
//! using the same `time` / `quantity` field rules as the interchange format
//! — including the canonical `inf` token for the infinite quantity.
//!
//! ```text
//! delta <base_nodes> <new_node_count> <record_count> <expiry|->
//! <name>                                  (new_node_count lines)
//! <src> <dst> <time> <quantity>           (record_count lines)
//! ```
//!
//! ## Torn tail vs corruption
//!
//! [`scan_segment`] distinguishes the two failure classes recovery must
//! treat differently:
//!
//! * an **incomplete** frame at the end of the byte stream (header or
//!   payload cut short — what a kill mid-write leaves behind) is a *torn
//!   tail*: with `tolerate_torn_tail` the scan stops cleanly at the last
//!   whole valid frame and reports the exact recoverable byte prefix;
//! * a **complete** frame whose checksum fails, or whose payload does not
//!   decode, is *corruption* and is always a typed, positional
//!   [`DurabilityError::CorruptFrame`] — silent data damage never recovers
//!   as if it were a clean tail.
//!
//! One inherent ambiguity: a corrupted *length* field that claims more
//! bytes than the stream holds is indistinguishable from a torn write, so
//! it is conservatively treated as a torn tail (the WAL convention — the
//! checksum cannot be consulted before the payload is complete).
//!
//! The scanner also runs over part of a segment: given the bytes from some
//! offset to the segment's end, together with that offset, it reports the
//! same positions and verdicts as over the whole file. The journal's
//! replay uses this to read a segment from a committed position on.
//!
//! The scanner hands each frame to its caller as soon as it is decoded,
//! so the journal's readers hold one decoded frame at a time: recovery
//! applies it to the graph before the next is decoded, and a journal
//! opening for append drops it. [`scan_segment`] collects them.
//!
//! ## Trailing zeros are unwritten space
//!
//! The journal sets a segment's length ahead of its writes (see
//! [`crate::journal`]), so an open segment, or one a kill left behind, ends
//! in zero bytes nothing has written yet. [`scan_segment`] strips them: a
//! segment's data ends at its last nonzero byte. That turns a presized
//! segment into exactly the file an append-only writer would have left,
//! because
//!
//! * every frame ends with its payload's final newline, so stripping never
//!   cuts into a whole frame; and
//! * an all-zero header never passes its checksum (the CRC-32 of four zero
//!   length bytes is not zero), so zeros can never read as a frame.
//!
//! Every verdict above therefore stays as the append-only layout has it:
//!
//! * a frame torn inside the presized region, its tail still zeros, is a
//!   torn tail. Stripping may also take zero bytes the torn frame did
//!   write (the high bytes of a short length), which leaves a shorter piece
//!   of the same frame: still torn, with the same recoverable prefix;
//! * a zeroed header followed by later frames is corruption;
//! * a segment zeroed back to a frame boundary reads as ending there, and
//!   a segment of nothing but zeros reads as an empty one. The append-only
//!   layout cannot tell a truncation at a frame boundary from a clean end
//!   either: in both, the frames past the cut are gone without a trace.

use crate::crc::{crc32, Crc32};
use crate::error::DurabilityError;
use std::io::{self, Write};
use tin_graph::io::{parse_quantity, parse_time};
use tin_graph::{GraphDelta, Interaction, Node, NodeId, INFINITE_QUANTITY_TOKEN};

/// Magic bytes opening every journal segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"TINJRNL1";

/// Bytes of a frame header (length + checksum).
pub const FRAME_HEADER_BYTES: u64 = 8;

/// Serializes a delta into a frame payload. Fails (typed, no panic) when a
/// vertex name cannot survive the line-oriented format.
pub fn encode_delta(delta: &GraphDelta) -> Result<Vec<u8>, DurabilityError> {
    let mut out = Vec::new();
    encode_payload(delta, &mut out)?;
    Ok(out)
}

/// Builds one whole frame (header and payload) for `delta` in `frame`,
/// replacing its contents: the bytes [`write_frame`] would write for
/// [`encode_delta`]'s payload, built in a buffer the caller reuses.
pub(crate) fn encode_frame(delta: &GraphDelta, frame: &mut Vec<u8>) -> Result<(), DurabilityError> {
    frame.clear();
    frame.extend_from_slice(&[0; FRAME_HEADER_BYTES as usize]);
    encode_payload(delta, frame)?;
    let header = frame_header(&frame[FRAME_HEADER_BYTES as usize..]).map_err(|e| {
        DurabilityError::Unencodable {
            reason: e.to_string(),
        }
    })?;
    frame[..FRAME_HEADER_BYTES as usize].copy_from_slice(&header);
    Ok(())
}

/// Appends `delta`'s payload to `out`.
fn encode_payload(delta: &GraphDelta, out: &mut Vec<u8>) -> Result<(), DurabilityError> {
    if let Some(node) = delta
        .new_nodes()
        .iter()
        .find(|n| n.name.contains(['\n', '\r']))
    {
        return Err(DurabilityError::Unencodable {
            reason: format!(
                "vertex name {:?} contains a line break and cannot be framed",
                node.name
            ),
        });
    }
    write_payload(delta, out).expect("writing into a Vec cannot fail");
    Ok(())
}

fn write_payload(delta: &GraphDelta, out: &mut Vec<u8>) -> io::Result<()> {
    write!(
        out,
        "delta {} {} {} ",
        delta.base_nodes(),
        delta.new_nodes().len(),
        delta.interactions().len()
    )?;
    match delta.expiry() {
        Some(t) => writeln!(out, "{t}")?,
        None => out.extend_from_slice(b"-\n"),
    }
    for node in delta.new_nodes() {
        out.extend_from_slice(node.name.as_bytes());
        out.push(b'\n');
    }
    for &(src, dst, i) in delta.interactions() {
        if i.quantity.is_infinite() {
            writeln!(
                out,
                "{} {} {} {INFINITE_QUANTITY_TOKEN}",
                src.0, dst.0, i.time
            )?;
        } else {
            writeln!(out, "{} {} {} {}", src.0, dst.0, i.time, i.quantity)?;
        }
    }
    Ok(())
}

/// Deserializes a frame payload back into a validated delta. The error is a
/// human-readable reason; [`scan_segment`] wraps it with file/offset
/// position.
pub fn decode_delta(payload: &[u8]) -> Result<GraphDelta, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("payload is not UTF-8: {e}"))?;
    let mut lines = text.split('\n');
    let header = lines.next().ok_or("empty payload")?;
    let fields: Vec<&str> = header.split(' ').collect();
    let [tag, base, nodes, recs, expiry] = fields.as_slice() else {
        return Err(format!("malformed header line `{header}`"));
    };
    if *tag != "delta" {
        return Err(format!("unknown payload tag `{tag}`"));
    }
    let base: usize = base
        .parse()
        .map_err(|_| format!("bad base node count `{base}`"))?;
    let nodes: usize = nodes
        .parse()
        .map_err(|_| format!("bad new node count `{nodes}`"))?;
    let recs: usize = recs
        .parse()
        .map_err(|_| format!("bad record count `{recs}`"))?;
    let expiry: Option<i64> = match *expiry {
        "-" => None,
        t => Some(parse_time(t).map_err(|e| format!("bad expiry: {e}"))?),
    };
    let mut new_nodes = Vec::with_capacity(nodes);
    for i in 0..nodes {
        let name = lines.next().ok_or(format!("missing node line {i}"))?;
        new_nodes.push(Node { name: name.into() });
    }
    let mut interactions = Vec::with_capacity(recs);
    for i in 0..recs {
        let line = lines.next().ok_or(format!("missing record line {i}"))?;
        let fields: Vec<&str> = line.split(' ').collect();
        let [src, dst, time, quantity] = fields.as_slice() else {
            return Err(format!(
                "record {i} has {} fields, expected 4",
                fields.len()
            ));
        };
        let src: u32 = src
            .parse()
            .map_err(|_| format!("record {i}: bad source id `{src}`"))?;
        let dst: u32 = dst
            .parse()
            .map_err(|_| format!("record {i}: bad destination id `{dst}`"))?;
        let time = parse_time(time).map_err(|e| format!("record {i}: {e}"))?;
        let quantity = parse_quantity(quantity).map_err(|e| format!("record {i}: {e}"))?;
        interactions.push((NodeId(src), NodeId(dst), Interaction::new(time, quantity)));
    }
    // The final newline leaves one empty trailing element; anything else is
    // junk after the declared records.
    if lines.any(|l| !l.is_empty()) {
        return Err("trailing data after the declared records".into());
    }
    let delta = GraphDelta::new(base, new_nodes, interactions)
        .map_err(|e| format!("decoded delta is invalid: {e}"))?;
    Ok(match expiry {
        Some(t) => delta.expire_before(t),
        None => delta,
    })
}

/// Writes one frame (header + payload) for `payload`, returning the bytes
/// written. The write is a single `write_all`, so a fault-injected writer
/// sees the frame as one contiguous span of the stream.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<u64> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES as usize + payload.len());
    frame.extend_from_slice(&frame_header(payload)?);
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    Ok(frame.len() as u64)
}

/// The header of `payload`'s frame: its length, then the CRC-32 of the
/// length bytes and the payload.
fn frame_header(payload: &[u8]) -> io::Result<[u8; FRAME_HEADER_BYTES as usize]> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame payload exceeds u32"))?;
    let len_bytes = len.to_le_bytes();
    let mut crc = Crc32::new();
    crc.update(&len_bytes);
    crc.update(payload);
    let mut header = [0; FRAME_HEADER_BYTES as usize];
    header[..4].copy_from_slice(&len_bytes);
    header[4..].copy_from_slice(&crc.finish().to_le_bytes());
    Ok(header)
}

/// A torn (incomplete) frame at the end of a segment — the signature a kill
/// mid-write leaves behind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset where the torn frame starts — everything before it is
    /// intact and was recovered.
    pub offset: u64,
    /// What exactly was cut short.
    pub reason: String,
}

/// The result of scanning one segment's bytes.
#[derive(Debug)]
pub struct SegmentScan {
    /// Decoded deltas with the byte offset *after* each one's frame — the
    /// durable position a consumer reaches by applying it.
    pub deltas: Vec<(GraphDelta, u64)>,
    /// The exact recoverable prefix: magic plus every whole valid frame.
    pub valid_bytes: u64,
    /// Frames decoded (equals `deltas.len()`, kept as `u64` for positions).
    pub frames: u64,
    /// Present when the segment ends mid-frame (only possible when
    /// `tolerate_torn_tail` was set; otherwise the scan errors instead).
    pub torn: Option<TornTail>,
}

/// Scans a segment's bytes from `start` (0 means "verify the magic first";
/// positions recorded by the journal are always past the magic), decoding
/// every frame. `file` labels errors. See the [module docs](self) for the
/// torn-tail / corruption split `tolerate_torn_tail` controls, and for why
/// the trailing zero bytes are stripped before the scan.
///
/// A `start` past the end of `bytes` is corruption under either tolerance:
/// the segment lost bytes below a committed position, and a position is
/// committed only after its frames were synced, so no crash leaves that
/// behind.
///
/// Frames are counted from `start`: a [`DurabilityError::CorruptFrame`]'s
/// `frame` is the failing frame's index among the frames the scan read,
/// which for a scan from 0 is its index in the segment.
///
/// This collects every decoded frame; the journal's own readers take each
/// frame as it is decoded instead (see the [module docs](self)).
pub fn scan_segment(
    bytes: &[u8],
    start: u64,
    tolerate_torn_tail: bool,
    file: &str,
) -> Result<SegmentScan, DurabilityError> {
    let mut deltas = Vec::new();
    let end = scan_tail(
        bytes,
        0,
        start,
        tolerate_torn_tail,
        file,
        |delta, _, end| {
            deltas.push((delta, end));
            Ok(())
        },
    )?;
    Ok(SegmentScan {
        deltas,
        valid_bytes: end.valid_bytes,
        frames: end.frames,
        torn: end.torn,
    })
}

/// Where a [`scan_tail`] stopped: a [`SegmentScan`] without the frames,
/// which went to the scan's caller one at a time.
#[derive(Debug)]
pub(crate) struct ScanEnd {
    /// The exact recoverable prefix: magic plus every whole valid frame.
    pub(crate) valid_bytes: u64,
    /// Frames decoded.
    pub(crate) frames: u64,
    /// Present when the segment ends mid-frame.
    pub(crate) torn: Option<TornTail>,
}

/// [`scan_segment`] over the part of a segment that begins at byte `base`
/// of the file, handing each frame to `on_frame` as it is decoded, with
/// the offsets of its start and of the byte after it, instead of
/// collecting them: the scan holds one decoded frame at a time. `tail`
/// holds the segment from `base` to its end, and every offset in and out
/// is the segment's own. `base` may not exceed `start`, and is 0 when
/// `start` lies inside the magic, which is then checked. A reader that
/// resumes at a committed position passes the bytes from there on, or
/// none when the file ends before it, with `base` at the file's end, so
/// that the past-the-end verdict still sees the segment's true length.
///
/// An error from `on_frame` ends the scan and is returned as it is, so a
/// fault the caller finds in a frame is reported before any corruption in
/// the frames after it.
pub(crate) fn scan_tail(
    tail: &[u8],
    base: u64,
    start: u64,
    tolerate_torn_tail: bool,
    file: &str,
    mut on_frame: impl FnMut(GraphDelta, u64, u64) -> Result<(), DurabilityError>,
) -> Result<ScanEnd, DurabilityError> {
    debug_assert!(base <= start && (base == 0 || start >= SEGMENT_MAGIC.len() as u64));
    let len = base + tail.len() as u64;
    if start > len {
        return Err(DurabilityError::CorruptFrame {
            file: file.into(),
            frame: 0,
            offset: start,
            reason: format!("committed position {start} lies past the segment's end ({len} bytes)"),
        });
    }
    let from = (start - base) as usize;
    let data_end = tail[from..]
        .iter()
        .rposition(|&b| b != 0)
        .map_or(from, |last| from + last + 1);
    // `bytes[i]` is the segment's byte `base + i`.
    let bytes = &tail[..data_end];
    let end = base + bytes.len() as u64;
    let mut offset;
    if start < SEGMENT_MAGIC.len() as u64 {
        let have = bytes.len().min(SEGMENT_MAGIC.len());
        if bytes[..have] != SEGMENT_MAGIC[..have] {
            return Err(DurabilityError::CorruptFrame {
                file: file.into(),
                frame: 0,
                offset: 0,
                reason: "bad segment magic".into(),
            });
        }
        if have < SEGMENT_MAGIC.len() {
            // The file ends inside the magic: a kill during segment
            // creation. Nothing is recoverable from this segment.
            if tolerate_torn_tail {
                return Ok(ScanEnd {
                    valid_bytes: 0,
                    frames: 0,
                    torn: Some(TornTail {
                        offset: 0,
                        reason: "segment magic is cut short".into(),
                    }),
                });
            }
            return Err(DurabilityError::CorruptFrame {
                file: file.into(),
                frame: 0,
                offset: 0,
                reason: "segment magic is cut short".into(),
            });
        }
        offset = SEGMENT_MAGIC.len() as u64;
    } else {
        offset = start;
    }

    let mut frames = 0u64;
    loop {
        let remaining = end - offset;
        if remaining == 0 {
            return Ok(ScanEnd {
                valid_bytes: offset,
                frames,
                torn: None,
            });
        }
        // An incomplete frame: header or payload cut short.
        let torn_reason = if remaining < FRAME_HEADER_BYTES {
            Some(format!(
                "frame header cut short ({remaining} of {FRAME_HEADER_BYTES} bytes)"
            ))
        } else {
            let o = (offset - base) as usize;
            let len = u32::from_le_bytes(bytes[o..o + 4].try_into().expect("4-byte slice")) as u64;
            if remaining < FRAME_HEADER_BYTES + len {
                Some(format!(
                    "frame payload cut short ({} of {len} bytes)",
                    remaining - FRAME_HEADER_BYTES
                ))
            } else {
                None
            }
        };
        if let Some(reason) = torn_reason {
            if tolerate_torn_tail {
                return Ok(ScanEnd {
                    valid_bytes: offset,
                    frames,
                    torn: Some(TornTail { offset, reason }),
                });
            }
            return Err(DurabilityError::CorruptFrame {
                file: file.into(),
                frame: frames,
                offset,
                reason,
            });
        }
        let o = (offset - base) as usize;
        let len_bytes: [u8; 4] = bytes[o..o + 4].try_into().expect("4-byte slice");
        let len = u32::from_le_bytes(len_bytes) as u64;
        let stored_crc = u32::from_le_bytes(bytes[o + 4..o + 8].try_into().expect("4-byte slice"));
        let payload = &bytes[o + 8..o + 8 + len as usize];
        let mut crc = Crc32::new();
        crc.update(&len_bytes);
        crc.update(payload);
        let actual = crc.finish();
        if actual != stored_crc {
            // A *complete* frame failing its checksum is corruption, never a
            // tolerated tail.
            return Err(DurabilityError::CorruptFrame {
                file: file.into(),
                frame: frames,
                offset,
                reason: format!(
                    "checksum mismatch (stored {stored_crc:#010x}, computed {actual:#010x})"
                ),
            });
        }
        let delta = decode_delta(payload).map_err(|reason| DurabilityError::CorruptFrame {
            file: file.into(),
            frame: frames,
            offset,
            reason: format!("checksum valid but payload undecodable: {reason}"),
        })?;
        let frame_start = offset;
        offset += FRAME_HEADER_BYTES + len;
        frames += 1;
        on_frame(delta, frame_start, offset)?;
    }
}

/// One-shot CRC of a whole file's bytes — what manifests record for their
/// snapshot payload.
pub fn file_crc(bytes: &[u8]) -> u32 {
    crc32(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tin_graph::Time;

    fn sample_delta() -> GraphDelta {
        GraphDelta::new(
            2,
            vec![
                Node {
                    name: "alice b".into(),
                },
                Node { name: "#4".into() },
            ],
            vec![
                (NodeId(0), NodeId(2), Interaction::new(10, 2.5)),
                (NodeId(2), NodeId(3), Interaction::new(11, f64::INFINITY)),
                (NodeId(3), NodeId(1), Interaction::new(-5, 0.1 + 0.2)),
            ],
        )
        .unwrap()
        .expire_before(3)
    }

    fn segment_with(deltas: &[GraphDelta]) -> (Vec<u8>, Vec<u64>) {
        let mut bytes = SEGMENT_MAGIC.to_vec();
        let mut ends = Vec::new();
        for d in deltas {
            let payload = encode_delta(d).unwrap();
            write_frame(&mut bytes, &payload).unwrap();
            ends.push(bytes.len() as u64);
        }
        (bytes, ends)
    }

    #[test]
    fn delta_roundtrip_is_exact() {
        let d = sample_delta();
        let payload = encode_delta(&d).unwrap();
        let back = decode_delta(&payload).unwrap();
        assert_eq!(back, d);
        // Names with spaces and leading '#' survive; quantities round-trip
        // bit-exactly (0.1 + 0.2 is not 0.3).
        assert_eq!(back.new_nodes()[0].name, "alice b");
        assert_eq!(back.interactions()[2].2.quantity, 0.1 + 0.2);
        assert!(back.interactions()[1].2.quantity.is_infinite());
        assert_eq!(back.expiry(), Some(3));
    }

    #[test]
    fn expiry_only_and_empty_deltas_roundtrip() {
        let none = GraphDelta::new(5, vec![], vec![]).unwrap();
        assert_eq!(decode_delta(&encode_delta(&none).unwrap()).unwrap(), none);
        let exp = GraphDelta::new(5, vec![], vec![])
            .unwrap()
            .expire_before(Time::MIN);
        assert_eq!(decode_delta(&encode_delta(&exp).unwrap()).unwrap(), exp);
    }

    #[test]
    fn newline_in_name_is_unencodable() {
        let d = GraphDelta::new(
            0,
            vec![Node {
                name: "a\nb".into(),
            }],
            vec![],
        )
        .unwrap();
        assert!(matches!(
            encode_delta(&d),
            Err(DurabilityError::Unencodable { .. })
        ));
    }

    #[test]
    fn scan_decodes_all_frames_with_positions() {
        let d = sample_delta();
        let (bytes, ends) = segment_with(&[d.clone(), d.clone(), d.clone()]);
        let scan = scan_segment(&bytes, 0, true, "seg").unwrap();
        assert_eq!(scan.frames, 3);
        assert!(scan.torn.is_none());
        assert_eq!(scan.valid_bytes, bytes.len() as u64);
        for (i, (delta, end)) in scan.deltas.iter().enumerate() {
            assert_eq!(delta, &d);
            assert_eq!(*end, ends[i]);
        }
        // Resume from a mid-segment position.
        let resumed = scan_segment(&bytes, ends[0], true, "seg").unwrap();
        assert_eq!(resumed.frames, 2);
    }

    #[test]
    fn complete_frame_with_bad_crc_is_corruption_not_torn() {
        let (mut bytes, _) = segment_with(&[sample_delta()]);
        let flip = SEGMENT_MAGIC.len() + 12; // inside the payload
        bytes[flip] ^= 0x01;
        let err = scan_segment(&bytes, 0, true, "seg").unwrap_err();
        match err {
            DurabilityError::CorruptFrame {
                frame,
                offset,
                reason,
                ..
            } => {
                assert_eq!(frame, 0);
                assert_eq!(offset, SEGMENT_MAGIC.len() as u64);
                assert!(reason.contains("checksum"), "{reason}");
            }
            other => panic!("expected CorruptFrame, got {other:?}"),
        }
    }

    #[test]
    fn flipping_any_complete_frame_byte_is_detected() {
        let (bytes, _) = segment_with(&[sample_delta(), sample_delta()]);
        // Flip every byte of the first frame (header and payload) in turn;
        // the scan must error (never silently return a wrong delta) because
        // the frame stays complete.
        let first_frame_end = {
            let scan = scan_segment(&bytes, 0, true, "seg").unwrap();
            scan.deltas[0].1 as usize
        };
        for i in SEGMENT_MAGIC.len()..first_frame_end {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0x10;
            let r = scan_segment(&corrupted, 0, true, "seg");
            match r {
                Err(DurabilityError::CorruptFrame { .. }) => {}
                // A corrupted length field may claim more bytes than the
                // stream holds — conservatively a torn tail, but then the
                // recoverable prefix must stop before this frame.
                Ok(scan) => {
                    assert!(
                        scan.torn.is_some() && scan.valid_bytes <= SEGMENT_MAGIC.len() as u64,
                        "flip at {i} was silently accepted"
                    );
                }
                Err(e) => panic!("unexpected error for flip at {i}: {e}"),
            }
        }
    }

    #[test]
    fn bad_magic_is_corruption_even_with_tolerance() {
        let mut bytes = SEGMENT_MAGIC.to_vec();
        bytes[0] = b'X';
        assert!(matches!(
            scan_segment(&bytes, 0, true, "seg"),
            Err(DurabilityError::CorruptFrame { .. })
        ));
    }

    #[test]
    fn start_past_the_end_is_corruption_under_both_tolerances() {
        let (bytes, ends) = segment_with(&[sample_delta(), sample_delta()]);
        let cut = &bytes[..ends[0] as usize + 3];
        for tolerate in [true, false] {
            match scan_segment(cut, ends[1], tolerate, "seg") {
                Err(DurabilityError::CorruptFrame {
                    file,
                    offset,
                    reason,
                    ..
                }) => {
                    assert_eq!(file, "seg");
                    assert_eq!(offset, ends[1]);
                    assert!(reason.contains(&cut.len().to_string()), "{reason}");
                }
                other => panic!("expected CorruptFrame, got {other:?}"),
            }
        }
        // A start exactly at the end is a clean, empty scan.
        let scan = scan_segment(&bytes, ends[1], false, "seg").unwrap();
        assert_eq!((scan.frames, scan.valid_bytes), (0, ends[1]));
    }

    #[test]
    fn truncation_in_non_final_segment_context_is_an_error() {
        let (bytes, _) = segment_with(&[sample_delta()]);
        let cut = &bytes[..bytes.len() - 3];
        let err = scan_segment(cut, 0, false, "seg").unwrap_err();
        assert!(matches!(err, DurabilityError::CorruptFrame { .. }));
    }

    #[test]
    fn failpoint_written_segment_recovers_whole_frame_prefix() {
        use crate::failpoint::{Failpoint, FailpointWriter};
        let d = sample_delta();
        let payload = encode_delta(&d).unwrap();
        let frame_len = FRAME_HEADER_BYTES + payload.len() as u64;
        let magic = SEGMENT_MAGIC.len() as u64;
        // Kill the writer mid-way through the third frame.
        let cut = magic + 2 * frame_len + frame_len / 2;
        let mut w = FailpointWriter::new(Vec::new(), Failpoint::TruncateAt(cut));
        w.write_all(SEGMENT_MAGIC).unwrap();
        for _ in 0..4 {
            write_frame(&mut w, &payload).unwrap();
        }
        let bytes = w.into_inner();
        let scan = scan_segment(&bytes, 0, true, "seg").unwrap();
        assert_eq!(scan.frames, 2);
        assert_eq!(scan.valid_bytes, magic + 2 * frame_len);
        assert!(scan.torn.is_some());
    }
}
