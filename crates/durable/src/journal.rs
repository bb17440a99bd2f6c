//! The write-ahead delta journal: segment files of CRC-framed
//! [`GraphDelta`]s (see [`crate::frame`]), with an fsync-on-batch policy,
//! size-based rotation, and multi-segment replay.
//!
//! Segment files are named `journal-<seq>.wal` with zero-padded, strictly
//! increasing sequence numbers; a hole in the sequence means someone deleted
//! a segment and replay refuses to jump it. Opening a journal for append
//! truncates a torn tail (the leftovers of a kill mid-write) off the newest
//! segment — the frames before it are untouched, exactly the recoverable
//! prefix [`crate::frame::scan_segment`] reports.
//!
//! [`replay_from`] reads each segment from where the replay starts in it,
//! so a recovery from a snapshot reads none of the frames its snapshot
//! covers. A store reopening after recovery starts appending where the
//! recovery's replay ended and makes the same cut without scanning the
//! segment a second time.
//!
//! Frames reach a reader one at a time, as the scanner decodes them:
//! recovery applies each to its graph before the next is decoded, and
//! [`Journal::open`] drops each once it decoded, so neither holds more than
//! one decoded frame beside the segment's bytes. [`replay_from`] collects
//! them all for a caller that wants them.
//!
//! ## Presized segments
//!
//! Frames are written in place at the segment's data end, not appended:
//! when a frame would cross the file's length, the file first grows by
//! whole 64 KiB steps (`File::set_len`). An appending write changes the
//! file's size, and `fdatasync` must then commit that size as metadata on
//! every frame; in place, the per-frame sync flushes the frame's block and
//! commits a size change only once per step. (Allocating blocks past the
//! end without moving the size, as `fallocate`'s `KEEP_SIZE` does, leaves
//! the per-frame size commit in place.)
//!
//! The unwritten rest of a step reads as zeros, which the scanner strips
//! (see [`crate::frame`]). A rotation and a clean close ([`Journal`]'s
//! `Drop`) trim the segment to its data end, so a finished segment is
//! byte-identical to an append-only one. A killed writer leaves at most one
//! step of zeros, and [`Journal::open`] cuts them, along with any torn
//! frame, before it appends.

use crate::error::DurabilityError;
use crate::frame::{self, SEGMENT_MAGIC};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use tin_graph::GraphDelta;

/// A segment's length grows in whole steps of this many bytes; see the
/// [module docs](self).
const GROWTH_STEP: u64 = 64 * 1024;

/// Journal tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalConfig {
    /// Rotate to a fresh segment once the current one reaches this many
    /// bytes (checked before each append, so segments overshoot by at most
    /// one frame).
    pub segment_max_bytes: u64,
    /// fsync after every `sync_every` appended frames — the "batch" of the
    /// fsync-on-batch policy. `1` makes every append durable before it
    /// returns; `0` disables automatic syncs ([`Journal::sync`] only);
    /// larger values are group commit ([`JournalConfig::group_commit`]).
    pub sync_every: u32,
    /// Garbage-collect journal segments on snapshot commit: once a manifest
    /// is durably committed, every segment *older* than the one its journal
    /// position points into can never be read by a recovery through that
    /// manifest, and [`crate::DurableStore::snapshot`] deletes them
    /// ([`compact_before`]). Disable to keep the full journal history — at
    /// the cost of unbounded growth — e.g. to preserve the from-scratch
    /// full-replay path after manifests are lost, or to keep *older*
    /// snapshots recoverable (compaction only guarantees the newest one).
    pub compact_on_snapshot: bool,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            segment_max_bytes: 8 * 1024 * 1024,
            sync_every: 1,
            compact_on_snapshot: true,
        }
    }
}

impl JournalConfig {
    /// Group commit: coalesce up to `n` appends per fsync. The write-path
    /// trade is classic — one fsync amortized over `n` frames instead of
    /// one each — and the crash contract weakens exactly this far: a kill
    /// loses *at most the last uncommitted group* (the appends since the
    /// previous group boundary), never a committed one. A clean shutdown
    /// loses nothing: dropping the [`Journal`] flushes the open group.
    /// [`Journal::durable_position`] reports how far the fsynced prefix
    /// reaches at any moment.
    pub fn group_commit(n: u32) -> Self {
        JournalConfig {
            sync_every: n,
            ..JournalConfig::default()
        }
    }
}

/// A durable position in the journal: a segment and a byte offset within
/// it. Positions returned by [`Journal::append`] point *after* the appended
/// frame — the position a replay reaches by consuming it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct JournalPos {
    /// Segment sequence number.
    pub segment: u64,
    /// Byte offset within the segment file.
    pub offset: u64,
}

impl JournalPos {
    /// The very start of a journal (before any segment's first frame).
    pub fn start() -> Self {
        JournalPos {
            segment: 0,
            offset: 0,
        }
    }
}

/// The append half of the journal. Reading back goes through
/// [`replay_from`], which operates on the directory alone — a reader needs
/// no live `Journal`.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    config: JournalConfig,
    seg_seq: u64,
    /// The current segment, its cursor at the data end.
    file: File,
    /// The data end: where the next frame goes.
    offset: u64,
    /// The segment file's length: the data end plus the unwritten rest of
    /// the last step.
    len: u64,
    unsynced: u32,
    durable: JournalPos,
    /// The frame being appended, kept to reuse its allocation.
    frame: Vec<u8>,
}

/// Path of segment `seq` under `dir`.
pub fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("journal-{seq:06}.wal"))
}

/// Lists the segment files under `dir`, sorted by sequence number.
pub fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, DurabilityError> {
    let mut found = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(found),
        Err(e) => return Err(DurabilityError::from_io(dir, e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| DurabilityError::from_io(dir, e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(seq) = name
            .strip_prefix("journal-")
            .and_then(|s| s.strip_suffix(".wal"))
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        found.push((seq, entry.path()));
    }
    found.sort_unstable();
    Ok(found)
}

impl Journal {
    /// Opens (or creates) the journal under `dir` for appending.
    ///
    /// If the newest segment ends in a torn frame — the leftovers of a kill
    /// mid-write — the file is truncated back to its last whole valid frame
    /// before appends resume, so the torn bytes can never shadow a later
    /// frame. The same cut removes the unwritten zeros a killed writer's
    /// presized segment ends in. Corruption *before* the tail is a hard
    /// error: appending after it would strand the corrupt region between
    /// valid frames forever.
    pub fn open(dir: &Path, config: JournalConfig) -> Result<Self, DurabilityError> {
        fs::create_dir_all(dir).map_err(|e| DurabilityError::from_io(dir, e))?;
        let segments = list_segments(dir)?;
        match segments.last() {
            None => Ok(Journal::at(
                dir,
                config,
                0,
                create_segment(dir, 0)?,
                SEGMENT_MAGIC.len() as u64,
            )),
            Some(&(seq, ref path)) => {
                let bytes = fs::read(path).map_err(|e| DurabilityError::from_io(path, e))?;
                // Every frame is decoded, to refuse one that does not, and
                // dropped at once.
                let scan =
                    frame::scan_tail(&bytes, 0, 0, true, &file_name(path), |_, _, _| Ok(()))?;
                Journal::reopen(dir, config, seq, path, scan.valid_bytes)
            }
        }
    }

    /// Opens the journal under `dir` for appending at `end`, the position
    /// a replay of the directory ended at ([`JournalReplay::end`], or
    /// [`crate::RecoveryReport::position`]) with nothing written since.
    ///
    /// The replay has already scanned the newest segment from where it
    /// started in it, so this reads no frame: it cuts the segment back to
    /// `end` and gives a segment cut inside its magic its magic back, as
    /// [`Journal::open`] does after its own scan. The frames before the
    /// replay's start go unchecked, as the replay left them. When `end`
    /// does not lie in the newest segment (the replay found no segment
    /// from its start on), this is [`Journal::open`].
    pub(crate) fn resume(
        dir: &Path,
        config: JournalConfig,
        end: JournalPos,
    ) -> Result<Self, DurabilityError> {
        match list_segments(dir)?.last() {
            Some(&(seq, ref path)) if seq == end.segment => {
                Journal::reopen(dir, config, seq, path, end.offset)
            }
            _ => Journal::open(dir, config),
        }
    }

    /// Opens segment `seq` at `path` for appending after its first `valid`
    /// bytes, cutting whatever follows them (a torn frame, a killed
    /// writer's zeros). A segment with no valid byte gets its magic back.
    fn reopen(
        dir: &Path,
        config: JournalConfig,
        seq: u64,
        path: &Path,
        valid: u64,
    ) -> Result<Self, DurabilityError> {
        let io = |e| DurabilityError::from_io(path, e);
        let mut file = OpenOptions::new().write(true).open(path).map_err(io)?;
        if valid < file.metadata().map_err(io)?.len() {
            file.set_len(valid)
                .and_then(|()| file.sync_all())
                .map_err(io)?;
        }
        // A segment cut inside its magic recovers to 0 bytes; give it its
        // magic back so it is a valid empty segment.
        let offset = if valid == 0 {
            file.write_all(SEGMENT_MAGIC)
                .and_then(|()| file.sync_all())
                .map_err(io)?;
            SEGMENT_MAGIC.len() as u64
        } else {
            file.seek(SeekFrom::Start(valid)).map_err(io)?;
            valid
        };
        Ok(Journal::at(dir, config, seq, file, offset))
    }

    /// A journal appending to segment `seq`, `file`, at its data end
    /// `offset`, which is also the file's length and durable.
    fn at(dir: &Path, config: JournalConfig, seq: u64, file: File, offset: u64) -> Self {
        Journal {
            dir: dir.to_path_buf(),
            config,
            seg_seq: seq,
            file,
            offset,
            len: offset,
            unsynced: 0,
            durable: JournalPos {
                segment: seq,
                offset,
            },
            frame: Vec::new(),
        }
    }

    /// Appends one delta as a frame, returning the durable position *after*
    /// it. Rotates to a fresh segment first when the current one is full;
    /// fsyncs according to [`JournalConfig::sync_every`].
    ///
    /// The frame is built in a buffer the journal keeps and written with
    /// one call at the data end. When it would cross the segment's length,
    /// the file first grows by whole 64 KiB steps, so only the sync after a
    /// step commits a size change (see the [module docs](self)).
    pub fn append(&mut self, delta: &GraphDelta) -> Result<JournalPos, DurabilityError> {
        if self.offset >= self.config.segment_max_bytes && self.offset > SEGMENT_MAGIC.len() as u64
        {
            self.rotate()?;
        }
        frame::encode_frame(delta, &mut self.frame)?;
        let end = self.offset + self.frame.len() as u64;
        if end > self.len {
            let len = self.len + (end - self.len).div_ceil(GROWTH_STEP) * GROWTH_STEP;
            self.file.set_len(len).map_err(|e| self.io_error(e))?;
            self.len = len;
        }
        self.file
            .write_all(&self.frame)
            .map_err(|e| self.io_error(e))?;
        self.offset = end;
        self.unsynced += 1;
        if self.config.sync_every > 0 && self.unsynced >= self.config.sync_every {
            self.sync()?;
        }
        Ok(self.position())
    }

    /// Forces everything appended so far to stable storage, closing the
    /// open commit group.
    pub fn sync(&mut self) -> Result<(), DurabilityError> {
        self.file.sync_data().map_err(|e| self.io_error(e))?;
        self.unsynced = 0;
        self.durable = self.position();
        Ok(())
    }

    /// Closes the current segment and starts the next one. The finished
    /// segment is trimmed to its data end and synced, so its frames and
    /// its final size are durable before the next segment exists.
    pub fn rotate(&mut self) -> Result<(), DurabilityError> {
        self.trim()?;
        self.sync()?;
        let seq = self.seg_seq + 1;
        self.file = create_segment(&self.dir, seq)?;
        self.seg_seq = seq;
        self.offset = SEGMENT_MAGIC.len() as u64;
        self.len = self.offset;
        self.durable = self.position();
        Ok(())
    }

    /// Cuts the unwritten rest of the last step off the current segment.
    fn trim(&mut self) -> Result<(), DurabilityError> {
        if self.len > self.offset {
            self.file
                .set_len(self.offset)
                .map_err(|e| self.io_error(e))?;
            self.len = self.offset;
        }
        Ok(())
    }

    fn io_error(&self, e: io::Error) -> DurabilityError {
        DurabilityError::from_io(&segment_path(&self.dir, self.seg_seq), e)
    }

    /// The current end position (after the last appended frame). With
    /// group commit ([`JournalConfig::sync_every`] > 1) the tail past
    /// [`durable_position`](Self::durable_position) is appended but not
    /// yet fsynced.
    pub fn position(&self) -> JournalPos {
        JournalPos {
            segment: self.seg_seq,
            offset: self.offset,
        }
    }

    /// How far the fsynced prefix reaches: the position as of the last
    /// completed sync (group boundary, explicit [`sync`](Self::sync),
    /// rotation, or open). A kill can only lose frames *after* this
    /// position — the open commit group.
    pub fn durable_position(&self) -> JournalPos {
        self.durable
    }

    /// The configuration the journal was opened with.
    pub fn config(&self) -> &JournalConfig {
        &self.config
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Journal {
    /// Clean shutdown loses nothing: a drop flushes the open commit group
    /// so group commit only ever risks the tail on a *kill*. It then trims
    /// the segment to its data end, so a cleanly closed segment holds the
    /// same bytes an append-only one would; the trim is not synced, since
    /// the zeros it cuts read as unwritten space anyway. Best-effort — a
    /// drop cannot surface errors; call [`Journal::sync`] first when the
    /// flush must be checked.
    fn drop(&mut self) {
        if self.unsynced > 0 {
            let _ = self.file.sync_data();
        }
        let _ = self.trim();
    }
}

/// The result of replaying the journal from a position.
#[derive(Debug)]
pub struct JournalReplay {
    /// Decoded deltas in order, each with the durable position after its
    /// frame.
    pub deltas: Vec<(GraphDelta, JournalPos)>,
    /// The position after the last whole valid frame.
    pub end: JournalPos,
    /// A torn tail on the *newest* segment, if one was found (tolerated:
    /// the frames before it are all in `deltas`).
    pub torn: Option<(u64, frame::TornTail)>,
}

/// Replays every frame from `from` (a position previously returned by
/// [`Journal::append`], a snapshot manifest, or [`JournalPos::start`]) to
/// the journal's end.
///
/// Only the newest segment may end mid-frame (a torn tail, tolerated and
/// reported); an incomplete or checksum-failing frame anywhere else is
/// mid-journal corruption and fails with a typed, positional
/// [`DurabilityError::CorruptFrame`], whose `frame` counts the frames
/// from `from` on: the index the failing frame would have had in
/// [`JournalReplay::deltas`].
///
/// Each segment is read from where the replay starts in it, so a replay
/// from a snapshot's position reads none of the frames before it.
///
/// This collects every decoded frame; recovery applies each frame as it
/// is decoded instead (see the [module docs](self)).
pub fn replay_from(dir: &Path, from: JournalPos) -> Result<JournalReplay, DurabilityError> {
    let mut deltas = Vec::new();
    let (end, torn) = replay_each(dir, from, |delta, _, end| {
        deltas.push((delta, end));
        Ok(())
    })?;
    Ok(JournalReplay { deltas, end, torn })
}

/// [`replay_from`] that hands each frame to `on_frame` as it is decoded,
/// with the positions of its start and of the byte after it, instead of
/// collecting them, so the replay holds one decoded frame at a time.
/// Returns where the replay ended and the newest segment's torn tail, as
/// [`JournalReplay::end`] and [`JournalReplay::torn`].
///
/// An error from `on_frame` ends the replay, and the frames after the one
/// it refused are not read.
pub(crate) fn replay_each(
    dir: &Path,
    from: JournalPos,
    mut on_frame: impl FnMut(GraphDelta, JournalPos, JournalPos) -> Result<(), DurabilityError>,
) -> Result<(JournalPos, Option<(u64, frame::TornTail)>), DurabilityError> {
    let segments = list_segments(dir)?;
    let relevant: Vec<&(u64, PathBuf)> = segments
        .iter()
        .filter(|(seq, _)| *seq >= from.segment)
        .collect();
    if let Some((first, _)) = relevant.first() {
        if *first > from.segment {
            return Err(DurabilityError::MissingSegment {
                segment: from.segment,
            });
        }
    }
    let mut frames = 0;
    let mut end = from;
    let mut torn = None;
    for (i, (seq, path)) in relevant.iter().enumerate() {
        if i > 0 && *seq != relevant[i - 1].0 + 1 {
            return Err(DurabilityError::MissingSegment {
                segment: relevant[i - 1].0 + 1,
            });
        }
        let is_last = i + 1 == relevant.len();
        let start = if *seq == from.segment { from.offset } else { 0 };
        let scan = {
            let (base, tail) = read_from(path, start)?;
            frame::scan_tail(
                &tail,
                base,
                start,
                is_last,
                &file_name(path),
                |delta, start, end| {
                    let at = |offset| JournalPos {
                        segment: *seq,
                        offset,
                    };
                    on_frame(delta, at(start), at(end))
                },
            )
            .map_err(|e| e.after_frames(frames))?
        };
        frames += scan.frames;
        if scan.frames > 0 || is_last {
            end = JournalPos {
                segment: *seq,
                offset: scan.valid_bytes,
            };
        }
        if let Some(t) = scan.torn {
            torn = Some((*seq, t));
        }
    }
    Ok((end, torn))
}

/// Reads segment `path` from where a scan starting at `start` needs it:
/// from byte 0 when `start` lies inside the magic, which the scan checks,
/// else from `start`, or from the file's end when the file is shorter.
/// Returns the offset the bytes begin at and the bytes.
fn read_from(path: &Path, start: u64) -> Result<(u64, Vec<u8>), DurabilityError> {
    let io = |e| DurabilityError::from_io(path, e);
    let mut file = File::open(path).map_err(io)?;
    let len = file.metadata().map_err(io)?.len();
    let base = if start < SEGMENT_MAGIC.len() as u64 {
        0
    } else {
        start.min(len)
    };
    file.seek(SeekFrom::Start(base)).map_err(io)?;
    let mut tail = Vec::with_capacity((len - base) as usize);
    file.read_to_end(&mut tail).map_err(io)?;
    Ok((base, tail))
}

/// Deletes every journal segment strictly older than `pos.segment`,
/// returning how many were removed. Safe whenever `pos` is covered by a
/// durably committed snapshot manifest: a replay from `pos` (or later) never
/// opens those segments, and [`replay_from`]'s contiguity check only spans
/// `pos.segment` onward. Replays from *earlier* positions — the full-replay
/// ladder rung, or an older manifest — fail with
/// [`DurabilityError::MissingSegment`] afterwards, which is the trade
/// [`JournalConfig::compact_on_snapshot`] opts into.
///
/// The directory is fsynced after the removals so the reclaimed space (and
/// the absence of the files) is itself durable. Removal of an
/// already-missing segment is not an error — compaction is idempotent.
pub fn compact_before(dir: &Path, pos: JournalPos) -> Result<usize, DurabilityError> {
    let mut removed = 0;
    for (seq, path) in list_segments(dir)? {
        if seq >= pos.segment {
            break;
        }
        match fs::remove_file(&path) {
            Ok(()) => removed += 1,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(DurabilityError::from_io(&path, e)),
        }
    }
    if removed > 0 {
        sync_dir(dir)?;
    }
    Ok(removed)
}

/// Creates segment `seq` under `dir` holding only its magic, durably (the
/// file and its directory entry are both synced), and returns it with the
/// cursor after the magic.
fn create_segment(dir: &Path, seq: u64) -> Result<File, DurabilityError> {
    let path = segment_path(dir, seq);
    let mut file = File::create(&path).map_err(|e| DurabilityError::from_io(&path, e))?;
    file.write_all(SEGMENT_MAGIC)
        .and_then(|()| file.sync_all())
        .map_err(|e| DurabilityError::from_io(&path, e))?;
    sync_dir(dir)?;
    Ok(file)
}

/// Best-effort directory fsync so renames and creations are themselves
/// durable (a no-op on platforms where directories cannot be opened).
pub(crate) fn sync_dir(dir: &Path) -> Result<(), DurabilityError> {
    match File::open(dir) {
        Ok(f) => f.sync_all().map_err(|e| DurabilityError::from_io(dir, e)),
        Err(_) => Ok(()),
    }
}

fn file_name(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tin_graph::{Interaction, Node, NodeId};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tin-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn delta(i: u32) -> GraphDelta {
        GraphDelta::new(
            i as usize,
            vec![Node {
                name: format!("v{i}"),
            }],
            if i == 0 {
                vec![]
            } else {
                vec![(NodeId(i - 1), NodeId(i), Interaction::new(i as i64, 1.0))]
            },
        )
        .unwrap()
    }

    #[test]
    fn append_and_replay_roundtrip() {
        let dir = temp_dir("roundtrip");
        let mut j = Journal::open(&dir, JournalConfig::default()).unwrap();
        let mut positions = Vec::new();
        for i in 0..5 {
            positions.push(j.append(&delta(i)).unwrap());
        }
        assert!(positions.windows(2).all(|w| w[0] < w[1]));
        let replay = replay_from(&dir, JournalPos::start()).unwrap();
        assert_eq!(replay.deltas.len(), 5);
        assert!(replay.torn.is_none());
        assert_eq!(replay.end, positions[4]);
        for (i, (d, pos)) in replay.deltas.iter().enumerate() {
            assert_eq!(d, &delta(i as u32));
            assert_eq!(pos, &positions[i]);
        }
        // Replaying from a mid-journal position yields exactly the tail.
        let tail = replay_from(&dir, positions[2]).unwrap();
        assert_eq!(tail.deltas.len(), 2);
        assert_eq!(tail.deltas[0].0, delta(3));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The presizing mechanism: while a journal is open, its segment's
    /// length moves only by whole steps and always covers the data end;
    /// a rotation and a drop leave the length at the data end.
    #[test]
    fn segments_grow_in_whole_steps_and_close_at_the_data_end() {
        let dir = temp_dir("steps");
        let config = JournalConfig {
            segment_max_bytes: 2 * GROWTH_STEP,
            // No per-frame fsync: thousands of frames cross the steps, and
            // the length moves the same way whatever the sync policy.
            sync_every: 0,
            ..JournalConfig::default()
        };
        let len = |seq| fs::metadata(segment_path(&dir, seq)).unwrap().len();
        let mut j = Journal::open(&dir, config).unwrap();
        let mut before = len(0);
        let mut steps = 0;
        let mut last_in_first = j.position();
        let mut i = 0;
        while j.position().segment == 0 {
            let pos = j.append(&delta(i)).unwrap();
            i += 1;
            if pos.segment == 0 {
                let after = len(0);
                assert_eq!((after - before) % GROWTH_STEP, 0, "frame {i}");
                assert!(after >= pos.offset, "frame {i}: {after} < {pos:?}");
                steps += (after - before) / GROWTH_STEP;
                before = after;
                last_in_first = pos;
            }
        }
        assert!(steps >= 2, "only {steps} steps");
        assert_eq!(len(0), last_in_first.offset, "rotation trims");
        let end = j.position();
        assert!(len(1) > end.offset);
        drop(j);
        assert_eq!(len(1), end.offset, "drop trims");
        let replay = replay_from(&dir, JournalPos::start()).unwrap();
        assert_eq!(replay.deltas.len(), i as usize);
        assert_eq!(replay.end, end);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_splits_segments_and_replay_crosses_them() {
        let dir = temp_dir("rotate");
        let config = JournalConfig {
            segment_max_bytes: 64, // tiny: nearly every append rotates
            sync_every: 1,
            ..JournalConfig::default()
        };
        let mut j = Journal::open(&dir, config).unwrap();
        for i in 0..6 {
            j.append(&delta(i)).unwrap();
        }
        let last = j.position();
        assert!(last.segment >= 2, "expected rotation, got {last:?}");
        let segments = list_segments(&dir).unwrap();
        assert_eq!(segments.len() as u64, last.segment + 1);
        let replay = replay_from(&dir, JournalPos::start()).unwrap();
        assert_eq!(replay.deltas.len(), 6);
        assert_eq!(replay.end, last);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_truncates_torn_tail_and_appends_cleanly() {
        let dir = temp_dir("torn");
        let mut j = Journal::open(&dir, JournalConfig::default()).unwrap();
        for i in 0..3 {
            j.append(&delta(i)).unwrap();
        }
        let durable = j.position();
        drop(j);
        // Simulate a kill mid-write: append garbage that looks like a
        // started-but-unfinished frame.
        let path = segment_path(&dir, 0);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0x55; 5]).unwrap();
        drop(f);
        let replay = replay_from(&dir, JournalPos::start()).unwrap();
        assert_eq!(replay.deltas.len(), 3);
        assert!(replay.torn.is_some());
        assert_eq!(replay.end, durable);
        // Reopening truncates the tail; the next append lands exactly after
        // the durable prefix and the torn bytes are gone for good.
        let mut j = Journal::open(&dir, JournalConfig::default()).unwrap();
        assert_eq!(j.position(), durable);
        j.append(&delta(3)).unwrap();
        let replay = replay_from(&dir, JournalPos::start()).unwrap();
        assert_eq!(replay.deltas.len(), 4);
        assert!(replay.torn.is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_in_non_final_segment_fails_with_position() {
        let dir = temp_dir("midcorrupt");
        let config = JournalConfig {
            segment_max_bytes: 64,
            sync_every: 1,
            ..JournalConfig::default()
        };
        let mut j = Journal::open(&dir, config).unwrap();
        for i in 0..6 {
            j.append(&delta(i)).unwrap();
        }
        drop(j);
        // Truncate segment 1 (not the newest) mid-frame.
        let path = segment_path(&dir, 1);
        let len = fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        let err = replay_from(&dir, JournalPos::start()).unwrap_err();
        match err {
            DurabilityError::CorruptFrame { file, .. } => {
                assert!(file.contains("journal-000001"), "{file}");
            }
            other => panic!("expected CorruptFrame, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_advances_durable_position_on_group_boundaries() {
        let dir = temp_dir("group");
        let mut j = Journal::open(&dir, JournalConfig::group_commit(3)).unwrap();
        assert_eq!(j.durable_position(), j.position());
        let mut trace = Vec::new();
        for i in 0..7 {
            let pos = j.append(&delta(i)).unwrap();
            trace.push((pos, j.durable_position()));
        }
        // The fsync fires on appends 3 and 6 (the group boundaries); in
        // between, the durable prefix holds at the last boundary.
        assert_eq!(trace[2].1, trace[2].0);
        assert_eq!(trace[5].1, trace[5].0);
        let after_magic = JournalPos {
            segment: 0,
            offset: SEGMENT_MAGIC.len() as u64,
        };
        assert_eq!(trace[0].1, after_magic);
        assert_eq!(trace[1].1, after_magic);
        assert_eq!(trace[3].1, trace[2].0);
        assert_eq!(trace[4].1, trace[2].0);
        assert_eq!(trace[6].1, trace[5].0);
        assert!(j.durable_position() < j.position());
        // An explicit sync closes the open group.
        j.sync().unwrap();
        assert_eq!(j.durable_position(), j.position());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_segment_is_detected() {
        let dir = temp_dir("hole");
        let config = JournalConfig {
            segment_max_bytes: 64,
            sync_every: 1,
            ..JournalConfig::default()
        };
        let mut j = Journal::open(&dir, config).unwrap();
        for i in 0..6 {
            j.append(&delta(i)).unwrap();
        }
        drop(j);
        fs::remove_file(segment_path(&dir, 1)).unwrap();
        assert_eq!(
            replay_from(&dir, JournalPos::start()).unwrap_err(),
            DurabilityError::MissingSegment { segment: 1 }
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
