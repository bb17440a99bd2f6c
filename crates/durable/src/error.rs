//! The durability subsystem's typed, positional error.

use std::fmt;
use tin_graph::GraphError;

/// Everything that can go wrong while journaling, snapshotting, or
/// recovering.
///
/// Corruption variants carry the file and byte position they were detected
/// at, so an operator (or the crash-matrix test) can pinpoint the damaged
/// region of a multi-GB journal instead of guessing.
#[derive(Debug, Clone, PartialEq)]
pub enum DurabilityError {
    /// An underlying filesystem operation failed.
    Io {
        /// Path the operation was against.
        path: String,
        /// Display form of the `std::io::Error`.
        message: String,
    },
    /// A complete journal frame failed its checksum or could not be decoded
    /// — mid-journal corruption, as opposed to a tolerated torn tail.
    CorruptFrame {
        /// Segment file the frame lives in.
        file: String,
        /// 0-based index of the frame, counted from where the reading
        /// began: across the whole journal for [`crate::Recovery::run`]
        /// (the frames its snapshot covers, then those replayed before
        /// this one, as for [`DurabilityError::Replay`]); from the start
        /// position for [`crate::journal::replay_from`]; from the scan's
        /// start for [`crate::frame::scan_segment`], which for a scan from
        /// 0 is the index within the segment; and within the segment for
        /// [`crate::Journal::open`], which scans the newest one whole.
        frame: u64,
        /// Byte offset of the frame's start within the segment file.
        offset: u64,
        /// What exactly failed (checksum mismatch, undecodable payload,
        /// truncation in a non-final segment, ...).
        reason: String,
    },
    /// A snapshot or its manifest is unreadable, fails its checksum, or
    /// decodes to an inconsistent graph/table state.
    CorruptSnapshot {
        /// The snapshot or manifest file.
        file: String,
        /// What exactly failed.
        reason: String,
    },
    /// The journal's segment sequence has a hole (a segment file was
    /// deleted out from under the log).
    MissingSegment {
        /// The absent segment number.
        segment: u64,
    },
    /// A delta cannot be represented in the journal's frame payload format
    /// (e.g. a vertex name containing a line break).
    Unencodable {
        /// What exactly is unrepresentable.
        reason: String,
    },
    /// A journaled delta decoded fine but was rejected by
    /// [`tin_graph::TemporalGraph::apply`] during recovery — the journal
    /// and the recovered base state disagree.
    Replay {
        /// Segment file the frame lives in.
        file: String,
        /// 0-based index of the frame in the whole journal: the frames the
        /// recovery's snapshot covers, then those replayed before this one.
        frame: u64,
        /// Byte offset of the frame's start within the segment file.
        offset: u64,
        /// The graph-level rejection.
        source: GraphError,
    },
    /// A delta was rejected by the live graph (or the delta stream failed)
    /// before anything reached the journal — the durable state is
    /// unchanged.
    Rejected {
        /// The graph-level rejection.
        source: GraphError,
    },
}

impl DurabilityError {
    /// Convenience constructor mapping an [`std::io::Error`] with the path
    /// it occurred on.
    pub fn from_io(path: &std::path::Path, e: std::io::Error) -> Self {
        DurabilityError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        }
    }

    /// Renumbers a [`DurabilityError::CorruptFrame`] for a reader that had
    /// read `frames` frames before the failing scan began; any other error
    /// passes through unchanged.
    pub(crate) fn after_frames(self, frames: u64) -> Self {
        match self {
            DurabilityError::CorruptFrame {
                file,
                frame,
                offset,
                reason,
            } => DurabilityError::CorruptFrame {
                file,
                frame: frames + frame,
                offset,
                reason,
            },
            other => other,
        }
    }
}

impl fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurabilityError::Io { path, message } => write!(f, "i/o error on {path}: {message}"),
            DurabilityError::CorruptFrame {
                file,
                frame,
                offset,
                reason,
            } => write!(
                f,
                "corrupt journal frame {frame} in {file} at byte offset {offset}: {reason}"
            ),
            DurabilityError::CorruptSnapshot { file, reason } => {
                write!(f, "corrupt snapshot {file}: {reason}")
            }
            DurabilityError::MissingSegment { segment } => {
                write!(f, "journal segment {segment} is missing")
            }
            DurabilityError::Unencodable { reason } => {
                write!(f, "delta cannot be journaled: {reason}")
            }
            DurabilityError::Replay {
                file,
                frame,
                offset,
                source,
            } => write!(
                f,
                "replay of frame {frame} in {file} at byte offset {offset} was rejected: {source}"
            ),
            DurabilityError::Rejected { source } => {
                write!(f, "delta rejected before journaling: {source}")
            }
        }
    }
}

impl std::error::Error for DurabilityError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_positional() {
        let e = DurabilityError::CorruptFrame {
            file: "journal-000002.wal".into(),
            frame: 17,
            offset: 4096,
            reason: "checksum mismatch".into(),
        };
        let s = e.to_string();
        assert!(s.contains("journal-000002.wal"));
        assert!(s.contains("frame 17"));
        assert!(s.contains("4096"));
        assert!(s.contains("checksum"));

        let r = DurabilityError::Replay {
            file: "journal-000000.wal".into(),
            frame: 3,
            offset: 99,
            source: GraphError::Invalid {
                message: "frontier regressed".into(),
            },
        };
        assert!(r.to_string().contains("frontier regressed"));
        assert!(DurabilityError::MissingSegment { segment: 5 }
            .to_string()
            .contains('5'));
    }
}
