//! # tin-durable
//!
//! Crash-safe durability for the streaming pipeline: a write-ahead delta
//! journal, binary snapshots of [`tin_graph::TemporalGraph`] +
//! [`tin_patterns::PathTables`], and a recovery manager that reassembles the
//! live state after a kill — snapshot load plus journal-tail re-apply,
//! row-identical to an uninterrupted run.
//!
//! The moving parts:
//!
//! * [`frame`] — the journal frame codec: length-prefixed, CRC32-checksummed
//!   frames whose payload is a [`tin_graph::GraphDelta`] in the hardened
//!   text format (expiry frontier included). The segment scanner reads a
//!   segment's trailing zeros as unwritten space, tolerates a torn tail (a
//!   crash mid-write) by stopping at the last whole valid frame and
//!   reporting the exact recoverable prefix; a *complete* frame whose
//!   checksum fails is corruption and raises a typed, positional error.
//! * [`journal`] — segment files presized in 64 KiB steps and written in
//!   place, so a per-frame fsync commits a size change once per step; an
//!   fsync-on-batch policy and size-based rotation, plus multi-segment
//!   replay.
//! * [`snapshot`] — binary serialization of the graph (tombstones and
//!   frontier included) and the path tables (row contents, configuration,
//!   truncation verdict), committed atomically via temp-file + rename with a
//!   manifest tying each snapshot to its journal position.
//! * [`recovery`] — the startup ladder: newest valid snapshot → older
//!   snapshot → full journal replay, then journal-tail re-apply through
//!   [`tin_graph::TemporalGraph::apply`], frame by frame as each is
//!   decoded (so a replay holds one decoded frame at a time), and one table
//!   catch-up at the end: the frames' changes folded into one
//!   [`tin_patterns::PathTables::apply`], or a rebuild when the tail
//!   changed a large share of the graph. It reads the journal from the
//!   snapshot's position and decodes the snapshot's tables only when the
//!   catch-up keeps them; a reopened store appends where its replay ended.
//! * [`store`] — [`DurableStore`], the glue used by examples and benches:
//!   journal-then-apply per delta (the [`tin_datasets::DeltaStream`] tee)
//!   and on-demand snapshots.
//! * [`failpoint`] — [`FailpointWriter`], the fault-injection harness the
//!   crash-matrix tests drive: drop, truncate, or bit-flip at a chosen byte
//!   offset.
//!
//! ## Example
//!
//! ```
//! use tin_durable::{DurableStore, JournalConfig};
//! use tin_graph::{GraphDelta, Interaction, Node, NodeId};
//! use tin_patterns::TablesConfig;
//!
//! let dir = std::env::temp_dir().join(format!("tin-durable-doc-{}", std::process::id()));
//! let (mut store, report) =
//!     DurableStore::open(&dir, TablesConfig::default(), JournalConfig::default()).unwrap();
//! assert_eq!(report.replayed, 0);
//!
//! let delta = GraphDelta::new(
//!     0,
//!     vec![Node { name: "a".into() }, Node { name: "b".into() }],
//!     vec![(NodeId(0), NodeId(1), Interaction::new(1, 5.0))],
//! )
//! .unwrap();
//! store.apply(&delta).unwrap();
//! drop(store);
//!
//! // A restart recovers the applied state from the journal.
//! let (store, report) =
//!     DurableStore::open(&dir, TablesConfig::default(), JournalConfig::default()).unwrap();
//! assert_eq!(report.replayed, 1);
//! assert_eq!(store.graph().interaction_count(), 1);
//! # drop(store);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc;
pub mod error;
pub mod failpoint;
pub mod frame;
pub mod journal;
pub mod recovery;
pub mod snapshot;
pub mod store;

pub use crc::crc32;
pub use error::DurabilityError;
pub use failpoint::{Failpoint, FailpointWriter};
pub use frame::{SegmentScan, TornTail};
pub use journal::{compact_before, Journal, JournalConfig, JournalPos, JournalReplay};
pub use recovery::{Recovered, Recovery, RecoveryReport, RecoverySource};
pub use store::DurableStore;
