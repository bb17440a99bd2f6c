//! [`DurableStore`]: the façade that ties recovery, the journal, the graph,
//! and the path tables into one crash-safe unit.
//!
//! ## Write path and its ordering
//!
//! [`DurableStore::apply`] runs, in order:
//!
//! 1. `graph.apply(delta)` — validates the delta against live state and
//!    mutates the in-memory graph. A rejected delta never reaches the
//!    journal, so replay can treat a graph rejection as corruption.
//! 2. `journal.append(delta)` (+ fsync per [`crate::journal::JournalConfig::sync_every`]) —
//!    the delta becomes durable.
//! 3. `tables.apply(...)` — incremental table maintenance.
//!
//! Journaling *after* the graph apply is safe because step 1 only touches
//! memory: if the process dies between 1 and 2, the in-memory change is
//! lost along with the process, and recovery replays exactly the journaled
//! prefix. The invariant that matters is the converse — never journal a
//! delta the graph would refuse. A delta is **not durable until its frame
//! is fsynced**; with `sync_every: 1` (the default) that is every append,
//! with larger batches the tail since the last sync can be lost to a crash
//! (but never torn into a half-applied state: replay stops at the last
//! complete frame).

use crate::error::DurabilityError;
use crate::journal::{Journal, JournalConfig, JournalPos};
use crate::recovery::{Recovered, Recovery, RecoveryReport};
use crate::snapshot::{list_manifests, write_snapshot};
use std::io::Read;
use std::path::{Path, PathBuf};
use tin_datasets::DeltaStream;
use tin_graph::{GraphDelta, GraphError, TemporalGraph};
use tin_patterns::{PathTables, TablesConfig};

/// A temporal graph plus path tables whose every accepted delta is made
/// durable through a write-ahead journal, with snapshot/restore. See the
/// [module docs](self) for the write-path ordering argument.
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
    journal: Journal,
    graph: TemporalGraph,
    tables: PathTables,
    /// Frames reflected in `graph`/`tables` since the directory was created
    /// (snapshot-covered + replayed + appended this run).
    frames: u64,
    /// Next snapshot sequence number.
    snapshot_seq: u64,
}

impl DurableStore {
    /// Opens (or creates) the durable directory: runs [`Recovery`], then
    /// opens the journal for appending at [`RecoveryReport::position`],
    /// where the recovery's replay ended, without reading a frame again. It
    /// truncates any torn tail the recovery tolerated, as
    /// [`Journal::open`] does, so the next append lands on a clean frame
    /// boundary. Returns the store and the [`RecoveryReport`] describing
    /// what was restored.
    pub fn open(
        dir: &Path,
        tables_config: TablesConfig,
        journal_config: JournalConfig,
    ) -> Result<(Self, RecoveryReport), DurabilityError> {
        let Recovered {
            graph,
            tables,
            report,
        } = Recovery::new(dir, tables_config).run()?;
        let journal = Journal::resume(dir, journal_config, report.position)?;
        let snapshot_seq = list_manifests(dir)?
            .last()
            .map(|(seq, _)| seq + 1)
            .unwrap_or(0);
        let store = DurableStore {
            dir: dir.to_path_buf(),
            journal,
            graph,
            tables,
            frames: report.frames,
            snapshot_seq,
        };
        Ok((store, report))
    }

    /// Applies one delta durably: graph first (validation), then the
    /// journal frame, then incremental table maintenance. On a graph
    /// rejection nothing is journaled and the state is unchanged.
    pub fn apply(&mut self, delta: &GraphDelta) -> Result<(), DurabilityError> {
        let applied = self
            .graph
            .apply(delta)
            .map_err(|e| DurabilityError::Rejected { source: e })?;
        self.journal.append(delta)?;
        self.tables.apply(&self.graph, &applied);
        self.frames += 1;
        Ok(())
    }

    /// Tees a [`DeltaStream`] through the store: drains the stream in
    /// batches of `max_records`, applying (and journaling) each delta.
    /// Returns the number of deltas applied. On error, everything already
    /// applied remains applied and durable.
    pub fn ingest<R: Read>(
        &mut self,
        stream: &mut DeltaStream<R>,
        max_records: usize,
    ) -> Result<u64, DurabilityError> {
        let mut applied = 0u64;
        loop {
            let delta = stream
                .next_delta(max_records)
                .map_err(|e| DurabilityError::Rejected { source: e })?;
            let Some(delta) = delta else { break };
            self.apply(&delta)?;
            applied += 1;
        }
        Ok(applied)
    }

    /// Writes a snapshot of the current state tied to the current journal
    /// position, committing it atomically (see [`crate::snapshot`]).
    /// Syncs the journal first so the snapshot never claims a position
    /// ahead of durability.
    ///
    /// With [`JournalConfig::compact_on_snapshot`] set (the default), a
    /// successful commit then garbage-collects every journal segment older
    /// than the one the manifest's position points into
    /// ([`crate::journal::compact_before`]): recovery through this (or any
    /// newer) manifest never reads them, so the journal's footprint stays
    /// proportional to the deltas since the last snapshot instead of the
    /// whole history. The deletion happens strictly *after* the manifest
    /// rename is durable — a crash between the two leaves extra segments,
    /// never a hole a recovery could fall into.
    pub fn snapshot(&mut self) -> Result<PathBuf, DurabilityError> {
        self.journal.sync()?;
        let position = self.journal.position();
        let manifest = write_snapshot(
            &self.dir,
            self.snapshot_seq,
            &self.graph,
            &self.tables,
            position,
            self.frames,
        )?;
        self.snapshot_seq += 1;
        if self.journal.config().compact_on_snapshot {
            crate::journal::compact_before(&self.dir, position)?;
        }
        Ok(manifest)
    }

    /// Forces any buffered journal frames to disk (useful with
    /// `sync_every > 1`).
    pub fn sync(&mut self) -> Result<(), DurabilityError> {
        self.journal.sync()
    }

    /// The live graph.
    pub fn graph(&self) -> &TemporalGraph {
        &self.graph
    }

    /// The live path tables.
    pub fn tables(&self) -> &PathTables {
        &self.tables
    }

    /// The journal position after the last appended frame.
    pub fn position(&self) -> JournalPos {
        self.journal.position()
    }

    /// Total frames reflected in the live state.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// The durable directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// A [`GraphError`] wrapped for the store's apply path.
impl From<GraphError> for DurabilityError {
    fn from(e: GraphError) -> Self {
        DurabilityError::Rejected { source: e }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use tin_datasets::LoaderConfig;
    use tin_graph::{Interaction, Node, NodeId};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tin-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn delta(i: u32) -> GraphDelta {
        let nodes = vec![Node {
            name: format!("v{i}"),
        }];
        let interactions = if i == 0 {
            vec![]
        } else {
            vec![(NodeId(i - 1), NodeId(i), Interaction::new(i as i64, 2.0))]
        };
        GraphDelta::new(i as usize, nodes, interactions).unwrap()
    }

    #[test]
    fn open_apply_reopen_is_row_identical() {
        let dir = temp_dir("reopen");
        let config = TablesConfig::default();
        {
            let (mut store, report) =
                DurableStore::open(&dir, config, JournalConfig::default()).unwrap();
            assert_eq!(report.frames, 0);
            for i in 0..7 {
                store.apply(&delta(i)).unwrap();
            }
            assert_eq!(store.frames(), 7);
        }
        let (store, report) = DurableStore::open(&dir, config, JournalConfig::default()).unwrap();
        assert_eq!(report.replayed, 7);
        let mut g = TemporalGraph::new();
        let mut t = PathTables::build(&g, &config);
        for i in 0..7 {
            let applied = g.apply(&delta(i)).unwrap();
            t.apply(&g, &applied);
        }
        assert_eq!(*store.graph(), g);
        assert_eq!(t.first_row_divergence(store.tables()), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_shortens_replay_on_reopen() {
        let dir = temp_dir("snapshot");
        let config = TablesConfig::default();
        {
            let (mut store, _) =
                DurableStore::open(&dir, config, JournalConfig::default()).unwrap();
            for i in 0..10 {
                store.apply(&delta(i)).unwrap();
                if i == 7 {
                    store.snapshot().unwrap();
                }
            }
        }
        let (store, report) = DurableStore::open(&dir, config, JournalConfig::default()).unwrap();
        assert!(matches!(
            report.source,
            crate::recovery::RecoverySource::Snapshot { .. }
        ));
        assert_eq!(report.replayed, 2);
        assert_eq!(store.frames(), 10);
        // A second snapshot gets the next sequence number.
        let (mut store, _) = (store, ());
        store.snapshot().unwrap();
        assert_eq!(list_manifests(&dir).unwrap().len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_compacts_stale_segments_and_recovery_succeeds() {
        let dir = temp_dir("compact");
        let config = TablesConfig::default();
        // Tiny segments so ten deltas span several of them.
        let journal_config = JournalConfig {
            segment_max_bytes: 64,
            sync_every: 1,
            compact_on_snapshot: true,
        };
        let position;
        {
            let (mut store, _) = DurableStore::open(&dir, config, journal_config).unwrap();
            for i in 0..10 {
                store.apply(&delta(i)).unwrap();
            }
            position = store.position();
            assert!(position.segment > 0, "deltas must have rotated segments");
            store.snapshot().unwrap();
            let segments = crate::journal::list_segments(&dir).unwrap();
            assert_eq!(
                segments.first().map(|(seq, _)| *seq),
                Some(position.segment),
                "everything older than the manifest's segment is gone"
            );
            for i in 10..13 {
                store.apply(&delta(i)).unwrap();
            }
        }
        let (store, report) = DurableStore::open(&dir, config, journal_config).unwrap();
        assert!(matches!(
            report.source,
            crate::recovery::RecoverySource::Snapshot { .. }
        ));
        assert_eq!(store.frames(), 13);
        let mut g = TemporalGraph::new();
        let mut t = PathTables::build(&g, &config);
        for i in 0..13 {
            let applied = g.apply(&delta(i)).unwrap();
            t.apply(&g, &applied);
        }
        assert_eq!(*store.graph(), g);
        assert_eq!(t.first_row_divergence(store.tables()), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_opt_out_keeps_all_segments() {
        let dir = temp_dir("no-compact");
        let config = TablesConfig::default();
        let journal_config = JournalConfig {
            segment_max_bytes: 64,
            sync_every: 1,
            compact_on_snapshot: false,
        };
        let (mut store, _) = DurableStore::open(&dir, config, journal_config).unwrap();
        for i in 0..10 {
            store.apply(&delta(i)).unwrap();
        }
        assert!(store.position().segment > 0);
        store.snapshot().unwrap();
        let segments = crate::journal::list_segments(&dir).unwrap();
        assert_eq!(
            segments.first().map(|(seq, _)| *seq),
            Some(0),
            "opting out must leave the full history on disk"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejected_delta_is_not_journaled() {
        let dir = temp_dir("reject");
        let config = TablesConfig::default();
        let (mut store, _) = DurableStore::open(&dir, config, JournalConfig::default()).unwrap();
        store.apply(&delta(0)).unwrap();
        // Wrong base count: the graph refuses it.
        let bad = GraphDelta::new(5, vec![], vec![]).unwrap();
        assert!(matches!(
            store.apply(&bad),
            Err(DurabilityError::Rejected { .. })
        ));
        assert_eq!(store.frames(), 1);
        drop(store);
        let (store, report) = DurableStore::open(&dir, config, JournalConfig::default()).unwrap();
        assert_eq!(report.replayed, 1);
        assert_eq!(store.graph().node_count(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ingest_tees_a_delta_stream_durably() {
        let dir = temp_dir("ingest");
        let config = TablesConfig::default();
        let csv = "src,dst,time,quantity\na,b,1,5.0\nb,c,2,3.5\nc,a,3,2.0\n";
        {
            let (mut store, _) =
                DurableStore::open(&dir, config, JournalConfig::default()).unwrap();
            let mut stream = DeltaStream::new(csv.as_bytes(), &LoaderConfig::default()).unwrap();
            let n = store.ingest(&mut stream, 2).unwrap();
            assert_eq!(n, 2); // 3 records in batches of 2
            assert_eq!(store.graph().interaction_count(), 3);
        }
        let (store, report) = DurableStore::open(&dir, config, JournalConfig::default()).unwrap();
        assert_eq!(report.replayed, 2);
        assert_eq!(store.graph().interaction_count(), 3);
        assert_eq!(store.graph().node_count(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }
}
