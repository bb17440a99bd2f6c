//! Startup recovery: pick the newest valid snapshot, replay the journal
//! tail, degrade gracefully when artifacts are damaged.
//!
//! The degradation ladder, top to bottom:
//!
//! 1. **Newest manifest** whose snapshot loads and verifies → restore it and
//!    replay the journal from the recorded position.
//! 2. Any failure there (unreadable/torn manifest, snapshot length/CRC/decode
//!    mismatch) → try the **next-older manifest**, recording what was
//!    discarded and why.
//! 3. No usable snapshot → **full replay** of the journal from its start
//!    against an empty graph.
//! 4. No journal either → **fresh** empty state.
//!
//! Two failures do *not* degrade, by design: a corrupt frame in the middle
//! of the journal (silently skipping committed deltas would be worse than
//! stopping — the error carries file, frame index, and byte offset so the
//! operator can decide), and a delta the graph itself refuses during replay
//! (the journal only ever records deltas that already applied once, so a
//! rejection means real corruption that the frame CRC happened to miss).
//! Frames are applied in journal order as they are read, so of two such
//! faults the earlier one is reported: a refused delta ahead of a corrupt
//! frame is a [`DurabilityError::Replay`].
//!
//! A torn frame at the very tail of the last segment is *not* a failure:
//! it is the expected signature of a crash mid-append, and recovery reports
//! it in [`RecoveryReport::torn_tail`] while recovering everything before it.
//!
//! Replay applies each frame to the graph as the journal's scanner decodes
//! it, so it holds one decoded frame at a time however long the tail is,
//! and brings the path tables up to date once at the end, since nothing
//! reads them in between: the frames' [`AppliedDelta`]s are folded with
//! [`AppliedDelta::absorb`], and the fold is either applied as one
//! [`PathTables::apply`] or, when it changed at least a quarter of the
//! live `(src, dst)` pairs, replaced by one [`PathTables::build`] of the
//! final graph.
//! [`RecoveryReport::tables_update`] says which.
//!
//! Recovery reads and decodes only what it keeps. A snapshot's load
//! checks the whole file's CRC, decodes the graph, and checks the table
//! section in place without building a row, so a malformed table section
//! is discarded on rung 2 exactly as a full decode would discard it. The
//! journal is read from the snapshot's position on, none of the frames
//! before it. The tables are decoded only when they are kept: when nothing
//! was replayed, or when the fold patches them. A rebuild, and a snapshot
//! taken under another table configuration, free the snapshot's bytes
//! unread before the build allocates.

use crate::error::DurabilityError;
use crate::frame::TornTail;
use crate::journal::{list_segments, replay_each, JournalPos};
use crate::snapshot::{list_manifests, open_snapshot, read_manifest, StoredTables};
use std::path::{Path, PathBuf};
use tin_graph::{AppliedDelta, NodeId, TemporalGraph};
use tin_patterns::{PathTables, TablesConfig, TablesUpdate};

/// Share of the recovered graph's live `(src, dst)` pairs a replayed tail
/// must change for recovery to rebuild the path tables instead of patching
/// them with the tail's fold. A patch's work grows with the pairs it
/// changed and a rebuild's does not. The folded patch and the rebuild tie
/// at 19–24% changed on standard-scale stores of 1% frames, at 23–28%
/// with a half-span window, and at about 26% on small windowed stores of
/// single-record frames. Near the share, a folded patch also allocates
/// more at its peak than a rebuild, which frees the stale tables first
/// (DESIGN.md, "Durability").
const REBUILD_SHARE: f64 = 0.25;

/// Where the recovered state came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoverySource {
    /// Restored from a snapshot, then replayed the journal tail.
    Snapshot {
        /// Manifest file name that committed the snapshot.
        manifest: String,
        /// Snapshot file name.
        snapshot: String,
    },
    /// No usable snapshot; the whole journal was replayed from the start.
    FullReplay,
    /// Neither snapshot nor journal; the state is empty.
    Fresh,
}

/// What recovery did and where it left the journal cursor.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Journal position after the last applied frame — where appends resume.
    pub position: JournalPos,
    /// Total frames reflected in the recovered state (snapshot + replayed).
    pub frames: u64,
    /// Frames re-applied from the journal during this recovery.
    pub replayed: u64,
    /// Where the state came from.
    pub source: RecoverySource,
    /// Artifacts that were tried and rejected, newest first, with reasons.
    pub discarded: Vec<String>,
    /// A torn tail detected (and ignored) at the end of the last segment.
    pub torn_tail: Option<TornTail>,
    /// The one table catch-up after the replay: `None` when nothing was
    /// replayed and the restored tables already fit the requested
    /// configuration, `rebuilt: true` when the tables were built afresh
    /// (a tail that changed at least a quarter of the live `(src, dst)`
    /// pairs, a full replay, or a configuration mismatch), a patch
    /// otherwise.
    pub tables_update: Option<TablesUpdate>,
}

/// The recovered state plus its [`RecoveryReport`].
#[derive(Debug)]
pub struct Recovered {
    /// The graph, identical to the moment the last durable frame applied.
    pub graph: TemporalGraph,
    /// Path tables maintained through the same sequence of deltas.
    pub tables: PathTables,
    /// What happened during recovery.
    pub report: RecoveryReport,
}

/// Startup recovery manager for one durable directory.
#[derive(Debug, Clone)]
pub struct Recovery {
    dir: PathBuf,
    tables_config: TablesConfig,
}

impl Recovery {
    /// A recovery manager over `dir`, restoring tables under
    /// `tables_config`.
    pub fn new(dir: &Path, tables_config: TablesConfig) -> Self {
        Recovery {
            dir: dir.to_path_buf(),
            tables_config,
        }
    }

    /// Runs the degradation ladder described in the [module docs](self) and
    /// returns the recovered state. Read-only: never deletes or truncates
    /// anything (the journal cuts the tail when the store reopens for
    /// writing, at [`RecoveryReport::position`]).
    pub fn run(&self) -> Result<Recovered, DurabilityError> {
        let mut discarded = Vec::new();

        // Rung 1–2: newest manifest first, falling back on damage.
        let mut manifests = list_manifests(&self.dir)?;
        manifests.reverse();
        for (seq, path) in &manifests {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| path.display().to_string());
            let restored = read_manifest(path).and_then(|manifest| {
                open_snapshot(&self.dir, &manifest).map(|state| (manifest.snapshot.clone(), state))
            });
            match restored {
                Ok((snapshot, state)) => {
                    return self.finish_from_snapshot(
                        state.graph,
                        Some(state.tables),
                        state.pos,
                        state.frames,
                        RecoverySource::Snapshot {
                            manifest: name,
                            snapshot,
                        },
                        discarded,
                    );
                }
                Err(e) => {
                    discarded.push(format!("manifest {seq:06}: {e}"));
                }
            }
        }

        // Rung 3–4: no snapshot. Full replay if there is a journal, fresh
        // state otherwise.
        let has_journal = !list_segments(&self.dir)?.is_empty();
        let graph = TemporalGraph::new();
        let source = if has_journal {
            RecoverySource::FullReplay
        } else {
            RecoverySource::Fresh
        };
        self.finish_from_snapshot(graph, None, JournalPos::start(), 0, source, discarded)
    }

    /// Replays the journal tail from `pos` onto `graph`, brings the tables
    /// up to date in one catch-up ([`Recovery::catch_up`]) and assembles
    /// the report. `stored` holds the snapshot's tables, current as of
    /// `pos`; `None` stands for the empty graph's tables.
    fn finish_from_snapshot(
        &self,
        mut graph: TemporalGraph,
        stored: Option<StoredTables>,
        pos: JournalPos,
        frames: u64,
        source: RecoverySource,
        discarded: Vec<String>,
    ) -> Result<Recovered, DurabilityError> {
        // Each frame is applied as it is decoded, so the replay holds one
        // decoded frame at a time, whatever the tail's length.
        let mut replayed = 0;
        let mut fold: Option<AppliedDelta> = None;
        let (end, torn) = replay_each(&self.dir, pos, |delta, start, _| {
            let applied = graph.apply(&delta).map_err(|e| DurabilityError::Replay {
                file: format!("journal-{:06}.wal", start.segment),
                frame: frames + replayed,
                offset: start.offset,
                source: e,
            })?;
            replayed += 1;
            match &mut fold {
                Some(fold) => fold.absorb(applied),
                None => fold = Some(applied),
            }
            Ok(())
        })
        .map_err(|e| e.after_frames(frames))?;
        let (tables, tables_update) = self.catch_up(&graph, stored, fold);
        Ok(Recovered {
            graph,
            tables,
            report: RecoveryReport {
                position: end,
                frames: frames + replayed,
                replayed,
                source,
                discarded,
                torn_tail: torn.map(|(_, t)| t),
                tables_update,
            },
        })
    }

    /// Brings the tables current as of the replay's start (`stored`, or
    /// the empty graph's when `None`) up to date with `graph`, the state
    /// after the replayed frames whose fold is `fold`.
    ///
    /// A snapshot's tables are decoded only when they are kept: when
    /// nothing was replayed, or when the fold patches them. A rebuild, and
    /// a snapshot built under another configuration, drop them unread,
    /// which frees the snapshot's bytes before the build allocates.
    ///
    /// The choice between patch and rebuild lives here rather than in
    /// [`PathTables::apply`]: a live feed's first batches also change most
    /// of a small graph, and rebuilding there would turn the feed's
    /// incremental maintenance into rebuilds it does not need. Recovery is
    /// the one caller that holds a whole tail's changes at once.
    fn catch_up(
        &self,
        graph: &TemporalGraph,
        stored: Option<StoredTables>,
        fold: Option<AppliedDelta>,
    ) -> (PathTables, Option<TablesUpdate>) {
        // The snapshot may have been produced under a different table
        // configuration than the one requested now; rebuild rather than
        // serve rows the caller did not ask for (or miss ones they did).
        let config_fits = stored
            .as_ref()
            .is_none_or(|s| *s.config() == self.tables_config);
        let restore = |stored: Option<StoredTables>| match stored {
            Some(stored) => stored.decode(),
            None => PathTables::build(&TemporalGraph::new(), &self.tables_config),
        };
        match fold {
            None if config_fits => return (restore(stored), None),
            Some(fold) if config_fits && !mostly_changed(graph, &fold) => {
                let mut tables = restore(stored);
                let update = tables.apply(graph, &fold);
                return (tables, Some(update));
            }
            _ => {}
        }
        // Free the snapshot's bytes and the fold before the build allocates.
        drop((stored, fold));
        let tables = PathTables::build(graph, &self.tables_config);
        let update = TablesUpdate {
            refreshed_groups: graph.node_count(),
            rebuilt: true,
            kernel_calls: tables.kernel_calls(),
        };
        (tables, Some(update))
    }
}

/// Whether `fold` changed at least [`REBUILD_SHARE`] of `graph`'s live
/// `(src, dst)` pairs. A tombstoned pair that was revived counts once, and
/// a pair that died within the fold counts although it is no longer live,
/// so a full replay from an empty graph always reads as mostly changed.
fn mostly_changed(graph: &TemporalGraph, fold: &AppliedDelta) -> bool {
    let mut pairs: Vec<(NodeId, NodeId)> = fold
        .changed_edges()
        .map(|e| {
            let edge = graph.edge(e);
            (edge.src, edge.dst)
        })
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs.len() as f64 >= REBUILD_SHARE * graph.live_edge_count() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{Journal, JournalConfig};
    use crate::snapshot::{manifest_path, read_manifest, snapshot_path, write_snapshot};
    use crate::store::DurableStore;
    use std::fs;
    use tin_datasets::{generate_prosper, DeltaStream, LoaderConfig, ProsperConfig};
    use tin_graph::{GraphDelta, Interaction, Node, NodeId};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tin-recovery-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Delta `i`: adds node v{i}; for i > 0 also an interaction
    /// v{i-1} → v{i} at time i.
    fn delta(i: u32) -> GraphDelta {
        let nodes = vec![Node {
            name: format!("v{i}"),
        }];
        let interactions = if i == 0 {
            vec![]
        } else {
            vec![(
                NodeId(i - 1),
                NodeId(i),
                Interaction::new(i as i64, 1.0 + i as f64),
            )]
        };
        GraphDelta::new(i as usize, nodes, interactions).unwrap()
    }

    /// Builds the reference state by applying deltas 0..n directly.
    fn reference(n: u32, config: &TablesConfig) -> (TemporalGraph, PathTables) {
        let mut g = TemporalGraph::new();
        let mut t = PathTables::build(&g, config);
        for i in 0..n {
            let applied = g.apply(&delta(i)).unwrap();
            t.apply(&g, &applied);
        }
        (g, t)
    }

    /// Journals deltas 0..n, snapshotting after `snap_at` (if given).
    fn populate(dir: &Path, n: u32, snap_at: Option<u32>) {
        let config = TablesConfig::default();
        let mut journal = Journal::open(dir, JournalConfig::default()).unwrap();
        let mut g = TemporalGraph::new();
        let mut t = PathTables::build(&g, &config);
        for i in 0..n {
            let d = delta(i);
            let applied = g.apply(&d).unwrap();
            journal.append(&d).unwrap();
            t.apply(&g, &applied);
            if Some(i + 1) == snap_at {
                write_snapshot(dir, 0, &g, &t, journal.position(), (i + 1) as u64).unwrap();
            }
        }
        journal.sync().unwrap();
    }

    #[test]
    fn fresh_directory_recovers_empty() {
        let dir = temp_dir("fresh");
        let rec = Recovery::new(&dir, TablesConfig::default()).run().unwrap();
        assert_eq!(rec.report.source, RecoverySource::Fresh);
        assert_eq!(rec.report.frames, 0);
        assert_eq!(rec.graph.node_count(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn full_replay_without_snapshot_matches_reference() {
        let dir = temp_dir("fullreplay");
        populate(&dir, 8, None);
        let config = TablesConfig::default();
        let rec = Recovery::new(&dir, config).run().unwrap();
        assert_eq!(rec.report.source, RecoverySource::FullReplay);
        assert_eq!(rec.report.replayed, 8);
        let (g, t) = reference(8, &config);
        assert_eq!(rec.graph, g);
        assert_eq!(t.first_row_divergence(&rec.tables), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_plus_tail_matches_reference() {
        let dir = temp_dir("snaptail");
        populate(&dir, 10, Some(6));
        let config = TablesConfig::default();
        let rec = Recovery::new(&dir, config).run().unwrap();
        assert!(matches!(rec.report.source, RecoverySource::Snapshot { .. }));
        assert_eq!(rec.report.replayed, 4);
        assert_eq!(rec.report.frames, 10);
        let (g, t) = reference(10, &config);
        assert_eq!(rec.graph, g);
        assert_eq!(t.first_row_divergence(&rec.tables), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_full_replay() {
        let dir = temp_dir("fallback");
        populate(&dir, 10, Some(6));
        // Flip a byte in the middle of the snapshot body.
        let snap = snapshot_path(&dir, 0);
        let mut bytes = fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&snap, &bytes).unwrap();
        let config = TablesConfig::default();
        let rec = Recovery::new(&dir, config).run().unwrap();
        assert_eq!(rec.report.source, RecoverySource::FullReplay);
        assert_eq!(rec.report.replayed, 10);
        assert_eq!(rec.report.discarded.len(), 1);
        assert!(rec.report.discarded[0].contains("checksum"));
        let (g, t) = reference(10, &config);
        assert_eq!(rec.graph, g);
        assert_eq!(t.first_row_divergence(&rec.tables), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn orphan_snapshot_without_manifest_is_invisible() {
        let dir = temp_dir("orphan");
        populate(&dir, 6, Some(4));
        // Simulate a crash between the snapshot rename and the manifest
        // rename: the manifest vanishes, the snapshot stays.
        fs::remove_file(manifest_path(&dir, 0)).unwrap();
        let config = TablesConfig::default();
        let rec = Recovery::new(&dir, config).run().unwrap();
        assert_eq!(rec.report.source, RecoverySource::FullReplay);
        assert!(rec.report.discarded.is_empty());
        let (g, t) = reference(6, &config);
        assert_eq!(rec.graph, g);
        assert_eq!(t.first_row_divergence(&rec.tables), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn older_snapshot_is_used_when_newest_is_damaged() {
        let dir = temp_dir("older");
        let config = TablesConfig::default();
        let mut journal = Journal::open(&dir, JournalConfig::default()).unwrap();
        let mut g = TemporalGraph::new();
        let mut t = PathTables::build(&g, &config);
        for i in 0..9 {
            let d = delta(i);
            let applied = g.apply(&d).unwrap();
            journal.append(&d).unwrap();
            t.apply(&g, &applied);
            if i == 3 {
                write_snapshot(&dir, 0, &g, &t, journal.position(), 4).unwrap();
            }
            if i == 6 {
                write_snapshot(&dir, 1, &g, &t, journal.position(), 7).unwrap();
            }
        }
        journal.sync().unwrap();
        drop(journal);
        // Truncate the newest snapshot; recovery must fall back to seq 0.
        let newest = snapshot_path(&dir, 1);
        let len = fs::metadata(&newest).unwrap().len();
        fs::File::options()
            .write(true)
            .open(&newest)
            .unwrap()
            .set_len(len / 3)
            .unwrap();
        let rec = Recovery::new(&dir, config).run().unwrap();
        match &rec.report.source {
            RecoverySource::Snapshot { snapshot, .. } => {
                assert!(snapshot.contains("000000"), "used {snapshot}");
            }
            other => panic!("expected snapshot source, got {other:?}"),
        }
        assert_eq!(rec.report.replayed, 5);
        assert_eq!(rec.report.discarded.len(), 1);
        let (g2, t2) = reference(9, &config);
        assert_eq!(rec.graph, g2);
        assert_eq!(t2.first_row_divergence(&rec.tables), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn config_mismatch_rebuilds_tables() {
        let dir = temp_dir("config");
        populate(&dir, 6, Some(4));
        // Recover with a narrower configuration than the snapshot's.
        let narrow = TablesConfig {
            build_c2: false,
            ..TablesConfig::default()
        };
        let rec = Recovery::new(&dir, narrow).run().unwrap();
        assert_eq!(*rec.tables.config(), narrow);
        assert_eq!(rec.tables.c2.len(), 0);
        let (_, t) = reference(6, &narrow);
        assert_eq!(t.first_row_divergence(&rec.tables), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A store fed like a live windowed one: a small generated Prosper log
    /// in timestamp order, a half-span window, one record per frame. It
    /// snapshots after 90% of the frames and journals `tail` more (every
    /// remaining frame when `tail` is `None`); returns the live state and
    /// the tail's length.
    fn windowed_store(dir: &Path, tail: Option<usize>) -> (TemporalGraph, PathTables, u64) {
        let log = generate_prosper(
            &ProsperConfig {
                seed: 42,
                ..ProsperConfig::default()
            }
            .scaled(0.04),
        );
        let mut records: Vec<_> = log
            .edges()
            .iter()
            .flat_map(|e| {
                e.interactions
                    .iter()
                    .map(move |i| (i.time, e.src, e.dst, i))
            })
            .collect();
        records.sort_by_key(|r| r.0);
        let mut csv = String::from("sender,recipient,timestamp,amount\n");
        for (time, src, dst, i) in records {
            let (src, dst) = (&log.node(src).name, &log.node(dst).name);
            csv.push_str(&format!("{src},{dst},{time},{}\n", i.quantity));
        }
        let span = log.max_time().unwrap() - log.min_time().unwrap();
        let mut stream = DeltaStream::new(csv.as_bytes(), &LoaderConfig::default())
            .and_then(|s| s.window(span / 2))
            .unwrap();
        let mut deltas = Vec::new();
        while let Some(delta) = stream.next_delta(1).unwrap() {
            deltas.push(delta);
        }
        let snapshot_after = deltas.len() * 9 / 10;
        let end = tail.map_or(deltas.len(), |t| snapshot_after + t);
        let journal = JournalConfig {
            sync_every: 0,
            ..JournalConfig::default()
        };
        let (mut store, _) = DurableStore::open(dir, TablesConfig::default(), journal).unwrap();
        for (i, delta) in deltas[..end].iter().enumerate() {
            store.apply(delta).unwrap();
            if i + 1 == snapshot_after {
                store.snapshot().unwrap();
            }
        }
        (
            store.graph().clone(),
            store.tables().clone(),
            (end - snapshot_after) as u64,
        )
    }

    /// Asserts `rec` is the live state and its report shows one catch-up,
    /// `rebuilt` or not, that did all the kernel work on the tables.
    fn assert_one_catch_up(
        rec: &Recovered,
        graph: &TemporalGraph,
        tables: &PathTables,
        rebuilt: bool,
    ) -> TablesUpdate {
        assert_eq!(rec.graph, *graph);
        assert_eq!(tables.first_row_divergence(&rec.tables), None);
        let update = rec
            .report
            .tables_update
            .expect("a replayed tail is caught up");
        assert_eq!(update.rebuilt, rebuilt, "{update:?}");
        assert_eq!(rec.tables.kernel_calls(), update.kernel_calls);
        update
    }

    #[test]
    fn long_windowed_tail_rebuilds_the_tables_once() {
        let dir = temp_dir("longtail");
        let (graph, tables, tail) = windowed_store(&dir, None);
        assert!(tail >= 40, "a long tail of single-record frames: {tail}");
        let rec = Recovery::new(&dir, TablesConfig::default()).run().unwrap();
        assert!(matches!(rec.report.source, RecoverySource::Snapshot { .. }));
        assert_eq!(rec.report.replayed, tail);
        let update = assert_one_catch_up(&rec, &graph, &tables, true);
        assert_eq!(update.refreshed_groups, graph.node_count());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn one_frame_tail_patches_the_tables_once() {
        let dir = temp_dir("shorttail");
        let (graph, tables, tail) = windowed_store(&dir, Some(1));
        let rec = Recovery::new(&dir, TablesConfig::default()).run().unwrap();
        assert!(matches!(rec.report.source, RecoverySource::Snapshot { .. }));
        assert_eq!((tail, rec.report.replayed), (1, 1));
        let update = assert_one_catch_up(&rec, &graph, &tables, false);
        assert!(update.refreshed_groups > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn full_replay_rebuilds_the_tables_once() {
        let dir = temp_dir("replaytail");
        let (graph, tables, _) = windowed_store(&dir, None);
        fs::remove_file(manifest_path(&dir, 0)).unwrap();
        let rec = Recovery::new(&dir, TablesConfig::default()).run().unwrap();
        assert_eq!(rec.report.source, RecoverySource::FullReplay);
        assert_one_catch_up(&rec, &graph, &tables, true);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_tail_needs_no_catch_up() {
        let dir = temp_dir("notail");
        populate(&dir, 6, Some(6));
        let rec = Recovery::new(&dir, TablesConfig::default()).run().unwrap();
        assert_eq!(rec.report.replayed, 0);
        assert_eq!(rec.report.tables_update, None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_reported_and_ignored() {
        let dir = temp_dir("torn");
        populate(&dir, 5, None);
        // Tear the last frame: chop 3 bytes off the single segment.
        let seg = crate::journal::segment_path(&dir, 0);
        let len = fs::metadata(&seg).unwrap().len();
        fs::File::options()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let config = TablesConfig::default();
        let rec = Recovery::new(&dir, config).run().unwrap();
        assert_eq!(rec.report.replayed, 4);
        assert!(rec.report.torn_tail.is_some());
        let (g, t) = reference(4, &config);
        assert_eq!(rec.graph, g);
        assert_eq!(t.first_row_divergence(&rec.tables), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Snapshot 0 of a store whose tail is frames 5–8 of one segment: a
    /// corrupt frame 6 is numbered in the whole journal, as a rejected
    /// replay is, not from where the tail's scan began.
    #[test]
    fn corrupt_tail_frame_is_numbered_in_the_whole_journal() {
        let dir = temp_dir("tailframe");
        populate(&dir, 9, Some(5));
        let seg = crate::journal::segment_path(&dir, 0);
        let mut bytes = fs::read(&seg).unwrap();
        let scan = crate::frame::scan_segment(&bytes, 0, true, "journal-000000.wal").unwrap();
        // Frame 6 starts where frame 5 ends; flip a byte of its payload.
        let sixth = scan.deltas[5].1;
        bytes[sixth as usize + 9] ^= 0x08;
        fs::write(&seg, &bytes).unwrap();
        match Recovery::new(&dir, TablesConfig::default()).run() {
            Err(DurabilityError::CorruptFrame {
                file,
                frame,
                offset,
                ..
            }) => assert_eq!(
                (file.as_str(), frame, offset),
                ("journal-000000.wal", 6, sixth)
            ),
            other => panic!("expected CorruptFrame, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Frames are applied as they are read: of a frame the graph refuses
    /// and a corrupt frame after it, the refusal is reported, though the
    /// scan alone finds the corruption.
    #[test]
    fn a_refused_frame_is_reported_before_later_corruption() {
        let dir = temp_dir("refused");
        populate(&dir, 5, None);
        let mut journal = Journal::open(&dir, JournalConfig::default()).unwrap();
        // Delta 7 expects 7 vertices where the journal's graph has 5.
        let refused = journal.append(&delta(7)).unwrap();
        journal.append(&delta(5)).unwrap();
        drop(journal);
        // Flip a byte of the last frame's payload.
        let seg = crate::journal::segment_path(&dir, 0);
        let mut bytes = fs::read(&seg).unwrap();
        bytes[refused.offset as usize + 9] ^= 0x08;
        fs::write(&seg, &bytes).unwrap();
        match Recovery::new(&dir, TablesConfig::default()).run() {
            Err(DurabilityError::Replay {
                file,
                frame,
                offset,
                ..
            }) => {
                // Frame 5 starts at 165 and ends at 198, where frame 6
                // starts.
                assert_eq!(
                    (file.as_str(), frame, offset),
                    ("journal-000000.wal", 5, 165)
                )
            }
            other => panic!("expected Replay, got {other:?}"),
        }
        match crate::journal::replay_from(&dir, JournalPos::start()) {
            Err(DurabilityError::CorruptFrame { frame, offset, .. }) => {
                assert_eq!((frame, offset), (6, refused.offset))
            }
            other => panic!("expected CorruptFrame, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_refused_frame_that_opens_a_segment_starts_after_the_magic() {
        let dir = temp_dir("refused-first");
        let mut journal = Journal::open(&dir, JournalConfig::default()).unwrap();
        journal.append(&delta(7)).unwrap();
        drop(journal);
        match Recovery::new(&dir, TablesConfig::default()).run() {
            Err(DurabilityError::Replay { frame, offset, .. }) => {
                let magic = crate::frame::SEGMENT_MAGIC.len() as u64;
                assert_eq!((frame, offset), (0, magic))
            }
            other => panic!("expected Replay, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Byte offsets of one stored table's columns in a snapshot file.
    struct Columns {
        rows: usize,
        arena: usize,
        nverts: usize,
        verts: usize,
        ndel: usize,
    }

    /// Walks a snapshot file's header and graph section (see
    /// [`crate::snapshot`]) and returns the columns of its three tables.
    fn table_columns(bytes: &[u8]) -> Vec<Columns> {
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
        // Magic, version, journal position, frames.
        let mut at = 8 + 4 + 3 * 8;
        let nodes = word(at);
        at += 8;
        for _ in 0..nodes {
            at += 8 + word(at);
        }
        let edges = word(at);
        at += 8;
        for _ in 0..edges {
            at += 8;
            at += 8 + 16 * word(at);
        }
        at += if bytes[at] == 1 { 9 } else { 1 };
        // Configuration flags and row cap, truncation flag.
        at += 3 + 8 + 1;
        (0..3)
            .map(|_| {
                let (rows, arena) = (word(at), word(at + 8));
                let nverts = at + 16;
                let verts = nverts + rows;
                let total: usize = bytes[nverts..verts].iter().map(|&n| n as usize).sum();
                let ndel = verts + 4 * total + 8 * rows;
                at = ndel + 4 * rows + 16 * arena;
                Columns {
                    rows,
                    arena,
                    nverts,
                    verts,
                    ndel,
                }
            })
            .collect()
    }

    /// Breaks a snapshot's bytes given the columns of its `C2` table, and
    /// returns the reason a decode gives for the break.
    type Edit = fn(&mut [u8], &Columns) -> String;

    /// Applies `edit` to snapshot 0 under `dir`, then recomputes the
    /// snapshot's trailing CRC and the manifest's, so that only a check of
    /// the table section can find what `edit` broke; returns the reason
    /// recovery must discard the snapshot with.
    fn tamper_with_c2(dir: &Path, edit: Edit) -> String {
        let path = snapshot_path(dir, 0);
        let mut bytes = fs::read(&path).unwrap();
        let c2 = table_columns(&bytes).swap_remove(2);
        assert!(c2.rows >= 2, "C2 holds {} rows", c2.rows);
        let reason = edit(&mut bytes, &c2);
        let body = bytes.len() - 4;
        let trailer = crate::crc32(&bytes[..body]).to_le_bytes();
        bytes[body..].copy_from_slice(&trailer);
        fs::write(&path, &bytes).unwrap();
        let manifest = manifest_path(dir, 0);
        let old = read_manifest(&manifest).unwrap().crc;
        let text = fs::read_to_string(&manifest).unwrap().replace(
            &format!("crc {old:#010x}"),
            &format!("crc {:#010x}", crate::crc32(&bytes)),
        );
        fs::write(&manifest, text).unwrap();
        format!("manifest 000000: corrupt snapshot snapshot-000000.snap: {reason}")
    }

    /// Vertices of a 3-vertex row starting at byte `at`.
    fn row_at(bytes: &[u8], at: usize) -> Vec<NodeId> {
        bytes[at..at + 12]
            .chunks_exact(4)
            .map(|c| NodeId(u32::from_le_bytes(c.try_into().unwrap())))
            .collect()
    }

    /// Swaps the first two rows' vertices, so the second sorts first.
    fn rows_out_of_order(bytes: &mut [u8], c2: &Columns) -> String {
        let (first, second) = (row_at(bytes, c2.verts), row_at(bytes, c2.verts + 12));
        bytes.copy_within(c2.verts..c2.verts + 12, c2.verts + 24);
        bytes.copy_within(c2.verts + 12..c2.verts + 36, c2.verts);
        format!(
            "C2 table is malformed: row 1 ({first:?}) is not strictly after its predecessor \
             ({second:?})"
        )
    }

    /// Gives the first row 4 vertices and the second 2, so every column
    /// keeps its length.
    fn four_vertex_row(bytes: &mut [u8], c2: &Columns) -> String {
        bytes[c2.nverts] = 4;
        bytes[c2.nverts + 1] = 2;
        "C2 row 0 has 4 vertices".into()
    }

    /// Gives the first row a delivered profile longer than the arena.
    fn profile_past_the_arena(bytes: &mut [u8], c2: &Columns) -> String {
        let len = c2.arena as u32 + 1;
        bytes[c2.ndel..c2.ndel + 4].copy_from_slice(&len.to_le_bytes());
        "C2 row 0 delivered profile overruns arena".into()
    }

    /// Each malformed table section is discarded for the reason its decode
    /// gives, whichever branch the tail would have taken, and recovery
    /// falls to a full replay of the live state.
    fn malformed_tables_fall_to_full_replay(tail: Option<usize>) {
        let edits: [(&str, Edit); 3] = [
            ("order", rows_out_of_order),
            ("fourverts", four_vertex_row),
            ("profile", profile_past_the_arena),
        ];
        for (tag, edit) in edits {
            let dir = temp_dir(&format!("badtables-{tag}-{}", tail.is_some()));
            let (graph, tables, _) = windowed_store(&dir, tail);
            let reason = tamper_with_c2(&dir, edit);
            let rec = Recovery::new(&dir, TablesConfig::default()).run().unwrap();
            assert_eq!(rec.report.discarded, [reason], "{tag}");
            assert_eq!(rec.report.source, RecoverySource::FullReplay, "{tag}");
            assert_one_catch_up(&rec, &graph, &tables, true);
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn malformed_tables_behind_a_one_frame_tail_fall_to_full_replay() {
        malformed_tables_fall_to_full_replay(Some(1));
    }

    #[test]
    fn malformed_tables_behind_a_long_tail_fall_to_full_replay() {
        malformed_tables_fall_to_full_replay(None);
    }
}
