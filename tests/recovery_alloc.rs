//! Recovery reads and decodes only what it keeps. A counting global
//! allocator records the peak growth of the heap made on this test's own
//! thread, inside `Recovery::run` or `DurableStore::open` only, through
//! `const` thread-locals that themselves never allocate.
//!
//! * A restart reads the journal from its snapshot's position: a segment
//!   holding over 1 MiB of frames before the snapshot and one frame after
//!   it recovers, and reopens for appending, at a peak below a quarter of
//!   the segment's size.
//! * A replay holds one decoded frame at a time: the same segment with its
//!   manifest removed replays in full, and opens for appending, each at a
//!   peak below twice the segment's size, where holding every decoded frame
//!   at once came to three times it.
//! * A tail that changes most of the graph rebuilds the path tables and
//!   frees the snapshot's unread: a snapshot whose tables make up nearly
//!   all of its bytes recovers at a peak below one and a half times its
//!   size, where decoding the tables would hold them beside those bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fs;
use std::path::{Path, PathBuf};
use tin_durable::{DurableStore, Journal, JournalConfig, Recovery, RecoverySource};
use tin_graph::{GraphDelta, Interaction, Node, NodeId, TemporalGraph};
use tin_patterns::{PathTables, TablesConfig};

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn record(grown: isize) {
    // `try_with`: allocations during thread teardown must not panic.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = LIVE.try_with(|live| {
                live.set(live.get() + grown);
                let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
            });
        }
    });
}

struct CountingAllocator;

// SAFETY: every call is forwarded verbatim to `System`; the thread-local
// counters are bookkeeping on the side and never influence the pointers.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(-(layout.size() as isize));
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The peak growth of the calling thread's heap while `f` runs, in bytes.
fn peak_in<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LIVE.with(|live| live.set(0));
    PEAK.with(|peak| peak.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, PEAK.with(Cell::get) as usize)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tin-recovery-alloc-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Journals `deltas` into a fresh store under `dir` without an fsync per
/// frame, snapshotting after the first `snapshot_after`; returns the live
/// state.
fn build_store(
    dir: &Path,
    config: &TablesConfig,
    deltas: &[GraphDelta],
    snapshot_after: usize,
) -> (TemporalGraph, PathTables) {
    let journal = JournalConfig {
        sync_every: 0,
        ..JournalConfig::default()
    };
    let (mut store, _) = DurableStore::open(dir, *config, journal).unwrap();
    for (i, delta) in deltas.iter().enumerate() {
        store.apply(delta).unwrap();
        if i + 1 == snapshot_after {
            store.snapshot().unwrap();
        }
    }
    (store.graph().clone(), store.tables().clone())
}

/// Six vertices and nine pairs among them, holding 2-cycles, 3-cycles and
/// 2-chains.
const PAIRS: [(u32, u32); 9] = [
    (0, 1),
    (1, 0),
    (1, 2),
    (2, 0),
    (2, 3),
    (3, 4),
    (4, 2),
    (4, 5),
    (5, 3),
];

/// Records per frame of the long feed.
const RECORDS: usize = 64;

/// Frame `f` of a feed over [`PAIRS`]: [`RECORDS`] interactions at times
/// `f·RECORDS + r`, each frame expiring what is more than four frames old,
/// so the window holds about 256 interactions however long the feed runs.
fn windowed_frame(f: usize) -> GraphDelta {
    let nodes = if f == 0 {
        (0..6)
            .map(|v| Node {
                name: format!("v{v}"),
            })
            .collect()
    } else {
        Vec::new()
    };
    let base = if f == 0 { 0 } else { 6 };
    let first = (f * RECORDS) as i64;
    let interactions = (0..RECORDS)
        .map(|r| {
            let (src, dst) = PAIRS[(f + r) % PAIRS.len()];
            let time = first + r as i64;
            (
                NodeId(src),
                NodeId(dst),
                Interaction::new(time, 1.0 + r as f64),
            )
        })
        .collect();
    GraphDelta::new(base, nodes, interactions)
        .unwrap()
        .expire_before(first - 4 * RECORDS as i64)
}

#[test]
fn a_restart_reads_the_journal_from_the_snapshots_position() {
    let dir = temp_dir("segment");
    let config = TablesConfig::default();
    // About 840 bytes a frame: 1,300 frames before the snapshot, 1 after.
    let deltas: Vec<GraphDelta> = (0..1_301).map(windowed_frame).collect();
    let (graph, tables) = build_store(&dir, &config, &deltas, 1_300);
    let manifest = tin_durable::snapshot::manifest_path(&dir, 0);
    let position = tin_durable::snapshot::read_manifest(&manifest).unwrap().pos;
    assert_eq!(position.segment, 0);
    assert!(
        position.offset >= 1 << 20,
        "the snapshot covers {} bytes of frames",
        position.offset
    );
    let segment = fs::metadata(dir.join("journal-000000.wal")).unwrap().len() as usize;

    let (rec, recovery_peak) = peak_in(|| Recovery::new(&dir, config).run().unwrap());
    assert!(matches!(rec.report.source, RecoverySource::Snapshot { .. }));
    assert_eq!(rec.report.replayed, 1);
    assert_eq!(rec.graph, graph);
    assert_eq!(tables.first_row_divergence(&rec.tables), None);
    drop(rec);
    assert!(
        recovery_peak < segment / 4,
        "Recovery::run peaked at {recovery_peak} bytes over a {segment}-byte segment"
    );

    let ((store, report), open_peak) =
        peak_in(|| DurableStore::open(&dir, config, JournalConfig::default()).unwrap());
    assert_eq!(report.replayed, 1);
    assert_eq!(store.position(), report.position);
    assert!(
        open_peak < segment / 4,
        "DurableStore::open peaked at {open_peak} bytes over a {segment}-byte segment"
    );
    drop(store);
    fs::remove_dir_all(&dir).unwrap();
}

/// Reading 1,094,585 bytes of segment, the full replay peaked at 1,248,375
/// bytes and the journal's open at 1,096,711; collecting every decoded
/// frame first, both peaked at about 3,257,400.
#[test]
fn a_full_replay_and_a_journal_open_hold_one_decoded_frame_at_a_time() {
    let dir = temp_dir("replay");
    let config = TablesConfig::default();
    let deltas: Vec<GraphDelta> = (0..1_301).map(windowed_frame).collect();
    let (graph, tables) = build_store(&dir, &config, &deltas, 1_300);
    fs::remove_file(tin_durable::snapshot::manifest_path(&dir, 0)).unwrap();
    let segment = fs::metadata(dir.join("journal-000000.wal")).unwrap().len() as usize;

    let (rec, replay_peak) = peak_in(|| Recovery::new(&dir, config).run().unwrap());
    assert_eq!(rec.report.source, RecoverySource::FullReplay);
    assert_eq!(rec.report.replayed, 1_301);
    assert_eq!(rec.graph, graph);
    assert_eq!(tables.first_row_divergence(&rec.tables), None);
    let end = rec.report.position;
    drop(rec);

    assert!(
        replay_peak < 2 * segment,
        "a full replay peaked at {replay_peak} bytes over a {segment}-byte segment"
    );

    let (journal, open_peak) = peak_in(|| Journal::open(&dir, JournalConfig::default()).unwrap());
    assert_eq!(journal.position(), end);
    drop(journal);
    assert!(
        open_peak < 2 * segment,
        "Journal::open peaked at {open_peak} bytes over a {segment}-byte segment"
    );
    fs::remove_dir_all(&dir).unwrap();
}

/// Vertices of the dense store: every ordered pair among them is an edge.
const DENSE: u32 = 16;

#[test]
fn a_rebuild_leaves_the_snapshots_tables_undecoded() {
    let dir = temp_dir("rebuild");
    let config = TablesConfig::default();
    // A complete digraph: about 7,000 table rows over 240 edges, so the
    // tables are nearly all of the snapshot's bytes.
    let nodes = (0..DENSE)
        .map(|v| Node {
            name: format!("v{v}"),
        })
        .collect();
    let interactions = (0..DENSE)
        .flat_map(|u| (0..DENSE).filter(move |&v| v != u).map(move |v| (u, v)))
        .enumerate()
        .map(|(t, (u, v))| (NodeId(u), NodeId(v), Interaction::new(t as i64, 2.0)))
        .collect();
    let dense = GraphDelta::new(0, nodes, interactions).unwrap();
    // The tail evicts every pair but the one it adds: a rebuild.
    let evict = GraphDelta::new(
        DENSE as usize,
        Vec::new(),
        vec![(NodeId(0), NodeId(1), Interaction::new(1_000, 1.0))],
    )
    .unwrap()
    .expire_before(1_000);
    let (graph, tables) = build_store(&dir, &config, &[dense, evict], 1);
    let snapshot = fs::metadata(dir.join("snapshot-000000.snap"))
        .unwrap()
        .len() as usize;
    // Each edge is stored in 32 bytes: endpoints, a count, one interaction.
    let edge_table = (DENSE * (DENSE - 1)) as usize * 32;
    assert!(
        snapshot > 20 * edge_table,
        "a {edge_table}-byte edge table is over a twentieth of the {snapshot}-byte snapshot"
    );

    let (rec, peak) = peak_in(|| Recovery::new(&dir, config).run().unwrap());
    assert!(matches!(rec.report.source, RecoverySource::Snapshot { .. }));
    assert_eq!(rec.report.replayed, 1);
    assert!(rec.report.tables_update.unwrap().rebuilt);
    assert_eq!(rec.graph, graph);
    assert_eq!(tables.first_row_divergence(&rec.tables), None);
    assert!(
        peak < snapshot + snapshot / 2,
        "Recovery::run peaked at {peak} bytes over a {snapshot}-byte snapshot"
    );
    fs::remove_dir_all(&dir).unwrap();
}
