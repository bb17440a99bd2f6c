//! The crash matrix: kill the process at every phase of the durability
//! protocol — mid-frame, mid-snapshot, pre-manifest-rename, post-rename,
//! and with a corrupted snapshot — and assert that recovery reaches a state
//! row-identical to an uninterrupted run over the durable prefix, then
//! keeps working (appends continue, a second kill recovers again).
//!
//! Crashes are simulated two ways: journal tails are torn by replaying the
//! clean segment bytes through a [`FailpointWriter`] with a `TruncateAt`
//! failpoint (the writer reports success while dropping the tail, exactly
//! like a kill after the syscall returned), and snapshot-phase crashes are
//! staged by leaving the directory in the exact file state a kill at that
//! phase produces (orphan `.tmp`, snapshot without manifest, ...).
//!
//! A journal presizes its segment and trims it when it closes, so most
//! tests here tear segments of stores that closed cleanly. A kill skips the
//! close: the tests that `std::mem::forget` a journal or a store read the
//! presized segment, zero tail included, as a killed writer leaves it.

use std::fs;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use tin_durable::journal::replay_from;
use tin_durable::{
    DurableStore, Failpoint, FailpointWriter, Journal, JournalConfig, JournalPos, Recovery,
    RecoverySource,
};
use tin_graph::{GraphDelta, Interaction, Node, NodeId, TemporalGraph};
use tin_patterns::{PathTables, TablesConfig};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tin-crashmatrix-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Delta `i`: one new node, and for `i > 0` an interaction into it plus a
/// back-edge every third step so cycles (hence L2/L3 rows) exist.
fn delta(i: u32) -> GraphDelta {
    let nodes = vec![Node {
        name: format!("v{i}"),
    }];
    let mut interactions = Vec::new();
    if i > 0 {
        interactions.push((NodeId(i - 1), NodeId(i), Interaction::new(i as i64, 5.0)));
        if i % 3 == 0 {
            interactions.push((
                NodeId(i),
                NodeId(i - 1),
                Interaction::new(i as i64 + 1, 2.0),
            ));
        }
    }
    GraphDelta::new(i as usize, nodes, interactions).unwrap()
}

/// The state an uninterrupted run reaches after deltas `0..n`.
fn reference(n: u32) -> (TemporalGraph, PathTables) {
    let config = TablesConfig::default();
    let mut g = TemporalGraph::new();
    let mut t = PathTables::build(&g, &config);
    for i in 0..n {
        let applied = g.apply(&delta(i)).unwrap();
        t.apply(&g, &applied);
    }
    (g, t)
}

/// Asserts the recovered store is row-identical to an uninterrupted run of
/// `n` deltas, then appends the rest up to `total`, reopens once more, and
/// checks row-identity again — recovery must leave a store that *keeps*
/// being durable, not just one that starts correct.
fn assert_recovers_then_continues(dir: &Path, n: u32, total: u32) {
    let config = TablesConfig::default();
    let (mut store, report) = DurableStore::open(dir, config, JournalConfig::default()).unwrap();
    assert_eq!(store.frames(), n as u64, "durable prefix length");
    assert_eq!(report.frames, n as u64);
    let (g, t) = reference(n);
    assert_eq!(*store.graph(), g, "graph after recovery of {n} deltas");
    assert_eq!(
        t.first_row_divergence(store.tables()),
        None,
        "tables after recovery of {n} deltas"
    );
    for i in n..total {
        store.apply(&delta(i)).unwrap();
    }
    drop(store);
    let (store, _) = DurableStore::open(dir, config, JournalConfig::default()).unwrap();
    let (g, t) = reference(total);
    assert_eq!(*store.graph(), g, "graph after continuing to {total}");
    assert_eq!(t.first_row_divergence(store.tables()), None);
}

/// Journals deltas `0..n` into `dir` through a real store.
fn populate(dir: &Path, n: u32) {
    let (mut store, _) =
        DurableStore::open(dir, TablesConfig::default(), JournalConfig::default()).unwrap();
    for i in 0..n {
        store.apply(&delta(i)).unwrap();
    }
}

/// Kill mid-frame: replay the clean segment through a `FailpointWriter`
/// truncating inside the last frame, at several depths including 1 byte in
/// (header barely started) and 1 byte short (payload almost complete).
#[test]
fn kill_mid_frame_recovers_complete_prefix() {
    let base = temp_dir("midframe-base");
    populate(&base, 8);
    let seg_name = "journal-000000.wal";
    let clean = fs::read(base.join(seg_name)).unwrap();
    // Byte length of the durable prefix holding exactly 7 frames: scan the
    // clean segment and take the 7th frame's end.
    let scan = tin_durable::frame::scan_segment(&clean, 0, true, seg_name).unwrap();
    assert_eq!(scan.frames, 8);
    let prefix_7 = scan.deltas[6].1;
    for cut in [prefix_7 + 1, prefix_7 + 8, clean.len() as u64 - 1] {
        let dir = temp_dir(&format!("midframe-{cut}"));
        fs::create_dir_all(&dir).unwrap();
        let mut w = FailpointWriter::new(
            fs::File::create(dir.join(seg_name)).unwrap(),
            Failpoint::TruncateAt(cut),
        );
        w.write_all(&clean).unwrap();
        w.into_inner().sync_all().unwrap();
        assert_recovers_then_continues(&dir, 7, 10);
        fs::remove_dir_all(&dir).unwrap();
    }
    fs::remove_dir_all(&base).unwrap();
}

/// Kill between frames: the store is never dropped, so its segment keeps
/// the unwritten zeros past the last frame. Recovery reads every
/// acknowledged frame and no torn tail, and the reopened store continues.
#[test]
fn kill_without_close_recovers_every_acknowledged_frame() {
    let dir = temp_dir("noclose");
    let (mut store, _) =
        DurableStore::open(&dir, TablesConfig::default(), JournalConfig::default()).unwrap();
    for i in 0..8 {
        store.apply(&delta(i)).unwrap();
    }
    let end = store.position();
    std::mem::forget(store);
    let seg = dir.join("journal-000000.wal");
    assert!(
        fs::metadata(&seg).unwrap().len() > end.offset,
        "the killed writer's segment has no zero tail"
    );
    let rec = Recovery::new(&dir, TablesConfig::default()).run().unwrap();
    assert_eq!(rec.report.frames, 8);
    assert_eq!(rec.report.position, end);
    assert!(rec.report.torn_tail.is_none(), "{:?}", rec.report.torn_tail);
    assert_recovers_then_continues(&dir, 8, 11);
    fs::remove_dir_all(&dir).unwrap();
}

/// Kill mid-frame inside the presized region: half a frame lands at the
/// data end and zeros follow it. The scan reads a torn tail; opening the
/// journal cuts the torn half and the zeros, and a later replay sees
/// exactly the old frames plus the new appends.
#[test]
fn half_frame_in_presized_region_is_a_torn_tail() {
    let dir = temp_dir("halfframe");
    let mut j = Journal::open(&dir, JournalConfig::default()).unwrap();
    for i in 0..5 {
        j.append(&delta(i)).unwrap();
    }
    let end = j.position();
    std::mem::forget(j);
    let seg = tin_durable::journal::segment_path(&dir, end.segment);
    let presized = fs::metadata(&seg).unwrap().len();
    let mut next = Vec::new();
    tin_durable::frame::write_frame(
        &mut next,
        &tin_durable::frame::encode_delta(&delta(5)).unwrap(),
    )
    .unwrap();
    let half = &next[..next.len() / 2];
    let mut f = fs::File::options().write(true).open(&seg).unwrap();
    f.seek(SeekFrom::Start(end.offset)).unwrap();
    f.write_all(half).unwrap();
    drop(f);
    assert!(presized > end.offset + half.len() as u64);
    assert_eq!(fs::metadata(&seg).unwrap().len(), presized);

    let replay = replay_from(&dir, JournalPos::start()).unwrap();
    assert_eq!(replay.deltas.len(), 5);
    assert_eq!(replay.end, end);
    assert_eq!(
        replay.torn.as_ref().map(|(_, t)| t.offset),
        Some(end.offset)
    );

    let mut j = Journal::open(&dir, JournalConfig::default()).unwrap();
    assert_eq!(j.position(), end);
    assert_eq!(
        fs::metadata(&seg).unwrap().len(),
        end.offset,
        "open cuts the torn half and the zeros"
    );
    for i in 5..8 {
        j.append(&delta(i)).unwrap();
    }
    drop(j);
    let replay = replay_from(&dir, JournalPos::start()).unwrap();
    assert!(replay.torn.is_none());
    let got: Vec<GraphDelta> = replay.deltas.into_iter().map(|(d, _)| d).collect();
    assert_eq!(got, (0..8).map(delta).collect::<Vec<_>>());
    fs::remove_dir_all(&dir).unwrap();
}

/// Kill mid-snapshot: the `.tmp` snapshot file exists (partial), no `.snap`,
/// no manifest. Recovery must ignore it entirely and fully replay.
#[test]
fn kill_mid_snapshot_leaves_orphan_tmp_invisible() {
    let dir = temp_dir("midsnap");
    populate(&dir, 6);
    // A snapshot write that died halfway through the tmp file.
    fs::write(dir.join("snapshot-000000.tmp"), b"TINSNAP1 partial garbage").unwrap();
    let rec = Recovery::new(&dir, TablesConfig::default()).run().unwrap();
    assert_eq!(rec.report.source, RecoverySource::FullReplay);
    assert!(rec.report.discarded.is_empty());
    assert_recovers_then_continues(&dir, 6, 9);
    fs::remove_dir_all(&dir).unwrap();
}

/// Kill pre-manifest-rename: the snapshot renamed into place, the manifest
/// only made it to `.tmp`. The commit point is the manifest rename, so the
/// snapshot must be invisible.
#[test]
fn kill_before_manifest_rename_is_not_committed() {
    let dir = temp_dir("premanifest");
    {
        let (mut store, _) =
            DurableStore::open(&dir, TablesConfig::default(), JournalConfig::default()).unwrap();
        for i in 0..6 {
            store.apply(&delta(i)).unwrap();
            if i == 3 {
                store.snapshot().unwrap();
            }
        }
    }
    // Un-commit the manifest: back to its pre-rename tmp name.
    fs::rename(
        dir.join("manifest-000000.mf"),
        dir.join("manifest-000000.tmp"),
    )
    .unwrap();
    let rec = Recovery::new(&dir, TablesConfig::default()).run().unwrap();
    assert_eq!(rec.report.source, RecoverySource::FullReplay);
    assert_recovers_then_continues(&dir, 6, 9);
    fs::remove_dir_all(&dir).unwrap();
}

/// Kill post-rename, then again mid-frame: the committed snapshot is used,
/// the torn tail after it is dropped, and the tail before it is replayed.
#[test]
fn kill_after_commit_uses_snapshot_and_drops_torn_tail() {
    let dir = temp_dir("postrename");
    {
        let (mut store, _) =
            DurableStore::open(&dir, TablesConfig::default(), JournalConfig::default()).unwrap();
        for i in 0..9 {
            store.apply(&delta(i)).unwrap();
            if i == 4 {
                store.snapshot().unwrap();
            }
        }
    }
    // Tear the last frame (kill mid-append after the snapshot committed).
    let seg = dir.join("journal-000000.wal");
    let len = fs::metadata(&seg).unwrap().len();
    fs::File::options()
        .write(true)
        .open(&seg)
        .unwrap()
        .set_len(len - 5)
        .unwrap();
    let rec = Recovery::new(&dir, TablesConfig::default()).run().unwrap();
    assert!(matches!(rec.report.source, RecoverySource::Snapshot { .. }));
    assert_eq!(rec.report.frames, 8);
    assert_eq!(rec.report.replayed, 3);
    assert!(rec.report.torn_tail.is_some());
    assert_recovers_then_continues(&dir, 8, 12);
    fs::remove_dir_all(&dir).unwrap();
}

/// Bit rot in a committed snapshot: recovery discards it with a reason and
/// falls back — to an older snapshot if one exists, else full replay —
/// still reaching the row-identical state.
#[test]
fn corrupt_snapshot_degrades_to_older_then_full_replay() {
    let dir = temp_dir("rot");
    {
        let (mut store, _) =
            DurableStore::open(&dir, TablesConfig::default(), JournalConfig::default()).unwrap();
        for i in 0..10 {
            store.apply(&delta(i)).unwrap();
            if i == 3 || i == 7 {
                store.snapshot().unwrap();
            }
        }
    }
    // Rot the newest snapshot: falls back to the older one.
    let newest = dir.join("snapshot-000001.snap");
    let mut bytes = fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    fs::write(&newest, &bytes).unwrap();
    let rec = Recovery::new(&dir, TablesConfig::default()).run().unwrap();
    match &rec.report.source {
        RecoverySource::Snapshot { snapshot, .. } => assert!(snapshot.contains("000000")),
        other => panic!("expected older snapshot, got {other:?}"),
    }
    assert_eq!(rec.report.discarded.len(), 1);
    // Rot the older one too: full replay, two discards, same state.
    let older = dir.join("snapshot-000000.snap");
    let mut bytes = fs::read(&older).unwrap();
    bytes[10] ^= 0x01;
    fs::write(&older, &bytes).unwrap();
    let rec = Recovery::new(&dir, TablesConfig::default()).run().unwrap();
    assert_eq!(rec.report.source, RecoverySource::FullReplay);
    assert_eq!(rec.report.discarded.len(), 2);
    assert_recovers_then_continues(&dir, 10, 13);
    fs::remove_dir_all(&dir).unwrap();
}

/// Mid-journal corruption (not at the tail) must NOT be silently skipped:
/// recovery fails with the exact file, frame, and byte offset.
#[test]
fn mid_journal_corruption_fails_with_position() {
    let dir = temp_dir("midjournal");
    populate(&dir, 8);
    let seg = dir.join("journal-000000.wal");
    let clean = fs::read(&seg).unwrap();
    let scan = tin_durable::frame::scan_segment(&clean, 0, true, "journal-000000.wal").unwrap();
    // Flip a byte inside the 3rd frame's payload.
    let third_start = scan.deltas[1].1;
    let mut rotted = clean.clone();
    rotted[third_start as usize + 9] ^= 0x08;
    fs::write(&seg, &rotted).unwrap();
    let err = Recovery::new(&dir, TablesConfig::default())
        .run()
        .unwrap_err();
    match err {
        tin_durable::DurabilityError::CorruptFrame {
            file,
            frame,
            offset,
            ..
        } => {
            assert_eq!(file, "journal-000000.wal");
            assert_eq!(frame, 2);
            assert_eq!(offset, third_start);
        }
        other => panic!("expected CorruptFrame, got {other}"),
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// The matrix also holds across a segment rotation: kill mid-frame in the
/// second segment, with a snapshot committed in the first.
#[test]
fn kill_mid_frame_after_rotation_recovers() {
    let dir = temp_dir("rotation");
    let config = JournalConfig {
        segment_max_bytes: 256, // force rotations
        sync_every: 1,
        ..JournalConfig::default()
    };
    {
        let (mut store, _) = DurableStore::open(&dir, TablesConfig::default(), config).unwrap();
        for i in 0..12 {
            store.apply(&delta(i)).unwrap();
            if i == 5 {
                store.snapshot().unwrap();
            }
        }
        assert!(store.position().segment >= 1, "rotation did not happen");
    }
    // Tear the final segment's last frame.
    let last_seg = tin_durable::journal::list_segments(&dir)
        .unwrap()
        .into_iter()
        .next_back()
        .unwrap()
        .1;
    let len = fs::metadata(&last_seg).unwrap().len();
    fs::File::options()
        .write(true)
        .open(&last_seg)
        .unwrap()
        .set_len(len - 2)
        .unwrap();
    let (store, report) = DurableStore::open(&dir, TablesConfig::default(), config).unwrap();
    assert_eq!(store.frames(), 11);
    assert!(matches!(report.source, RecoverySource::Snapshot { .. }));
    let (g, t) = reference(11);
    assert_eq!(*store.graph(), g);
    assert_eq!(t.first_row_divergence(store.tables()), None);
    drop(store);
    // Journal keeps the custom segment size for the continuation run.
    let (mut store, _) = DurableStore::open(&dir, TablesConfig::default(), config).unwrap();
    for i in 11..14 {
        store.apply(&delta(i)).unwrap();
    }
    drop(store);
    let (store, _) = DurableStore::open(&dir, TablesConfig::default(), config).unwrap();
    let (g, t) = reference(14);
    assert_eq!(*store.graph(), g);
    assert_eq!(t.first_row_divergence(store.tables()), None);
    fs::remove_dir_all(&dir).unwrap();
}

/// A windowed (expiring) stream — tombstones and a moving frontier — also
/// survives the kill: expiry frontiers ride in the journal frames.
#[test]
fn kill_with_expiring_window_preserves_frontier() {
    let dir = temp_dir("window");
    {
        let (mut store, _) =
            DurableStore::open(&dir, TablesConfig::default(), JournalConfig::default()).unwrap();
        for i in 0..8 {
            let d = delta(i);
            let d = if i >= 5 {
                d.expire_before(i as i64 - 4)
            } else {
                d
            };
            store.apply(&d).unwrap();
        }
        assert!(store.graph().frontier().is_some());
    }
    let seg = dir.join("journal-000000.wal");
    let len = fs::metadata(&seg).unwrap().len();
    fs::File::options()
        .write(true)
        .open(&seg)
        .unwrap()
        .set_len(len - 4)
        .unwrap();
    let (store, _) =
        DurableStore::open(&dir, TablesConfig::default(), JournalConfig::default()).unwrap();
    assert_eq!(store.frames(), 7);
    // Reference: the same deltas (with the same expiries) applied directly.
    let mut g = TemporalGraph::new();
    let mut t = PathTables::build(&g, &TablesConfig::default());
    for i in 0..7 {
        let d = delta(i);
        let d = if i >= 5 {
            d.expire_before(i as i64 - 4)
        } else {
            d
        };
        let applied = g.apply(&d).unwrap();
        t.apply(&g, &applied);
    }
    assert_eq!(*store.graph(), g);
    assert_eq!(store.graph().frontier(), g.frontier());
    assert_eq!(t.first_row_divergence(store.tables()), None);
    fs::remove_dir_all(&dir).unwrap();
}

/// Group commit crash contract, across group sizes: with `sync_every = g`,
/// a kill after `k` appends loses **at most the last uncommitted group** —
/// the durable prefix holds the `floor(k / g) * g` frames whose group
/// boundaries fsynced, and recovery replays exactly those, then keeps
/// accepting appends.
#[test]
fn group_commit_kill_loses_at_most_last_group() {
    for (group, appends) in [(2u32, 7u32), (4, 10), (8, 8), (8, 5)] {
        let dir = temp_dir(&format!("groupkill-{group}-{appends}"));
        let config = JournalConfig::group_commit(group);
        let mut j = Journal::open(&dir, config).unwrap();
        for i in 0..appends {
            j.append(&delta(i)).unwrap();
        }
        let committed = (appends / group) * group;
        let durable = j.durable_position();
        if appends % group == 0 {
            assert_eq!(durable, j.position(), "g={group} k={appends}");
        } else {
            assert!(durable < j.position(), "g={group} k={appends}");
        }
        // Simulate the kill: skip the Drop flush, then drop everything past
        // the last fsync (the open group rides only in the page cache and
        // a power cut takes it).
        std::mem::forget(j);
        let seg = tin_durable::journal::segment_path(&dir, durable.segment);
        fs::File::options()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(durable.offset)
            .unwrap();
        let replay =
            tin_durable::journal::replay_from(&dir, tin_durable::JournalPos::start()).unwrap();
        assert_eq!(
            replay.deltas.len(),
            committed as usize,
            "g={group} k={appends}: exactly the committed groups survive"
        );
        assert!(replay.torn.is_none());
        for (i, (d, _)) in replay.deltas.iter().enumerate() {
            assert_eq!(d, &delta(i as u32), "g={group} k={appends}");
        }
        // Recovery leaves a journal that keeps working.
        let mut j = Journal::open(&dir, config).unwrap();
        assert_eq!(j.position(), durable);
        j.append(&delta(committed)).unwrap();
        j.sync().unwrap();
        let replay =
            tin_durable::journal::replay_from(&dir, tin_durable::JournalPos::start()).unwrap();
        assert_eq!(replay.deltas.len(), committed as usize + 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// Group commit clean-shutdown contract: dropping the journal flushes the
/// open group, so a shutdown between group boundaries loses nothing — the
/// full append sequence replays.
#[test]
fn group_commit_clean_shutdown_loses_nothing() {
    let dir = temp_dir("groupclean");
    let mut j = Journal::open(&dir, JournalConfig::group_commit(4)).unwrap();
    for i in 0..10 {
        j.append(&delta(i)).unwrap();
    }
    // Two frames sit in the open (uncommitted) group...
    assert!(j.durable_position() < j.position());
    let end = j.position();
    // ...and the drop commits them.
    drop(j);
    let replay = tin_durable::journal::replay_from(&dir, tin_durable::JournalPos::start()).unwrap();
    assert_eq!(replay.deltas.len(), 10);
    assert_eq!(replay.end, end);
    // A reopen sees the whole sequence as the durable prefix.
    let j = Journal::open(&dir, JournalConfig::group_commit(4)).unwrap();
    assert_eq!(j.position(), end);
    assert_eq!(j.durable_position(), end);
    fs::remove_dir_all(&dir).unwrap();
}

/// Belt-and-braces: the journal alone (no store) also tolerates a
/// `FailpointWriter`-torn copy of a multi-frame segment at any of the
/// sampled depths.
#[test]
fn journal_reopen_after_failpoint_torn_copy() {
    let base = temp_dir("jr-base");
    populate(&base, 5);
    let clean = fs::read(base.join("journal-000000.wal")).unwrap();
    for frac in [3, 5, 7] {
        let cut = (clean.len() * frac / 8) as u64;
        let dir = temp_dir(&format!("jr-{frac}"));
        fs::create_dir_all(&dir).unwrap();
        let mut w = FailpointWriter::new(
            fs::File::create(dir.join("journal-000000.wal")).unwrap(),
            Failpoint::TruncateAt(cut),
        );
        w.write_all(&clean).unwrap();
        w.into_inner().sync_all().unwrap();
        // Journal::open must truncate to a frame boundary and then accept
        // appends; replay must agree with what open kept.
        let mut journal = Journal::open(&dir, JournalConfig::default()).unwrap();
        let kept =
            tin_durable::journal::replay_from(&dir, tin_durable::JournalPos::start()).unwrap();
        assert!(kept.torn.is_none(), "open left a torn tail behind");
        assert_eq!(journal.position(), kept.end);
        journal.append(&delta(kept.deltas.len() as u32)).unwrap();
        journal.sync().unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }
    fs::remove_dir_all(&base).unwrap();
}
