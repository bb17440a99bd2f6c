//! `restart`: the durable read path. Set-up streams a windowed feed through
//! a `DurableStore`, snapshots at 90% of the feed and keeps journaling, so
//! the directory holds a snapshot plus a journal tail. An operation is one
//! `Recovery::run` over that directory: snapshot decode and CRC checks,
//! tail replay, table maintenance.

use crate::measured::{Budget, Counts, Measured};
use crate::trace::{Call, Tracer};
use crate::{alloc, input};
use std::path::{Path, PathBuf};
use std::time::Instant;
use tin_datasets::{DatasetKind, DeltaStream, LoaderConfig};
use tin_durable::{DurableStore, JournalConfig, Recovered, Recovery, RecoverySource};
use tin_graph::TemporalGraph;
use tin_patterns::{PathTables, TablesConfig};

/// The shape of the restart workload.
#[derive(Debug, Clone)]
pub struct RestartSpec {
    /// Prosper generator size relative to its default.
    pub scale: f64,
    /// Independent durable directories per run, recovered in turn.
    pub stores: usize,
    pub batch_records: usize,
    /// Share of the feed's batches applied before the snapshot.
    pub snapshot_at: f64,
}

/// A durable directory plus the live state it must recover to.
struct Store {
    dir: PathBuf,
    graph: TemporalGraph,
    tables: PathTables,
    /// Frames journaled after the snapshot.
    tail: u64,
    snapshot_ms: f64,
}

pub struct RestartInput {
    stores: Vec<Store>,
}

/// All three tables: C2 is part of what a snapshot must restore.
fn tables_config() -> TablesConfig {
    TablesConfig {
        build_l2: true,
        build_l3: true,
        build_c2: true,
        max_rows: 5_000_000,
    }
}

/// The journal of a store under construction: no fsync until the store
/// closes. The files hold the same bytes as with an fsync per frame, and
/// set-up time goes to building the stores, not to waiting on the disk.
fn journal_config() -> JournalConfig {
    JournalConfig {
        sync_every: 0,
        ..JournalConfig::default()
    }
}

/// Builds the durable directories under `dir` from Prosper feeds generated
/// from `seed`.
pub fn setup(spec: &RestartSpec, seed: u64, dir: &Path) -> Result<RestartInput, String> {
    let stores = (0..spec.stores)
        .map(|i| build_store(spec, input::sub_seed(seed, i), &dir.join(i.to_string())))
        .collect::<Result<_, _>>()?;
    Ok(RestartInput { stores })
}

fn build_store(spec: &RestartSpec, seed: u64, dir: &Path) -> Result<Store, String> {
    let graph = input::generate(DatasetKind::Prosper, spec.scale, seed);
    let csv = input::feed_csv(&graph);
    let batches = graph.interaction_count().div_ceil(spec.batch_records);
    let snapshot_after = ((batches as f64 * spec.snapshot_at) as usize).max(1);
    let _ = std::fs::remove_dir_all(dir);
    let (mut store, _) = DurableStore::open(dir, tables_config(), journal_config())
        .map_err(|e| format!("open {}: {e}", dir.display()))?;
    let mut stream = DeltaStream::new(csv.as_slice(), &LoaderConfig::default())
        .and_then(|s| s.window(input::half_span(&graph)))
        .expect("the default loader config and a positive window are valid");
    let mut applied = 0usize;
    let mut snapshot_ms = 0.0;
    while let Some(delta) = stream
        .next_delta(spec.batch_records)
        .map_err(|e| format!("feed: {e}"))?
    {
        store
            .apply(&delta)
            .map_err(|e| format!("durable apply: {e}"))?;
        applied += 1;
        if applied == snapshot_after {
            let start = Instant::now();
            store.snapshot().map_err(|e| format!("snapshot: {e}"))?;
            snapshot_ms = start.elapsed().as_secs_f64() * 1e3;
        }
    }
    Ok(Store {
        dir: dir.to_path_buf(),
        graph: store.graph().clone(),
        tables: store.tables().clone(),
        tail: (applied - snapshot_after) as u64,
        snapshot_ms,
    })
}

/// Recovers the directories in turn, pass after pass, within `budget`. A
/// pass is the same sequence of recoveries every time: the budget's
/// distinct operations, rounded up to whole rounds over the stores, so
/// that each position's time can be the fastest of its repeats.
pub fn measure(input: &RestartInput, budget: &Budget, tracer: &mut Tracer) -> Measured {
    let mut m = Measured::start();
    let recoveries: Vec<Recovery> = input
        .stores
        .iter()
        .map(|s| Recovery::new(&s.dir, tables_config()))
        .collect();
    let stores = recoveries.len();
    let pass_len = budget.min_ops.div_ceil(stores) * stores;
    let mut counts = StoreCounts::default();
    'passes: while m.another_pass(budget) {
        let first_pass = m.passes == 0;
        // Every recovery of the last pass must still be exact.
        let last_pass = m.passes + 1 >= budget.passes;
        for op in 0..pass_len {
            if tracer.full() {
                break 'passes;
            }
            let i = op % stores;
            let first = first_pass && op < stores;
            if first {
                m.begin_unit();
            }
            let op_start = Instant::now();
            tracer.begin_op(op as u32);
            let recovered = tracer.time(Call::Recover, || recoveries[i].run());
            tracer.end_op();
            m.sample(op_start, recovered.is_ok());
            if first {
                m.end_unit();
            }
            match recovered {
                Ok(rec) if first || last_pass => {
                    alloc::excluded(|| check(&mut m, &input.stores[i], &rec));
                    if first {
                        counts.add(&input.stores[i], &rec);
                    }
                }
                Ok(_) => {}
                Err(e) => m.mismatch(format!("recovery {op} of store {i} failed: {e}")),
            }
        }
        m.end_pass();
    }
    counts.finish(&mut m.counts);
    m
}

/// The oracle: a recovery restores exactly the live state, through the
/// snapshot plus the whole tail.
fn check(m: &mut Measured, store: &Store, rec: &Recovered) {
    if !matches!(rec.report.source, RecoverySource::Snapshot { .. }) {
        m.mismatch(format!(
            "recovered from {:?}, not the snapshot",
            rec.report.source
        ));
    }
    if rec.report.replayed != store.tail {
        m.mismatch(format!(
            "replayed {} frames, expected {}",
            rec.report.replayed, store.tail
        ));
    }
    if rec.graph != store.graph {
        m.mismatch("recovered graph differs from the live graph".into());
    }
    if let Some(d) = store.tables.first_row_divergence(&rec.tables) {
        m.mismatch(format!("recovered tables diverged: {d}"));
    }
}

/// Per-layer counts of the first recovery of every directory, summed.
#[derive(Default)]
struct StoreCounts {
    frames: u64,
    replayed: u64,
    snapshot_bytes: u64,
    snapshot_ms: f64,
    live: u64,
    rows: u64,
}

impl StoreCounts {
    fn add(&mut self, store: &Store, rec: &Recovered) {
        self.snapshot_bytes += std::fs::read_dir(&store.dir)
            .into_iter()
            .flatten()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".snap"))
            .filter_map(|e| e.metadata().ok())
            .map(|meta| meta.len())
            .sum::<u64>();
        self.frames += rec.report.frames;
        self.replayed += rec.report.replayed;
        self.snapshot_ms += store.snapshot_ms;
        self.live += rec.graph.interaction_count() as u64;
        self.rows += rec.tables.row_count() as u64;
    }

    fn finish(self, counts: &mut Counts) {
        counts.set("durable.frames", self.frames as f64);
        counts.set("durable.replayed", self.replayed as f64);
        counts.set("durable.snapshot_bytes", self.snapshot_bytes as f64);
        counts.set("durable.snapshot_ms", self.snapshot_ms);
        counts.set("graph.live_end", self.live as f64);
        counts.set("patterns.rows", self.rows as f64);
    }
}
