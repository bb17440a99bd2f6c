//! One replay loop for the streaming sections of the evaluation.
//!
//! A generated dataset is written as a CSV log ([`to_csv`]), read back in
//! batches of a fixed share of its records through [`DeltaStream`], and
//! every batch is applied to a live [`TemporalGraph`]. What else a batch
//! maintains is the replay's [`Regime`]:
//!
//! * [`Regime::Stream`]: path tables on the growing graph, patched by
//!   [`PathTables::apply`];
//! * [`Regime::Window`]: the same tables under a sliding window of half the
//!   log's time span, so batches also evict;
//! * [`Regime::Warmflow`]: an exact source→sink flow under that window,
//!   kept by a resident [`FlowSession`] and shadowed on every batch by a
//!   cold [`build_mcf`] plus network simplex solve of the same graph;
//! * [`Regime::Durable`]: the tables through a [`DurableStore`], which
//!   fsyncs one journal frame per batch. A snapshot lands at ~99% of the
//!   stream; the directory is then recovered through the snapshot and its
//!   journal tail, and with the manifests hidden as a full replay, each
//!   timed as the fastest of [`REPEATS`] recoveries.
//!
//! # What the replay measures
//!
//! `to_csv` writes the log edge by edge, so the replay is not a
//! time-ordered feed. At the standard scale 11,991 of the 12,000 Bitcoin
//! records arrive below a timestamp already seen. Under the half-span
//! window, 83–99% of evictions are records that arrive below the standing
//! frontier and are retired by the same apply that admits them (standard
//! Bitcoin: 6,052 of 6,110), not records that slid out of the window. By
//! batch 5 of 100 the frontier is within 2.3% (Bitcoin), 0.01% (CTU-13) and
//! 13% (Prosper Loans) of the window of its final value. The windowed
//! regimes therefore measure churn against an almost still frontier, not
//! the event-time windows of Akidau et al., "The Dataflow Model" (VLDB
//! 2015), which assume records arrive close to time order. Replaying in
//! timestamp order would change the one line that writes the log.
//!
//! # Exactness
//!
//! Every replay asserts, whatever it times:
//!
//! * the tables are row-identical to a from-scratch build every quarter of
//!   the stream and at the end, each state checked once; those builds,
//!   averaged, are the tables' baseline;
//! * every record is either live or counted as evicted, and nothing live
//!   predates the frontier;
//! * compaction keeps `2·garbage ≤ arena` across the tables' row arenas;
//! * the session's flow value equals the cold solve's within 1e-6 relative
//!   on every batch, and the flow endpoints resolve within the first half
//!   of the batches;
//! * both recoveries take their expected path, the snapshot one replays
//!   exactly the journal tail, and both match the run's graph and tables.
//!
//! # Coded bars
//!
//! At batches of at most 1%, the window regime must beat the rebuild ≥5×
//! and the warmflow regime the cold solve ≥3×; the second bar is judged
//! only where the cold baseline costs at least 50 µs per batch, below which
//! the ratio is scheduler noise. [`Bar::judge`] re-measures a miss up to
//! twice and returns a [`Verdict`] instead of panicking, so one missed bar
//! does not hide the rest of the evaluation.

use crate::flow_experiments::REPEATS;
use crate::ingest_experiments::to_csv;
use crate::workloads::Workload;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tin_datasets::{DatasetKind, DeltaStream, LoaderConfig};
use tin_durable::{DurableStore, JournalConfig, Recovery, RecoverySource};
use tin_flow::{build_mcf, FlowMethod, FlowSession, SessionStats};
use tin_graph::{AppliedDelta, NodeId, TemporalGraph};
use tin_patterns::{PathTables, TablesConfig};

/// What each batch of a replay maintains besides the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Path tables on the growing graph.
    Stream,
    /// Path tables under a sliding window of half the log's time span.
    Window,
    /// An exact source→sink flow under the same window, kept by a
    /// [`FlowSession`] and checked against a cold solve on every batch.
    Warmflow,
    /// Path tables through a [`DurableStore`] (journal fsynced per batch,
    /// snapshot at ~99% of the stream), then two recoveries.
    Durable,
}

impl Regime {
    /// The bar this regime's speedup must meet at batches of at most 1%.
    pub fn bar(self) -> Option<Bar> {
        match self {
            Regime::Window => Some(Bar {
                speedup: 5.0,
                floor: Duration::ZERO,
            }),
            Regime::Warmflow => Some(Bar {
                speedup: 3.0,
                floor: Duration::from_micros(50),
            }),
            Regime::Stream | Regime::Durable => None,
        }
    }
}

/// A coded speedup bar, judged only where the baseline costs at least
/// `floor` per batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bar {
    /// The speedup over the baseline the bar asks for.
    pub speedup: f64,
    /// The per-batch baseline below which the ratio is too noisy to judge.
    pub floor: Duration,
}

/// The outcome of judging a replay against its [`Bar`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// A reading met the bar; this is the speedup it read.
    Passed(f64),
    /// The baseline read this per batch, under the floor; not re-measured.
    Skipped(Duration),
    /// The best of three readings, all under the bar.
    Failed(f64),
}

impl Bar {
    /// Takes one measurement and judges its reading, `(speedup, baseline
    /// per batch)`. A miss is measured again up to twice and the best
    /// reading is kept: the replay is deterministic, so attempts differ
    /// only by scheduler noise. Returns the kept measurement and its
    /// verdict.
    pub fn judge<M>(
        self,
        mut measure: impl FnMut() -> M,
        reading: impl Fn(&M) -> (f64, Duration),
    ) -> (M, Verdict) {
        let mut best = measure();
        let (mut speedup, baseline) = reading(&best);
        if baseline < self.floor {
            return (best, Verdict::Skipped(baseline));
        }
        for _ in 0..2 {
            if speedup >= self.speedup {
                break;
            }
            let again = measure();
            if reading(&again).0 > speedup {
                speedup = reading(&again).0;
                best = again;
            }
        }
        let verdict = if speedup >= self.speedup {
            Verdict::Passed(speedup)
        } else {
            Verdict::Failed(speedup)
        };
        (best, verdict)
    }
}

/// One replay's measurements. Fields the regime does not touch stay zero.
#[derive(Debug, Default)]
pub struct Replay {
    /// Records ingested (equals the dataset's interaction count).
    pub records: u64,
    /// Bytes of the CSV log.
    pub csv_bytes: u64,
    /// Batches the log was consumed in.
    pub batches: usize,
    /// Records per batch.
    pub batch_records: usize,
    /// Tokenize + validate + apply, summed over batches. Under
    /// [`Regime::Durable`] the apply also writes and fsyncs the journal
    /// frame and patches the tables.
    pub append_time: Duration,
    /// The maintained work, summed: [`PathTables::apply`], or opening or
    /// advancing the flow session plus its solve.
    pub work_time: Duration,
    /// Batches that did that work: all of them, except the warmflow batches
    /// before both flow endpoints arrived.
    pub work_batches: usize,
    /// The baseline, summed: a from-scratch table build per row check, or
    /// a cold `build_mcf` plus solve per solved batch.
    pub baseline_time: Duration,
    /// Baseline samples taken.
    pub baseline_samples: usize,
    /// Table updates that fell back to a full rebuild.
    pub rebuild_fallbacks: usize,
    /// Interactions evicted across the run.
    pub evicted: u64,
    /// Live interactions when the log ran dry.
    pub final_live: usize,
    /// Largest live interaction count at any batch boundary.
    pub peak_live: usize,
    /// Row-arena entries across the tables at the end of the run.
    pub arena_entries: usize,
    /// Garbage entries among those.
    pub arena_garbage: usize,
    /// The flow session's counters.
    pub session: SessionStats,
    /// Cold-baseline pivots summed over the solved batches.
    pub cold_pivots: usize,
    /// Bytes of journal segments written.
    pub journal_bytes: u64,
    /// Wall-clock of the snapshot write.
    pub snapshot_time: Duration,
    /// Bytes of the snapshot file.
    pub snapshot_bytes: u64,
    /// Journal frames after the snapshot, which its recovery replays.
    pub tail_frames: u64,
    /// Wall-clock of recovery through the snapshot and the journal tail,
    /// the fastest of [`REPEATS`] runs.
    pub recover_snapshot_time: Duration,
    /// Wall-clock of recovery by full journal replay, the fastest of
    /// [`REPEATS`] runs.
    pub recover_replay_time: Duration,
    /// The verdict of the regime's [`Bar`], where it is armed.
    pub verdict: Option<Verdict>,
}

impl Replay {
    /// Mean maintained work per batch.
    pub fn work_per_batch(&self) -> Duration {
        self.work_time / (self.work_batches.max(1) as u32)
    }

    /// Mean baseline cost per sample.
    pub fn baseline_per_sample(&self) -> Duration {
        self.baseline_time / (self.baseline_samples.max(1) as u32)
    }

    /// How many times cheaper the maintained work is than its baseline.
    pub fn speedup(&self) -> f64 {
        self.baseline_per_sample().as_secs_f64() / self.work_per_batch().as_secs_f64().max(1e-12)
    }

    /// Fraction of session solves that re-optimized from the previous basis.
    pub fn hit_rate(&self) -> f64 {
        self.session.basis_hits as f64 / (self.session.solves.max(1) as f64)
    }
}

/// Replays `workload`'s log in batches of `batch_fraction` of its records
/// under `regime`. Where the regime has a [`Bar`] and batches are at most
/// 1%, the replay is judged against it into [`Replay::verdict`].
///
/// # Panics
/// Panics when any exactness property of the [module docs](self) fails: a
/// replay that computes the wrong answer is a bug, not a slow reading.
pub fn replay(workload: &Workload, regime: Regime, batch_fraction: f64) -> Replay {
    let once = || replay_once(workload, regime, batch_fraction);
    match regime.bar().filter(|_| batch_fraction <= 0.01) {
        None => once(),
        Some(bar) => {
            let (mut m, verdict) = bar.judge(once, |m| (m.speedup(), m.baseline_per_sample()));
            m.verdict = Some(verdict);
            m
        }
    }
}

/// The state a replay keeps up to date.
enum Live {
    Tables(TemporalGraph, PathTables),
    Flow {
        graph: TemporalGraph,
        session: Option<Box<FlowSession>>,
        endpoints: (String, String),
    },
    Durable(DurableStore),
}

impl Live {
    fn graph(&self) -> &TemporalGraph {
        match self {
            Live::Tables(graph, _) | Live::Flow { graph, .. } => graph,
            Live::Durable(store) => store.graph(),
        }
    }

    fn tables(&self) -> Option<&PathTables> {
        match self {
            Live::Tables(_, tables) => Some(tables),
            Live::Durable(store) => Some(store.tables()),
            Live::Flow { .. } => None,
        }
    }
}

/// One replay with every exactness assertion.
fn replay_once(workload: &Workload, regime: Regime, batch_fraction: f64) -> Replay {
    let full = &workload.graph;
    let csv = to_csv(full);
    let total = full.interaction_count();
    let batch_records = ((total as f64 * batch_fraction) as usize).max(1);
    let expected_batches = total.div_ceil(batch_records).max(1);
    let check_every = (expected_batches / 4).max(1);
    let snapshot_after = (expected_batches * 99 / 100).max(1);
    let config = tables_config(workload.kind);

    let mut stream = DeltaStream::new(csv.as_slice(), &LoaderConfig::default())
        .expect("default loader config is valid");
    if matches!(regime, Regime::Window | Regime::Warmflow) {
        let span = full.max_time().unwrap_or(0) - full.min_time().unwrap_or(0);
        stream = stream
            .window((span / 2).max(1))
            .expect("a positive window is valid");
    }
    let mut live = match regime {
        Regime::Stream | Regime::Window => Live::Tables(
            TemporalGraph::new(),
            PathTables::build(&TemporalGraph::new(), &config),
        ),
        Regime::Warmflow => Live::Flow {
            graph: TemporalGraph::new(),
            session: None,
            endpoints: flow_endpoints(full),
        },
        Regime::Durable => {
            let dir = std::env::temp_dir().join(format!(
                "tin-bench-replay-{}-{}",
                workload.kind.name(),
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            // No compaction: the full-replay recovery reads the journal from
            // its first segment, the history compaction would delete.
            let journal = JournalConfig {
                compact_on_snapshot: false,
                ..JournalConfig::default()
            };
            let (store, _) =
                DurableStore::open(&dir, config, journal).expect("a fresh durable directory opens");
            Live::Durable(store)
        }
    };

    let mut m = Replay {
        batch_records,
        csv_bytes: csv.len() as u64,
        ..Replay::default()
    };
    loop {
        let start = Instant::now();
        let Some(delta) = stream
            .next_delta(batch_records)
            .expect("generated CSV logs are clean")
        else {
            break;
        };
        m.batches += 1;
        match &mut live {
            Live::Tables(graph, tables) => {
                let applied = graph.apply(&delta).expect("deltas apply in stream order");
                m.append_time += start.elapsed();
                m.evicted += applied.removed_interactions as u64;
                let start = Instant::now();
                m.rebuild_fallbacks += usize::from(tables.apply(graph, &applied).rebuilt);
                m.work_time += start.elapsed();
                m.work_batches += 1;
            }
            Live::Flow {
                graph,
                session,
                endpoints,
            } => {
                let applied = graph.apply(&delta).expect("deltas apply in stream order");
                m.append_time += start.elapsed();
                m.evicted += applied.removed_interactions as u64;
                flow_batch(graph, &applied, session, endpoints, &mut m);
            }
            Live::Durable(store) => {
                store.apply(&delta).expect("a clean delta applies durably");
                m.append_time += start.elapsed();
                if m.batches == snapshot_after {
                    let start = Instant::now();
                    store.snapshot().expect("the full table set snapshots");
                    m.snapshot_time = start.elapsed();
                }
            }
        }
        m.peak_live = m.peak_live.max(live.graph().interaction_count());
        if m.batches % check_every == 0 {
            row_check(&live, &config, &mut m);
        }
    }
    if m.batches % check_every != 0 {
        row_check(&live, &config, &mut m);
    }

    let graph = live.graph();
    m.records = stream.report().rows;
    m.final_live = graph.interaction_count();
    assert_eq!(
        m.evicted as usize + m.final_live,
        total,
        "every record is either live or counted as evicted"
    );
    if let Some(frontier) = graph.frontier() {
        assert!(
            graph.min_time().is_none_or(|t| t >= frontier),
            "no live interaction predates the frontier"
        );
    }
    if let Some(tables) = live.tables() {
        let tables = [&tables.l2, &tables.l3, &tables.c2];
        m.arena_entries = tables.iter().map(|t| t.arena_len()).sum();
        m.arena_garbage = tables.iter().map(|t| t.garbage_len()).sum();
        assert!(
            2 * m.arena_garbage <= m.arena_entries.max(1),
            "compaction keeps garbage at no more than half the arena ({} dead of {} entries)",
            m.arena_garbage,
            m.arena_entries
        );
    }
    match live {
        Live::Tables(..) => {}
        Live::Flow { session, .. } => {
            let session = session.expect("the flow endpoints appeared in the stream");
            m.session = *session.stats();
            assert!(
                m.work_batches * 2 >= m.batches,
                "endpoints must resolve within the first half of the stream \
                 ({} of {} batches solved)",
                m.work_batches,
                m.batches
            );
        }
        Live::Durable(store) => restart(store, config, snapshot_after as u64, &mut m),
    }
    m
}

/// The tables a replay maintains: L2 and L3, plus the chain table C2 only
/// for Prosper Loans, as in the pattern experiment.
fn tables_config(kind: DatasetKind) -> TablesConfig {
    TablesConfig {
        build_l2: true,
        build_l3: true,
        build_c2: kind == DatasetKind::Prosper,
        max_rows: 5_000_000,
    }
}

/// Rebuilds the tables from scratch, times the build as a baseline sample
/// and asserts the maintained tables are row-identical to it.
fn row_check(live: &Live, config: &TablesConfig, m: &mut Replay) {
    let Some(tables) = live.tables() else {
        return;
    };
    let start = Instant::now();
    let rebuilt = PathTables::build(live.graph(), config);
    m.baseline_time += start.elapsed();
    m.baseline_samples += 1;
    if let Some(divergence) = tables.first_row_divergence(&rebuilt) {
        panic!(
            "after batch {}: tables diverged from a rebuild: {divergence}",
            m.batches
        );
    }
}

/// Picks the flow endpoints: the vertex sending the largest total quantity
/// as source, the one receiving the largest total as sink. Both come from
/// the full dataset, so every replay of a workload tracks the same pair,
/// and are resolved by name once both have arrived.
fn flow_endpoints(graph: &TemporalGraph) -> (String, String) {
    let n = graph.node_count();
    let mut sent = vec![0.0f64; n];
    let mut received = vec![0.0f64; n];
    for edge in graph.edges() {
        let volume: f64 = edge
            .interactions
            .iter()
            .map(|i| {
                if i.quantity.is_finite() {
                    i.quantity
                } else {
                    0.0
                }
            })
            .sum();
        sent[edge.src.index()] += volume;
        received[edge.dst.index()] += volume;
    }
    // The first vertex with the largest total, other than `skip`.
    let argmax = |xs: &[f64], skip: Option<usize>| {
        let mut best = usize::MAX;
        for (i, &x) in xs.iter().enumerate() {
            if Some(i) != skip && (best == usize::MAX || x > xs[best]) {
                best = i;
            }
        }
        best
    };
    let source = argmax(&sent, None);
    let sink = argmax(&received, Some(source));
    let name = |i: usize| graph.node(NodeId(i as u32)).name.clone();
    (name(source), name(sink))
}

/// One warmflow batch: opens the session once both endpoints have arrived
/// (the opening replaces that batch's advance, so the initial emission is
/// charged to the session), or advances it; solves warm; then builds and
/// solves the same graph cold and asserts both values agree.
fn flow_batch(
    graph: &TemporalGraph,
    applied: &AppliedDelta,
    session: &mut Option<Box<FlowSession>>,
    (source, sink): &(String, String),
    m: &mut Replay,
) {
    let start = Instant::now();
    let session = match session {
        Some(open) => {
            open.advance(graph, applied);
            open
        }
        None => {
            let (Some(s), Some(t)) = (graph.node_by_name(source), graph.node_by_name(sink)) else {
                return;
            };
            session.insert(Box::new(
                FlowSession::new(graph, s, t, FlowMethod::Lp)
                    .expect("endpoints resolved and distinct"),
            ))
        }
    };
    let warm = session.solve().expect("flow circulations are solvable");
    m.work_time += start.elapsed();
    m.work_batches += 1;

    let start = Instant::now();
    let f = build_mcf(graph, session.source(), session.sink());
    let cold = f.problem.solve();
    let cold_flow = std::hint::black_box(cold.flows[f.return_arc]);
    m.baseline_time += start.elapsed();
    m.baseline_samples += 1;
    m.cold_pivots += cold.pivots;
    assert!(
        (warm.flow - cold_flow).abs() <= 1e-6 * (1.0 + cold_flow.abs()),
        "batch {}: session flow {} != cold flow {cold_flow}",
        m.batches,
        warm.flow
    );
}

/// Recovers the durable directory through the snapshot and its journal
/// tail, then with the manifests hidden by a full journal replay, each the
/// fastest of [`REPEATS`] runs. Each recovery must take that path and match
/// the run's graph and tables.
fn restart(store: DurableStore, config: TablesConfig, snapshot_frames: u64, m: &mut Replay) {
    let dir = store.dir().to_path_buf();
    m.tail_frames = store.frames() - snapshot_frames;
    m.snapshot_bytes = files(&dir, ".snap").iter().map(|p| file_len(p)).sum();
    // `Recovery::run` only reads the directory, so each recovery runs
    // `REPEATS` times and the fastest run is reported, as Tables 6–8 time
    // their methods. Every run is checked against the run's state after its
    // clock stops.
    let recover = || {
        (0..REPEATS)
            .map(|_| {
                let start = Instant::now();
                let rec = Recovery::new(&dir, config)
                    .run()
                    .expect("the durable directory recovers");
                let took = start.elapsed();
                assert_eq!(
                    rec.graph,
                    *store.graph(),
                    "recovery diverged from the run's graph"
                );
                if let Some(divergence) = store.tables().first_row_divergence(&rec.tables) {
                    panic!("recovery diverged from the run's tables: {divergence}");
                }
                (took, rec.report)
            })
            .min_by_key(|&(took, _)| took)
            .expect("REPEATS is positive")
    };

    let (took, report) = recover();
    assert!(
        matches!(report.source, RecoverySource::Snapshot { .. }),
        "expected the snapshot path, got {:?}",
        report.source
    );
    assert_eq!(
        report.replayed, m.tail_frames,
        "the snapshot recovery replays the tail"
    );
    m.recover_snapshot_time = took;
    for manifest in files(&dir, ".mf") {
        std::fs::rename(&manifest, manifest.with_extension("mf-hidden")).expect("manifest hides");
    }
    let (took, report) = recover();
    assert_eq!(report.source, RecoverySource::FullReplay);
    m.recover_replay_time = took;
    // An open journal's segment still holds the unwritten rest of its last
    // growth step; closing the store trims it to the frames it holds.
    drop(store);
    m.journal_bytes = tin_durable::journal::list_segments(&dir)
        .expect("the journal lists")
        .iter()
        .map(|(_, path)| file_len(path))
        .sum();
    std::fs::remove_dir_all(&dir).expect("the durable directory removes");
}

/// The files in `dir` whose names end with `suffix`.
fn files(dir: &Path, suffix: &str) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .expect("the durable directory lists")
        .filter_map(|entry| Some(entry.ok()?.path()))
        .filter(|path| path.to_string_lossy().ends_with(suffix))
        .collect()
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |meta| meta.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::ExperimentScale;

    /// Judges scripted `(speedup, baseline µs)` readings; returns how many
    /// were taken, the kept one and the verdict.
    fn judge(bar: Bar, readings: &[(f64, u64)]) -> (usize, (f64, u64), Verdict) {
        let mut taken = 0;
        let (kept, verdict) = bar.judge(
            || {
                taken += 1;
                readings[taken - 1]
            },
            |&(speedup, us)| (speedup, Duration::from_micros(us)),
        );
        (taken, kept, verdict)
    }

    #[test]
    fn the_gate_remeasures_a_miss_twice_at_most_and_keeps_the_best_reading() {
        let warmflow = Regime::Warmflow.bar().expect("warmflow has a bar");
        let failed = judge(warmflow, &[(2.0, 80), (2.6, 80), (2.2, 80), (9.0, 80)]);
        assert_eq!(failed, (3, (2.6, 80), Verdict::Failed(2.6)));
        let passed = judge(warmflow, &[(2.0, 80), (3.1, 80), (9.0, 80)]);
        assert_eq!(passed, (2, (3.1, 80), Verdict::Passed(3.1)));
        assert_eq!(
            judge(warmflow, &[(3.0, 80), (9.0, 80)]).2,
            Verdict::Passed(3.0)
        );
        let skipped = judge(warmflow, &[(1.0, 49), (9.0, 80)]);
        assert_eq!(
            skipped,
            (1, (1.0, 49), Verdict::Skipped(Duration::from_micros(49)))
        );
        // The window bar has no floor: a fast baseline is still judged.
        let window = Regime::Window.bar().expect("window has a bar");
        assert_eq!(judge(window, &[(4.0, 0), (5.5, 0)]).2, Verdict::Passed(5.5));
    }

    #[test]
    fn every_regime_replays_exactly() {
        let quick = ExperimentScale::quick();
        let small = ExperimentScale {
            dataset_scale: 0.04,
            max_subgraphs: 1,
            max_subgraph_interactions: 150,
            seed: 7,
        };
        let all = &DatasetKind::ALL[..];
        // Warmflow runs smaller, at 2% batches where its bar is not armed:
        // the per-batch value check is the point. Durability writes a
        // directory, so one dataset suffices.
        for (regime, scale, fraction, kinds) in [
            (Regime::Stream, quick, 0.01, all),
            (Regime::Window, quick, 0.01, all),
            (Regime::Warmflow, small, 0.02, all),
            (Regime::Durable, quick, 0.01, &[DatasetKind::Bitcoin][..]),
        ] {
            for &kind in kinds {
                let w = Workload::build(kind, &scale);
                let m = replay(&w, regime, fraction);
                let what = format!("{regime:?} {kind}");
                assert_eq!(m.records as usize, w.graph.interaction_count(), "{what}");
                assert_eq!(m.rebuild_fallbacks, 0, "{what}");
                if fraction <= 0.01 {
                    assert!(m.batches >= 99, "{what}: {} batches", m.batches);
                }
                match regime {
                    Regime::Stream => {}
                    Regime::Window => {
                        assert!(m.evicted > 0, "{what}: a half-span window must evict");
                        assert!(m.final_live < m.records as usize, "{what}");
                        assert!(m.final_live <= m.peak_live, "{what}");
                        assert!(m.baseline_samples >= 4, "{what}");
                        assert!(
                            matches!(m.verdict, Some(Verdict::Passed(_))),
                            "{what}: {:?}",
                            m.verdict
                        );
                    }
                    Regime::Warmflow => {
                        let s = m.session;
                        assert!(m.work_batches > 0, "{what}");
                        assert_eq!(s.solves, m.work_batches, "{what}");
                        assert!(
                            s.basis_hits + s.fallback_cold + s.compactions + 1 >= s.solves,
                            "{what}: every solve after the first reuses, compacts or falls back"
                        );
                        assert!(s.budget_restarts <= s.fallback_cold, "{what}");
                        assert!((0.0..=1.0).contains(&m.hit_rate()), "{what}");
                    }
                    Regime::Durable => {
                        let tail = 1..=m.batches as u64 / 50 + 1;
                        assert!(
                            tail.contains(&m.tail_frames),
                            "{what}: tail {}",
                            m.tail_frames
                        );
                        assert!(m.journal_bytes > 0 && m.snapshot_bytes > 0, "{what}");
                    }
                }
            }
        }
    }
}
