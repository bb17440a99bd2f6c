//! The live workloads, `window-flow` and `window-tables`: CSV feeds
//! replayed through a sliding window in a closed loop from one thread.
//!
//! One operation is one batch: `DeltaStream::next_delta` →
//! `TemporalGraph::apply` → `Journal::append` (fsync per frame) →
//! `PathTables::apply` → (with flow) `FlowSession::advance` + `solve` →
//! `search_pb(P3)`. The next batch is pulled only after the previous one's
//! queries are answered. This is the order `DurableStore::apply` uses; the
//! store itself is not called because it hides the `AppliedDelta` a
//! `FlowSession` needs.
//!
//! A run's input is several independent feeds, so that one feed's hard
//! batches do not decide the run. A pass replays every feed into fresh
//! state (new graph, tables, session and journal directory); passes repeat
//! until the time budget is spent. The oracles run off the clock.

use crate::measured::{Budget, Counts, Measured};
use crate::trace::{Call, Tracer};
use crate::{alloc, input};
use std::path::Path;
use std::time::Instant;
use tin_datasets::{DatasetKind, DeltaStream, IngestReport, LoaderConfig};
use tin_durable::{Journal, JournalConfig};
use tin_flow::{build_mcf, FlowMethod, FlowSession, SessionStats};
use tin_graph::{AppliedDelta, TemporalGraph};
use tin_patterns::{search_pb, PathTables, PatternId, TablesConfig, TablesUpdate};

/// Interior checkpoints per feed at which the flow oracle runs (the end of
/// the feed is checked as well).
const CHECKPOINTS: usize = 4;

/// The shape of one live workload.
#[derive(Debug, Clone)]
pub struct LiveSpec {
    pub kind: DatasetKind,
    /// Generator size of each feed relative to the dataset's default.
    pub scale: f64,
    /// Independent feeds per run.
    pub feeds: usize,
    pub batch_records: usize,
    /// Whether each batch also advances and solves a flow session.
    pub flow: bool,
}

/// One generated feed, ready to replay.
struct Feed {
    csv: Vec<u8>,
    window: i64,
    records: usize,
    /// Flow endpoints by name (top sender, top receiver).
    endpoints: (String, String),
}

pub struct LiveInput {
    spec: LiveSpec,
    feeds: Vec<Feed>,
}

/// The tables every live workload maintains: the L2 and L3 cycle tables
/// that `search_pb(P3)` reads.
fn tables_config() -> TablesConfig {
    TablesConfig {
        build_l2: true,
        build_l3: true,
        build_c2: false,
        max_rows: 5_000_000,
    }
}

pub fn setup(spec: &LiveSpec, seed: u64) -> LiveInput {
    let feeds = (0..spec.feeds)
        .map(|i| {
            let graph = input::generate(spec.kind, spec.scale, input::sub_seed(seed, i));
            Feed {
                csv: input::feed_csv(&graph),
                window: input::half_span(&graph),
                records: graph.interaction_count(),
                endpoints: input::top_endpoints(&graph),
            }
        })
        .collect();
    LiveInput {
        spec: spec.clone(),
        feeds,
    }
}

/// Replays the feeds pass after pass within `budget`, journaling into a
/// directory under `work`.
pub fn measure(input: &LiveInput, budget: &Budget, work: &Path, tracer: &mut Tracer) -> Measured {
    let mut m = Measured::start();
    let dir = work.join("journal");
    'passes: while m.another_pass(budget) {
        let first = m.passes == 0;
        let mut counts = PassCounts::default();
        for feed in &input.feeds {
            if tracer.full() {
                break 'passes;
            }
            if first {
                m.begin_unit();
            }
            replay(&input.spec, feed, &dir, tracer, &mut m, &mut counts);
            if first {
                m.end_unit();
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
        if first {
            counts.finish(&mut m.counts);
        }
        m.end_pass();
    }
    m
}

/// One replay of one feed.
fn replay(
    spec: &LiveSpec,
    feed: &Feed,
    dir: &Path,
    tracer: &mut Tracer,
    m: &mut Measured,
    counts: &mut PassCounts,
) {
    let config = tables_config();
    let expected_batches = feed.records.div_ceil(spec.batch_records);
    let checkpoint_every = (expected_batches / (CHECKPOINTS + 1)).max(1);

    // Fresh state, off the clock (`measure` removes the journal directory
    // after every feed).
    let mut journal = match Journal::open(dir, JournalConfig::default()) {
        Ok(j) => j,
        Err(e) => return m.mismatch(format!("journal open: {e}")),
    };
    let mut stream = DeltaStream::new(feed.csv.as_slice(), &LoaderConfig::default())
        .and_then(|s| s.window(feed.window))
        .expect("the default loader config and a positive window are valid");
    let mut graph = TemporalGraph::new();
    let mut tables = PathTables::build(&graph, &config);
    let mut session: Option<FlowSession> = None;
    let mut flow = 0.0;

    for batch in 0.. {
        let op_start = Instant::now();
        tracer.begin_op(m.attempted() as u32);
        let delta = match tracer.time(Call::NextDelta, || stream.next_delta(spec.batch_records)) {
            Ok(Some(delta)) => delta,
            Ok(None) => {
                tracer.cancel_op();
                break;
            }
            Err(e) => {
                tracer.end_op();
                m.sample(op_start, false);
                return m.mismatch(format!("feed rejected at batch {batch}: {e}"));
            }
        };
        let Ok(applied) = tracer.time(Call::GraphApply, || graph.apply(&delta)) else {
            // A rejected delta changes nothing, and every later delta is
            // built against a vertex count the graph does not have.
            tracer.end_op();
            m.sample(op_start, false);
            return m.mismatch(format!("graph rejected batch {batch}"));
        };
        let appended = tracer
            .time(Call::JournalAppend, || journal.append(&delta))
            .is_ok();
        let mut ok = appended;
        let update = tracer.time(Call::TablesApply, || tables.apply(&graph, &applied));
        if spec.flow {
            if let Some(open) = session.as_mut() {
                tracer.time(Call::SessionAdvance, || open.advance(&graph, &applied));
            } else if let (Some(s), Some(t)) = (
                graph.node_by_name(&feed.endpoints.0),
                graph.node_by_name(&feed.endpoints.1),
            ) {
                let opened = tracer.time(Call::SessionOpen, || {
                    FlowSession::new(&graph, s, t, FlowMethod::Lp)
                });
                ok &= opened.is_ok();
                session = opened.ok();
            }
            if let Some(open) = session.as_mut() {
                match tracer.time(Call::SessionSolve, || open.solve()) {
                    Ok(solved) => flow = solved.flow,
                    Err(_) => ok = false,
                }
            }
        }
        let found = tracer.time(Call::SearchPb, || {
            search_pb(&graph, &tables, PatternId::P3, 0)
        });
        tracer.end_op();
        m.sample(op_start, ok && found.is_some());

        counts.batch(
            &applied,
            &update,
            appended,
            found.map_or(0, |r| r.instances),
        );
        let n = batch + 1;
        if n % checkpoint_every == 0 && n / checkpoint_every <= CHECKPOINTS {
            alloc::excluded(|| check_flow(m, &graph, session.as_ref(), flow, false));
        }
    }

    alloc::excluded(|| {
        check_flow(m, &graph, session.as_ref(), flow, true);
        if let Some(d) = tables.first_row_divergence(&PathTables::build(&graph, &config)) {
            m.mismatch(format!("tables diverged from a rebuild: {d}"));
        }
        if spec.flow && session.is_none() {
            m.mismatch("the flow endpoints never appeared".into());
        }
    });
    counts.feed_end(&stream.report(), &graph, &tables, session.as_ref(), dir);
}

/// The flow oracles: the session's value equals a cold `build_mcf` solve,
/// and at the end of the feed also the time-expanded Dinic, which does not
/// use the simplex.
fn check_flow(
    m: &mut Measured,
    graph: &TemporalGraph,
    session: Option<&FlowSession>,
    flow: f64,
    end: bool,
) {
    let Some(session) = session else { return };
    let (s, t) = (session.source(), session.sink());
    match build_mcf(graph, s, t).solve() {
        Ok((cold, _)) if close(flow, cold.flow) => {}
        Ok((cold, _)) => m.mismatch(format!("session flow {flow} != cold solve {}", cold.flow)),
        Err(e) => m.mismatch(format!("cold solve failed: {e}")),
    }
    if end {
        let dinic = tin_maxflow::time_expanded_max_flow(graph, s, t);
        if !close(flow, dinic) {
            m.mismatch(format!(
                "session flow {flow} != time-expanded Dinic {dinic}"
            ));
        }
    }
}

/// Equal within 1e-6 relative.
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs()))
}

/// Per-layer work counts of one pass, summed over its feeds.
#[derive(Default)]
struct PassCounts {
    records: u64,
    bytes: u64,
    skipped: u64,
    evicted: u64,
    tombstoned: u64,
    live_end: u64,
    frames: u64,
    journal_bytes: u64,
    rows: u64,
    rebuilds: u64,
    refreshed_groups: u64,
    arena: u64,
    garbage: u64,
    instances: u64,
    formulation_arcs: u64,
    session: SessionStats,
}

impl PassCounts {
    fn batch(
        &mut self,
        applied: &AppliedDelta,
        update: &TablesUpdate,
        appended: bool,
        instances: usize,
    ) {
        self.frames += u64::from(appended);
        self.evicted += applied.removed_interactions as u64;
        self.tombstoned += applied.removed_edges.len() as u64;
        self.rebuilds += u64::from(update.rebuilt);
        self.refreshed_groups += update.refreshed_groups as u64;
        self.instances += instances as u64;
    }

    fn feed_end(
        &mut self,
        report: &IngestReport,
        graph: &TemporalGraph,
        tables: &PathTables,
        session: Option<&FlowSession>,
        dir: &Path,
    ) {
        self.records += report.rows;
        self.bytes += report.bytes;
        self.skipped += report.skipped;
        self.live_end += graph.interaction_count() as u64;
        self.journal_bytes += tin_durable::journal::list_segments(dir)
            .unwrap_or_default()
            .iter()
            .filter_map(|(_, p)| std::fs::metadata(p).ok())
            .map(|meta| meta.len())
            .sum::<u64>();
        self.rows += tables.row_count() as u64;
        let tables = [&tables.l2, &tables.l3, &tables.c2];
        self.arena += tables.iter().map(|t| t.arena_len() as u64).sum::<u64>();
        self.garbage += tables.iter().map(|t| t.garbage_len() as u64).sum::<u64>();
        if let Some(session) = session {
            self.formulation_arcs += session.formulation().problem.num_arcs() as u64;
            let (sum, st) = (&mut self.session, session.stats());
            sum.solves += st.solves;
            sum.basis_hits += st.basis_hits;
            sum.fallback_cold += st.fallback_cold;
            sum.dual_reoptimizations += st.dual_reoptimizations;
            sum.warm_pivots += st.warm_pivots;
            sum.cold_pivots += st.cold_pivots;
            sum.tombstoned_arcs += st.tombstoned_arcs;
            sum.added_arcs += st.added_arcs;
            sum.compactions += st.compactions;
        }
    }

    fn finish(self, counts: &mut Counts) {
        let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
        counts.set("datasets.records", self.records as f64);
        counts.set("datasets.bytes", self.bytes as f64);
        counts.set("datasets.skipped", self.skipped as f64);
        counts.set("graph.evicted", self.evicted as f64);
        counts.set("graph.tombstoned", self.tombstoned as f64);
        counts.set("graph.live_end", self.live_end as f64);
        counts.set("durable.frames", self.frames as f64);
        counts.set("durable.journal_bytes", self.journal_bytes as f64);
        counts.set("patterns.rows", self.rows as f64);
        counts.set("patterns.rebuilds", self.rebuilds as f64);
        counts.set("patterns.refreshed_groups", self.refreshed_groups as f64);
        counts.set("patterns.garbage_share", ratio(self.garbage, self.arena));
        counts.set("patterns.instances", self.instances as f64);
        let st = self.session;
        if st.solves == 0 {
            return;
        }
        counts.set("flow.added_arcs", st.added_arcs as f64);
        counts.set("flow.tombstoned_arcs", st.tombstoned_arcs as f64);
        counts.set("flow.compactions", st.compactions as f64);
        counts.set(
            "flow.arcs_per_live",
            ratio(self.formulation_arcs, self.live_end),
        );
        counts.set(
            "lp.basis_hit_ratio",
            ratio(st.basis_hits as u64, st.solves as u64),
        );
        counts.set(
            "lp.warm_pivots_per_solve",
            ratio(st.warm_pivots as u64, st.basis_hits as u64),
        );
        counts.set("lp.cold_fallbacks", st.fallback_cold as f64);
        counts.set("lp.dual_reopts", st.dual_reoptimizations as f64);
        counts.set("lp.pivots", (st.warm_pivots + st.cold_pivots) as f64);
    }
}
