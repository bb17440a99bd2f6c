//! Reproduces every table and figure of the paper's evaluation (Section 6).
//!
//! Usage:
//!
//! ```text
//! experiments [section] [--quick] [--engine <dense|sparse|netflow|all>]
//!
//! section: all | table4 | table5 | tables678 | fig11 | lpsolvers | patterns
//!          | tables91011 | ingest | stream | window | warmflow | durability
//! --quick:  run at the CI scale instead of the standard scale
//! --engine: which exact engines the lpsolvers section measures
//!           (default: all, cross-checked against each other)
//! ```
//!
//! The `ingest` and `stream` sections are this reproduction's additions:
//! `ingest` round-trips each generated dataset through an in-memory CSV log
//! and the streaming loader, reporting rows/sec plus a peak-live-allocation
//! proxy for resident memory (the binary runs under a counting global
//! allocator for this purpose); `stream` drives the append-native pipeline
//! (batched deltas → live graph → incrementally maintained path tables) and
//! compares per-batch table maintenance against a full rebuild; `window`
//! replays each log through a sliding time window (retraction deltas), so
//! every batch both appends and evicts, and reports eviction throughput,
//! steady-state memory and the incremental-vs-snapshot-rebuild gap;
//! `warmflow` replays the same window through a resident flow session and
//! compares each batch against a cold rebuild and solve of the same graph;
//! `durability` runs the streaming loop through the write-ahead journal
//! (fsync per batch) and reports the overhead next to the plain loop, then
//! recovers the directory twice — snapshot + ≤1% journal tail vs full
//! replay — verifying both row-identical to the uninterrupted run.
//!
//! Absolute numbers differ from the paper (different hardware, synthetic
//! stand-in datasets, from-scratch LP solver); the comparative shapes —
//! Greedy ≪ PreSim < Pre ≪ LP, PB ≫ GB on precomputable patterns — are what
//! this harness reproduces. See `EXPERIMENTS.md` for a recorded run.

use tin_bench::{
    bucket_experiment, flow_method_experiment, format_duration, lp_engine_experiment,
    pattern_experiment, print_table, EngineSelection, ExperimentScale, Workload,
};
use tin_datasets::{dataset_stats, subgraph_stats};
use tin_lp::SimplexEngine;

const SECTIONS: [&str; 13] = [
    "all",
    "table4",
    "table5",
    "tables678",
    "fig11",
    "lpsolvers",
    "patterns",
    "tables91011",
    "ingest",
    "stream",
    "window",
    "warmflow",
    "durability",
];

/// A counting wrapper around the system allocator: tracks live and peak
/// allocated bytes so the `ingest` section can report a peak-RSS proxy for
/// the streaming loader (proving a multi-megabyte log never materializes
/// beyond the graph being built). The two relaxed atomics cost nothing
/// measurable next to the experiments themselves.
mod alloc_probe {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

    static LIVE: AtomicUsize = AtomicUsize::new(0);
    static PEAK: AtomicUsize = AtomicUsize::new(0);

    pub struct CountingAllocator;

    // SAFETY: delegates every allocation verbatim to `System`; the counters
    // are monotonic bookkeeping on the side and never influence pointers.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let ptr = System.alloc(layout);
            if !ptr.is_null() {
                let live = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
                PEAK.fetch_max(live, Relaxed);
            }
            ptr
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
    }

    /// Forgets the historical peak: the next [`peak_since_reset`] reports
    /// growth relative to the current live footprint.
    pub fn reset() -> usize {
        let live = LIVE.load(Relaxed);
        PEAK.store(live, Relaxed);
        live
    }

    /// Peak live bytes since the matching [`reset`], relative to the live
    /// footprint at reset time.
    pub fn peak_since_reset(baseline: usize) -> usize {
        PEAK.load(Relaxed).saturating_sub(baseline)
    }
}

#[global_allocator]
static ALLOCATOR: alloc_probe::CountingAllocator = alloc_probe::CountingAllocator;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parse_engine = |value: &str| -> EngineSelection {
        EngineSelection::parse(value).unwrap_or_else(|| {
            eprintln!(
                "error: unknown engine `{value}` (supported: dense | sparse | netflow | all)"
            );
            std::process::exit(2);
        })
    };
    let mut quick = false;
    let mut engine = EngineSelection::All;
    let mut section: Option<&str> = None;
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if arg == "--quick" {
            quick = true;
        } else if arg == "--engine" {
            i += 1;
            match args.get(i) {
                Some(value) => engine = parse_engine(value),
                None => {
                    eprintln!("error: --engine needs a value (dense | sparse | netflow | all)");
                    std::process::exit(2);
                }
            }
        } else if let Some(value) = arg.strip_prefix("--engine=") {
            engine = parse_engine(value);
        } else if arg.starts_with("--") {
            eprintln!("error: unknown flag `{arg}` (supported: --quick, --engine <value>)");
            std::process::exit(2);
        } else {
            section = Some(arg);
        }
        i += 1;
    }
    let section = section.unwrap_or("all");
    if !SECTIONS.contains(&section) {
        eprintln!(
            "error: unknown section `{section}` (supported: {})",
            SECTIONS.join(" | ")
        );
        std::process::exit(2);
    }
    let scale = if quick {
        ExperimentScale::quick()
    } else {
        ExperimentScale::standard()
    };

    println!("Flow Computation in Temporal Interaction Networks — evaluation harness");
    println!(
        "scale: dataset×{:.2}, ≤{} subgraphs, ≤{} interactions/subgraph",
        scale.dataset_scale, scale.max_subgraphs, scale.max_subgraph_interactions
    );
    println!(
        "threads: {} in the worker pool (set TIN_THREADS to change)",
        tin_parallel::effective_threads()
    );

    let workloads = Workload::all(&scale);

    if matches!(section, "all" | "table4") {
        table4(&workloads);
    }
    if matches!(section, "all" | "table5") {
        table5(&workloads);
    }
    if matches!(section, "all" | "tables678") {
        tables678(&workloads);
    }
    if matches!(section, "all" | "fig11") {
        fig11(&workloads);
    }
    if matches!(section, "all" | "lpsolvers") {
        lpsolvers(&workloads, engine);
    }
    if matches!(section, "all" | "patterns" | "tables91011") {
        tables91011(&workloads, if quick { 2_000 } else { 20_000 });
    }
    if matches!(section, "all" | "ingest") {
        ingest(&workloads, &scale);
    }
    if matches!(section, "all" | "stream") {
        stream(&workloads);
    }
    if matches!(section, "all" | "window") {
        window(&workloads);
    }
    if matches!(section, "all" | "warmflow") {
        warmflow(&workloads);
    }
    if matches!(section, "all" | "durability") {
        durability(&workloads);
    }
}

fn durability(workloads: &[Workload]) {
    // 1% batches: the streaming acceptance bar's delta size; the snapshot
    // lands at ~99% of the stream so recovery replays a <=1% tail. The
    // experiment verifies both recovery paths row-identical to the
    // uninterrupted run before reporting any number.
    let mut rows = Vec::new();
    for w in workloads {
        let m = tin_bench::durability_experiment(w, 0.01);
        rows.push(vec![
            w.kind.name().to_string(),
            m.records.to_string(),
            format!("{:.2}M rec/s", m.plain_records_per_sec() / 1e6),
            format!("{:.2}M rec/s", m.durable_records_per_sec() / 1e6),
            format!("{:.1}x", m.overhead_factor()),
            format!("{:.2}x csv", m.journal_ratio()),
            format!(
                "{} ({})",
                format_duration(m.snapshot_time),
                human_bytes(m.snapshot_bytes)
            ),
            format!(
                "{} ({} frames)",
                format_duration(m.recover_snapshot_time),
                m.tail_frames
            ),
            format_duration(m.recover_replay_time),
            format!("{:.1}x", m.recovery_speedup()),
        ]);
    }
    print_table(
        "Durability: write-ahead journal overhead and kill-and-restart recovery (1% batches)",
        &[
            "dataset",
            "records",
            "plain",
            "journaled",
            "overhead",
            "journal size",
            "snapshot",
            "recover (snap+tail)",
            "recover (replay)",
            "speedup",
        ],
        &rows,
    );
    println!(
        "(journaled = fsync per batch; snapshot committed at ~99% of the stream, so \
         snap+tail recovery replays a <=1% journal tail; replay = the same directory \
         recovered with manifests hidden, i.e. the from-scratch cost a snapshot saves; \
         both recoveries are verified row-identical to the uninterrupted run; the \
         acceptance bar is speedup >= 5x at the standard scale)"
    );
}

fn human_bytes(bytes: u64) -> String {
    if bytes >= 1_048_576 {
        format!("{:.1}MiB", bytes as f64 / 1_048_576.0)
    } else {
        format!("{:.1}KiB", bytes as f64 / 1024.0)
    }
}

fn window(workloads: &[Workload]) {
    // 1% batches: the acceptance-bar delta size (the experiment itself
    // asserts >=5x vs a steady-state rebuild at this batch size, and
    // row-verifies the tables against the surviving window at every
    // checkpoint).
    let mut rows = Vec::new();
    for w in workloads {
        let m = tin_bench::window_experiment(w, 0.01);
        rows.push(vec![
            w.kind.name().to_string(),
            m.records.to_string(),
            format!("{} x {}", m.batches, m.batch_records),
            format!("{:.2}M ev/s", m.evictions_per_sec() / 1e6),
            format!("{}/{}", m.final_live, m.peak_live),
            format_duration(m.tables_per_batch()),
            format_duration(m.avg_rebuild()),
            format!("{:.1}x", m.speedup()),
            format!("{}/{}", m.arena_garbage, m.arena_entries),
        ]);
    }
    print_table(
        "Window: sliding-window replay -> eviction deltas -> incremental path tables (1% batches)",
        &[
            "dataset",
            "records",
            "batches",
            "evictions",
            "live/peak",
            "tables/batch",
            "rebuild",
            "speedup",
            "garbage/arena",
        ],
        &rows,
    );
    println!(
        "(window = half the log's time span, so ~half the records are resident at steady \
         state; rebuild = avg from-scratch build over the surviving window at the \
         checkpoints; every checkpoint asserts the incremental tables are row-identical \
         to that build; garbage/arena shows the compaction bound 2*garbage <= arena)"
    );
}

fn warmflow(workloads: &[Workload]) {
    // 0.25% batches: the acceptance-bar delta size (the bar arms at any
    // <=1% batch size; the experiment itself asserts session/cold
    // optimal-value identity on every batch and the >=3x per-batch
    // speedup). Finer batches are the session's home turf — the cold
    // rebuild pays the full problem every time while the incremental
    // sync pays for the delta.
    let mut rows = Vec::new();
    let mut gated = Vec::new();
    for w in workloads {
        let m = tin_bench::warmflow_experiment(w, 0.0025);
        rows.push(vec![
            w.kind.name().to_string(),
            m.records.to_string(),
            format!("{} x {}", m.batches, m.batch_records),
            format_duration(m.session_per_batch()),
            format_duration(m.cold_per_batch()),
            format!("{:.1}x", m.speedup()),
            format!("{:.0}%", 100.0 * m.hit_rate()),
            format!(
                "{:.1}/{:.1}",
                m.stats.warm_pivots as f64 / m.stats.basis_hits.max(1) as f64,
                m.cold_pivots_total as f64 / m.solved_batches.max(1) as f64
            ),
            format!("{}/{}", m.stats.dual_reoptimizations, m.stats.fallback_cold),
        ]);
        gated.push((w.kind.name(), m));
    }
    print_table(
        "Warmflow: persistent simplex basis across window batches vs cold rebuild+solve (0.25% batches)",
        &[
            "dataset",
            "records",
            "batches",
            "session/batch",
            "cold/batch",
            "speedup",
            "basis hits",
            "pivots (warm)/(cold)",
            "dual/fallback",
        ],
        &rows,
    );
    println!(
        "(session/batch = apply_delta + re-optimize from the previous basis; cold/batch = \
         build_mcf + cold network simplex on the same graph; every batch asserts the two \
         optimal values are identical; pivots (warm) = avg pivots per basis-reusing solve \
         next to the cold baseline's avg; dual = expiry-only batches re-optimized in the dual)"
    );
    for (name, m) in &gated {
        if m.cold_per_batch() < std::time::Duration::from_micros(50) {
            println!(
                "speedup gate SKIPPED for {name}: cold baseline is {}/batch (under the 50 µs \
                 floor the gate needs to time reliably)",
                format_duration(m.cold_per_batch())
            );
        } else {
            println!(
                "speedup gate PASSED for {name}: session {:.1}x cold at 0.25% batches",
                m.speedup()
            );
        }
    }
}

fn stream(workloads: &[Workload]) {
    // Two delta sizes within the "small delta" regime the streaming
    // refactor targets (<=1% of the dataset per batch; the acceptance bar
    // is >=5x vs rebuild).
    let mut rows = Vec::new();
    for w in workloads {
        for batch_fraction in [0.01, 0.0025] {
            let m = tin_bench::stream_experiment(w, batch_fraction);
            rows.push(vec![
                w.kind.name().to_string(),
                m.records.to_string(),
                format!("{} x {}", m.batches, m.batch_records),
                format!("{:.2}M rec/s", m.records_per_sec() / 1e6),
                format_duration(m.tables_per_batch()),
                format_duration(m.full_rebuild_time),
                format!("{:.1}x", m.speedup()),
                m.rebuild_fallbacks.to_string(),
            ]);
        }
    }
    print_table(
        "Stream: batched ingest -> live graph -> incremental path tables (1% and 0.25% batches)",
        &[
            "dataset",
            "records",
            "batches",
            "append",
            "tables/batch",
            "rebuild",
            "speedup",
            "fallbacks",
        ],
        &rows,
    );
    println!(
        "(append = tokenize + validate + graph merge; tables/batch = avg incremental \
         PathTables::apply; rebuild = one from-scratch build on the final graph; the \
         run asserts the incremental tables are row-identical to that rebuild)"
    );
}

fn ingest(workloads: &[Workload], scale: &ExperimentScale) {
    let mut rows = Vec::new();
    for w in workloads {
        let csv = tin_bench::to_csv(&w.graph);
        let baseline = alloc_probe::reset();
        let m = tin_bench::ingest_csv(&csv);
        let peak = alloc_probe::peak_since_reset(baseline);
        tin_bench::assert_ingest_equivalent(&w.graph, &m.loaded.graph);
        let subgraphs = tin_bench::build_subgraphs(&m.loaded.graph, scale);
        rows.push(vec![
            w.kind.name().to_string(),
            m.loaded.report.rows.to_string(),
            format!("{:.2} MB", m.loaded.report.bytes as f64 / 1e6),
            format_duration(m.elapsed),
            format!("{:.2}M", m.rows_per_sec() / 1e6),
            format!("{:.1} MB/s", m.mb_per_sec()),
            format!("{:.2} MB", peak as f64 / 1e6),
            subgraphs.len().to_string(),
        ]);
    }
    print_table(
        "Ingest: streaming CSV → graph → extraction (round-trips the generated datasets)",
        &[
            "dataset",
            "rows",
            "csv size",
            "load time",
            "rows/s",
            "throughput",
            "peak alloc",
            "#subgraphs",
        ],
        &rows,
    );
    println!(
        "(peak alloc = live-allocation high-water mark during the load call; the loader \
         streams, so it tracks the size of the built graph, not the log)"
    );
}

fn table4(workloads: &[Workload]) {
    let rows: Vec<Vec<String>> = workloads
        .iter()
        .map(|w| {
            let s = dataset_stats(&w.graph);
            vec![
                w.kind.name().to_string(),
                s.nodes.to_string(),
                s.edges.to_string(),
                s.interactions.to_string(),
                format!("{:.2} {}", s.avg_flow, w.kind.unit()),
            ]
        })
        .collect();
    print_table(
        "Table 4: characteristics of datasets (synthetic stand-ins)",
        &["dataset", "#nodes", "#edges", "#interactions", "avg. flow"],
        &rows,
    );
}

fn table5(workloads: &[Workload]) {
    let rows: Vec<Vec<String>> = workloads
        .iter()
        .map(|w| {
            let s = subgraph_stats(&w.subgraphs);
            vec![
                w.kind.name().to_string(),
                s.subgraphs.to_string(),
                format!("{:.2}", s.avg_vertices),
                format!("{:.2}", s.avg_edges),
                format!("{:.1}", s.avg_interactions),
            ]
        })
        .collect();
    print_table(
        "Table 5: statistics of extracted subgraphs",
        &[
            "dataset",
            "#subgraphs",
            "avg #vertices",
            "avg #edges",
            "avg #interactions",
        ],
        &rows,
    );
}

fn tables678(workloads: &[Workload]) {
    for w in workloads {
        let table = flow_method_experiment(w);
        let (a, b, c) = table.class_sizes;
        let mut rows = Vec::new();
        for (label, count, timings) in [
            (
                format!("All ({})", w.subgraphs.len()),
                w.subgraphs.len(),
                &table.all,
            ),
            (format!("Class A ({a})"), a, &table.class_a),
            (format!("Class B ({b})"), b, &table.class_b),
            (format!("Class C ({c})"), c, &table.class_c),
        ] {
            let mut row = vec![label];
            if count == 0 {
                row.extend(std::iter::repeat_n("-".to_string(), timings.len()));
            } else {
                row.extend(timings.iter().map(|t| format_duration(t.average)));
            }
            rows.push(row);
        }
        print_table(
            &format!("Tables 6-8: avg runtime per subgraph — {}", table.dataset),
            &["subgraphs", "Greedy", "LP", "Pre", "PreSim"],
            &rows,
        );
    }
}

fn fig11(workloads: &[Workload]) {
    for w in workloads {
        let rows: Vec<Vec<String>> = bucket_experiment(w)
            .iter()
            .map(|row| {
                let mut cells = vec![row.bucket.to_string(), row.subgraphs.to_string()];
                if row.subgraphs == 0 {
                    cells.extend(std::iter::repeat_n("-".to_string(), row.timings.len()));
                } else {
                    cells.extend(row.timings.iter().map(|t| format_duration(t.average)));
                }
                cells
            })
            .collect();
        print_table(
            &format!("Figure 11: runtime vs #interactions — {}", w.kind.name()),
            &[
                "#interactions",
                "#subgraphs",
                "Greedy",
                "LP",
                "Pre",
                "PreSim",
            ],
            &rows,
        );
    }
}

fn lpsolvers(workloads: &[Workload], selection: EngineSelection) {
    let engines = selection.engines();
    let short = |e: SimplexEngine| match e {
        SimplexEngine::SparseRevised => "sparse",
        SimplexEngine::DenseTableau => "dense",
        SimplexEngine::NetworkSimplex => "netflow",
    };
    let with_speedup = engines.contains(&SimplexEngine::SparseRevised)
        && engines.contains(&SimplexEngine::NetworkSimplex);
    let with_density = engines.contains(&SimplexEngine::SparseRevised);
    let mut header: Vec<String> = vec!["class".to_string(), "#subgraphs".to_string()];
    for &e in &engines {
        header.push(short(e).to_string());
        header.push(format!("{} piv (deg)", short(e)));
    }
    if with_speedup {
        header.push("netflow speedup".to_string());
    }
    if with_density {
        header.push("density".to_string());
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();

    for w in workloads {
        let rows: Vec<Vec<String>> = lp_engine_experiment(w, selection)
            .iter()
            .map(|r| {
                let mut cells = vec![r.label.to_string(), r.subgraphs.to_string()];
                if r.subgraphs == 0 {
                    cells.extend(std::iter::repeat_n("-".to_string(), header.len() - 2));
                } else {
                    for stat in &r.engines {
                        cells.push(format_duration(stat.avg));
                        cells.push(format!(
                            "{:.1} ({:.1})",
                            stat.pivots, stat.degenerate_pivots
                        ));
                    }
                    if with_speedup {
                        cells.push(format!(
                            "{:.1}x",
                            r.speedup(SimplexEngine::SparseRevised, SimplexEngine::NetworkSimplex)
                        ));
                    }
                    if with_density {
                        cells.push(format!("{:.3}%", 100.0 * r.density));
                    }
                }
                cells
            })
            .collect();
        let names: Vec<&str> = engines.iter().map(|&e| short(e)).collect();
        print_table(
            &format!(
                "Exact engines ({}): formulate+solve per subgraph — {}",
                names.join(" vs "),
                w.kind.name()
            ),
            &header_refs,
            &rows,
        );
    }
    if with_speedup {
        println!(
            "(netflow = direct graph -> min-cost-flow emitter + network simplex, no LP \
             assembly; speedup = sparse avg / netflow avg; piv (deg) = avg basis-changing \
             pivots and, in parentheses, zero-step pivots per subgraph; every subgraph's \
             optimal values are asserted to agree across engines)"
        );
    }
}

fn tables91011(workloads: &[Workload], instance_limit: usize) {
    for w in workloads {
        let rows: Vec<Vec<String>> = pattern_experiment(w.kind, &w.graph, instance_limit)
            .iter()
            .map(|r| {
                vec![
                    format!("{}{}", r.pattern, if r.truncated { "*" } else { "" }),
                    r.instances.to_string(),
                    format!("{:.2}", r.average_flow),
                    format_duration(r.gb_time),
                    r.pb_time
                        .map(format_duration)
                        .unwrap_or_else(|| "n/a".to_string()),
                    format_duration(r.precompute_time),
                ]
            })
            .collect();
        print_table(
            &format!(
                "Tables 9-11: pattern search — {} (* = stopped at {} instances)",
                w.kind.name(),
                instance_limit
            ),
            &[
                "pattern",
                "instances",
                "avg flow",
                "GB",
                "PB",
                "tables (offline)",
            ],
            &rows,
        );
    }
}
