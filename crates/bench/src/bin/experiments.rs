//! Reproduces every table and figure of the paper's evaluation (Section 6).
//!
//! Usage:
//!
//! ```text
//! experiments [section] [--quick] [--engine <dense|sparse|netflow|all>]
//!
//! section: all | table4 | table5 | tables678 | fig11 | lpsolvers | patterns
//!          | tables91011 | ingest | replay
//! --quick:  run at the CI scale instead of the standard scale
//! --engine: which exact engines the lpsolvers section measures
//!           (default: all, cross-checked against each other)
//! ```
//!
//! The `ingest` and `replay` sections are this reproduction's additions.
//! `ingest` round-trips each generated dataset through an in-memory CSV log
//! and the streaming loader, reporting rows/sec plus a peak-live-allocation
//! proxy for resident memory (the binary runs under a counting global
//! allocator for this purpose). `replay` feeds the same log in small batches
//! through one replay loop (`tin_bench::replay`) and prints four tables:
//! path tables maintained incrementally against a full rebuild (`Stream`);
//! the same under a sliding window, so batches also evict (`Window`); a
//! resident flow session under that window against a cold rebuild and solve
//! (`Warmflow`); and the loop through the write-ahead journal, with the
//! snapshot+tail and full-replay recoveries (`Durability`). Each window and
//! warmflow row gets a verdict line against its coded bar; a FAILED verdict
//! makes the binary exit 1 once every section has printed.
//!
//! Absolute numbers differ from the paper (different hardware, synthetic
//! stand-in datasets, from-scratch LP solver); the comparative shapes are
//! what this harness reproduces, where they hold: greedy about 2–3× below the
//! exact methods in Tables 6–8 and Figure 11 (the order among `LP`, `Pre`
//! and `PreSim`, which sit within about 25% of each other, depends on the
//! dataset), and PB ≫ GB on precomputable patterns. See `EXPERIMENTS.md`
//! for recorded runs.

use std::time::Duration;
use tin_bench::{
    bucket_experiment, flow_method_experiment, format_duration, lp_engine_experiment,
    pattern_experiment, print_table, EngineSelection, ExperimentScale, Regime, Replay, Verdict,
    Workload, REPEATS,
};
use tin_datasets::{dataset_stats, subgraph_stats};
use tin_lp::SimplexEngine;

const SECTIONS: [&str; 10] = [
    "all",
    "table4",
    "table5",
    "tables678",
    "fig11",
    "lpsolvers",
    "patterns",
    "tables91011",
    "ingest",
    "replay",
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
    if matches!(section, "all" | "replay") && replay(&workloads) {
        eprintln!("error: a speedup gate FAILED (see the verdict lines above)");
        std::process::exit(1);
    }
}

/// The `replay` section: the stream, window, warmflow and durability tables,
/// all from the one replay loop, then a verdict line per gated row. Returns
/// whether any gate FAILED.
fn replay(workloads: &[Workload]) -> bool {
    let run = |regime, batch_fraction| -> Vec<Replay> {
        workloads
            .iter()
            .map(|w| tin_bench::replay(w, regime, batch_fraction))
            .collect()
    };
    let name = |w: &Workload| w.kind.name().to_string();
    let batches = |m: &Replay| format!("{} x {}", m.batches, m.batch_records);

    // Two delta sizes within the small-delta regime (<=1% of the log per
    // batch); the 1% run is also the durability table's plain baseline.
    let stream = run(Regime::Stream, 0.01);
    let fine = run(Regime::Stream, 0.0025);
    let rows: Vec<Vec<String>> = workloads
        .iter()
        .zip(stream.iter().zip(&fine))
        .flat_map(|(w, (coarse, fine))| [(w, coarse), (w, fine)])
        .map(|(w, m)| {
            vec![
                name(w),
                m.records.to_string(),
                batches(m),
                format!("{:.2}M rec/s", per_sec(m.records, m.append_time) / 1e6),
                format_duration(m.work_per_batch()),
                format_duration(m.baseline_per_sample()),
                format!("{:.1}x", m.speedup()),
                m.rebuild_fallbacks.to_string(),
            ]
        })
        .collect();
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
         PathTables::apply; rebuild = avg from-scratch build at the row checks, every \
         quarter of the stream and the end, each asserting the incremental tables are \
         row-identical to it; those builds include earlier, smaller graphs, so the \
         speedup reads lower than against one build of the final graph; no gate)"
    );

    let window = run(Regime::Window, 0.01);
    let rows: Vec<Vec<String>> = workloads
        .iter()
        .zip(&window)
        .map(|(w, m)| {
            vec![
                name(w),
                m.records.to_string(),
                batches(m),
                format!("{:.2}M ev/s", per_sec(m.evicted, m.append_time) / 1e6),
                format!("{}/{}", m.final_live, m.peak_live),
                format_duration(m.work_per_batch()),
                format_duration(m.baseline_per_sample()),
                format!("{:.1}x", m.speedup()),
                format!("{}/{}", m.arena_garbage, m.arena_entries),
            ]
        })
        .collect();
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
        "(window = half the log's time span; the log is written edge by edge, not in time \
         order, so most evictions retire records on arrival; rebuild = avg from-scratch \
         build over the surviving window at the row checks, every quarter of the stream \
         and the end, each asserting the incremental tables are row-identical to it; \
         garbage/arena shows the compaction bound 2*garbage <= arena)"
    );
    let mut failed = verdicts("window", Regime::Window, workloads, &window);

    // 0.25% batches: finer batches are the session's home turf, since the
    // cold rebuild pays for the whole problem while the session pays for the
    // delta. The bar arms at any batch size up to 1%.
    let warm = run(Regime::Warmflow, 0.0025);
    let rows: Vec<Vec<String>> = workloads
        .iter()
        .zip(&warm)
        .map(|(w, m)| {
            let s = &m.session;
            vec![
                name(w),
                m.records.to_string(),
                batches(m),
                format_duration(m.work_per_batch()),
                format_duration(m.baseline_per_sample()),
                format!("{:.1}x", m.speedup()),
                format!("{:.0}%", 100.0 * m.hit_rate()),
                format!(
                    "{:.1}/{:.1}",
                    s.warm_pivots as f64 / s.basis_hits.max(1) as f64,
                    m.cold_pivots as f64 / m.work_batches.max(1) as f64
                ),
                format!("{}/{}", s.dual_reoptimizations, s.fallback_cold),
            ]
        })
        .collect();
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
    failed |= verdicts("warmflow", Regime::Warmflow, workloads, &warm);

    // The snapshot lands at ~99% of the stream, so recovery replays a <=1%
    // journal tail.
    let durable = run(Regime::Durable, 0.01);
    let rows: Vec<Vec<String>> = workloads
        .iter()
        .zip(durable.iter().zip(&stream))
        .map(|(w, (m, plain))| {
            let plain_time = plain.append_time + plain.work_time;
            vec![
                name(w),
                m.records.to_string(),
                format!("{:.2}M rec/s", per_sec(plain.records, plain_time) / 1e6),
                format!("{:.2}M rec/s", per_sec(m.records, m.append_time) / 1e6),
                format!("{:.1}x", ratio(m.append_time, plain_time)),
                format!("{:.2}x csv", m.journal_bytes as f64 / m.csv_bytes as f64),
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
                format!(
                    "{:.1}x",
                    ratio(m.recover_replay_time, m.recover_snapshot_time)
                ),
            ]
        })
        .collect();
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
        "(plain = the stream table's 1% run; journaled = the same loop through the durable \
         store, fsync per batch; snapshot committed at ~99% of the stream, so snap+tail \
         recovery replays a <=1% journal tail; replay = the same directory recovered with \
         manifests hidden, i.e. the from-scratch cost a snapshot saves; both recoveries are \
         verified row-identical to the run; the 5x restart bar is printed, not asserted)"
    );
    failed
}

/// Prints a verdict line for every gated row; returns whether any FAILED.
fn verdicts(section: &str, regime: Regime, workloads: &[Workload], measured: &[Replay]) -> bool {
    let bar = regime.bar().expect("a gated regime has a bar");
    let mut failed = false;
    for (w, m) in workloads.iter().zip(measured) {
        let name = w.kind.name();
        match m.verdict {
            Some(Verdict::Passed(x)) => {
                println!(
                    "{section} gate PASSED for {name}: {x:.1}x against the {}x bar",
                    bar.speedup
                )
            }
            Some(Verdict::Skipped(baseline)) => println!(
                "{section} gate SKIPPED for {name}: the baseline is {}/batch, under the {} floor \
                 the gate needs to time reliably",
                format_duration(baseline),
                format_duration(bar.floor)
            ),
            Some(Verdict::Failed(x)) => {
                failed = true;
                println!(
                    "{section} gate FAILED for {name}: {x:.1}x, the best of 3 readings, against \
                     the {}x bar",
                    bar.speedup
                );
            }
            None => {}
        }
    }
    failed
}

fn per_sec(count: u64, time: Duration) -> f64 {
    count as f64 / time.as_secs_f64().max(1e-12)
}

fn ratio(a: Duration, b: Duration) -> f64 {
    a.as_secs_f64() / b.as_secs_f64().max(1e-12)
}

fn human_bytes(bytes: u64) -> String {
    if bytes >= 1_048_576 {
        format!("{:.1}MiB", bytes as f64 / 1_048_576.0)
    } else {
        format!("{:.1}KiB", bytes as f64 / 1024.0)
    }
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

/// How Tables 6–8 and Figure 11 time a method on a subgraph.
fn timing_rule() -> String {
    format!(
        "fastest of {REPEATS} runs, {} workers",
        tin_parallel::effective_threads()
    )
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
            &format!(
                "Tables 6-8: avg runtime per subgraph ({}) — {}",
                timing_rule(),
                table.dataset
            ),
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
            &format!(
                "Figure 11: runtime vs #interactions ({}) — {}",
                timing_rule(),
                w.kind.name()
            ),
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
