//! Flow-method comparison experiments: Tables 6–8 and Figure 11, plus the
//! three-way exact-engine comparison (sparse revised simplex, dense tableau,
//! network simplex).
//!
//! The per-subgraph evaluations are independent, so
//! [`flow_method_experiment`] and [`lp_engine_experiment`] fan the subgraphs
//! out over the workspace worker pool ([`tin_parallel::parallel_map`] — the
//! same pool the parallel path-table builder uses): workers pull indices
//! from an atomic counter and results land in per-index slots, so the output
//! is deterministic in everything but the timings themselves.

use crate::workloads::Workload;
use std::time::{Duration, Instant};
use tin_datasets::SeedSubgraph;
use tin_flow::{build_lp, build_mcf, compute_flow, DifficultyClass, FlowMethod};
use tin_lp::SimplexEngine;
use tin_parallel::parallel_map;

/// Methods compared in the paper's runtime tables.
pub const TABLE_METHODS: [FlowMethod; 4] = [
    FlowMethod::Greedy,
    FlowMethod::Lp,
    FlowMethod::Pre,
    FlowMethod::PreSim,
];

/// Aggregated timing of one method over a set of subgraphs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MethodTiming {
    /// The method.
    pub method: FlowMethod,
    /// Number of subgraphs included in the average.
    pub subgraphs: usize,
    /// Average runtime per subgraph.
    pub average: Duration,
    /// Total runtime over the set.
    pub total: Duration,
}

/// One of the paper's runtime tables (6, 7 or 8): average runtimes overall
/// and per difficulty class.
#[derive(Debug, Clone)]
pub struct FlowTable {
    /// Dataset name.
    pub dataset: String,
    /// Timings over all subgraphs.
    pub all: Vec<MethodTiming>,
    /// Timings over class A subgraphs (greedy-soluble as-is).
    pub class_a: Vec<MethodTiming>,
    /// Timings over class B subgraphs (greedy-soluble after preprocessing).
    pub class_b: Vec<MethodTiming>,
    /// Timings over class C subgraphs (LP required after preprocessing).
    pub class_c: Vec<MethodTiming>,
    /// Number of subgraphs per class (A, B, C).
    pub class_sizes: (usize, usize, usize),
}

/// Runs `method` on `sub`, returning its runtime and the flow it computed.
fn time_method(sub: &SeedSubgraph, method: FlowMethod) -> (Duration, f64) {
    let start = Instant::now();
    let result = compute_flow(&sub.graph, sub.source, sub.sink, method)
        .expect("extracted subgraphs are valid flow DAGs");
    let flow = std::hint::black_box(result.flow);
    (start.elapsed(), flow)
}

/// Checks the values the timed runs of [`TABLE_METHODS`] computed on
/// `sub`: the exact methods agree within 1e-6 relative, and greedy does not
/// exceed their maximum.
fn check_flows(dataset: &str, sub: &SeedSubgraph, flows: &[f64]) {
    let flow_of = |method| flows[TABLE_METHODS.iter().position(|&m| m == method).unwrap()];
    let max = flow_of(FlowMethod::Lp);
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs()));
    for method in [FlowMethod::Pre, FlowMethod::PreSim] {
        let flow = flow_of(method);
        assert!(
            close(flow, max),
            "{dataset} subgraph of seed {}: {method} gives {flow} but LP gives {max}",
            sub.seed
        );
    }
    let greedy = flow_of(FlowMethod::Greedy);
    assert!(
        greedy <= max || close(greedy, max),
        "{dataset} subgraph of seed {}: greedy flow {greedy} exceeds the maximum {max}",
        sub.seed
    );
}

fn summarize(method: FlowMethod, durations: &[Duration]) -> MethodTiming {
    let total: Duration = durations.iter().sum();
    let average = if durations.is_empty() {
        Duration::ZERO
    } else {
        total / durations.len() as u32
    };
    MethodTiming {
        method,
        subgraphs: durations.len(),
        average,
        total,
    }
}

/// Classifies every subgraph (via the `PreSim` pipeline) and measures each
/// method on it, producing one of the paper's Tables 6–8. Off the clock,
/// every subgraph's values are checked: `LP`, `Pre` and `PreSim` agree
/// within 1e-6 relative and greedy does not exceed them (a disagreement
/// panics).
///
/// Subgraphs are evaluated in parallel on a std-thread worker pool; each
/// subgraph's classification and all of its method timings happen on one
/// worker, so per-method comparisons stay within a single thread.
pub fn flow_method_experiment(workload: &Workload) -> FlowTable {
    let per_subgraph = parallel_map(&workload.subgraphs, |sub| {
        let class = compute_flow(&sub.graph, sub.source, sub.sink, FlowMethod::PreSim)
            .expect("valid subgraph")
            .class
            .unwrap_or(DifficultyClass::C);
        let (durations, flows): (Vec<Duration>, Vec<f64>) = TABLE_METHODS
            .iter()
            .map(|&method| time_method(sub, method))
            .unzip();
        check_flows(workload.kind.name(), sub, &flows);
        (class, durations)
    });

    let mut timings: Vec<Vec<Duration>> = vec![Vec::new(); TABLE_METHODS.len()];
    let mut classes: Vec<DifficultyClass> = Vec::with_capacity(workload.subgraphs.len());
    for (class, durations) in per_subgraph {
        classes.push(class);
        for (i, d) in durations.into_iter().enumerate() {
            timings[i].push(d);
        }
    }

    let collect = |filter: Option<DifficultyClass>| -> Vec<MethodTiming> {
        TABLE_METHODS
            .iter()
            .enumerate()
            .map(|(i, &method)| {
                let durations: Vec<Duration> = timings[i]
                    .iter()
                    .zip(&classes)
                    .filter(|(_, &c)| filter.is_none_or(|f| c == f))
                    .map(|(d, _)| *d)
                    .collect();
                summarize(method, &durations)
            })
            .collect()
    };

    let count = |class: DifficultyClass| classes.iter().filter(|&&c| c == class).count();
    FlowTable {
        dataset: workload.kind.name().to_string(),
        all: collect(None),
        class_a: collect(Some(DifficultyClass::A)),
        class_b: collect(Some(DifficultyClass::B)),
        class_c: collect(Some(DifficultyClass::C)),
        class_sizes: (
            count(DifficultyClass::A),
            count(DifficultyClass::B),
            count(DifficultyClass::C),
        ),
    }
}

/// One bucket of Figure 11: subgraphs grouped by interaction count.
#[derive(Debug, Clone)]
pub struct BucketRow {
    /// Human-readable bucket label (`"<100"`, `"100-1000"`, `">1000"`).
    pub bucket: &'static str,
    /// Number of subgraphs falling in the bucket.
    pub subgraphs: usize,
    /// Average runtime per method.
    pub timings: Vec<MethodTiming>,
}

/// The interaction-count buckets used by Figure 11.
pub const BUCKETS: [(&str, usize, usize); 3] = [
    ("<100", 0, 100),
    ("100-1000", 100, 1000),
    (">1000", 1000, usize::MAX),
];

/// Groups the workload's subgraphs by interaction count and measures every
/// method per bucket (Figure 11).
pub fn bucket_experiment(workload: &Workload) -> Vec<BucketRow> {
    BUCKETS
        .iter()
        .map(|&(label, lo, hi)| {
            let subs: Vec<&SeedSubgraph> = workload
                .subgraphs
                .iter()
                .filter(|s| {
                    let n = s.interaction_count();
                    n >= lo && n < hi
                })
                .collect();
            let timings = TABLE_METHODS
                .iter()
                .map(|&method| {
                    let durations: Vec<Duration> =
                        subs.iter().map(|s| time_method(s, method).0).collect();
                    summarize(method, &durations)
                })
                .collect();
            BucketRow {
                bucket: label,
                subgraphs: subs.len(),
                timings,
            }
        })
        .collect()
}

/// Which exact engines the `lpsolvers` experiment measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineSelection {
    /// Only the dense tableau simplex.
    Dense,
    /// Only the sparse revised simplex.
    Sparse,
    /// Only the network simplex (direct min-cost-flow emitter, no LP
    /// assembly).
    Netflow,
    /// All three engines, cross-checked against each other.
    All,
}

impl EngineSelection {
    /// Parses a `--engine` flag value; `None` for unrecognized input.
    pub fn parse(value: &str) -> Option<EngineSelection> {
        match value {
            "dense" => Some(EngineSelection::Dense),
            "sparse" => Some(EngineSelection::Sparse),
            "netflow" => Some(EngineSelection::Netflow),
            "all" => Some(EngineSelection::All),
            _ => None,
        }
    }

    /// The engines to run, in reporting order (the prior default first, so
    /// speedups read as "new over old").
    pub fn engines(self) -> Vec<SimplexEngine> {
        match self {
            EngineSelection::Dense => vec![SimplexEngine::DenseTableau],
            EngineSelection::Sparse => vec![SimplexEngine::SparseRevised],
            EngineSelection::Netflow => vec![SimplexEngine::NetworkSimplex],
            EngineSelection::All => vec![
                SimplexEngine::SparseRevised,
                SimplexEngine::DenseTableau,
                SimplexEngine::NetworkSimplex,
            ],
        }
    }
}

/// Per-engine aggregate over one row of the `lpsolvers` table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineStat {
    /// The engine measured.
    pub engine: SimplexEngine,
    /// Average formulate+solve time per subgraph (formulation included: the
    /// network simplex skips the LP assembly entirely, and that saving is
    /// part of what the table is for).
    pub avg: Duration,
    /// Average basis-changing pivots per subgraph.
    pub pivots: f64,
    /// Average zero-step (degenerate) pivots per subgraph.
    pub degenerate_pivots: f64,
}

/// Engine timings over one difficulty class (or over all subgraphs).
#[derive(Debug, Clone)]
pub struct EngineClassRow {
    /// `"All"`, `"A"`, `"B"` or `"C"`.
    pub label: &'static str,
    /// Number of subgraphs in the row.
    pub subgraphs: usize,
    /// One aggregate per engine, in [`EngineSelection::engines`] order.
    pub engines: Vec<EngineStat>,
    /// Average LP constraint-matrix density over the row's subgraphs
    /// (sparse engine's view: balance rows only; 0 when the sparse engine
    /// did not run).
    pub density: f64,
}

impl EngineClassRow {
    /// The aggregate for one engine, if it ran.
    pub fn stat(&self, engine: SimplexEngine) -> Option<&EngineStat> {
        self.engines.iter().find(|s| s.engine == engine)
    }

    /// Runtime ratio `baseline / engine` (`> 1` means `engine` is faster);
    /// 0 when either engine is missing or the row is empty.
    pub fn speedup(&self, baseline: SimplexEngine, engine: SimplexEngine) -> f64 {
        match (self.stat(baseline), self.stat(engine)) {
            (Some(b), Some(e)) if e.avg > Duration::ZERO => {
                b.avg.as_secs_f64() / e.avg.as_secs_f64()
            }
            _ => 0.0,
        }
    }
}

/// Engine comparison: times a full formulate+solve per subgraph with every
/// selected engine, reported per difficulty class (class C is where the
/// exact solver dominates end-to-end runtime).
///
/// The LP engines assemble the Section 4.2.1 LP via [`build_lp`] and solve
/// it; the network simplex emits the time-expanded min-cost circulation
/// directly ([`tin_flow::build_mcf`]) and never touches the LP row/column
/// machinery. When more than one engine runs, their optimal values are
/// asserted to agree to 1e-6 relative tolerance on every subgraph.
///
/// Runs on the same worker pool as [`flow_method_experiment`]; all engine
/// timings for one subgraph are taken on the same worker, back to back.
/// Every engine's time is the best of three repeated trials so one-shot
/// allocator and cold-cache noise (large on sub-100µs solves) does not
/// drown the signal — the same discipline Criterion applies in
/// `benches/lp_solver.rs`, applied uniformly across engines.
pub fn lp_engine_experiment(
    workload: &Workload,
    selection: EngineSelection,
) -> Vec<EngineClassRow> {
    struct Measurement {
        time: Duration,
        value: f64,
        pivots: usize,
        degenerate: usize,
        density: f64,
    }
    struct Sample {
        class: DifficultyClass,
        engines: Vec<Measurement>,
    }
    let engines = selection.engines();
    let samples = parallel_map(&workload.subgraphs, |sub| {
        let class = compute_flow(&sub.graph, sub.source, sub.sink, FlowMethod::PreSim)
            .expect("valid subgraph")
            .class
            .unwrap_or(DifficultyClass::C);
        let measure = |engine: SimplexEngine| {
            if engine == SimplexEngine::NetworkSimplex {
                let start = Instant::now();
                let f = build_mcf(&sub.graph, sub.source, sub.sink);
                let solution = f.problem.solve();
                assert!(solution.is_optimal(), "flow circulation must be solvable");
                let value = solution.flows[f.return_arc];
                std::hint::black_box(value);
                Measurement {
                    time: start.elapsed(),
                    value,
                    pivots: solution.pivots,
                    degenerate: solution.degenerate_pivots,
                    density: 0.0,
                }
            } else {
                let start = Instant::now();
                let f = build_lp(&sub.graph, sub.source, sub.sink);
                let solution = f.problem.solve_with(engine);
                assert!(solution.is_optimal(), "flow LP must be solvable");
                std::hint::black_box(solution.objective);
                Measurement {
                    time: start.elapsed(),
                    value: solution.objective,
                    pivots: solution.pivots,
                    degenerate: solution.degenerate_pivots,
                    density: solution.matrix_density,
                }
            }
        };
        const TRIALS: usize = 3;
        let measurements: Vec<Measurement> = engines
            .iter()
            .map(|&engine| {
                (0..TRIALS)
                    .map(|_| measure(engine))
                    .min_by_key(|m| m.time)
                    .expect("at least one trial")
            })
            .collect();
        for m in &measurements[1..] {
            let base = &measurements[0];
            assert!(
                (m.value - base.value).abs() <= 1e-6 * (1.0 + base.value.abs()),
                "engines disagree on a workload subgraph: {} vs {}",
                base.value,
                m.value
            );
        }
        Sample {
            class,
            engines: measurements,
        }
    });

    let row = |label: &'static str, filter: Option<DifficultyClass>| -> EngineClassRow {
        let picked: Vec<&Sample> = samples
            .iter()
            .filter(|s| filter.is_none_or(|f| s.class == f))
            .collect();
        let n = picked.len();
        let stats = engines
            .iter()
            .enumerate()
            .map(|(i, &engine)| {
                let avg_f64 = |f: &dyn Fn(&Measurement) -> f64| {
                    if n == 0 {
                        0.0
                    } else {
                        picked.iter().map(|s| f(&s.engines[i])).sum::<f64>() / n as f64
                    }
                };
                EngineStat {
                    engine,
                    avg: if n == 0 {
                        Duration::ZERO
                    } else {
                        picked.iter().map(|s| s.engines[i].time).sum::<Duration>() / n as u32
                    },
                    pivots: avg_f64(&|m| m.pivots as f64),
                    degenerate_pivots: avg_f64(&|m| m.degenerate as f64),
                }
            })
            .collect();
        let sparse_idx = engines
            .iter()
            .position(|&e| e == SimplexEngine::SparseRevised);
        EngineClassRow {
            label,
            subgraphs: n,
            engines: stats,
            density: match (sparse_idx, n) {
                (Some(i), n) if n > 0 => {
                    picked.iter().map(|s| s.engines[i].density).sum::<f64>() / n as f64
                }
                _ => 0.0,
            },
        }
    };
    vec![
        row("All", None),
        row("A", Some(DifficultyClass::A)),
        row("B", Some(DifficultyClass::B)),
        row("C", Some(DifficultyClass::C)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::ExperimentScale;
    use tin_datasets::DatasetKind;

    fn tiny_workload() -> Workload {
        let scale = ExperimentScale {
            dataset_scale: 0.04,
            max_subgraphs: 8,
            max_subgraph_interactions: 150,
            seed: 7,
        };
        Workload::build(DatasetKind::Ctu13, &scale)
    }

    #[test]
    fn flow_table_covers_all_methods_and_classes() {
        let w = tiny_workload();
        let table = flow_method_experiment(&w);
        assert_eq!(table.all.len(), TABLE_METHODS.len());
        let (a, b, c) = table.class_sizes;
        assert_eq!(a + b + c, w.subgraphs.len());
        // All subgraphs are accounted for in the per-method averages.
        for t in &table.all {
            assert_eq!(t.subgraphs, w.subgraphs.len());
        }
        // Greedy is never slower than LP on average (sanity on the headline
        // shape; both averages are over the same subgraphs).
        let greedy = table
            .all
            .iter()
            .find(|t| t.method == FlowMethod::Greedy)
            .unwrap();
        let lp = table
            .all
            .iter()
            .find(|t| t.method == FlowMethod::Lp)
            .unwrap();
        assert!(greedy.average <= lp.average);
    }

    #[test]
    fn engine_comparison_covers_every_subgraph_and_agrees() {
        let w = tiny_workload();
        let rows = lp_engine_experiment(&w, EngineSelection::All);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].label, "All");
        assert_eq!(rows[0].subgraphs, w.subgraphs.len());
        let by_class: usize = rows[1..].iter().map(|r| r.subgraphs).sum();
        assert_eq!(by_class, w.subgraphs.len());
        // All three engines were measured (the experiment itself asserts
        // their optimal values agree on every subgraph).
        assert_eq!(rows[0].engines.len(), 3);
        for engine in EngineSelection::All.engines() {
            assert!(rows[0].stat(engine).is_some());
        }
        // The flow LP is genuinely sparse on every non-trivial subgraph.
        assert!(rows[0].density < 0.5, "density {}", rows[0].density);
    }

    #[test]
    fn engine_selection_parses_flag_values() {
        assert_eq!(
            EngineSelection::parse("dense"),
            Some(EngineSelection::Dense)
        );
        assert_eq!(
            EngineSelection::parse("sparse"),
            Some(EngineSelection::Sparse)
        );
        assert_eq!(
            EngineSelection::parse("netflow"),
            Some(EngineSelection::Netflow)
        );
        assert_eq!(EngineSelection::parse("all"), Some(EngineSelection::All));
        assert_eq!(EngineSelection::parse("simplex"), None);
        assert_eq!(EngineSelection::parse(""), None);
        // Single-engine selections run exactly that engine.
        assert_eq!(
            EngineSelection::Netflow.engines(),
            vec![SimplexEngine::NetworkSimplex]
        );
    }

    #[test]
    fn single_engine_selection_produces_one_stat_per_row() {
        let w = tiny_workload();
        let rows = lp_engine_experiment(&w, EngineSelection::Netflow);
        assert_eq!(rows[0].engines.len(), 1);
        assert_eq!(rows[0].engines[0].engine, SimplexEngine::NetworkSimplex);
        // No sparse engine ran, so there is no density to report and no
        // speedup baseline.
        assert_eq!(rows[0].density, 0.0);
        assert_eq!(
            rows[0].speedup(SimplexEngine::SparseRevised, SimplexEngine::NetworkSimplex),
            0.0
        );
    }

    #[test]
    fn buckets_partition_the_subgraphs() {
        let w = tiny_workload();
        let rows = bucket_experiment(&w);
        assert_eq!(rows.len(), 3);
        let total: usize = rows.iter().map(|r| r.subgraphs).sum();
        assert_eq!(total, w.subgraphs.len());
    }
}
