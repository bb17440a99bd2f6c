//! Criterion benchmark for the offline precomputation step of the PB
//! matcher: building the L2/L3/C2 path tables.
//!
//! Variants per dataset (quick scale):
//!
//! * `serial` — the chain-propagation kernel on one thread;
//! * `parallel` — the kernel fanned out over the worker pool.
//!
//! Each variant reports a rows/second throughput next to the wall-clock
//! numbers (rows = the rows of the whole graph's tables).
//!
//! The `path_tables/apply` group times table upkeep instead of a build: a
//! CTU-13 log at half its default size (six hubs, 7,000 records) replayed
//! in timestamp order in 28-record batches through a sliding window of half
//! its time span, each batch going through `TemporalGraph::apply` and
//! `PathTables::apply` with the cycle tables the live loop keeps. It is the
//! `window-tables` workload of the live-pipeline benchmark without its
//! journal, whose fsync per batch is about a third of that workload's loop
//! time; throughput is records per second.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;
use tin_bench::{generate_dataset, ExperimentScale};
use tin_datasets::{generate_ctu13, Ctu13Config, DatasetKind};
use tin_graph::{GraphBuilder, GraphDelta, Interaction, NodeId, TemporalGraph};
use tin_patterns::{PathTables, TablesConfig};

fn bench_config(c: &mut Criterion, group_name: &str, config: TablesConfig, kinds: &[DatasetKind]) {
    let scale = ExperimentScale::quick();
    let mut group = c.benchmark_group(group_name);
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    for &kind in kinds {
        let graph = generate_dataset(kind, &scale);
        let rows = PathTables::build(&graph, &config).row_count();
        group.throughput(Throughput::Elements(rows as u64));
        group.bench_with_input(BenchmarkId::new("serial", kind.name()), &graph, |b, g| {
            b.iter(|| std::hint::black_box(PathTables::build_serial(g, &config).row_count()))
        });
        group.bench_with_input(BenchmarkId::new("parallel", kind.name()), &graph, |b, g| {
            b.iter(|| std::hint::black_box(PathTables::build_parallel(g, &config).row_count()))
        });
    }
    group.finish();
}

fn bench_path_tables(c: &mut Criterion) {
    let cycles_only = TablesConfig {
        build_c2: false,
        ..TablesConfig::default()
    };
    // Cycle tables are affordable everywhere (the paper's default); the
    // chain table is only feasible for Prosper.
    bench_config(c, "path_tables/cycles_only", cycles_only, &DatasetKind::ALL);
    bench_config(
        c,
        "path_tables/with_chains",
        TablesConfig::default(),
        &[DatasetKind::Prosper],
    );
}

/// The windowed CTU-13 feed of the `apply` group, cut into deltas: each
/// one carries 28 records and expires everything older than half the log's
/// time span before its newest record.
fn windowed_feed() -> (Vec<GraphDelta>, usize) {
    const BATCH: usize = 28;
    let source = generate_ctu13(
        &Ctu13Config {
            seed: 42,
            ..Ctu13Config::default()
        }
        .scaled(0.5),
    );
    let mut records: Vec<(i64, NodeId, NodeId, f64)> = source
        .edges()
        .iter()
        .flat_map(|e| {
            e.interactions
                .iter()
                .map(move |i| (i.time, e.src, e.dst, i.quantity))
        })
        .collect();
    records.sort_by_key(|r| r.0);
    let window = (records[records.len() - 1].0 - records[0].0) / 2;
    let mut builder = GraphBuilder::new();
    let deltas = records
        .chunks(BATCH)
        .map(|batch| {
            for &(time, src, dst, quantity) in batch {
                let s = builder.get_or_add_node(source.node(src).name.clone());
                let d = builder.get_or_add_node(source.node(dst).name.clone());
                builder
                    .add_interaction(s, d, Interaction::new(time, quantity))
                    .expect("generated records are valid");
            }
            let newest = batch[batch.len() - 1].0;
            builder.drain_delta().expire_before(newest - window)
        })
        .collect();
    (deltas, records.len())
}

fn bench_apply(c: &mut Criterion) {
    let config = TablesConfig {
        build_c2: false,
        ..TablesConfig::default()
    };
    let (deltas, records) = windowed_feed();
    let mut group = c.benchmark_group("path_tables/apply");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(300));
    group.throughput(Throughput::Elements(records as u64));
    group.bench_function(BenchmarkId::new("window", "ctu13"), |b| {
        b.iter(|| {
            let mut graph = TemporalGraph::new();
            let mut tables = PathTables::build(&graph, &config);
            for delta in &deltas {
                let applied = graph
                    .apply(delta)
                    .expect("the feed's deltas apply in order");
                tables.apply(&graph, &applied);
            }
            std::hint::black_box(tables.row_count())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_path_tables, bench_apply);
criterion_main!(benches);
