//! Criterion benchmark for the offline precomputation step of the PB
//! matcher: building the L2/L3/C2 path tables.
//!
//! Variants per dataset (quick scale):
//!
//! * `serial` — the chain-propagation kernel on one thread;
//! * `parallel` — the kernel fanned out over the worker pool;
//! * `lazy32` — [`LazyPathTables`] answering 32 anchors on demand (the
//!   anchor-local work a single-seed search pays instead of a full build).
//!
//! Each variant reports a rows/second throughput next to the wall-clock
//! numbers (rows = the rows that variant actually builds).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;
use tin_bench::{generate_dataset, ExperimentScale};
use tin_datasets::DatasetKind;
use tin_graph::NodeId;
use tin_patterns::{LazyPathTables, PathTables, TablesConfig};

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

        // Anchor-lazy: a search touching a handful of anchors builds only
        // their neighborhoods. Use the busiest anchors so the variant is
        // not trivially cheap.
        let mut anchors: Vec<NodeId> = graph.node_ids().collect();
        anchors.sort_by_key(|&v| std::cmp::Reverse(graph.out_degree(v)));
        anchors.truncate(32);
        let lazy_rows = PathTables::for_anchors(&graph, &config, &anchors).row_count();
        group.throughput(Throughput::Elements(lazy_rows.max(1) as u64));
        group.bench_with_input(BenchmarkId::new("lazy32", kind.name()), &graph, |b, g| {
            b.iter(|| {
                let mut lazy = LazyPathTables::new(config);
                let mut rows = 0usize;
                for &a in &anchors {
                    rows += lazy.tables_for(g, a).row_count();
                }
                std::hint::black_box(rows)
            })
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

criterion_group!(benches, bench_path_tables);
criterion_main!(benches);
