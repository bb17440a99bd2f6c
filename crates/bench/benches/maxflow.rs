//! Criterion benchmark for the static max-flow substrate: Dinic on
//! time-expanded networks, and the expansion itself.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use tin_bench::{ExperimentScale, Workload};
use tin_datasets::DatasetKind;
use tin_maxflow::{dinic, TimeExpandedNetwork};

fn bench_maxflow(c: &mut Criterion) {
    let scale = ExperimentScale::quick();
    let workload = Workload::build(DatasetKind::Bitcoin, &scale);
    let Some(sub) = workload
        .subgraphs
        .iter()
        .max_by_key(|s| s.interaction_count())
    else {
        return;
    };
    let mut group = c.benchmark_group("maxflow");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    group.bench_function("time_expand", |b| {
        b.iter(|| {
            let te = TimeExpandedNetwork::build(&sub.graph, sub.source, sub.sink);
            std::hint::black_box(te.interaction_arcs)
        })
    });
    group.bench_function("dinic", |b| {
        b.iter(|| {
            let mut te = TimeExpandedNetwork::build(&sub.graph, sub.source, sub.sink);
            std::hint::black_box(dinic(&mut te.network, te.source, te.sink))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_maxflow);
criterion_main!(benches);
