//! Criterion benchmark for the exact-solver substrate: formulation
//! construction plus solve time per engine — the network simplex (the class
//! C hot path, fed by the direct min-cost-flow emitter) against the sparse
//! revised simplex — as a function of the number of interactions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use tin_bench::{ExperimentScale, Workload};
use tin_datasets::DatasetKind;
use tin_flow::{build_lp, build_mcf};

fn bench_lp(c: &mut Criterion) {
    let scale = ExperimentScale::quick();
    let workload = Workload::build(DatasetKind::Bitcoin, &scale);
    // Pick one representative subgraph per size band.
    let mut picks = Vec::new();
    for (label, lo, hi) in [
        ("small", 4usize, 60usize),
        ("medium", 60, 250),
        ("large", 250, 1000),
    ] {
        if let Some(sub) = workload
            .subgraphs
            .iter()
            .filter(|s| (lo..hi).contains(&s.interaction_count()))
            .max_by_key(|s| s.interaction_count())
        {
            picks.push((label, sub));
        }
    }
    if picks.is_empty() {
        return;
    }
    let mut group = c.benchmark_group("lp_solver");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    for (label, sub) in picks {
        group.bench_with_input(BenchmarkId::new("formulate", label), &sub, |b, sub| {
            b.iter(|| std::hint::black_box(build_lp(&sub.graph, sub.source, sub.sink).variables))
        });
        // The netflow path never assembles the LP; measure its (cheaper)
        // formulation separately so the end-to-end saving is visible.
        group.bench_with_input(BenchmarkId::new("formulate_mcf", label), &sub, |b, sub| {
            b.iter(|| {
                std::hint::black_box(
                    build_mcf(&sub.graph, sub.source, sub.sink)
                        .problem
                        .num_arcs(),
                )
            })
        });
        // Formulate once, then time the solve alone.
        let formulation = build_lp(&sub.graph, sub.source, sub.sink);
        group.bench_with_input(
            BenchmarkId::new("solve_sparse", label),
            &formulation,
            |b, f| {
                b.iter(|| {
                    let solution = f.problem.solve();
                    assert!(solution.is_optimal(), "solvable flow LP");
                    std::hint::black_box(solution.objective)
                })
            },
        );
        let mcf = build_mcf(&sub.graph, sub.source, sub.sink);
        group.bench_with_input(BenchmarkId::new("solve_netflow", label), &mcf, |b, f| {
            b.iter(|| {
                let solution = f.problem.solve();
                assert!(solution.is_optimal(), "solvable flow circulation");
                std::hint::black_box(solution.flows[f.return_arc])
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lp);
criterion_main!(benches);
