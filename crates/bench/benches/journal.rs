//! Criterion benchmark for the write-ahead journal on its own: the
//! `journal/append` group times `Journal::append` under
//! `JournalConfig::default()`, so every append encodes a frame, writes it
//! and fsyncs it, as each batch of the live loops does.
//!
//! The frames are `window-flow`-shaped: a Bitcoin log at 1/16 of its
//! default size (1,500 records), written as CSV by [`to_csv`] and cut into
//! 12-record deltas through a sliding window of half its time span, so
//! they carry new vertex names and expiry frontiers: 125 frames of about
//! 305 bytes, the size of `window-flow`'s. The appends cycle through those
//! deltas; the journal encodes each without validating it against a graph.
//!
//! The journal lives under Cargo's target directory (`CARGO_TARGET_TMPDIR`)
//! rather than `std::env::temp_dir()`: an fsync on a tmpfs costs nothing,
//! and the flush to the working tree's disk is what this group measures.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::path::PathBuf;
use std::time::Duration;
use tin_bench::to_csv;
use tin_datasets::{generate_bitcoin, BitcoinConfig, DeltaStream, LoaderConfig};
use tin_durable::{Journal, JournalConfig};
use tin_graph::GraphDelta;

const BATCH_RECORDS: usize = 12;

/// The log's deltas, as the live loop's feed cuts them.
fn window_flow_deltas() -> Vec<GraphDelta> {
    let graph = generate_bitcoin(&BitcoinConfig::default().scaled(0.0625));
    let csv = to_csv(&graph);
    let span = graph.max_time().unwrap_or(0) - graph.min_time().unwrap_or(0);
    let mut stream = DeltaStream::new(csv.as_slice(), &LoaderConfig::default())
        .and_then(|s| s.window((span / 2).max(1)))
        .expect("the default loader config and a positive window are valid");
    let mut deltas = Vec::new();
    while let Some(delta) = stream
        .next_delta(BATCH_RECORDS)
        .expect("the generated log parses")
    {
        deltas.push(delta);
    }
    deltas
}

fn bench_journal(c: &mut Criterion) {
    let deltas = window_flow_deltas();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("journal-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut group = c.benchmark_group("journal/append");
    group
        .sample_size(2_000)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
        .throughput(Throughput::Elements(BATCH_RECORDS as u64));
    {
        let mut journal =
            Journal::open(&dir, JournalConfig::default()).expect("the journal directory opens");
        let mut next = deltas.iter().cycle();
        group.bench_function("window_flow/fsync_per_frame", |b| {
            b.iter(|| {
                let delta = next.next().expect("the log has deltas");
                journal.append(delta).expect("the append succeeds")
            })
        });
    }
    group.finish();
    std::fs::remove_dir_all(&dir).expect("the journal directory removes");
}

criterion_group!(benches, bench_journal);
criterion_main!(benches);
