//! Workload inputs, generated from the run's seed. The program under test
//! sees only what these functions hand it: CSV bytes for the live
//! workloads, extracted subgraphs for `subgraph-flow`.

use std::io::Write as _;
use tin_datasets::{
    generate_bitcoin, generate_ctu13, generate_prosper, BitcoinConfig, Ctu13Config, DatasetKind,
    ProsperConfig,
};
use tin_graph::{NodeId, TemporalGraph, INFINITE_QUANTITY_TOKEN};

/// Generates `kind` at `scale` times its default size.
pub fn generate(kind: DatasetKind, scale: f64, seed: u64) -> TemporalGraph {
    match kind {
        DatasetKind::Bitcoin => generate_bitcoin(
            &BitcoinConfig {
                seed,
                ..BitcoinConfig::default()
            }
            .scaled(scale),
        ),
        DatasetKind::Ctu13 => generate_ctu13(
            &Ctu13Config {
                seed,
                ..Ctu13Config::default()
            }
            .scaled(scale),
        ),
        DatasetKind::Prosper => generate_prosper(
            &ProsperConfig {
                seed,
                ..ProsperConfig::default()
            }
            .scaled(scale),
        ),
    }
}

/// The generator seed of a run's `i`-th independent input.
pub fn sub_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(i as u64)
}

/// Serializes `graph` as a headered `sender,recipient,timestamp,amount` log
/// in timestamp order, the order a live feed delivers it (ties keep edge
/// order, so the bytes are a function of the graph alone).
pub fn feed_csv(graph: &TemporalGraph) -> Vec<u8> {
    let mut records: Vec<(i64, NodeId, NodeId, f64)> = graph
        .edges()
        .iter()
        .flat_map(|e| {
            e.interactions
                .iter()
                .map(|i| (i.time, e.src, e.dst, i.quantity))
        })
        .collect();
    records.sort_by_key(|r| r.0);
    let mut out = Vec::with_capacity(40 + records.len() * 40);
    out.extend_from_slice(b"sender,recipient,timestamp,amount\n");
    for (time, src, dst, quantity) in records {
        let (src, dst) = (&graph.node(src).name, &graph.node(dst).name);
        if quantity.is_finite() {
            writeln!(out, "{src},{dst},{time},{quantity}")
        } else {
            writeln!(out, "{src},{dst},{time},{INFINITE_QUANTITY_TOKEN}")
        }
        .expect("writing to a Vec cannot fail");
    }
    out
}

/// Half the graph's time span: the sliding window of the live workloads.
pub fn half_span(graph: &TemporalGraph) -> i64 {
    let span = graph.max_time().unwrap_or(0) - graph.min_time().unwrap_or(0);
    (span / 2).max(1)
}

/// The flow endpoints of the live flow query, by name: the vertex sending
/// the largest total quantity and the vertex (another one) receiving the
/// largest. Computed on the whole log, so every pass tracks the same pair.
pub fn top_endpoints(graph: &TemporalGraph) -> (String, String) {
    let n = graph.node_count();
    let mut sent = vec![0.0f64; n];
    let mut received = vec![0.0f64; n];
    for edge in graph.edges() {
        let volume: f64 = edge
            .interactions
            .iter()
            .map(|i| i.quantity)
            .filter(|q| q.is_finite())
            .sum();
        sent[edge.src.index()] += volume;
        received[edge.dst.index()] += volume;
    }
    let argmax = |xs: &[f64], skip: Option<usize>| {
        (0..xs.len())
            .filter(|&i| Some(i) != skip)
            .max_by(|&a, &b| xs[a].total_cmp(&xs[b]).then(b.cmp(&a)))
            .expect("a generated graph has at least two vertices")
    };
    let source = argmax(&sent, None);
    let sink = argmax(&received, Some(source));
    let name = |i: usize| graph.node(NodeId::from_index(i)).name.clone();
    (name(source), name(sink))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for kind in DatasetKind::ALL {
            let a = generate(kind, 0.05, 42);
            let b = generate(kind, 0.05, 42);
            let c = generate(kind, 0.05, 7);
            let (csv_a, csv_b, csv_c) = (feed_csv(&a), feed_csv(&b), feed_csv(&c));
            assert_eq!(csv_a, csv_b, "{kind}: same seed, same bytes");
            assert_ne!(csv_a, csv_c, "{kind}: another seed, other bytes");
            assert_eq!(a.interaction_count(), b.interaction_count(), "{kind}");
            assert_eq!(a.node_count(), b.node_count(), "{kind}");
            assert_eq!(top_endpoints(&a), top_endpoints(&b), "{kind}");
            let lines = csv_a.iter().filter(|&&b| b == b'\n').count();
            assert_eq!(
                lines,
                a.interaction_count() + 1,
                "{kind}: header + one line per record"
            );
        }
    }

    #[test]
    fn feed_is_in_timestamp_order() {
        let g = generate(DatasetKind::Bitcoin, 0.05, 42);
        let csv = String::from_utf8(feed_csv(&g)).expect("ASCII");
        let times: Vec<i64> = csv
            .lines()
            .skip(1)
            .map(|l| {
                l.split(',')
                    .nth(2)
                    .expect("4 fields")
                    .parse()
                    .expect("integer")
            })
            .collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }
}
