//! Ingestion throughput experiment: how fast the streaming CSV loader turns
//! a transaction log back into a [`TemporalGraph`], and that the loaded
//! graph is structurally identical to the one the log was written from.
//!
//! The experiment is a faithful round trip: generate a dataset, serialize it
//! as a headered CSV transaction log (in memory — CI has no scratch disk
//! budget), stream it back through `tin_datasets::loader`, and hand the
//! loaded graph to the regular subgraph-extraction pipeline. The
//! `experiments` binary wraps the timed load with a live-allocation probe to
//! report a peak-RSS proxy next to the rows/sec.

use std::io::Write as _;
use std::time::{Duration, Instant};
use tin_datasets::{LoadedDataset, LoaderConfig};
use tin_graph::{TemporalGraph, INFINITE_QUANTITY_TOKEN};

/// Serializes a graph as a headered `sender,recipient,timestamp,amount` CSV
/// log, one line per interaction in edge order — the inverse of what
/// [`tin_datasets::load_reader`] consumes with its default configuration.
pub fn to_csv(graph: &TemporalGraph) -> Vec<u8> {
    // ~32 bytes per row is a close estimate for the generated name/amount
    // shapes; one allocation up front keeps the writer out of the profile.
    let mut out = Vec::with_capacity(40 + graph.interaction_count() * 32);
    out.extend_from_slice(b"sender,recipient,timestamp,amount\n");
    for edge in graph.edges() {
        let src = &graph.node(edge.src).name;
        let dst = &graph.node(edge.dst).name;
        for i in &edge.interactions {
            if i.quantity.is_finite() {
                writeln!(out, "{src},{dst},{},{}", i.time, i.quantity)
            } else {
                writeln!(out, "{src},{dst},{},{INFINITE_QUANTITY_TOKEN}", i.time)
            }
            .expect("writing to a Vec cannot fail");
        }
    }
    out
}

/// One timed pass of the streaming loader over an in-memory CSV log.
#[derive(Debug)]
pub struct IngestMeasurement {
    /// The loaded graph plus the loader's row accounting.
    pub loaded: LoadedDataset,
    /// Wall-clock time of the load call alone.
    pub elapsed: Duration,
}

impl IngestMeasurement {
    /// Accepted rows per second of wall-clock load time.
    pub fn rows_per_sec(&self) -> f64 {
        self.loaded.report.rows as f64 / self.elapsed.as_secs_f64().max(1e-12)
    }

    /// Input megabytes per second of wall-clock load time.
    pub fn mb_per_sec(&self) -> f64 {
        self.loaded.report.bytes as f64 / 1e6 / self.elapsed.as_secs_f64().max(1e-12)
    }
}

/// Streams `csv` through the loader (strict mode, default config) and times
/// it.
///
/// # Panics
/// Panics when the CSV does not load — the experiment feeds only logs it
/// wrote itself, so a failure is a harness bug, not an input problem.
pub fn ingest_csv(csv: &[u8]) -> IngestMeasurement {
    let start = Instant::now();
    let loaded = tin_datasets::load_reader(csv, &LoaderConfig::default())
        .expect("generated CSV logs are clean");
    IngestMeasurement {
        loaded,
        elapsed: start.elapsed(),
    }
}

/// Asserts that a loaded graph is structurally identical to the graph its
/// CSV log was written from: the same vertices with at least one
/// interaction, the same edge and interaction counts, and the same per-edge
/// interaction sequences under the original vertex names.
///
/// A CSV log has no row for a vertex without interactions, so such a vertex
/// may be missing from the loaded graph; any other missing vertex fails.
///
/// # Panics
/// Panics with a description of the first divergence.
pub fn assert_ingest_equivalent(original: &TemporalGraph, loaded: &TemporalGraph) {
    let mut with_records = vec![false; original.node_count()];
    for edge in original
        .edges()
        .iter()
        .filter(|e| !e.interactions.is_empty())
    {
        with_records[edge.src.index()] = true;
        with_records[edge.dst.index()] = true;
    }
    for (node, &has_records) in original.nodes().iter().zip(&with_records) {
        assert!(
            !has_records || loaded.node_by_name(&node.name).is_some(),
            "vertex {} has interactions but is missing from the loaded graph",
            node.name
        );
    }
    assert_eq!(
        with_records.iter().filter(|&&has| has).count(),
        loaded.node_count(),
        "counts of vertices with at least one interaction"
    );
    assert_eq!(original.edge_count(), loaded.edge_count(), "edge counts");
    assert_eq!(
        original.interaction_count(),
        loaded.interaction_count(),
        "interaction counts"
    );
    for edge in original.edges() {
        let src = loaded
            .node_by_name(&original.node(edge.src).name)
            .expect("vertex survives the round trip");
        let dst = loaded
            .node_by_name(&original.node(edge.dst).name)
            .expect("vertex survives the round trip");
        let back = loaded.edge(
            loaded
                .find_edge(src, dst)
                .expect("edge survives the round trip"),
        );
        assert_eq!(
            edge.interactions.len(),
            back.interactions.len(),
            "interaction sequence length on {}→{}",
            original.node(edge.src).name,
            original.node(edge.dst).name
        );
        for (a, b) in edge.interactions.iter().zip(&back.interactions) {
            assert_eq!(a.time, b.time, "interaction timestamp");
            // Quantities cross a decimal print/parse; the generators emit
            // round-trippable doubles, so equality is exact.
            assert_eq!(a.quantity, b.quantity, "interaction quantity");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{generate_dataset, ExperimentScale};
    use tin_datasets::DatasetKind;
    use tin_graph::GraphBuilder;

    #[test]
    fn csv_roundtrip_is_lossless_for_all_generators() {
        let scale = ExperimentScale::quick();
        for kind in DatasetKind::ALL {
            let graph = generate_dataset(kind, &scale);
            let csv = to_csv(&graph);
            let m = ingest_csv(&csv);
            assert_eq!(m.loaded.report.skipped, 0, "{kind}");
            assert_eq!(m.loaded.report.rows as usize, graph.interaction_count());
            assert_eq!(m.loaded.report.bytes as usize, csv.len());
            assert!(m.loaded.report.had_header, "{kind}");
            assert_ingest_equivalent(&graph, &m.loaded.graph);
        }
    }

    #[test]
    fn a_vertex_without_interactions_may_be_missing() {
        let mut b = GraphBuilder::new();
        let (x, y) = (b.add_node("x"), b.add_node("y"));
        b.add_node("isolated");
        b.add_pairs(x, y, &[(1, 2.0), (3, 4.0)]).unwrap();
        let original = b.build();
        let m = ingest_csv(&to_csv(&original));
        assert_eq!(m.loaded.graph.node_count(), 2);
        assert_ingest_equivalent(&original, &m.loaded.graph);
    }

    #[test]
    #[should_panic(expected = "vertex z has interactions but is missing")]
    fn a_vertex_with_interactions_must_survive() {
        let mut b = GraphBuilder::new();
        let (x, y, z) = (b.add_node("x"), b.add_node("y"), b.add_node("z"));
        b.add_pairs(x, y, &[(1, 2.0)]).unwrap();
        b.add_pairs(y, z, &[(2, 1.0)]).unwrap();
        let original = b.build();
        let mut b = GraphBuilder::new();
        let (x, y) = (b.add_node("x"), b.add_node("y"));
        b.add_pairs(x, y, &[(1, 2.0)]).unwrap();
        assert_ingest_equivalent(&original, &b.build());
    }

    #[test]
    fn loaded_graphs_extract_like_generated_ones() {
        let scale = ExperimentScale::quick();
        let graph = generate_dataset(DatasetKind::Bitcoin, &scale);
        let m = ingest_csv(&to_csv(&graph));
        let from_generated = crate::workloads::build_subgraphs(&graph, &scale);
        let from_loaded = crate::workloads::build_subgraphs(&m.loaded.graph, &scale);
        assert_eq!(
            from_generated.len(),
            from_loaded.len(),
            "extraction sees the same seeds either way"
        );
    }

    #[test]
    fn throughput_accessors_are_sane() {
        let graph = generate_dataset(DatasetKind::Ctu13, &ExperimentScale::quick());
        let m = ingest_csv(&to_csv(&graph));
        assert!(m.rows_per_sec() > 0.0);
        assert!(m.mb_per_sec() > 0.0);
    }
}
