//! Unified pattern-search driver used by the evaluation harness
//! (Tables 9–11 of the paper).

use crate::browse::enumerate_gb;
use crate::catalogue::{PatternCatalogue, PatternId};
use crate::instance::Instance;
use crate::pattern::Pattern;
use crate::precomputed::fold_pb_matches;
use crate::tables::PathTables;
use std::time::{Duration, Instant};
use tin_flow::FlowMethod;
use tin_graph::{NodeId, TemporalGraph};

/// Result of enumerating one pattern over one graph — one cell group of
/// Tables 9–11.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternSearchResult {
    /// Pattern name (P1–P6, RP1–RP3).
    pub pattern: &'static str,
    /// Number of instances found.
    pub instances: usize,
    /// Sum of the instances' maximum flows.
    pub total_flow: f64,
    /// Average maximum flow per instance.
    pub average_flow: f64,
    /// Wall-clock time spent enumerating and computing flows.
    pub elapsed: Duration,
    /// Whether the enumeration was cut short by an instance limit (the
    /// paper's starred rows).
    pub truncated: bool,
}

/// Enumerates catalogue pattern `id` with graph browsing (GB) and computes
/// every instance's maximum flow with the paper's complete solver.
///
/// `limit` bounds the number of instances (0 = unlimited), mirroring the
/// early termination the paper applies to its slowest patterns.
pub fn search_gb(graph: &TemporalGraph, id: PatternId, limit: usize) -> PatternSearchResult {
    let start = Instant::now();
    let pattern = PatternCatalogue::build(id);
    let instances = enumerate_gb(graph, &pattern, limit);
    let truncated = limit > 0 && instances.len() >= limit;
    let mut total_flow = 0.0;
    for instance in &instances {
        total_flow += instance
            .flow(graph, &pattern, FlowMethod::PreSim)
            .expect("GB instances are valid DAG mappings");
    }
    let count = instances.len();
    PatternSearchResult {
        pattern: id.name(),
        instances: count,
        total_flow,
        average_flow: if count == 0 {
            0.0
        } else {
            total_flow / count as f64
        },
        elapsed: start.elapsed(),
        truncated,
    }
}

/// Answers catalogue pattern `id` from the precomputed tables (PB).
///
/// For P1–P5 the answer is a fold over borrowed table rows: a scan (P1–P3)
/// or an anchor join (P4, P5) that counts the matches and sums their
/// precomputed flows, in enumeration order, without allocating. Only P6,
/// whose chords the tables do not cover, materializes each chord-checked
/// match and runs the paper's complete solver (`PreSim`) on it.
///
/// Returns `None` when the required tables are unavailable — the paper marks
/// those cells as "not applicable".
pub fn search_pb(
    graph: &TemporalGraph,
    tables: &PathTables,
    id: PatternId,
    limit: usize,
) -> Option<PatternSearchResult> {
    let start = Instant::now();
    // P6's catalogue pattern, built at its first match.
    let mut pattern = None;
    let (count, total_flow) =
        fold_pb_matches(graph, tables, id, limit, 0.0, |total, vertices, flow| {
            total
                + match flow {
                    Some(flow) => flow,
                    None => solve_instance(graph, id, &mut pattern, vertices),
                }
        })?;
    Some(PatternSearchResult {
        pattern: id.name(),
        instances: count,
        total_flow,
        average_flow: if count == 0 {
            0.0
        } else {
            total_flow / count as f64
        },
        elapsed: start.elapsed(),
        truncated: limit > 0 && count >= limit,
    })
}

/// The flow of a PB match the tables do not determine (P6): materializes
/// the instance and runs `PreSim`, building `id`'s catalogue pattern once.
fn solve_instance(
    graph: &TemporalGraph,
    id: PatternId,
    pattern: &mut Option<Pattern>,
    vertices: &[NodeId],
) -> f64 {
    let pattern = pattern.get_or_insert_with(|| PatternCatalogue::build(id));
    Instance::new(vertices.to_vec())
        .flow(graph, pattern, FlowMethod::PreSim)
        .expect("PB instances are valid DAG mappings")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precomputed::{enumerate_pb, pb_match_flow};
    use crate::tables::TablesConfig;
    use tin_graph::builder::from_records;

    fn sample() -> TemporalGraph {
        from_records([
            ("x", "y", 1, 5.0),
            ("y", "x", 4, 3.0),
            ("x", "z", 2, 2.0),
            ("z", "x", 3, 9.0),
            ("y", "z", 5, 4.0),
            ("z", "y", 7, 2.0),
            ("z", "w", 6, 1.0),
            ("w", "x", 8, 3.0),
            ("x", "w", 9, 5.0),
        ])
    }

    #[test]
    fn gb_and_pb_report_identical_tables() {
        let g = sample();
        let tables = PathTables::build(&g, &TablesConfig::default());
        for id in PatternId::ALL {
            let gb = search_gb(&g, id, 0);
            let pb = search_pb(&g, &tables, id, 0).expect("all tables built");
            assert_eq!(gb.instances, pb.instances, "{id}: instance counts differ");
            assert!(
                (gb.total_flow - pb.total_flow).abs() < 1e-6,
                "{id}: total flows differ (GB {}, PB {})",
                gb.total_flow,
                pb.total_flow
            );
            assert!(
                (gb.average_flow - pb.average_flow).abs() < 1e-6,
                "{id}: average flows differ"
            );
            assert!(!gb.truncated && !pb.truncated);
        }
    }

    #[test]
    fn limits_mark_results_as_truncated() {
        let g = sample();
        let tables = PathTables::build(&g, &TablesConfig::default());
        let gb = search_gb(&g, PatternId::P2, 1);
        assert!(gb.truncated);
        assert_eq!(gb.instances, 1);
        // Every limit from 1 to n + 1 on every pattern: the cut can fall
        // mid-join (P4, P5) or among chord-rejected rows (P6), and the flow
        // sum must be the in-order sum of exactly the kept matches.
        let mut counts = Vec::new();
        for id in PatternId::ALL {
            let all = enumerate_pb(&g, &tables, id, 0).expect("all tables built");
            let n = all.len();
            counts.push(n);
            for limit in 1..=n + 1 {
                let pb = search_pb(&g, &tables, id, limit).expect("all tables built");
                assert_eq!(pb.instances, limit.min(n), "{id} limit {limit}");
                assert_eq!(pb.truncated, limit <= n, "{id} limit {limit}");
                let mut want = 0.0;
                for m in &all[..pb.instances] {
                    want += pb_match_flow(&g, id, m).expect("valid PB match");
                }
                assert_eq!(
                    pb.total_flow.to_bits(),
                    want.to_bits(),
                    "{id} limit {limit}: flow sum {} vs {want}",
                    pb.total_flow
                );
            }
        }
        assert_eq!(counts, [13, 8, 9, 4, 5, 7]);
    }

    #[test]
    fn empty_graph_yields_empty_results() {
        let g = tin_graph::GraphBuilder::new().build();
        let tables = PathTables::build(&g, &TablesConfig::default());
        let gb = search_gb(&g, PatternId::P3, 0);
        assert_eq!(gb.instances, 0);
        assert_eq!(gb.average_flow, 0.0);
        let pb = search_pb(&g, &tables, PatternId::P3, 0).unwrap();
        assert_eq!(pb.instances, 0);
    }

    #[test]
    fn average_flow_is_total_over_count() {
        let g = sample();
        let gb = search_gb(&g, PatternId::P2, 0);
        if gb.instances > 0 {
            assert!((gb.average_flow * gb.instances as f64 - gb.total_flow).abs() < 1e-9);
        }
    }
}
