//! The pre-kernel path-table builder: the test reference for
//! `crates/patterns/tests/table_equivalence.rs`.
//!
//! This is the original [`crate::tables`] implementation: for every
//! candidate path it materializes a throwaway chain DAG with
//! [`GraphBuilder`] and replays it with the traced greedy scan. It is one to
//! two orders of magnitude slower than the chain-propagation kernel (per-row
//! graph construction, `format!`-allocated node names, cloned interaction
//! vectors, event re-sorting, a full trace) and exists only so that the
//! equivalence property tests can prove the kernel builder produces
//! identical rows, delivered profiles and flows. It is not an engine: do
//! not call it outside tests.

use tin_flow::greedy_flow_traced;
use tin_graph::{GraphBuilder, Interaction, NodeId, Quantity, TemporalGraph};

use crate::tables::TablesConfig;

/// A row of the reference builder: heap-allocated vertices and delivered
/// profile, exactly as the pre-kernel `PathRow` stored them.
#[derive(Debug, Clone)]
pub struct ReferenceRow {
    /// Vertices along the path, starting vertex first (cycle rows do not
    /// repeat the returning vertex).
    pub vertices: Vec<NodeId>,
    /// Greedy transfers into the path's final vertex: `(time, quantity)`.
    pub delivered: Vec<Interaction>,
    /// Total delivered quantity (the path's flow).
    pub flow: Quantity,
}

/// The reference tables for one graph.
#[derive(Debug, Clone, Default)]
pub struct ReferenceTables {
    /// 2-hop cycles `u → v → u`, sorted by vertex sequence.
    pub l2: Vec<ReferenceRow>,
    /// 3-hop cycles `u → v → w → u`, sorted by vertex sequence.
    pub l3: Vec<ReferenceRow>,
    /// 2-hop chains `u → v → w`, sorted by vertex sequence.
    pub c2: Vec<ReferenceRow>,
    /// Whether any table hit the configured row cap.
    pub truncated: bool,
}

/// Builds the tables with the pre-kernel per-row algorithm.
pub fn build_reference(graph: &TemporalGraph, config: &TablesConfig) -> ReferenceTables {
    let mut tables = ReferenceTables::default();
    if config.build_l2 {
        build_l2(&mut tables, graph, config.max_rows);
    }
    if config.build_l3 {
        build_l3(&mut tables, graph, config.max_rows);
    }
    if config.build_c2 {
        build_c2(&mut tables, graph, config.max_rows);
    }
    tables
}

fn build_l2(tables: &mut ReferenceTables, graph: &TemporalGraph, cap: usize) {
    for u in graph.node_ids() {
        for v in graph.out_neighbors(u) {
            if v == u || !graph.has_edge(v, u) {
                continue;
            }
            if cap > 0 && tables.l2.len() >= cap {
                tables.truncated = true;
                return;
            }
            let row = path_row(graph, &[u, v, u]);
            tables.l2.push(row);
        }
    }
    tables.l2.sort_by_key(|r| r.vertices.clone());
}

fn build_l3(tables: &mut ReferenceTables, graph: &TemporalGraph, cap: usize) {
    for u in graph.node_ids() {
        for v in graph.out_neighbors(u) {
            if v == u {
                continue;
            }
            for w in graph.out_neighbors(v) {
                if w == u || w == v || !graph.has_edge(w, u) {
                    continue;
                }
                if cap > 0 && tables.l3.len() >= cap {
                    tables.truncated = true;
                    return;
                }
                let row = path_row(graph, &[u, v, w, u]);
                tables.l3.push(row);
            }
        }
    }
    tables.l3.sort_by_key(|r| r.vertices.clone());
}

fn build_c2(tables: &mut ReferenceTables, graph: &TemporalGraph, cap: usize) {
    for u in graph.node_ids() {
        for v in graph.out_neighbors(u) {
            if v == u {
                continue;
            }
            for w in graph.out_neighbors(v) {
                if w == u || w == v {
                    continue;
                }
                if cap > 0 && tables.c2.len() >= cap {
                    tables.truncated = true;
                    return;
                }
                let row = path_row(graph, &[u, v, w]);
                tables.c2.push(row);
            }
        }
    }
    tables.c2.sort_by_key(|r| r.vertices.clone());
}

/// Runs the greedy scan over the path `vertices` (edges between consecutive
/// vertices, with a repeated first vertex meaning "back to the anchor") and
/// records what reaches the final vertex.
fn path_row(graph: &TemporalGraph, vertices: &[NodeId]) -> ReferenceRow {
    // Materialize the path as a tiny chain DAG (repeated vertices become
    // distinct copies, exactly like pattern instances).
    let mut b = GraphBuilder::with_capacity(vertices.len(), vertices.len() - 1);
    let ids: Vec<NodeId> = (0..vertices.len())
        .map(|i| b.add_node(format!("p{i}")))
        .collect();
    for (i, pair) in vertices.windows(2).enumerate() {
        let edge = graph
            .find_edge(pair[0], pair[1])
            .expect("path edges exist by construction");
        b.add_edge(ids[i], ids[i + 1], graph.edge(edge).interactions.clone())
            .unwrap();
    }
    let chain = b.build();
    let result = greedy_flow_traced(&chain, ids[0], ids[vertices.len() - 1]);
    let delivered: Vec<Interaction> = result
        .trace
        .iter()
        .filter(|s| s.dst == ids[vertices.len() - 1] && s.transferred > 0.0)
        .map(|s| Interaction::new(s.time, s.transferred))
        .collect();
    let flow = delivered.iter().map(|i| i.quantity).sum();
    // Store the path without repeating the anchor at the end.
    let stored: Vec<NodeId> = if vertices.len() > 1 && vertices[0] == vertices[vertices.len() - 1] {
        vertices[..vertices.len() - 1].to_vec()
    } else {
        vertices.to_vec()
    };
    ReferenceRow {
        vertices: stored,
        delivered,
        flow,
    }
}
