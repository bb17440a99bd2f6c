//! Precomputation-based (PB) pattern enumeration — Section 5.2 of the paper.
//!
//! Instead of browsing the graph from scratch, the PB matcher assembles
//! pattern instances from the precomputed path tables ([`crate::tables`]):
//! whole-row patterns (P1–P3) are simple scans, join patterns (P4, P5) are
//! anchor joins between tables, and patterns whose edges are not covered by
//! any table (P6) use the tables to drive the search and fall back to the
//! graph for the remaining edge checks and to the flow solvers for the flow.
//!
//! One private fold walks the matches of every pattern, in one order, over
//! borrowed table rows. [`crate::search_pb`] folds it into a count and a
//! flow sum: for P1–P5 that is a scan or join that sums precomputed flows and
//! allocates nothing, and only P6 materializes its (chord-checked) instances
//! for a flow solver. [`enumerate_pb`] collects the same walk into
//! [`PbMatch`]es for callers that want the instances themselves.

use crate::catalogue::{PatternCatalogue, PatternId};
use crate::instance::Instance;
use crate::tables::{PathTable, PathTables};
use tin_graph::{NodeId, Quantity, TemporalGraph};

/// A PB match: the instance plus its flow when the tables already determine
/// it (chain-shaped and branch-sum patterns); `None` means the caller must
/// run a flow algorithm on the materialized instance (P6).
#[derive(Debug, Clone)]
pub struct PbMatch {
    /// The matched instance.
    pub instance: Instance,
    /// Precomputed flow, when available.
    pub flow: Option<Quantity>,
}

/// Enumerates the instances of catalogue pattern `id` using the precomputed
/// tables. Returns `None` when a required table is missing or truncated —
/// the situation the paper marks as "PB not applicable".
///
/// `limit` bounds the number of matches (0 = unlimited). This collects the
/// same match walk that [`crate::search_pb`] folds without materializing
/// anything, so both see the same matches in the same order.
pub fn enumerate_pb(
    graph: &TemporalGraph,
    tables: &PathTables,
    id: PatternId,
    limit: usize,
) -> Option<Vec<PbMatch>> {
    let (_, matches) = fold_pb_matches(
        graph,
        tables,
        id,
        limit,
        Vec::new(),
        |mut matches, vertices, flow| {
            matches.push(PbMatch {
                instance: Instance::new(vertices.to_vec()),
                flow,
            });
            matches
        },
    )?;
    Some(matches)
}

/// Folds `f(acc, vertices, flow)` over the PB matches of pattern `id`, in
/// enumeration order, on borrowed rows: `vertices` is the instance mapping
/// and `flow` the precomputed flow (`None` for P6, whose flow the tables do
/// not determine). Folds at most `limit` matches (0 = unlimited) and
/// returns how many it folded with the final accumulator, or `None` when a
/// required table is missing or truncated (PB not applicable).
///
/// This is the only copy of the P1–P6 match logic: [`enumerate_pb`]
/// collects it and [`crate::search_pb`] sums it. The accumulator travels
/// by value, so a flow sum stays in a register instead of being written
/// back through a captured reference at every row.
pub(crate) fn fold_pb_matches<A>(
    graph: &TemporalGraph,
    tables: &PathTables,
    id: PatternId,
    limit: usize,
    init: A,
    mut f: impl FnMut(A, &[NodeId], Option<Quantity>) -> A,
) -> Option<(usize, A)> {
    if tables.truncated {
        return None;
    }
    // Every pattern that reads a table must refuse to run on an
    // untrustworthy one (the paper's "PB not applicable").
    let l2_ok = || table_is_complete(&tables.l2, graph, has_any_two_cycle);
    let l3_ok = || table_is_complete(&tables.l3, graph, has_any_three_cycle);
    let cap = if limit == 0 { usize::MAX } else { limit };
    let folded = match id {
        PatternId::P1 => {
            if !table_is_complete(&tables.c2, graph, has_any_two_chain) {
                return None;
            }
            let matches = tables.c2.iter().map(|row| {
                let v = row.vertices();
                ([v[0], v[1], v[2]], Some(row.flow))
            });
            fold_first(matches, cap, init, &mut f)
        }
        PatternId::P2 => {
            if !l2_ok() {
                return None;
            }
            let matches = tables.l2.iter().map(|row| {
                let v = row.vertices();
                ([v[0], v[1], v[0]], Some(row.flow))
            });
            fold_first(matches, cap, init, &mut f)
        }
        PatternId::P3 => {
            if !l3_ok() {
                return None;
            }
            let matches = tables.l3.iter().map(|row| {
                let v = row.vertices();
                ([v[0], v[1], v[2], v[0]], Some(row.flow))
            });
            fold_first(matches, cap, init, &mut f)
        }
        PatternId::P4 => {
            // L2 ⋈ L3 on the anchor: a 2-hop branch and a 3-hop branch with
            // disjoint intermediate vertices; the instance flow is the sum of
            // the two independent branch flows (the instance satisfies
            // Lemma 2). The join needs both tables — unless one side is
            // *verifiably* empty (built, and the graph has no such cycles),
            // in which case the join is empty whatever the other side holds.
            let l2_void = tables.l2.is_empty() && l2_ok();
            let l3_void = tables.l3.is_empty() && l3_ok();
            let usable = (l2_ok() && l3_ok()) || l2_void || l3_void;
            if !usable {
                return None;
            }
            let matches = tables.l2.iter().flat_map(|l2_row| {
                let (anchor, b) = (l2_row.anchor(), l2_row.vertices()[1]);
                tables.l3.rows_for(anchor).iter().filter_map(move |l3_row| {
                    let (c, e) = (l3_row.vertices()[1], l3_row.vertices()[2]);
                    let flow = l2_row.flow + l3_row.flow;
                    (b != c && b != e).then_some(([anchor, b, c, e, anchor], Some(flow)))
                })
            });
            fold_first(matches, cap, init, &mut f)
        }
        PatternId::P5 => {
            if !l2_ok() {
                return None;
            }
            // L2 self-join on the anchor with b < c (symmetry breaking).
            let matches = tables.l2.anchors().flat_map(|anchor| {
                let rows = tables.l2.rows_for(anchor);
                rows.iter().enumerate().flat_map(move |(i, first)| {
                    rows[i + 1..].iter().map(move |second| {
                        let (b, c) = (first.vertices()[1], second.vertices()[1]);
                        ([anchor, b, c, anchor], Some(first.flow + second.flow))
                    })
                })
            });
            fold_first(matches, cap, init, &mut f)
        }
        PatternId::P6 => {
            if !l3_ok() {
                return None;
            }
            // L3 scan + graph verification of the two chords; the
            // precomputed chain flow cannot be reused (the chords interleave
            // with the cycle), so the flow is left to the caller.
            let matches = tables.l3.iter().filter_map(|row| {
                let v = row.vertices();
                let (a, b, c) = (v[0], v[1], v[2]);
                (graph.has_edge(a, c) && graph.has_edge(b, a)).then_some(([a, b, c, a], None))
            });
            fold_first(matches, cap, init, &mut f)
        }
    };
    Some(folded)
}

/// Folds the first `cap` of `matches` with `f`, counting them.
fn fold_first<const N: usize, A>(
    matches: impl Iterator<Item = ([NodeId; N], Option<Quantity>)>,
    cap: usize,
    init: A,
    f: &mut impl FnMut(A, &[NodeId], Option<Quantity>) -> A,
) -> (usize, A) {
    matches
        .take(cap)
        .fold((0, init), |(count, acc), (vertices, flow)| {
            (count + 1, f(acc, &vertices, flow))
        })
}

/// The PB matcher's one availability rule: an empty table is legitimate
/// when the graph simply has no paths of its shape (`has_any` is false) —
/// it is then verifiably complete — but an empty table on a graph that has
/// such paths was never built, and answering from it would silently claim
/// "no instances".
pub(crate) fn table_is_complete(
    table: &PathTable,
    graph: &TemporalGraph,
    has_any: fn(&TemporalGraph) -> bool,
) -> bool {
    !table.is_empty() || !has_any(graph)
}

/// Whether the graph contains any 2-hop cycle `u → v → u`. These existence
/// checks run when a required table is empty, to tell "the graph has no
/// matching paths" (empty table is complete) apart from "table not built"
/// (PB not applicable).
pub(crate) fn has_any_two_cycle(graph: &TemporalGraph) -> bool {
    // Tombstoned edge slots keep their endpoints; only live edges count.
    graph
        .edges()
        .iter()
        .any(|e| !e.is_tombstone() && graph.has_edge(e.dst, e.src))
}

/// Whether the graph contains any 3-hop cycle `u → v → w → u` over distinct
/// vertices.
pub(crate) fn has_any_three_cycle(graph: &TemporalGraph) -> bool {
    graph.edges().iter().any(|e| {
        !e.is_tombstone()
            && e.src != e.dst
            && graph
                .out_neighbors(e.dst)
                .any(|u| u != e.src && u != e.dst && graph.has_edge(u, e.src))
    })
}

/// Whether the graph contains any 2-hop chain `u → v → w` over distinct
/// vertices.
pub(crate) fn has_any_two_chain(graph: &TemporalGraph) -> bool {
    graph.edges().iter().any(|e| {
        !e.is_tombstone()
            && e.src != e.dst
            && graph.out_neighbors(e.dst).any(|w| w != e.src && w != e.dst)
    })
}

/// Resolves the flow of a PB match, reusing the precomputed value when
/// present and otherwise running the paper's complete solver (`PreSim`) on
/// the materialized instance.
pub fn pb_match_flow(
    graph: &TemporalGraph,
    id: PatternId,
    m: &PbMatch,
) -> Result<Quantity, tin_flow::FlowError> {
    match m.flow {
        Some(f) => Ok(f),
        None => {
            let pattern = PatternCatalogue::build(id);
            m.instance
                .flow(graph, &pattern, tin_flow::FlowMethod::PreSim)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::browse::enumerate_gb;
    use crate::tables::TablesConfig;
    use std::collections::BTreeSet;
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

    fn mapping_set(graph: &TemporalGraph, instances: &[Instance]) -> BTreeSet<Vec<String>> {
        instances
            .iter()
            .map(|i| {
                i.mapping
                    .iter()
                    .map(|&v| graph.node(v).name.clone())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn pb_matches_gb_on_every_catalogue_pattern() {
        let g = sample();
        let tables = PathTables::build(&g, &TablesConfig::default());
        for (id, pattern) in PatternCatalogue::all() {
            let gb = enumerate_gb(&g, &pattern, 0);
            let pb = enumerate_pb(&g, &tables, id, 0).expect("tables available");
            let gb_set = mapping_set(&g, &gb);
            let pb_set = mapping_set(
                &g,
                &pb.iter().map(|m| m.instance.clone()).collect::<Vec<_>>(),
            );
            assert_eq!(gb_set, pb_set, "instance sets differ for {id}");
        }
    }

    #[test]
    fn pb_flows_match_instance_flows() {
        let g = sample();
        let tables = PathTables::build(&g, &TablesConfig::default());
        for (id, pattern) in PatternCatalogue::all() {
            let pb = enumerate_pb(&g, &tables, id, 0).unwrap();
            for m in &pb {
                let resolved = pb_match_flow(&g, id, m).unwrap();
                let recomputed = m
                    .instance
                    .flow(&g, &pattern, tin_flow::FlowMethod::PreSim)
                    .unwrap();
                assert!(
                    (resolved - recomputed).abs() < 1e-9,
                    "flow mismatch for {id}: precomputed {resolved}, recomputed {recomputed}"
                );
            }
        }
    }

    #[test]
    fn limit_is_respected() {
        let g = sample();
        let tables = PathTables::build(&g, &TablesConfig::default());
        let pb = enumerate_pb(&g, &tables, PatternId::P2, 2).unwrap();
        assert_eq!(pb.len(), 2);
    }

    #[test]
    fn missing_chain_table_disables_p1() {
        let g = sample();
        let cfg = TablesConfig {
            build_c2: false,
            ..TablesConfig::default()
        };
        let tables = PathTables::build(&g, &cfg);
        assert!(enumerate_pb(&g, &tables, PatternId::P1, 0).is_none());
        // Cycle-based patterns still work.
        assert!(enumerate_pb(&g, &tables, PatternId::P2, 0).is_some());
    }

    #[test]
    fn missing_l3_table_disables_p3_p4_p6() {
        // The sample graph contains 3-hop cycles (x->y->z->x and rotations),
        // so an unbuilt L3 table must disable every pattern that reads it —
        // returning Some(vec![]) here would silently claim "no instances".
        let g = sample();
        let cfg = TablesConfig {
            build_l3: false,
            ..TablesConfig::default()
        };
        let tables = PathTables::build(&g, &cfg);
        for id in [PatternId::P3, PatternId::P4, PatternId::P6] {
            assert!(
                enumerate_pb(&g, &tables, id, 0).is_none(),
                "{id} must be refused without the L3 table"
            );
        }
        // Patterns not touching L3 still work.
        for id in [PatternId::P1, PatternId::P2, PatternId::P5] {
            assert!(
                enumerate_pb(&g, &tables, id, 0).is_some(),
                "{id} does not need the L3 table"
            );
        }
    }

    #[test]
    fn missing_l2_table_disables_p2_p4_p5() {
        let g = sample();
        let cfg = TablesConfig {
            build_l2: false,
            ..TablesConfig::default()
        };
        let tables = PathTables::build(&g, &cfg);
        for id in [PatternId::P2, PatternId::P4, PatternId::P5] {
            assert!(
                enumerate_pb(&g, &tables, id, 0).is_none(),
                "{id} must be refused without the L2 table"
            );
        }
        for id in [PatternId::P1, PatternId::P3, PatternId::P6] {
            assert!(
                enumerate_pb(&g, &tables, id, 0).is_some(),
                "{id} does not need the L2 table"
            );
        }
    }

    #[test]
    fn empty_chain_table_is_fine_when_the_graph_has_no_chains() {
        // A single edge admits no 2-hop chain: the built-but-empty C2 table
        // is verifiably complete, so P1 legitimately reports zero instances
        // instead of "PB not applicable".
        let g = from_records([("a", "b", 1, 2.0)]);
        let tables = PathTables::build(&g, &TablesConfig::default());
        assert!(tables.c2.is_empty());
        let pb = enumerate_pb(&g, &tables, PatternId::P1, 0);
        assert_eq!(pb.map(|v| v.len()), Some(0));
    }

    #[test]
    fn unbuilt_tables_are_fine_when_the_graph_has_no_cycles() {
        // A pure chain has no 2- or 3-hop cycles: empty cycle tables are
        // verifiably complete and every pattern legitimately matches nothing.
        let g = from_records([("a", "b", 1, 2.0), ("b", "c", 2, 3.0), ("c", "d", 3, 1.0)]);
        let cfg = TablesConfig {
            build_l2: false,
            build_l3: false,
            ..TablesConfig::default()
        };
        let tables = PathTables::build(&g, &cfg);
        for id in [
            PatternId::P2,
            PatternId::P3,
            PatternId::P4,
            PatternId::P5,
            PatternId::P6,
        ] {
            let pb = enumerate_pb(&g, &tables, id, 0);
            assert_eq!(
                pb.map(|v| v.len()),
                Some(0),
                "{id} should report zero instances on a cycle-free graph"
            );
        }
    }

    #[test]
    fn truncated_tables_are_refused() {
        let g = sample();
        let cfg = TablesConfig {
            max_rows: 1,
            ..TablesConfig::default()
        };
        let tables = PathTables::build(&g, &cfg);
        assert!(enumerate_pb(&g, &tables, PatternId::P2, 0).is_none());
    }
}
