//! Property-based cross-check of the path-table builders.
//!
//! The chain-propagation kernel builder (the production path: shared-prefix
//! enumeration, arena-backed rows, optional parallel fan-out) and the
//! retained reference builder (per-row graph materialization + traced
//! greedy scan) are independent implementations. On random temporal graphs
//! they must produce identical rows: same vertex sequences in the same
//! order, same delivered profiles, same flows, same truncation verdicts,
//! and the per-anchor offset index must answer like a binary search over
//! the rows. Directed tests pin zero-flow cycles and capped tables.
//!
//! Interaction quantities are small integers so that every greedy update
//! (`+`, `-`, `min`) is exact in `f64` and equality can be checked without
//! tolerances — the two builders may legally order their floating-point
//! accumulations differently.

use proptest::prelude::*;
use tin_graph::{GraphBuilder, NodeId, TemporalGraph};
use tin_patterns::reference::{build_reference, ReferenceRow, ReferenceTables};
use tin_patterns::{PathTable, PathTables, TablesConfig};

/// A deterministic pseudo-random temporal graph derived from a seed:
/// `nodes` vertices, `edges` directed edge slots (duplicates merge, a few
/// self-loops appear and must be skipped by every builder), 1–4 interactions
/// per edge with integer quantities (including zero-quantity and same-time
/// ties).
#[derive(Debug, Clone)]
struct RandomGraph {
    nodes: usize,
    edges: usize,
    seed: u64,
}

fn random_graph(max_nodes: usize, max_edges: usize) -> impl Strategy<Value = RandomGraph> {
    (2..=max_nodes, 1..=max_edges, any::<u64>()).prop_map(|(nodes, edges, seed)| RandomGraph {
        nodes,
        edges,
        seed,
    })
}

fn build_graph(desc: &RandomGraph) -> TemporalGraph {
    let mut state = desc.seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    let mut b = GraphBuilder::new();
    let ids: Vec<NodeId> = (0..desc.nodes)
        .map(|i| b.add_node(format!("v{i}")))
        .collect();
    for _ in 0..desc.edges {
        let u = ids[(next() * desc.nodes as f64) as usize % desc.nodes];
        // Mostly distinct endpoints, occasionally a self-loop attempt (the
        // builder must reject those with a typed error).
        let v = if next() < 0.08 {
            u
        } else {
            ids[(next() * desc.nodes as f64) as usize % desc.nodes]
        };
        let interactions = 1 + (next() * 4.0) as usize;
        for _ in 0..interactions {
            let t = (next() * 40.0) as i64;
            let q = (next() * 9.0).floor(); // integer quantities: exact f64 math
            if u == v {
                assert!(b.add_pairs(u, v, &[(t, q)]).is_err(), "self-loop accepted");
            } else {
                b.add_pairs(u, v, &[(t, q)]).unwrap();
            }
        }
    }
    b.build()
}

fn assert_table_matches(label: &str, new: &PathTable, reference: &[ReferenceRow]) {
    assert_eq!(
        new.len(),
        reference.len(),
        "{label}: row count differs (kernel {}, reference {})",
        new.len(),
        reference.len()
    );
    for (i, (row, want)) in new.iter().zip(reference).enumerate() {
        assert_eq!(
            row.vertices(),
            &want.vertices[..],
            "{label}: row {i} vertices differ"
        );
        assert_eq!(
            new.delivered(row),
            &want.delivered[..],
            "{label}: row {i} delivered profile differs for {:?}",
            want.vertices
        );
        assert_eq!(
            row.flow, want.flow,
            "{label}: row {i} flow differs for {:?}",
            want.vertices
        );
    }
}

fn assert_tables_match(new: &PathTables, reference: &ReferenceTables) {
    assert_eq!(
        new.truncated, reference.truncated,
        "truncation verdicts differ"
    );
    if new.truncated {
        // Truncated tables are refused by the PB matcher; their partial
        // contents are not specified.
        return;
    }
    assert_table_matches("L2", &new.l2, &reference.l2);
    assert_table_matches("L3", &new.l3, &reference.l3);
    assert_table_matches("C2", &new.c2, &reference.c2);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The kernel builder reproduces the reference builder row for row.
    #[test]
    fn kernel_matches_reference(desc in random_graph(10, 28)) {
        let g = build_graph(&desc);
        for config in [
            TablesConfig::default(),
            TablesConfig { build_c2: false, ..TablesConfig::default() },
            TablesConfig { build_l2: false, build_l3: true, ..TablesConfig::default() },
        ] {
            let kernel = PathTables::build_serial(&g, &config);
            let reference = build_reference(&g, &config);
            assert_tables_match(&kernel, &reference);
        }
    }

    /// The parallel fan-out changes nothing but wall-clock time.
    #[test]
    fn parallel_matches_serial(desc in random_graph(12, 40)) {
        let g = build_graph(&desc);
        let config = TablesConfig::default();
        let serial = PathTables::build_serial(&g, &config);
        let parallel = PathTables::build_parallel(&g, &config);
        prop_assert_eq!(serial.truncated, parallel.truncated);
        for (label, a, b) in [
            ("L2", &serial.l2, &parallel.l2),
            ("L3", &serial.l3, &parallel.l3),
            ("C2", &serial.c2, &parallel.c2),
        ] {
            prop_assert_eq!(a.len(), b.len(), "{}: row counts differ", label);
            for (ra, rb) in a.iter().zip(b.iter()) {
                prop_assert_eq!(ra.vertices(), rb.vertices());
                prop_assert_eq!(a.delivered(ra), b.delivered(rb));
                prop_assert_eq!(ra.flow, rb.flow);
            }
        }
    }

    /// Row caps: both builders agree on whether the graph's tables fit.
    #[test]
    fn capped_builds_agree_on_truncation(desc in random_graph(8, 20), cap in 1..12usize) {
        let g = build_graph(&desc);
        let config = TablesConfig { max_rows: cap, ..TablesConfig::default() };
        let kernel = PathTables::build_serial(&g, &config);
        let reference = build_reference(&g, &config);
        prop_assert_eq!(kernel.truncated, reference.truncated,
            "cap {}: kernel truncated={}, reference truncated={}",
            cap, kernel.truncated, reference.truncated);
        if !kernel.truncated {
            assert_tables_match(&kernel, &reference);
        }
    }

    /// The per-anchor offset index answers exactly like a binary search over
    /// the sorted rows (the pre-index implementation of `rows_for`).
    #[test]
    fn offset_index_matches_binary_search(desc in random_graph(10, 24)) {
        let g = build_graph(&desc);
        let t = PathTables::build_serial(&g, &TablesConfig::default());
        for table in [&t.l2, &t.l3, &t.c2] {
            let rows = table.rows();
            for a in g.node_ids() {
                let start = rows.partition_point(|r| r.anchor() < a);
                let end = rows.partition_point(|r| r.anchor() <= a);
                let indexed = table.rows_for(a);
                prop_assert_eq!(indexed.len(), end - start);
                prop_assert!(std::ptr::eq(indexed.as_ptr(), rows[start..end].as_ptr())
                    || indexed.is_empty());
            }
        }
    }
}

// --- Directed corner cases ------------------------------------------------

/// All return edges fire before anything arrives: every cycle row exists but
/// carries zero flow and an empty delivered profile.
#[test]
fn zero_flow_cycles_round_trip() {
    let mut b = GraphBuilder::new();
    let u = b.add_node("u");
    let v = b.add_node("v");
    let w = b.add_node("w");
    b.add_pairs(u, v, &[(10, 5.0)]).unwrap();
    b.add_pairs(v, u, &[(1, 5.0)]).unwrap();
    b.add_pairs(v, w, &[(20, 4.0)]).unwrap();
    b.add_pairs(w, u, &[(2, 4.0)]).unwrap();
    let g = b.build();
    let config = TablesConfig::default();
    let kernel = PathTables::build_serial(&g, &config);
    let reference = build_reference(&g, &config);
    assert_tables_match(&kernel, &reference);
    let u_cycle = kernel.l2.rows_for(u);
    assert_eq!(u_cycle.len(), 1);
    assert_eq!(u_cycle[0].flow, 0.0);
    assert!(kernel.l2.delivered(&u_cycle[0]).is_empty());
    let u_l3 = kernel.l3.rows_for(u);
    assert_eq!(u_l3.len(), 1);
    assert_eq!(u_l3[0].flow, 0.0);
}

/// A graph big enough to overflow a tiny cap in every table: both builders
/// refuse, and the kernel build respects the cap as a memory bound.
#[test]
fn capped_tables_stay_bounded() {
    let mut b = GraphBuilder::new();
    let ids: Vec<NodeId> = (0..8).map(|i| b.add_node(format!("n{i}"))).collect();
    for (i, &x) in ids.iter().enumerate() {
        for (j, &y) in ids.iter().enumerate() {
            if i != j {
                b.add_pairs(x, y, &[((i * 8 + j) as i64, 3.0)]).unwrap();
            }
        }
    }
    let g = b.build();
    let config = TablesConfig {
        max_rows: 5,
        ..TablesConfig::default()
    };
    let kernel = PathTables::build(&g, &config);
    let reference = build_reference(&g, &config);
    assert!(kernel.truncated);
    assert!(reference.truncated);
    assert!(kernel.l2.len() <= 5);
    assert!(kernel.l3.len() <= 5);
    assert!(kernel.c2.len() <= 5);
}
