//! Integration tests reproducing every worked example of the paper through
//! the public facade API.

use temporal_flow::prelude::*;
use tin_flow::{greedy_flow_traced, DifficultyClass};
use tin_graph::augment_with_synthetic_endpoints;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9
}

/// Figure 1(a): the introduction's toy transaction network.
#[test]
fn figure1_greedy_two_maximum_five() {
    let mut b = GraphBuilder::new();
    let s = b.add_node("s");
    let x = b.add_node("x");
    let y = b.add_node("y");
    let z = b.add_node("z");
    let t = b.add_node("t");
    b.add_pairs(s, x, &[(1, 3.0), (7, 5.0)]).unwrap();
    b.add_pairs(s, y, &[(2, 6.0)]).unwrap();
    b.add_pairs(x, z, &[(5, 5.0)]).unwrap();
    b.add_pairs(y, z, &[(8, 5.0)]).unwrap();
    b.add_pairs(y, t, &[(9, 4.0)]).unwrap();
    b.add_pairs(z, t, &[(2, 3.0), (10, 1.0)]).unwrap();
    let g = b.build();

    assert!(close(greedy_flow(&g, s, t).flow, 2.0));
    for method in [
        FlowMethod::Lp,
        FlowMethod::Pre,
        FlowMethod::PreSim,
        FlowMethod::TimeExpanded,
    ] {
        assert!(
            close(compute_flow(&g, s, t, method).unwrap().flow, 5.0),
            "{method}"
        );
    }
}

/// Figure 3 with Table 2 (greedy) and Table 3 (maximum).
#[test]
fn figure3_tables_2_and_3() {
    let mut b = GraphBuilder::new();
    let s = b.add_node("s");
    let y = b.add_node("y");
    let z = b.add_node("z");
    let t = b.add_node("t");
    b.add_pairs(s, y, &[(1, 5.0)]).unwrap();
    b.add_pairs(s, z, &[(2, 3.0)]).unwrap();
    b.add_pairs(y, z, &[(3, 5.0)]).unwrap();
    b.add_pairs(y, t, &[(4, 4.0)]).unwrap();
    b.add_pairs(z, t, &[(5, 1.0)]).unwrap();
    let g = b.build();

    // Table 2: greedy transfers 5, 3, 5, 0, 1 and delivers 1 unit.
    let traced = greedy_flow_traced(&g, s, t);
    assert_eq!(
        traced
            .trace
            .iter()
            .map(|s| s.transferred)
            .collect::<Vec<_>>(),
        vec![5.0, 3.0, 5.0, 0.0, 1.0]
    );
    assert!(close(traced.flow, 1.0));

    // Table 3: the maximum flow is 5, and Figure 3 is a class C instance.
    let max = maximum_flow(&g, s, t).unwrap();
    assert!(close(max.flow, 5.0));
    assert_eq!(max.class, Some(DifficultyClass::C));
}

/// Figure 4: synthetic source/sink augmentation of a multi-endpoint DAG.
#[test]
fn figure4_synthetic_endpoints() {
    let mut b = GraphBuilder::new();
    let x = b.add_node("x");
    let y = b.add_node("y");
    let z = b.add_node("z");
    let w = b.add_node("w");
    b.add_pairs(x, z, &[(1, 5.0)]).unwrap();
    b.add_pairs(y, z, &[(2, 3.0)]).unwrap();
    b.add_pairs(y, w, &[(5, 1.0)]).unwrap();
    let g = b.build();

    let aug = augment_with_synthetic_endpoints(&g).unwrap();
    assert!(aug.added_source && aug.added_sink);
    let flow = compute_flow(&aug.graph, aug.source, aug.sink, FlowMethod::PreSim)
        .unwrap()
        .flow;
    // Everything the original sources emit eventually reaches a sink.
    assert!(close(flow, 9.0));
}

/// Figure 5(a): the chain DAG is greedy-soluble (Lemma 1) and its flow is 7.
#[test]
fn figure5a_chain_is_greedy_soluble() {
    let mut b = GraphBuilder::new();
    let s = b.add_node("s");
    let x = b.add_node("x");
    let y = b.add_node("y");
    let t = b.add_node("t");
    b.add_pairs(s, x, &[(1, 5.0), (4, 3.0), (5, 2.0)]).unwrap();
    b.add_pairs(x, y, &[(3, 3.0), (7, 4.0)]).unwrap();
    b.add_pairs(y, t, &[(6, 3.0), (8, 6.0)]).unwrap();
    let g = b.build();

    assert!(is_greedy_soluble(&g, s, t));
    let greedy = greedy_flow(&g, s, t).flow;
    let max = compute_flow(&g, s, t, FlowMethod::Lp).unwrap().flow;
    assert!(close(greedy, 7.0));
    assert!(close(greedy, max));
    let result = maximum_flow(&g, s, t).unwrap();
    assert_eq!(result.class, Some(DifficultyClass::A));
}

/// Figure 5(b): Lemma 2 — greedy computes the maximum flow (14).
#[test]
fn figure5b_lemma2_graph() {
    let mut b = GraphBuilder::new();
    let s = b.add_node("s");
    let y = b.add_node("y");
    let z = b.add_node("z");
    let w = b.add_node("w");
    let x = b.add_node("x");
    let t = b.add_node("t");
    b.add_pairs(s, y, &[(1, 5.0), (4, 3.0), (5, 2.0)]).unwrap();
    b.add_pairs(y, z, &[(3, 3.0), (7, 4.0)]).unwrap();
    b.add_pairs(z, w, &[(6, 3.0), (8, 6.0)]).unwrap();
    b.add_pairs(s, x, &[(9, 2.0), (12, 5.0)]).unwrap();
    b.add_pairs(x, w, &[(10, 3.0), (14, 4.0)]).unwrap();
    b.add_pairs(w, t, &[(15, 7.0)]).unwrap();
    b.add_pairs(s, t, &[(2, 5.0), (11, 2.0)]).unwrap();
    let g = b.build();

    assert!(is_greedy_soluble(&g, s, t));
    assert!(close(greedy_flow(&g, s, t).flow, 14.0));
    assert!(close(
        compute_flow(&g, s, t, FlowMethod::Lp).unwrap().flow,
        14.0
    ));
    assert!(close(
        compute_flow(&g, s, t, FlowMethod::TimeExpanded)
            .unwrap()
            .flow,
        14.0
    ));
}

/// Figure 6: preprocessing removes exactly the interactions the paper lists
/// and Figure 6(c)'s graph becomes greedy-soluble (class B).
#[test]
fn figure6_preprocessing() {
    let mut b = GraphBuilder::new();
    let s = b.add_node("s");
    let x = b.add_node("x");
    let y = b.add_node("y");
    let z = b.add_node("z");
    let t = b.add_node("t");
    b.add_pairs(s, x, &[(5, 3.0), (8, 3.0)]).unwrap();
    b.add_pairs(s, z, &[(10, 5.0)]).unwrap();
    b.add_pairs(x, y, &[(2, 7.0), (12, 4.0)]).unwrap();
    b.add_pairs(x, z, &[(1, 2.0), (13, 1.0)]).unwrap();
    b.add_pairs(y, t, &[(3, 3.0), (15, 2.0)]).unwrap();
    b.add_pairs(z, t, &[(4, 2.0), (11, 4.0)]).unwrap();
    b.add_pairs(s, y, &[(9, 7.0)]).unwrap();
    let g1 = b.build();
    let out = preprocess(&g1, s, t).unwrap();
    assert_eq!(out.report.interactions_removed, 4);
    // The maximum flow is preserved by preprocessing.
    let before = compute_flow(&g1, s, t, FlowMethod::Lp).unwrap().flow;
    let after = compute_flow(
        &out.graph,
        out.source.unwrap(),
        out.sink.unwrap(),
        FlowMethod::Lp,
    )
    .unwrap()
    .flow;
    assert!(close(before, after));

    // Figure 6(c): after preprocessing only s -> z -> t survives; the
    // pipeline classifies it as class B and avoids the LP entirely.
    let mut b = GraphBuilder::new();
    let s = b.add_node("s");
    let x = b.add_node("x");
    let y = b.add_node("y");
    let z = b.add_node("z");
    let t = b.add_node("t");
    b.add_pairs(s, x, &[(5, 3.0), (8, 3.0)]).unwrap();
    b.add_pairs(s, z, &[(10, 5.0)]).unwrap();
    b.add_pairs(x, y, &[(3, 4.0)]).unwrap();
    b.add_pairs(y, t, &[(2, 7.0), (12, 4.0)]).unwrap();
    b.add_pairs(y, z, &[(1, 2.0), (13, 1.0)]).unwrap();
    b.add_pairs(z, t, &[(4, 2.0), (11, 4.0)]).unwrap();
    let g2 = b.build();
    let result = compute_flow(&g2, s, t, FlowMethod::Pre).unwrap();
    assert_eq!(result.class, Some(DifficultyClass::B));
    assert!(close(result.flow, 4.0));
}

/// Figure 7: simplification reduces the LP from 9 variables to 3 while
/// preserving the maximum flow.
#[test]
fn figure7_simplification_shrinks_the_lp() {
    let mut b = GraphBuilder::new();
    let s = b.add_node("s");
    let y = b.add_node("y");
    let x = b.add_node("x");
    let z = b.add_node("z");
    let w = b.add_node("w");
    let u = b.add_node("u");
    let t = b.add_node("t");
    b.add_pairs(s, y, &[(1, 2.0), (4, 3.0), (5, 2.0)]).unwrap();
    b.add_pairs(y, z, &[(3, 3.0), (7, 1.0)]).unwrap();
    b.add_pairs(z, w, &[(6, 3.0), (8, 6.0)]).unwrap();
    b.add_pairs(s, x, &[(9, 2.0), (12, 5.0)]).unwrap();
    b.add_pairs(x, w, &[(10, 3.0), (14, 4.0)]).unwrap();
    b.add_pairs(s, z, &[(2, 5.0), (11, 2.0)]).unwrap();
    b.add_pairs(w, t, &[(15, 7.0)]).unwrap();
    b.add_pairs(w, u, &[(13, 5.0)]).unwrap();
    b.add_pairs(u, t, &[(16, 6.0)]).unwrap();
    let g = b.build();

    let lp = compute_flow(&g, s, t, FlowMethod::Lp).unwrap();
    assert_eq!(lp.stats.lp.as_ref().map(|o| o.variables), Some(9));

    let presim = compute_flow(&g, s, t, FlowMethod::PreSim).unwrap();
    assert!(close(lp.flow, presim.flow));
    if let Some(lp) = &presim.stats.lp {
        assert_eq!(lp.variables, 3);
    } else {
        assert!(presim.stats.solved_by_greedy);
    }
}

/// Figure 2: the cyclic pattern instance of the preliminaries has flow $5.
#[test]
fn figure2_pattern_instance_flow() {
    use tin_patterns::{search_gb, PatternCatalogue, PatternId};

    let g = tin_graph::builder::from_records([
        ("u1", "u2", 2, 5.0),
        ("u1", "u2", 4, 3.0),
        ("u1", "u2", 8, 1.0),
        ("u2", "u3", 3, 4.0),
        ("u2", "u3", 5, 2.0),
        ("u3", "u1", 1, 2.0),
        ("u3", "u1", 6, 5.0),
        ("u4", "u1", 7, 6.0),
        ("u2", "u4", 9, 4.0),
        ("u4", "u3", 10, 1.0),
    ]);
    let pattern = PatternCatalogue::build(PatternId::P3);
    let instances = tin_patterns::enumerate_gb(&g, &pattern, 0);
    // The u1 -> u2 -> u3 -> u1 instance exists and has flow 5.
    let u1 = g.node_by_name("u1").unwrap();
    let u2 = g.node_by_name("u2").unwrap();
    let u3 = g.node_by_name("u3").unwrap();
    let target = instances
        .iter()
        .find(|i| i.mapping == vec![u1, u2, u3, u1])
        .expect("the Figure 2(c) instance is found");
    let flow = target.flow(&g, &pattern, FlowMethod::PreSim).unwrap();
    assert!(close(flow, 5.0));
    // And the aggregate search agrees with itself across GB runs.
    let summary = search_gb(&g, PatternId::P3, 0);
    assert_eq!(summary.instances, instances.len());
}
