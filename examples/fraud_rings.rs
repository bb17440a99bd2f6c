//! Fraud-ring hunting on a Bitcoin-like transaction network.
//!
//! This is the paper's motivating FIU (financial intelligence unit) use
//! case: find accounts whose outgoing money returns to them through short
//! chains of intermediaries, and measure how much actually flows around the
//! loop — large round-trip flows are a money-laundering signal.
//!
//! Run with: `cargo run --release --example fraud_rings`

use temporal_flow::prelude::*;
use tin_datasets::{extract_seed_subgraphs, generate_bitcoin, ExtractConfig};
use tin_flow::DifficultyClass;
use tin_patterns::{PathTables, TablesConfig};

fn main() {
    // A scaled-down Bitcoin-like transaction network.
    let config = BitcoinConfig {
        seed: 2024,
        ..BitcoinConfig::default()
    }
    .scaled(0.25);
    let graph = generate_bitcoin(&config);
    println!(
        "transaction network: {} accounts, {} edges, {} transactions",
        graph.node_count(),
        graph.edge_count(),
        graph.interaction_count()
    );

    // Extract, for every account, the subgraph of ≤3-hop round trips.
    let subgraphs = extract_seed_subgraphs(
        &graph,
        &ExtractConfig {
            max_interactions: 800,
            max_subgraphs: 200,
            ..ExtractConfig::default()
        },
    );
    println!(
        "{} accounts have round-trip activity within 3 hops\n",
        subgraphs.len()
    );

    // Compute the maximum round-trip flow for each and rank.
    let mut rankings: Vec<(NodeId, f64, f64, DifficultyClass, usize)> = Vec::new();
    for sub in &subgraphs {
        let greedy = greedy_flow(&sub.graph, sub.source, sub.sink).flow;
        let result = compute_flow(&sub.graph, sub.source, sub.sink, FlowMethod::PreSim)
            .expect("extracted subgraphs are valid flow DAGs");
        rankings.push((
            sub.seed,
            result.flow,
            greedy,
            result.class.unwrap_or(DifficultyClass::C),
            sub.graph.interaction_count(),
        ));
    }
    rankings.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));

    println!(
        "{:<12} {:>14} {:>14} {:>7} {:>14}",
        "account", "max round-trip", "greedy estimate", "class", "#transactions"
    );
    for (seed, max, greedy, class, interactions) in rankings.iter().take(15) {
        let name = &graph.node(*seed).name;
        println!("{name:<12} {max:>14.2} {greedy:>14.2} {class:>7} {interactions:>14}");
    }

    let class_c = rankings
        .iter()
        .filter(|r| r.3 == DifficultyClass::C)
        .count();
    println!(
        "\n{} of {} suspicious neighbourhoods needed the LP-based maximum flow (class C);",
        class_c,
        rankings.len()
    );
    println!("the rest were solved at greedy cost thanks to Lemma 2 and preprocessing.");

    // Drill into the top suspect: the whole graph's cycle tables, built
    // once, list every return loop through an account.
    if let Some(&(seed, ..)) = rankings.first() {
        let tables = PathTables::build(
            &graph,
            &TablesConfig {
                build_c2: false,
                ..TablesConfig::default()
            },
        );
        let l2 = tables.l2.rows_for(seed);
        let l3 = tables.l3.rows_for(seed);
        let round_trip: f64 = l2.iter().chain(l3).map(|r| r.flow).sum();
        println!(
            "\ntop suspect {}: {} two-hop and {} three-hop return loops, {:.2} units of \
             loop flow",
            graph.node(seed).name,
            l2.len(),
            l3.len(),
            round_trip,
        );
    }
}
