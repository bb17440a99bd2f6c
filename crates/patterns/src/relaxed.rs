//! Non-rigid ("relaxed") patterns — Section 5.3 of the paper.
//!
//! A relaxed pattern does not fix the number of parallel branches: e.g. the
//! money-laundering pattern of Figure 9(b) asks for *all* 2-hop cycles
//! through an anchor vertex `a`, however many there are, and reports the
//! aggregate flow from `a` back to itself. Enumerating such patterns with
//! rigid queries would require one query per branch count and would double-
//! count sub-patterns; grouping the precomputed path rows by their anchor
//! answers them directly.
//!
//! Three relaxed patterns are provided, mirroring the RP1–RP3 rows of the
//! evaluation tables:
//!
//! * [`RelaxedPattern::ParallelTwoHopChains`] — all 2-hop chains between an
//!   ordered pair `(a, c)` of vertices (RP1);
//! * [`RelaxedPattern::ParallelTwoHopCycles`] — all 2-hop cycles through an
//!   anchor `a` (RP2, Figure 9(b));
//! * [`RelaxedPattern::ParallelThreeHopCycles`] — all 3-hop cycles through an
//!   anchor `a` (RP3).
//!
//! An *instance* of a relaxed pattern is one group (anchor or vertex pair)
//! with at least `min_branches` branches; its flow is the sum of the branch
//! flows. Branches share only the group's endpoints, so the sum equals the
//! maximum flow of the union DAG by Lemma 2.

use crate::catalogue::{PatternCatalogue, PatternId};
use crate::enumerate::PatternSearchResult;
use crate::precomputed::{
    has_any_three_cycle, has_any_two_chain, has_any_two_cycle, table_is_complete,
};
use crate::tables::{PathTable, PathTables};
use crate::{browse::enumerate_gb, instance::Instance};
use std::collections::BTreeMap;
use std::time::Instant;
use tin_graph::{NodeId, Quantity, TemporalGraph};

/// A relaxed (non-rigid) pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelaxedPattern {
    /// RP1: all 2-hop chains `a → * → c` between an ordered vertex pair.
    ParallelTwoHopChains {
        /// Minimum number of parallel branches for a group to count.
        min_branches: usize,
    },
    /// RP2: all 2-hop cycles `a → * → a` through an anchor.
    ParallelTwoHopCycles {
        /// Minimum number of parallel branches for a group to count.
        min_branches: usize,
    },
    /// RP3: all 3-hop cycles `a → * → * → a` through an anchor.
    ParallelThreeHopCycles {
        /// Minimum number of parallel branches for a group to count.
        min_branches: usize,
    },
}

impl RelaxedPattern {
    /// Table-row name (RP1/RP2/RP3).
    pub fn name(self) -> &'static str {
        match self {
            RelaxedPattern::ParallelTwoHopChains { .. } => "RP1",
            RelaxedPattern::ParallelTwoHopCycles { .. } => "RP2",
            RelaxedPattern::ParallelThreeHopCycles { .. } => "RP3",
        }
    }

    fn min_branches(self) -> usize {
        match self {
            RelaxedPattern::ParallelTwoHopChains { min_branches }
            | RelaxedPattern::ParallelTwoHopCycles { min_branches }
            | RelaxedPattern::ParallelThreeHopCycles { min_branches } => min_branches.max(1),
        }
    }
}

impl std::fmt::Display for RelaxedPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Key a branch belongs to: the anchor for cycle patterns, the (start, end)
/// pair for chain patterns.
type GroupKey = (NodeId, Option<NodeId>);

fn group_and_summarize(
    name: &'static str,
    branches: impl Iterator<Item = (GroupKey, Quantity)>,
    min_branches: usize,
    elapsed_from: Instant,
) -> PatternSearchResult {
    let mut groups: BTreeMap<GroupKey, (usize, f64)> = BTreeMap::new();
    for (key, flow) in branches {
        let entry = groups.entry(key).or_insert((0, 0.0));
        entry.0 += 1;
        entry.1 += flow;
    }
    let qualifying: Vec<&(usize, f64)> = groups
        .values()
        .filter(|(count, _)| *count >= min_branches)
        .collect();
    let instances = qualifying.len();
    let total_flow: f64 = qualifying.iter().map(|(_, f)| *f).sum();
    PatternSearchResult {
        pattern: name,
        instances,
        total_flow,
        average_flow: if instances == 0 {
            0.0
        } else {
            total_flow / instances as f64
        },
        elapsed: elapsed_from.elapsed(),
        truncated: false,
    }
}

/// Answers a relaxed pattern from the precomputed tables (PB).
///
/// Returns `None` when the required table is unavailable — truncated, or
/// empty while the graph does contain matching branches (i.e. the table was
/// never built; an empty table on a branch-free graph is legitimately
/// complete and yields an empty result).
pub fn relaxed_search_pb(
    graph: &TemporalGraph,
    tables: &PathTables,
    pattern: RelaxedPattern,
) -> Option<PatternSearchResult> {
    if tables.truncated {
        return None;
    }
    let start = Instant::now();
    let (table, has_any): (&PathTable, fn(&TemporalGraph) -> bool) = match pattern {
        RelaxedPattern::ParallelTwoHopChains { .. } => (&tables.c2, has_any_two_chain),
        RelaxedPattern::ParallelTwoHopCycles { .. } => (&tables.l2, has_any_two_cycle),
        RelaxedPattern::ParallelThreeHopCycles { .. } => (&tables.l3, has_any_three_cycle),
    };
    if !table_is_complete(table, graph, has_any) {
        return None;
    }
    let branches = table.iter().map(|row| {
        let key: GroupKey = match pattern {
            RelaxedPattern::ParallelTwoHopChains { .. } => {
                let v = row.vertices();
                (v[0], Some(*v.last().expect("chain rows have 3 vertices")))
            }
            _ => (row.anchor(), None),
        };
        (key, row.flow)
    });
    Some(group_and_summarize(
        pattern.name(),
        branches,
        pattern.min_branches(),
        start,
    ))
}

/// Answers a relaxed pattern by graph browsing (GB): the branches are
/// enumerated with the rigid P1/P2/P3 matchers and grouped.
pub fn relaxed_search_gb(graph: &TemporalGraph, pattern: RelaxedPattern) -> PatternSearchResult {
    let start = Instant::now();
    let (rigid, chain) = match pattern {
        RelaxedPattern::ParallelTwoHopChains { .. } => (PatternId::P1, true),
        RelaxedPattern::ParallelTwoHopCycles { .. } => (PatternId::P2, false),
        RelaxedPattern::ParallelThreeHopCycles { .. } => (PatternId::P3, false),
    };
    let rigid_pattern = PatternCatalogue::build(rigid);
    let branches: Vec<(GroupKey, Quantity)> = enumerate_gb(graph, &rigid_pattern, 0)
        .into_iter()
        .map(|instance: Instance| {
            let flow = instance
                .flow(graph, &rigid_pattern, tin_flow::FlowMethod::PreSim)
                .expect("branch instances are valid DAGs");
            let key: GroupKey = if chain {
                (
                    instance.mapping[0],
                    Some(*instance.mapping.last().expect("non-empty mapping")),
                )
            } else {
                (instance.mapping[0], None)
            };
            (key, flow)
        })
        .collect();
    group_and_summarize(
        pattern.name(),
        branches.into_iter(),
        pattern.min_branches(),
        start,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::TablesConfig;
    use tin_graph::builder::from_records;

    /// Three 2-hop cycles through `hub`, one through `other`.
    fn star() -> TemporalGraph {
        from_records([
            ("hub", "a", 1, 10.0),
            ("a", "hub", 2, 4.0),
            ("hub", "b", 3, 10.0),
            ("b", "hub", 4, 6.0),
            ("hub", "c", 5, 10.0),
            ("c", "hub", 6, 8.0),
            ("other", "d", 7, 10.0),
            ("d", "other", 8, 2.0),
            // A couple of 2-hop chains for RP1.
            ("a", "b", 9, 3.0),
        ])
    }

    #[test]
    fn rp2_groups_cycles_by_anchor() {
        let g = star();
        let tables = PathTables::build(&g, &TablesConfig::default());
        let pb = relaxed_search_pb(
            &g,
            &tables,
            RelaxedPattern::ParallelTwoHopCycles { min_branches: 2 },
        )
        .unwrap();
        // Only the hub has >= 2 returning branches.
        assert_eq!(pb.instances, 1);
        assert!((pb.total_flow - (4.0 + 6.0 + 8.0)).abs() < 1e-9);
        // With min_branches = 1 the "other" anchor and the reverse-anchored
        // cycles count too.
        let pb1 = relaxed_search_pb(
            &g,
            &tables,
            RelaxedPattern::ParallelTwoHopCycles { min_branches: 1 },
        )
        .unwrap();
        assert!(pb1.instances > pb.instances);
    }

    #[test]
    fn gb_and_pb_agree_on_relaxed_patterns() {
        let g = star();
        let tables = PathTables::build(&g, &TablesConfig::default());
        for pattern in [
            RelaxedPattern::ParallelTwoHopChains { min_branches: 1 },
            RelaxedPattern::ParallelTwoHopCycles { min_branches: 1 },
            RelaxedPattern::ParallelTwoHopCycles { min_branches: 2 },
            RelaxedPattern::ParallelThreeHopCycles { min_branches: 1 },
        ] {
            let gb = relaxed_search_gb(&g, pattern);
            let pb = relaxed_search_pb(&g, &tables, pattern).unwrap();
            assert_eq!(
                gb.instances, pb.instances,
                "instance count mismatch for {pattern}"
            );
            assert!(
                (gb.total_flow - pb.total_flow).abs() < 1e-9,
                "flow mismatch for {pattern}: GB {} vs PB {}",
                gb.total_flow,
                pb.total_flow
            );
        }
    }

    #[test]
    fn rp1_groups_chains_by_endpoint_pair() {
        let g = star();
        let tables = PathTables::build(&g, &TablesConfig::default());
        let pb = relaxed_search_pb(
            &g,
            &tables,
            RelaxedPattern::ParallelTwoHopChains { min_branches: 1 },
        )
        .unwrap();
        assert!(pb.instances > 0);
        assert!(pb.average_flow >= 0.0);
        assert_eq!(pb.pattern, "RP1");
    }

    #[test]
    fn missing_tables_disable_pb() {
        let g = star();
        let cfg = TablesConfig {
            build_c2: false,
            ..TablesConfig::default()
        };
        let tables = PathTables::build(&g, &cfg);
        assert!(relaxed_search_pb(
            &g,
            &tables,
            RelaxedPattern::ParallelTwoHopChains { min_branches: 1 }
        )
        .is_none());
        assert!(relaxed_search_pb(
            &g,
            &tables,
            RelaxedPattern::ParallelTwoHopCycles { min_branches: 1 }
        )
        .is_some());
        // Unbuilt cycle tables must disable RP2/RP3 the same way when the
        // graph does contain such cycles (regression: these used to return
        // Some(empty) and silently claim "no instances").
        let no_cycles = PathTables::build(
            &g,
            &TablesConfig {
                build_l2: false,
                build_l3: false,
                ..TablesConfig::default()
            },
        );
        assert!(relaxed_search_pb(
            &g,
            &no_cycles,
            RelaxedPattern::ParallelTwoHopCycles { min_branches: 1 }
        )
        .is_none());
        assert!(relaxed_search_pb(
            &g,
            &no_cycles,
            RelaxedPattern::ParallelThreeHopCycles { min_branches: 1 }
        )
        .is_none());
        // RP1 still works from the chain table alone.
        assert!(relaxed_search_pb(
            &g,
            &no_cycles,
            RelaxedPattern::ParallelTwoHopChains { min_branches: 1 }
        )
        .is_some());
    }

    #[test]
    fn names_and_display() {
        assert_eq!(
            RelaxedPattern::ParallelTwoHopChains { min_branches: 1 }.name(),
            "RP1"
        );
        assert_eq!(
            RelaxedPattern::ParallelTwoHopCycles { min_branches: 1 }.to_string(),
            "RP2"
        );
        assert_eq!(
            RelaxedPattern::ParallelThreeHopCycles { min_branches: 1 }.name(),
            "RP3"
        );
    }
}
