//! `subgraph-flow`: the analyst's ad-hoc path of Tables 6–8 — cold exact
//! maximum-flow solves (`maximum_flow`, the paper's PreSim) on every seed
//! subgraph the three generators yield. No ingest, journal, tables or
//! sessions.
//!
//! Untraced, an operation is one `maximum_flow` call. Traced, the same
//! pipeline is called stage by stage through the crate's public functions
//! (`is_greedy_soluble`, `greedy_flow`, `preprocess`, `simplify`,
//! `netflow_max_flow`, in PreSim order) so each stage gets its own span; the
//! first pass checks that the staged value equals `maximum_flow`'s. Between
//! operations the traced run also times a plain `netflow_max_flow` on the
//! whole subgraph, the baseline PreSim's reductions have to beat.

use crate::measured::{Budget, Counts, Measured};
use crate::trace::{Call, Tracer};
use crate::{alloc, input, live::close};
use std::time::Instant;
use tin_datasets::{extract_seed_subgraphs, DatasetKind, ExtractConfig, SeedSubgraph};
use tin_flow::{
    compute_flow, greedy_flow, is_greedy_soluble, maximum_flow, netflow_max_flow, preprocess,
    simplify, FlowError, FlowMethod,
};
use tin_graph::{topological_order, GraphError};

/// The paper's extraction: 3-hop cycles through the seed, at most 10,000
/// interactions per subgraph, every seed.
const EXTRACT: ExtractConfig = ExtractConfig {
    max_hops: 3,
    max_interactions: 10_000,
    min_interactions: 4,
    max_subgraphs: 0,
};

pub struct SubgraphInput {
    subgraphs: Vec<SeedSubgraph>,
}

impl SubgraphInput {
    pub fn len(&self) -> usize {
        self.subgraphs.len()
    }
}

/// Generates `sets` independent instances of the three datasets at `scale`
/// and extracts every seed subgraph of each.
pub fn setup(scale: f64, sets: usize, seed: u64) -> SubgraphInput {
    let subgraphs = (0..sets)
        .flat_map(|i| DatasetKind::ALL.map(|kind| (kind, input::sub_seed(seed, i))))
        .flat_map(|(kind, seed)| {
            extract_seed_subgraphs(&input::generate(kind, scale, seed), &EXTRACT)
        })
        .collect();
    SubgraphInput { subgraphs }
}

/// Solves every subgraph, pass after pass, within `budget`.
pub fn measure(input: &SubgraphInput, budget: &Budget, tracer: &mut Tracer) -> Measured {
    let mut m = Measured::start();
    'passes: while m.another_pass(budget) {
        let first = m.passes == 0;
        let mut c = PassCounts::default();
        for (i, sub) in input.subgraphs.iter().enumerate() {
            if tracer.full() {
                break 'passes;
            }
            if first {
                m.begin_unit();
            }
            let op_start = Instant::now();
            tracer.begin_op(i as u32);
            let solved = if tracer.enabled() {
                staged_presim(sub, tracer, &mut c)
            } else {
                maximum_flow(&sub.graph, sub.source, sub.sink).map(|r| r.flow)
            };
            tracer.end_op();
            m.sample(op_start, solved.is_ok());
            if first {
                m.end_unit();
            }
            if tracer.enabled() {
                let (g, s, t) = (&sub.graph, sub.source, sub.sink);
                let _ = tracer.time(Call::NetflowWhole, || netflow_max_flow(g, s, t));
            }
            if first {
                alloc::excluded(|| check(&mut m, sub, solved));
            }
        }
        if first {
            c.finish(&mut m.counts, input);
        }
        m.end_pass();
    }
    m
}

/// The oracle of the first pass: PreSim, the plain LP and the time-expanded
/// Dinic agree within 1e-6 relative.
fn check(m: &mut Measured, sub: &SeedSubgraph, solved: Result<f64, FlowError>) {
    let Ok(value) = solved else { return };
    for method in [FlowMethod::PreSim, FlowMethod::Lp, FlowMethod::TimeExpanded] {
        match compute_flow(&sub.graph, sub.source, sub.sink, method) {
            Ok(r) if close(r.flow, value) => {}
            Ok(r) => m.mismatch(format!(
                "subgraph of seed {:?}: {method} gives {} but the measured solve gave {value}",
                sub.seed, r.flow
            )),
            Err(e) => m.mismatch(format!(
                "subgraph of seed {:?}: {method} failed: {e}",
                sub.seed
            )),
        }
    }
}

/// `maximum_flow`'s pipeline, one span per stage.
fn staged_presim(
    sub: &SeedSubgraph,
    tracer: &mut Tracer,
    c: &mut PassCounts,
) -> Result<f64, FlowError> {
    let (g, s, t) = (&sub.graph, sub.source, sub.sink);
    c.interactions += g.interaction_count() as u64;
    tracer
        .time(Call::TopoOrder, || topological_order(g))
        .map_err(|_| FlowError::Graph(GraphError::NotADag))?;
    if tracer.time(Call::Solubility, || is_greedy_soluble(g, s, t)) {
        c.class_a += 1;
        return Ok(tracer.time(Call::Greedy, || greedy_flow(g, s, t)).flow);
    }
    let pre = tracer.time(Call::Preprocess, || preprocess(g, s, t))?;
    c.preprocess_removed += pre.report.interactions_removed as u64;
    let (Some(ps), Some(pt)) = (pre.source, pre.sink) else {
        c.class_b += 1;
        return Ok(0.0);
    };
    if pre.is_zero_flow() {
        c.class_b += 1;
        return Ok(0.0);
    }
    let pg = &pre.graph;
    if tracer.time(Call::Solubility, || is_greedy_soluble(pg, ps, pt)) {
        c.class_b += 1;
        return Ok(tracer.time(Call::Greedy, || greedy_flow(pg, ps, pt)).flow);
    }
    c.class_c += 1;
    let sim = tracer.time(Call::Simplify, || simplify(pg, ps, pt));
    c.simplify_removed += (sim.report.interactions_before - sim.report.interactions_after) as u64;
    let (sg, ss, st) = (&sim.graph, sim.source, sim.sink);
    if tracer.time(Call::Solubility, || is_greedy_soluble(sg, ss, st)) {
        return Ok(tracer.time(Call::Greedy, || greedy_flow(sg, ss, st)).flow);
    }
    let lp = tracer.time(Call::Netflow, || netflow_max_flow(sg, ss, st))?;
    c.lp_solves += 1;
    c.lp_pivots += lp.pivots as u64;
    Ok(lp.flow)
}

/// Per-layer work counts of one pass (filled by the staged pipeline only).
#[derive(Default)]
struct PassCounts {
    interactions: u64,
    class_a: u64,
    class_b: u64,
    class_c: u64,
    preprocess_removed: u64,
    simplify_removed: u64,
    lp_solves: u64,
    lp_pivots: u64,
}

impl PassCounts {
    fn finish(self, counts: &mut Counts, input: &SubgraphInput) {
        counts.set("flow.subgraphs", input.len() as f64);
        counts.set("flow.interactions", self.interactions as f64);
        counts.set("flow.class_a", self.class_a as f64);
        counts.set("flow.class_b", self.class_b as f64);
        counts.set("flow.class_c", self.class_c as f64);
        counts.set("flow.preprocess_removed", self.preprocess_removed as f64);
        counts.set("flow.simplify_removed", self.simplify_removed as f64);
        counts.set("lp.netflow_solves", self.lp_solves as f64);
        counts.set("lp.pivots", self.lp_pivots as f64);
    }
}
