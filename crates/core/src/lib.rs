//! # tin-flow
//!
//! Flow computation in temporal interaction networks — the primary
//! contribution of *"Flow Computation in Temporal Interaction Networks"*
//! (Kosyfaki et al., ICDE 2021), reproduced in full:
//!
//! * [`greedy`] — the greedy flow model (Definitions 4 and 5): a single
//!   chronological scan of all interactions, each forwarding as much as the
//!   source vertex has buffered;
//! * [`solubility`] — the Lemma 2 test identifying graphs on which the
//!   greedy scan already yields the *maximum* flow;
//! * [`mod@preprocess`] — Algorithm 1: removal of interactions, edges and
//!   vertices that provably cannot contribute to the maximum flow;
//! * [`mod@simplify`] — Algorithm 2 / Lemma 3: contraction of chains rooted at
//!   the source into single edges (with parallel-edge merging), shrinking
//!   the LP;
//! * [`lp_formulation`] — the Section 4.2.1 linear program (one variable per
//!   non-source interaction), plus a direct graph → min-cost-flow emitter
//!   that feeds the network simplex without assembling the LP, and
//!   [`SimplexEngine`], the switch between those two exact engines;
//! * [`solver`] — the evaluated pipelines `Greedy`, `LP`, `Pre`, `PreSim`
//!   plus a time-expanded max-flow oracle, with per-run statistics and the
//!   class A/B/C difficulty classification used in the paper's tables;
//! * [`chain`] — the allocation-free chain-propagation kernel backing the
//!   PB path-table precomputation (Section 5.2).
//!
//! ## Example
//!
//! ```
//! use tin_graph::GraphBuilder;
//! use tin_flow::{compute_flow, greedy_flow, FlowMethod};
//!
//! // Figure 3 of the paper: greedy transfers only 1 unit, the maximum is 5.
//! let mut b = GraphBuilder::new();
//! let s = b.add_node("s");
//! let y = b.add_node("y");
//! let z = b.add_node("z");
//! let t = b.add_node("t");
//! b.add_pairs(s, y, &[(1, 5.0)]).unwrap();
//! b.add_pairs(s, z, &[(2, 3.0)]).unwrap();
//! b.add_pairs(y, z, &[(3, 5.0)]).unwrap();
//! b.add_pairs(y, t, &[(4, 4.0)]).unwrap();
//! b.add_pairs(z, t, &[(5, 1.0)]).unwrap();
//! let g = b.build();
//!
//! assert_eq!(greedy_flow(&g, s, t).flow, 1.0);
//! assert_eq!(compute_flow(&g, s, t, FlowMethod::PreSim).unwrap().flow, 5.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod error;
pub mod flow_session;
pub mod greedy;
pub mod lp_formulation;
pub mod preprocess;
mod reduce;
pub mod simplify;
pub mod solubility;
pub mod solver;

pub use chain::{chain_propagate, ChainScratch};
pub use error::FlowError;
pub use flow_session::{FlowSession, SessionSolve, SessionStats};
pub use greedy::{
    greedy_flow, greedy_flow_traced, greedy_flow_with, GreedyResult, GreedyScratch, TransferStep,
};
pub use lp_formulation::{
    build_lp, build_mcf, build_mcf_session, lp_max_flow, max_flow_with_engine, netflow_max_flow,
    LpFormulation, LpOutcome, McfFormulation, McfPatch, SimplexEngine,
};
pub use preprocess::{preprocess, PreprocessOutcome, PreprocessReport};
pub use simplify::{simplify, SimplifyOutcome, SimplifyReport};
pub use solubility::is_greedy_soluble;
pub use solver::{
    compute_flow, compute_flow_with_engine, maximum_flow, DifficultyClass, FlowMethod, FlowResult,
    SolveStats,
};
