//! # temporal-flow
//!
//! Facade crate for the *Flow Computation in Temporal Interaction Networks*
//! workspace (reproduction of Kosyfaki et al., ICDE 2021).
//!
//! The heavy lifting lives in the member crates; this crate simply re-exports
//! them under stable names and offers a small [`prelude`]:
//!
//! * [`graph`] ([`tin_graph`]) — the temporal interaction network data model;
//! * [`lp`] ([`tin_lp`]) — the exact solvers: the network simplex that
//!   solves the flow circulations (kept resident across batches by
//!   [`lp::NetflowSession`]) and the sparse revised simplex for the
//!   Section 4.2.1 LP (a dense tableau stays as its test reference);
//! * [`maxflow`] ([`tin_maxflow`]) — static max-flow algorithms and the
//!   time-expanded reduction;
//! * [`flow`] ([`tin_flow`]) — greedy and maximum flow computation,
//!   preprocessing, simplification and the `Greedy`/`LP`/`Pre`/`PreSim`
//!   pipelines;
//! * [`patterns`] ([`tin_patterns`]) — flow pattern enumeration (graph
//!   browsing and precomputation-based);
//! * [`datasets`] ([`tin_datasets`]) — synthetic dataset generators and
//!   subgraph extraction.
//!
//! ## Quick start
//!
//! ```
//! use temporal_flow::prelude::*;
//!
//! // The toy network of Figure 1(a) of the paper.
//! let mut b = GraphBuilder::new();
//! let s = b.add_node("s");
//! let x = b.add_node("x");
//! let y = b.add_node("y");
//! let z = b.add_node("z");
//! let t = b.add_node("t");
//! b.add_pairs(s, x, &[(1, 3.0), (7, 5.0)]).unwrap();
//! b.add_pairs(s, y, &[(2, 6.0)]).unwrap();
//! b.add_pairs(x, z, &[(5, 5.0)]).unwrap();
//! b.add_pairs(y, z, &[(8, 5.0)]).unwrap();
//! b.add_pairs(y, t, &[(9, 4.0)]).unwrap();
//! b.add_pairs(z, t, &[(2, 3.0), (10, 1.0)]).unwrap();
//! let g = b.build();
//!
//! let greedy = greedy_flow(&g, s, t).flow;
//! let max = compute_flow(&g, s, t, FlowMethod::PreSim).unwrap().flow;
//! assert!(greedy <= max);
//! assert_eq!(max, 5.0);
//! ```

#![forbid(unsafe_code)]

pub use tin_datasets as datasets;
pub use tin_flow as flow;
pub use tin_graph as graph;
pub use tin_lp as lp;
pub use tin_maxflow as maxflow;
pub use tin_patterns as patterns;

/// The most frequently used items across the workspace.
pub mod prelude {
    pub use tin_datasets::{BitcoinConfig, Ctu13Config, DatasetKind, ProsperConfig};
    pub use tin_flow::{
        compute_flow, greedy_flow, is_greedy_soluble, maximum_flow, preprocess, simplify,
        FlowMethod, FlowResult, FlowSession, SessionSolve, SessionStats,
    };
    pub use tin_graph::prelude::*;
    pub use tin_patterns::{Pattern, PatternCatalogue, PatternSearchResult};
}
