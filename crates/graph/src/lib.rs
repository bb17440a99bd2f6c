//! # tin-graph
//!
//! Data model for *temporal interaction networks*: directed graphs whose
//! edges carry time-ordered sequences of interactions `(t, q)` — at time `t`
//! a quantity `q` (money, bytes, messages, ...) is transferred from the
//! edge's source vertex to its destination vertex.
//!
//! This crate is the substrate shared by every other crate in the workspace:
//!
//! * [`TemporalGraph`] — the query-friendly network representation
//!   (node/edge tables plus in/out adjacency), and the one graph every
//!   consumer reads; it grows, and evicts behind a sliding-window frontier,
//!   through [`TemporalGraph::apply`];
//! * [`GraphBuilder`] — incremental construction, merging parallel edges and
//!   keeping interaction sequences sorted;
//! * [`delta`] — validated batches ([`GraphDelta`]: appends plus an optional
//!   expiry frontier) and their application, the streaming seam shared by
//!   full builds and live feeds;
//! * [`events`] — a global, time-ordered view of all interactions (the order
//!   in which the greedy flow algorithm replays them);
//! * [`topo`] — topological ordering and DAG validation;
//! * [`dag`] — source/sink discovery and the synthetic source/sink
//!   augmentation of Figure 4 of the paper;
//! * [`view`] — subgraph extraction;
//! * [`io`] — (de)serialization in JSON and a compact text interchange format.
//!
//! ## Example
//!
//! The toy network of Figure 3 of the paper (source `s`, sink `t`):
//!
//! ```
//! use tin_graph::{GraphBuilder, Interaction, TemporalGraph};
//!
//! let mut b = GraphBuilder::new();
//! let s = b.add_node("s");
//! let y = b.add_node("y");
//! let z = b.add_node("z");
//! let t = b.add_node("t");
//! b.add_interaction(s, y, Interaction::new(1, 5.0)).unwrap();
//! b.add_interaction(s, z, Interaction::new(2, 3.0)).unwrap();
//! b.add_interaction(y, z, Interaction::new(3, 5.0)).unwrap();
//! b.add_interaction(y, t, Interaction::new(4, 4.0)).unwrap();
//! b.add_interaction(z, t, Interaction::new(5, 1.0)).unwrap();
//! let g: TemporalGraph = b.build();
//!
//! assert_eq!(g.node_count(), 4);
//! assert_eq!(g.edge_count(), 5);
//! assert_eq!(g.interaction_count(), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod dag;
pub mod delta;
pub mod error;
pub mod events;
pub mod graph;
pub mod ids;
pub mod interaction;
pub mod io;
pub mod topo;
pub mod view;

pub use builder::GraphBuilder;
pub use dag::{augment_with_synthetic_endpoints, sinks, sources, AugmentedGraph, EndpointInfo};
pub use delta::{AppliedDelta, GraphDelta};
pub use error::{GraphError, ValidateError};
pub use events::{EventRef, Events};
pub use graph::{Edge, Node, TemporalGraph};
pub use ids::{EdgeId, NodeId, Quantity, Time};
pub use interaction::{Interaction, INFINITE_QUANTITY_TOKEN};
pub use io::{ParseMode, StreamingParser};
pub use topo::{is_dag, topological_order, TopoError};
pub use view::{edge_induced_subgraph, induced_subgraph, SubgraphSpec};

/// Convenience prelude re-exporting the most frequently used items.
pub mod prelude {
    pub use crate::builder::GraphBuilder;
    pub use crate::graph::{Edge, Node, TemporalGraph};
    pub use crate::ids::{EdgeId, NodeId, Quantity, Time};
    pub use crate::interaction::Interaction;
}
