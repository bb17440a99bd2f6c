//! # tin-patterns
//!
//! Flow pattern enumeration in temporal interaction networks (Section 5 of
//! the paper).
//!
//! A *pattern* is a small labelled DAG; an *instance* maps pattern vertices
//! to graph vertices (same label ⇒ same vertex, different labels ⇒ different
//! vertices) such that every pattern edge exists in the graph. The flow of an
//! instance is the maximum flow from the pattern's source to its sink over
//! the instance's interactions.
//!
//! Two enumeration strategies are provided, mirroring the paper's
//! evaluation:
//!
//! * [`browse`] — **GB**, graph browsing: backtracking expansion of partial
//!   matches directly over the graph's adjacency lists;
//! * [`precomputed`] — **PB**, precomputation-based: path/cycle tables
//!   ([`tables`]) are built once per graph and pattern instances are
//!   assembled by scanning/joining them, reusing precomputed greedy flows
//!   whenever the pattern structure allows it.
//!
//! The pattern catalogue of the evaluation (P1–P6 and the relaxed patterns
//! RP1–RP3) is in [`catalogue`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod browse;
pub mod catalogue;
pub mod enumerate;
pub mod instance;
pub mod pattern;
pub mod precomputed;
pub mod reference;
pub mod relaxed;
pub mod tables;

pub use browse::enumerate_gb;
pub use catalogue::{PatternCatalogue, PatternId};
pub use enumerate::{search_gb, search_pb, PatternSearchResult};
pub use instance::{instance_flow, Instance};
pub use pattern::{Pattern, PatternError};
pub use precomputed::enumerate_pb;
pub use relaxed::{relaxed_search_gb, relaxed_search_pb, RelaxedPattern};
pub use tables::{PathRow, PathTable, PathTableBuilder, PathTables, TablesConfig, TablesUpdate};
