//! # tin-maxflow
//!
//! Static maximum-flow algorithms and the *time-expanded* reduction of a
//! temporal interaction network.
//!
//! Section 4.2.1 of the paper observes that its maximum-flow problem is
//! equivalent to the temporal max-flow problem of Akrida et al., which in
//! turn reduces to a classic max-flow computation on a static network with
//! one vertex copy per (vertex, activity time) pair. This crate provides:
//!
//! * [`FlowNetwork`] — a residual-arc representation of a static capacitated
//!   network;
//! * [`mod@dinic`] — Dinic's blocking-flow algorithm, the fast exact oracle
//!   (its tests hold it to an Edmonds–Karp reference that lives only in the
//!   test module);
//! * [`time_expanded`] — the reduction from a temporal interaction DAG to a
//!   static network, honouring the paper's *strict* precedence rule (an
//!   interaction leaving `v` at time `t` may only use quantity that arrived
//!   at `v` strictly before `t`).
//!
//! The LP solver of `tin-flow` and the Dinic solver built on this reduction
//! compute the same optimum; the property tests of the workspace verify this
//! equivalence on randomized networks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dinic;
pub mod network;
pub mod time_expanded;

pub use dinic::dinic;
pub use network::{ArcId, FlowNetwork};
pub use time_expanded::{time_expanded_max_flow, TimeExpandedNetwork};
