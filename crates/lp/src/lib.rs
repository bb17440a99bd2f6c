//! # tin-lp
//!
//! A small, dependency-free linear programming solver used as the LP
//! substrate for maximum flow computation in temporal interaction networks.
//!
//! The paper solves its maximum-flow formulation with the `lpsolve` C
//! library; this crate provides an equivalent exact solver implemented from
//! scratch. Three interchangeable engines share one problem representation
//! (see [`SimplexEngine`]):
//!
//! * [`netflow`] — a **network simplex** over min-cost-flow structure
//!   ([`netflow::MinCostFlowProblem`]): the basis is an explicit spanning
//!   tree (parent/depth arrays plus a child/sibling thread), pivots walk
//!   one cycle in O(tree depth), strongly feasible trees prevent cycling,
//!   and pricing scans blocks of `⌊√(m+n)⌋` arcs. This is what the class C
//!   flow hot path runs on, and [`NetflowSession`] keeps one such engine
//!   resident across the batches of a live flow session, repairing its
//!   tree after each patch instead of solving again from scratch;
//! * [`simplex`] — the general-LP default, a **sparse revised simplex**:
//!   the constraint matrix lives in a compressed-sparse-column store
//!   ([`sparse::CscMatrix`]), the basis inverse in a product-form eta file
//!   ([`sparse::EtaFile`]) with periodic refactorization, pricing is
//!   Dantzig's rule over a partial-pricing section scan, and variable upper
//!   bounds are handled natively by the bounded ratio test (no row per
//!   bound);
//! * [`dense`] — the original **dense two-phase tableau** (Dantzig pricing,
//!   Bland's-rule anti-cycling fallback), kept as an independent
//!   implementation for property-based cross-checking and as a baseline the
//!   benches compare against.
//!
//! The flow LP's constraint matrix is extremely sparse — each interaction
//! variable appears in a handful of balance rows — which is exactly the
//! regime where the revised method wins: per-iteration work tracks the
//! nonzero count instead of `rows × cols`.
//!
//! ## Example
//!
//! Maximize `3x + 2y` subject to `x + y ≤ 4`, `x ≤ 2`, `y ≤ 3` (the bounds
//! are variable bounds, not constraint rows):
//!
//! ```
//! use tin_lp::{LpProblem, LpStatus};
//!
//! let mut p = LpProblem::new(2);
//! p.set_objective_coefficient(0, 3.0);
//! p.set_objective_coefficient(1, 2.0);
//! p.add_le_constraint(&[(0, 1.0), (1, 1.0)], 4.0);
//! p.set_upper_bound(0, 2.0);
//! p.set_upper_bound(1, 3.0);
//! let sol = p.solve();
//! assert_eq!(sol.status, LpStatus::Optimal);
//! assert!((sol.objective - 10.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dense;
pub mod netflow;
pub mod problem;
pub mod simplex;
pub mod solution;
pub mod sparse;

pub use netflow::{McfArc, McfSolution, MinCostFlowProblem, NetflowSession};
pub use problem::{ConstraintOp, LpProblem, Sense, SimplexEngine};
pub use solution::{LpSolution, LpStatus};
