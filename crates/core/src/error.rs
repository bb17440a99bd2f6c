//! Error type for flow computation.

use tin_graph::{GraphError, NodeId};
use tin_lp::LpStatus;

/// Errors produced by the flow computation pipelines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowError {
    /// The underlying graph is invalid for flow computation (not a DAG,
    /// missing endpoints, ...).
    Graph(GraphError),
    /// The designated source and sink are the same vertex.
    SourceEqualsSink(NodeId),
    /// A designated endpoint does not exist in the graph.
    NodeOutOfRange(NodeId),
    /// The LP solver did not prove optimality: the program is unbounded,
    /// or the solver hit its iteration limit or a numerically singular
    /// basis (should not happen for the well-formed programs produced by
    /// the flow formulation).
    LpFailed(LpStatus),
    /// A [`crate::FlowSession`] was requested with a non-exact method; only
    /// exact solvers maintain the simplex basis the session reuses.
    SessionRequiresExact,
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::Graph(e) => write!(f, "invalid flow graph: {e}"),
            FlowError::SourceEqualsSink(v) => {
                write!(f, "source and sink must differ (both are {v})")
            }
            FlowError::NodeOutOfRange(v) => write!(f, "endpoint {v} does not exist in the graph"),
            FlowError::LpFailed(status) => {
                write!(f, "LP solver did not reach optimality: {status:?}")
            }
            FlowError::SessionRequiresExact => {
                write!(
                    f,
                    "flow sessions require an exact method (LP or MCF, not greedy)"
                )
            }
        }
    }
}

impl std::error::Error for FlowError {}

impl From<GraphError> for FlowError {
    fn from(e: GraphError) -> Self {
        FlowError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(FlowError::Graph(GraphError::NotADag)
            .to_string()
            .contains("acyclic"));
        assert!(FlowError::SourceEqualsSink(NodeId(1))
            .to_string()
            .contains("n1"));
        assert!(FlowError::NodeOutOfRange(NodeId(9))
            .to_string()
            .contains("n9"));
        assert!(FlowError::LpFailed(LpStatus::NumericalFailure)
            .to_string()
            .contains("NumericalFailure"));
    }

    #[test]
    fn graph_error_converts() {
        let e: FlowError = GraphError::NotADag.into();
        assert_eq!(e, FlowError::Graph(GraphError::NotADag));
    }
}
