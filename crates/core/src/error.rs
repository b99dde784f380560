//! Error types for TPP problem construction.

use std::fmt;
use tpp_graph::Edge;

/// Errors raised when constructing a [`crate::TppInstance`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TppError {
    /// A declared target link does not exist in the original graph.
    TargetNotInGraph(Edge),
    /// The same target was declared twice.
    DuplicateTarget(Edge),
    /// No targets were declared; TPP is vacuous without targets.
    NoTargets,
    /// A per-target budget vector does not match the target count.
    BudgetArityMismatch {
        /// Number of budgets supplied.
        budgets: usize,
        /// Number of targets in the instance.
        targets: usize,
    },
    /// The graph's upper-edge prefix does not fit its lists, so a sampled
    /// edge rank cannot be mapped to an edge (a trusted snapshot section
    /// that lies).
    BadUpperEdgePrefix(String),
}

impl fmt::Display for TppError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TppError::TargetNotInGraph(e) => {
                write!(f, "target link {e} is not an edge of the original graph")
            }
            TppError::DuplicateTarget(e) => write!(f, "target link {e} declared twice"),
            TppError::NoTargets => write!(f, "the target set is empty"),
            TppError::BudgetArityMismatch { budgets, targets } => write!(
                f,
                "budget vector has {budgets} entries but there are {targets} targets"
            ),
            TppError::BadUpperEdgePrefix(why) => {
                write!(
                    f,
                    "the graph's upper-edge prefix does not fit its edges: {why}"
                )
            }
        }
    }
}

impl std::error::Error for TppError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_all_variants() {
        let e = Edge::new(1, 2);
        assert!(TppError::TargetNotInGraph(e).to_string().contains("1-2"));
        assert!(TppError::DuplicateTarget(e).to_string().contains("twice"));
        assert!(TppError::NoTargets.to_string().contains("empty"));
        assert!(TppError::BudgetArityMismatch {
            budgets: 3,
            targets: 5
        }
        .to_string()
        .contains("3"));
        assert!(TppError::BadUpperEdgePrefix("node 4".into())
            .to_string()
            .contains("upper-edge prefix"));
    }
}
