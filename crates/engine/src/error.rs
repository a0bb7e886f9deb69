//! Engine error types.

use std::fmt;

/// Errors produced by the execution engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// A run did not quiesce within its round limit — either the limit was too small or
    /// the algorithm diverged.
    RoundLimitExceeded {
        /// Name of the offending algorithm.
        algorithm: &'static str,
        /// The limit that was hit.
        limit: usize,
    },
    /// A routing task referenced a path that is not a walk in the graph.
    InvalidPath {
        /// Index of the offending task.
        task: usize,
    },
    /// A routed batch has more tasks, task hops or words — or the graph a router
    /// is made for more directed edges — than the router's `u32` index columns
    /// can address.
    BatchTooLarge {
        /// Which count overflowed (`"tasks"`, `"task hops"`, `"words"` or
        /// `"directed edges"`).
        what: &'static str,
    },
    /// A forest description was not actually a forest (cycle or non-edge parent link).
    InvalidForest {
        /// Explanation.
        reason: String,
    },
    /// An operation sent more messages than its per-call budget allowed.
    BudgetExceeded {
        /// Name of the budgeted operation (e.g. `"ghs-mst"`).
        op: &'static str,
        /// Messages the operation actually needed.
        used: u64,
        /// The budget it was given.
        budget: u64,
    },
    /// A run was given a [`crate::FaultPlan`] that fails
    /// [`validate`](crate::FaultPlan::validate) against its graph.
    InvalidFaultPlan {
        /// The first structural violation found.
        reason: String,
    },
    /// An entry point was called with a parameter outside its domain (a trade-off
    /// `ε` out of range or NaN, a hierarchy too deep for the star simulation).
    InvalidParameter {
        /// The parameter (e.g. `"epsilon"`).
        what: &'static str,
        /// What was required and what was given.
        reason: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::RoundLimitExceeded { algorithm, limit } => {
                write!(
                    f,
                    "algorithm '{algorithm}' exceeded the round limit of {limit}"
                )
            }
            EngineError::InvalidPath { task } => {
                write!(
                    f,
                    "routing task {task} has a path that is not a walk in the graph"
                )
            }
            EngineError::BatchTooLarge { what } => {
                write!(f, "routed batch has too many {what} for the router")
            }
            EngineError::InvalidForest { reason } => write!(f, "invalid forest: {reason}"),
            EngineError::BudgetExceeded { op, used, budget } => {
                write!(f, "{op} exceeded its message budget: {used} > {budget}")
            }
            EngineError::InvalidFaultPlan { reason } => write!(f, "invalid FaultPlan: {reason}"),
            EngineError::InvalidParameter { what, reason } => {
                write!(f, "invalid parameter {what}: {reason}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = EngineError::RoundLimitExceeded {
            algorithm: "x",
            limit: 5,
        };
        assert!(e.to_string().contains("round limit"));
        assert!(EngineError::InvalidPath { task: 3 }
            .to_string()
            .contains("task 3"));
        assert!(EngineError::InvalidForest {
            reason: "cycle".into()
        }
        .to_string()
        .contains("cycle"));
        assert!(EngineError::BudgetExceeded {
            op: "upcast",
            used: 10,
            budget: 4
        }
        .to_string()
        .contains("10 > 4"));
        assert!(EngineError::InvalidFaultPlan {
            reason: "recover before crash".into()
        }
        .to_string()
        .contains("recover before crash"));
        assert!(EngineError::InvalidParameter {
            what: "epsilon",
            reason: "must be in [0, 1], got 1.5".into()
        }
        .to_string()
        .contains("epsilon: must be in [0, 1], got 1.5"));
    }
}
