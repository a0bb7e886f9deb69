//! The executor-configuration matrix the suites sweep. It is part of the
//! registry crate so the root test suites and downstream consumers sweep the
//! *same* configurations and cannot drift apart.

use congest_engine::ExecutorConfig;

/// The thread-count matrix of the determinism, fault and serve suites: 2/4/8
/// workers, each pinned against the one-thread baseline.
pub fn thread_matrix() -> Vec<(String, ExecutorConfig)> {
    [2, 4, 8]
        .into_iter()
        .map(|t| (format!("{t}-threads"), ExecutorConfig::with_threads(t)))
        .collect()
}
