//! The executor-configuration matrices the suites sweep. Previously these
//! lived in `tests/common/mod.rs`; they are part of the registry crate so the
//! root test suites and downstream consumers sweep the *same* configurations
//! and cannot drift apart.

use congest_engine::{DeliveryBackend, ExecutorConfig, MessagePlane};

/// The thread-count matrix of `tests/parallel_determinism.rs`: the chunked
/// backend at 2/4/8 workers, pinned against the sequential baseline.
pub fn thread_matrix() -> Vec<(String, ExecutorConfig)> {
    [2, 4, 8]
        .into_iter()
        .map(|t| {
            (
                format!("chunked/{t}-threads"),
                ExecutorConfig::with_threads(t),
            )
        })
        .collect()
}

/// The delivery-backend matrix of `tests/backend_conformance.rs`: every
/// chunked thread count and every sharded shard count (with matching worker
/// counts), plus a single-threaded sharded layout and the cost-model
/// [`DeliveryBackend::Auto`] backend at every thread count — all pinned
/// against the sequential baseline.
pub fn backend_matrix() -> Vec<(String, ExecutorConfig)> {
    let mut cfgs = vec![(
        "sequential/explicit".to_string(),
        ExecutorConfig::sequential(),
    )];
    for t in [1usize, 2, 4, 8] {
        cfgs.push((format!("chunked/{t}"), ExecutorConfig::with_threads(t)));
    }
    for s in [1usize, 2, 4, 8] {
        cfgs.push((format!("sharded/{s}"), ExecutorConfig::sharded(s)));
        cfgs.push((
            format!("sharded/{s}-1thread"),
            ExecutorConfig::with_threads(1).with_backend(DeliveryBackend::Sharded { shards: s }),
        ));
    }
    for t in [1usize, 2, 4, 8] {
        cfgs.push((format!("auto/{t}"), ExecutorConfig::auto(t)));
    }
    cfgs
}

/// The message-plane conformance matrix of `tests/plane_conformance.rs`:
/// every [`backend_matrix`] configuration crossed with both message planes.
/// The boxed plane is the semantic reference; the flat plane must reproduce
/// its outcome (outputs *and* exact [`congest_engine::Metrics`]) on every
/// cell.
pub fn plane_matrix() -> Vec<(String, ExecutorConfig)> {
    let planes = [("boxed", MessagePlane::Boxed), ("flat", MessagePlane::Flat)];
    backend_matrix()
        .into_iter()
        .flat_map(|(label, cfg)| {
            planes
                .into_iter()
                .map(move |(pl, plane)| (format!("{label}/{pl}"), cfg.clone().with_plane(plane)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrices_are_labelled_uniquely() {
        for matrix in [thread_matrix(), backend_matrix()] {
            let mut labels: Vec<&str> = matrix.iter().map(|(l, _)| l.as_str()).collect();
            labels.sort_unstable();
            labels.dedup();
            assert_eq!(labels.len(), matrix.len());
        }
    }

    #[test]
    fn plane_matrix_doubles_the_backend_matrix() {
        let planes = plane_matrix();
        let backends = backend_matrix();
        assert_eq!(planes.len(), 2 * backends.len());
        // Every backend configuration appears once per plane, and the boxed
        // half is exactly the backend matrix with the default plane.
        for (label, cfg) in &backends {
            let boxed = planes
                .iter()
                .find(|(l, _)| l == &format!("{label}/boxed"))
                .expect("boxed cell");
            let flat = planes
                .iter()
                .find(|(l, _)| l == &format!("{label}/flat"))
                .expect("flat cell");
            assert_eq!(&boxed.1, cfg);
            assert_eq!(boxed.1.message_plane, MessagePlane::Boxed);
            assert_eq!(flat.1.message_plane, MessagePlane::Flat);
            assert_eq!(flat.1.backend, cfg.backend);
            assert_eq!(flat.1.threads, cfg.threads);
        }
    }

    #[test]
    fn backend_matrix_covers_all_backends() {
        let m = backend_matrix();
        assert!(m
            .iter()
            .any(|(_, c)| c.backend == DeliveryBackend::Sequential));
        assert!(m.iter().any(|(_, c)| c.backend == DeliveryBackend::Chunked));
        assert!(m
            .iter()
            .any(|(_, c)| matches!(c.backend, DeliveryBackend::Sharded { .. })));
        assert!(m.iter().any(|(_, c)| c.backend == DeliveryBackend::Auto));
    }

    #[test]
    fn auto_cells_cover_every_thread_count() {
        let m = backend_matrix();
        for t in [1usize, 2, 4, 8] {
            let (_, cfg) = m
                .iter()
                .find(|(l, _)| l == &format!("auto/{t}"))
                .expect("auto cell");
            assert_eq!(cfg.backend, DeliveryBackend::Auto);
            assert_eq!(cfg.threads, t);
        }
    }
}
