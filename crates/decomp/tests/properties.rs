//! Property-based tests for the decompositions: the validators (Definition 2.3,
//! Theorem 3.3, Corollary 3.5, spanner stretch) must pass for arbitrary graphs,
//! parameters, and seeds.

use congest_decomp::baswana_sen::validate_hierarchy;
use congest_decomp::cover::CoverMsg;
use congest_decomp::ldc::{build_ldc, validate_ldc};
use congest_decomp::mpx::MpxMsg;
use congest_decomp::pruning::{max_proper_subtree, prune};
use congest_decomp::spanner::measured_stretch;
use congest_decomp::Hierarchy;
use congest_engine::WireDecode;
use congest_graph::generators;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn ldc_valid_on_arbitrary_graphs(seed in 0u64..300, n in 12usize..48) {
        let g = generators::gnp_connected(n, 0.15, seed);
        let ldc = build_ldc(&g, seed).unwrap();
        let lnn = (n as f64).ln();
        prop_assert!(validate_ldc(&g, &ldc, (8.0 * lnn) as u32, (10.0 * lnn) as usize).is_ok());
    }

    #[test]
    fn hierarchy_valid_for_arbitrary_epsilon(seed in 0u64..300, eps_pct in 20usize..100) {
        let eps = eps_pct as f64 / 100.0;
        let g = generators::gnp_connected(24, 0.18, seed % 11);
        let h = Hierarchy::build(&g, eps, seed);
        prop_assert!(validate_hierarchy(&g, &h).is_ok());
    }

    #[test]
    fn pruning_preserves_validity_and_bounds_subtrees(seed in 0u64..200, eps_pct in 25usize..75) {
        let eps = eps_pct as f64 / 100.0;
        let g = generators::gnp_connected(30, 0.15, seed % 9);
        let h = Hierarchy::build(&g, eps, seed);
        let p = prune(&g, &h);
        prop_assert!(validate_hierarchy(&g, &p).is_ok());
        let threshold = ((g.n() as f64).powf(1.0 - eps)).ceil() as usize;
        prop_assert!(max_proper_subtree(&g, &p) < threshold.max(2));
    }

    #[test]
    fn spanner_stretch_bounded(seed in 0u64..100, eps_pct in 25usize..100) {
        let eps = eps_pct as f64 / 100.0;
        let g = generators::gnp_connected(24, 0.25, seed % 7);
        let h = Hierarchy::build(&g, eps, seed);
        let kappa = (1.0 / eps).ceil() as usize;
        let s = measured_stretch(&g, &h, 6, seed);
        prop_assert!(s <= (2 * kappa - 1) as f64 + 1e-9, "stretch {} kappa {}", s, kappa);
    }

    #[test]
    fn dropout_partitions_nodes(seed in 0u64..200) {
        let g = generators::gnp_connected(26, 0.2, seed % 13);
        let h = Hierarchy::build(&g, 0.5, seed);
        // Every node drops exactly once; L-sets partition V.
        let mut count = vec![0usize; g.n()];
        for lvl in &h.levels {
            for &v in &lvl.l_nodes {
                count[v.index()] += 1;
            }
        }
        prop_assert!(count.iter().all(|&c| c == 1));
        for (v, &d) in h.dropout.iter().enumerate() {
            prop_assert!(h.levels[d].l_nodes.contains(&congest_graph::NodeId::new(v)));
        }
    }

    #[test]
    fn decomp_message_codecs_roundtrip(center in 0u32..=u32::MAX, qfrac in 0u32..=u32::MAX, dist in 0u32..=u32::MAX, announce in 0u32..2) {
        // Both decomposition message types survive the flat plane's packed
        // encode→decode identically, with word accounting intact.
        codec_roundtrip(CoverMsg { center, qfrac, dist })?;
        codec_roundtrip(if announce == 0 {
            MpxMsg::Claim { center, qfrac, dist }
        } else {
            MpxMsg::Announce { center }
        })?;
    }
}

/// Encode→decode must be the identity.
fn codec_roundtrip<T: WireDecode + PartialEq + std::fmt::Debug>(v: T) -> Result<(), TestCaseError> {
    let mut lanes = vec![0u32; T::LANES];
    v.encode(&mut lanes);
    let back = T::decode(&lanes);
    prop_assert_eq!(back, v);
    Ok(())
}
