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
use congest_engine::WireEncode;
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
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn decomp_message_encodings_are_injective(wide in 0u32..2, ta in 0u32..2, tb in 0u32..2,
                                              c0 in 0u64..=u64::MAX, c1 in 0u64..=u64::MAX,
                                              q0 in 0u64..=u64::MAX, q1 in 0u64..=u64::MAX,
                                              d0 in 0u64..=u64::MAX, d1 in 0u64..=u64::MAX) {
        // Two values of both decomposition message types, with every field
        // drawn from the same width.
        let wide = wide == 1;
        let f = |raw| field(raw, wide) as u32;
        let (c0, c1, q0, q1, d0, d1) = (f(c0), f(c1), f(q0), f(q1), f(d0), f(d1));
        encodes_injectively(
            CoverMsg { center: c0, qfrac: q0, dist: d0 },
            CoverMsg { center: c1, qfrac: q1, dist: d1 },
        )?;
        let mpx = |tag, center, qfrac, dist| {
            if tag == 0 {
                MpxMsg::Claim { center, qfrac, dist }
            } else {
                MpxMsg::Announce { center }
            }
        };
        encodes_injectively(mpx(ta, c0, q0, d0), mpx(tb, c1, q1, d1))?;
    }
}

/// `raw` as drawn when `wide`, else with each 32-bit half cut to `0..3`, so
/// that equal values, and values equal in one half only, are common.
fn field(raw: u64, wide: bool) -> u64 {
    if wide {
        raw
    } else {
        (((raw >> 32) % 3) << 32) | ((raw & 0xffff_ffff) % 3)
    }
}

/// `a == b` exactly when their lanes are equal: a recorded trace tells every
/// two distinct messages apart, and only those.
fn encodes_injectively<T: WireEncode>(a: T, b: T) -> Result<(), TestCaseError> {
    let lanes = |v: &T| {
        let mut out = vec![0u32; T::LANES];
        v.encode(&mut out);
        out
    };
    prop_assert_eq!(a == b, lanes(&a) == lanes(&b), "{:?} vs {:?}", a, b);
    Ok(())
}
