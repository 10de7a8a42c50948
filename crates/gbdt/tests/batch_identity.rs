//! Bit-identity of the tree-major batched inference path against scalar
//! traversal, across every model class the serving path uses.
//!
//! Walking the trees in a different loop order must not change a single
//! prediction: the serving layer routes on exact thresholds
//! (`short_circuit_secs`, confidence bounds), so even 1-ulp drift between
//! `predict` and `predict_batch` would make batch and scalar requests route
//! differently. These property tests
//! fit real models on random datasets (deterministically seeded by the
//! vendored proptest runner) and compare every float by its bit pattern.
//!
//! The kernel edge cases at the end check both paths against a reference
//! walker over the exported flat arrays, which shares no code with the
//! fixed-depth lockstep kernel.

use proptest::prelude::*;
use stage_gbdt::ensemble::{BayesianEnsemble, EnsembleParams};
use stage_gbdt::gbm::{Gbm, GbmParams};
use stage_gbdt::mixed::{MixedEnsemble, MixedEnsembleParams};
use stage_gbdt::ngboost::{NgBoost, NgBoostParams};
use stage_gbdt::{Dataset, Tree};

/// Small-but-real hyper-parameters: enough rounds to grow several trees,
/// subsampling on so member forests actually differ.
fn gbm_params(seed: u64) -> GbmParams {
    GbmParams {
        n_estimators: 20,
        subsample: 0.9,
        seed,
        ..GbmParams::default()
    }
}

fn ngboost_params(seed: u64) -> NgBoostParams {
    NgBoostParams {
        n_estimators: 15,
        seed,
        ..NgBoostParams::default()
    }
}

fn ensemble_params(seed: u64) -> EnsembleParams {
    EnsembleParams {
        n_members: 3,
        member: ngboost_params(0),
        seed,
    }
}

/// Builds a dataset from generated (x0, x1, y) triples.
fn dataset(triples: &[(f64, f64, f64)]) -> Dataset {
    let rows: Vec<Vec<f64>> = triples.iter().map(|t| vec![t.0, t.1]).collect();
    let targets: Vec<f64> = triples.iter().map(|t| t.2).collect();
    Dataset::from_rows(&rows, &targets)
}

fn probe_rows(probes: &[(f64, f64)]) -> Vec<Vec<f64>> {
    probes.iter().map(|p| vec![p.0, p.1]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn gbm_batch_bit_identical(
        triples in proptest::collection::vec(
            (-50.0f64..50.0, -50.0f64..50.0, -20.0f64..20.0), 20..120),
        probes in proptest::collection::vec(
            (-60.0f64..60.0, -60.0f64..60.0), 1..48),
        seed in 0u64..1000,
    ) {
        let data = dataset(&triples);
        let gbm = Gbm::fit(&data, &gbm_params(seed)).expect("non-empty dataset");
        let rows = probe_rows(&probes);
        let batch = gbm.predict_batch(&rows);
        prop_assert_eq!(batch.len(), rows.len());
        for (row, got) in rows.iter().zip(&batch) {
            prop_assert_eq!(gbm.predict(row).to_bits(), got.to_bits());
        }
    }

    #[test]
    fn ngboost_batch_bit_identical(
        triples in proptest::collection::vec(
            (-50.0f64..50.0, -50.0f64..50.0, -20.0f64..20.0), 20..120),
        probes in proptest::collection::vec(
            (-60.0f64..60.0, -60.0f64..60.0), 1..48),
        seed in 0u64..1000,
    ) {
        let data = dataset(&triples);
        let model = NgBoost::fit(&data, &ngboost_params(seed)).expect("non-empty dataset");
        let rows = probe_rows(&probes);
        let batch = model.predict_dist_batch(&rows);
        prop_assert_eq!(batch.len(), rows.len());
        for (row, got) in rows.iter().zip(&batch) {
            let (mu, var) = model.predict_dist(row);
            prop_assert_eq!(mu.to_bits(), got.0.to_bits());
            prop_assert_eq!(var.to_bits(), got.1.to_bits());
        }
    }

    #[test]
    fn bayesian_ensemble_batch_bit_identical(
        triples in proptest::collection::vec(
            (-50.0f64..50.0, -50.0f64..50.0, -20.0f64..20.0), 20..100),
        probes in proptest::collection::vec(
            (-60.0f64..60.0, -60.0f64..60.0), 1..32),
        seed in 0u64..1000,
    ) {
        let data = dataset(&triples);
        let ens = BayesianEnsemble::fit(&data, &ensemble_params(seed)).expect("non-empty dataset");
        let rows = probe_rows(&probes);
        let batch = ens.predict_batch(&rows);
        prop_assert_eq!(batch.len(), rows.len());
        for (row, got) in rows.iter().zip(&batch) {
            let scalar = ens.predict(row);
            prop_assert_eq!(scalar.mean.to_bits(), got.mean.to_bits());
            prop_assert_eq!(
                scalar.model_uncertainty.to_bits(),
                got.model_uncertainty.to_bits()
            );
            prop_assert_eq!(
                scalar.data_uncertainty.to_bits(),
                got.data_uncertainty.to_bits()
            );
        }
    }
}

/// Per-round clamping of the log variance: a hand-built model whose s-head
/// overshoots the range on one side of a split and then swings back, so a
/// batch path that clamped once at the end instead would diverge.
#[test]
fn ngboost_batch_keeps_the_per_round_clamp() {
    let split = |left: f64, right: f64| {
        Tree::from_flat_parts(
            &[0, u32::MAX, u32::MAX],
            &[0.0, left, right],
            &[1, 0, 0],
            &[2, 0, 0],
            &[1.0, 0.0, 0.0],
        )
        .expect("valid tree arrays")
    };
    let model = NgBoost::from_parts(
        0.5,
        0.0,
        1.0,
        (-1.0, 1.0),
        2,
        vec![split(1.0, -1.0), Tree::constant(0.25)],
        vec![split(3.0, -3.0), split(-2.5, 2.5)],
    )
    .expect("heads agree on length");
    let rows: Vec<Vec<f64>> = (0..9).map(|i| vec![i as f64 - 4.0, 0.0]).collect();
    let batch = model.predict_dist_batch(&rows);
    for (row, got) in rows.iter().zip(&batch) {
        let (mu, var) = model.predict_dist(row);
        assert_eq!(mu.to_bits(), got.0.to_bits());
        assert_eq!(var.to_bits(), got.1.to_bits());
    }
    // Clamped per round: 0 → +3 → 1 → −2.5 = −1.5 → −1 on the left side.
    assert_eq!(batch[0].1, (-1.0f64).exp());
}

/// The mixed ensemble composes the two batched paths above; one seeded check
/// of the blend formulas suffices on top of the member-level properties.
#[test]
fn mixed_ensemble_batch_bit_identical() {
    let triples: Vec<(f64, f64, f64)> = (0..150)
        .map(|i| {
            let x0 = (i % 17) as f64 - 8.0;
            let x1 = (i % 5) as f64;
            (x0, x1, 0.7 * x0 + 0.3 * x1 * x1)
        })
        .collect();
    let data = dataset(&triples);
    let params = MixedEnsembleParams {
        bayesian: ensemble_params(11),
        squared: gbm_params(12),
        squared_weight: 0.25,
    };
    let model = MixedEnsemble::fit(&data, &params).expect("non-empty dataset");
    let rows: Vec<Vec<f64>> = (0..40)
        .map(|i| vec![i as f64 - 20.0, (i % 6) as f64])
        .collect();
    let batch = model.predict_batch(&rows);
    assert_eq!(batch.len(), rows.len());
    for (row, got) in rows.iter().zip(&batch) {
        let scalar = model.predict(row);
        assert_eq!(scalar.mean.to_bits(), got.mean.to_bits());
        assert_eq!(
            scalar.model_uncertainty.to_bits(),
            got.model_uncertainty.to_bits()
        );
        assert_eq!(
            scalar.data_uncertainty.to_bits(),
            got.data_uncertainty.to_bits()
        );
    }
}

/// A serde snapshot round trip must restore a model whose batched answers
/// match the original's bit-for-bit.
#[test]
fn batch_identity_survives_serde_round_trip() {
    let triples: Vec<(f64, f64, f64)> = (0..120)
        .map(|i| {
            let x0 = (i % 11) as f64;
            let x1 = (i % 4) as f64 * 2.0;
            (x0, x1, x0 * 1.3 - x1)
        })
        .collect();
    let data = dataset(&triples);
    let ens = BayesianEnsemble::fit(&data, &ensemble_params(5)).expect("non-empty dataset");
    let json = serde_json::to_string(&ens).expect("serialize ensemble");
    let restored: BayesianEnsemble = serde_json::from_str(&json).expect("restore ensemble");
    let rows: Vec<Vec<f64>> = (0..25).map(|i| vec![i as f64, (i % 3) as f64]).collect();
    let original = ens.predict_batch(&rows);
    let rebuilt = restored.predict_batch(&rows);
    for ((row, a), b) in rows.iter().zip(&original).zip(&rebuilt) {
        let scalar = ens.predict(row);
        assert_eq!(scalar.mean.to_bits(), a.mean.to_bits());
        assert_eq!(a.mean.to_bits(), b.mean.to_bits());
        assert_eq!(a.model_uncertainty.to_bits(), b.model_uncertainty.to_bits());
        assert_eq!(a.data_uncertainty.to_bits(), b.data_uncertainty.to_bits());
    }
}

/// Reference leaf lookup over the five exported arrays: follow children
/// until the leaf tag, comparing with `<=` (so NaN goes right).
fn reference_leaf(tree: &Tree, row: &[f64]) -> f64 {
    let (feature, threshold, left, right, _) = tree.to_flat_parts();
    let mut at = 0usize;
    while feature[at] != u32::MAX {
        at = if row[feature[at] as usize] <= threshold[at] {
            left[at]
        } else {
            right[at]
        } as usize;
    }
    threshold[at]
}

/// `NgBoost::predict_dist` spelled out over [`reference_leaf`].
fn reference_dist(model: &NgBoost, row: &[f64]) -> (f64, f64) {
    let (base_mu, base_log_var, lr, (lo, hi), _) = model.scalar_parts();
    let mut mu = base_mu;
    let mut s = base_log_var;
    for (tm, ts) in model.mu_trees().iter().zip(model.var_trees()) {
        mu += lr * reference_leaf(tm, row);
        s = (s + lr * reference_leaf(ts, row)).clamp(lo, hi);
    }
    (mu, s.exp())
}

/// A hand-built right spine: leaves at every depth from 1 to 6, cuts at
/// `0`, `-0`, `±inf` and ordinary values, on two features.
fn unbalanced_tree(weights: [f64; 7]) -> Tree {
    let leaf = u32::MAX;
    Tree::from_flat_parts(
        &[0, leaf, 1, leaf, 0, leaf, 1, leaf, 0, leaf, 1, leaf, leaf],
        &[
            0.0,
            weights[0],
            1.0,
            weights[1],
            f64::INFINITY,
            weights[2],
            -0.0,
            weights[3],
            2.5,
            weights[4],
            f64::NEG_INFINITY,
            weights[5],
            weights[6],
        ],
        &[1, 0, 3, 0, 5, 0, 7, 0, 9, 0, 11, 0, 0],
        &[2, 0, 4, 0, 6, 0, 8, 0, 10, 0, 12, 0, 0],
        &[1.0; 13],
    )
    .expect("valid tree arrays")
}

/// Values that sit on or next to every cut above, plus the IEEE specials.
fn edge_values(cuts: &[f64]) -> Vec<f64> {
    let mut values = vec![
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
    ];
    for &c in cuts {
        values.push(c);
        if c.is_finite() {
            values.push(c.next_up());
            values.push(c.next_down());
        }
    }
    values
}

/// Every pair of edge values as a two-column row, cycled to `len` rows.
fn edge_rows(values: &[f64], len: usize) -> Vec<Vec<f64>> {
    let pairs: Vec<Vec<f64>> = values
        .iter()
        .flat_map(|&a| values.iter().map(move |&b| vec![a, b]))
        .collect();
    pairs.iter().cycle().take(len).cloned().collect()
}

/// Batch lengths around the lockstep block of eight: empty, tail only,
/// exact blocks, and blocks plus a tail.
const BATCH_LENGTHS: [usize; 8] = [0, 1, 7, 8, 9, 63, 64, 65];

fn assert_model_matches_reference(model: &NgBoost, values: &[f64]) {
    for len in BATCH_LENGTHS {
        // Offset the cycle per length so each block sees different rows.
        let mut rows = edge_rows(values, len + 3 * len);
        rows.drain(..3 * len);
        let batch = model.predict_dist_batch(&rows);
        assert_eq!(batch.len(), len);
        for (row, got) in rows.iter().zip(&batch) {
            let (mu, var) = reference_dist(model, row);
            let scalar = model.predict_dist(row);
            assert_eq!(
                mu.to_bits(),
                got.0.to_bits(),
                "batch mu, len {len}, row {row:?}"
            );
            assert_eq!(
                var.to_bits(),
                got.1.to_bits(),
                "batch var, len {len}, row {row:?}"
            );
            assert_eq!(mu.to_bits(), scalar.0.to_bits(), "scalar mu, row {row:?}");
            assert_eq!(var.to_bits(), scalar.1.to_bits(), "scalar var, row {row:?}");
        }
    }
}

#[test]
fn unbalanced_tree_matches_reference_at_every_edge() {
    let deep = unbalanced_tree([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
    let values = edge_values(&[0.0, 1.0, 2.5]);
    for row in edge_rows(&values, values.len() * values.len()) {
        assert_eq!(
            deep.predict(&row).to_bits(),
            reference_leaf(&deep, &row).to_bits(),
            "row {row:?}"
        );
    }
    // NaN fails every `<=`, so it runs down the right spine to depth 6.
    assert_eq!(deep.predict(&[f64::NAN, f64::NAN]), 7.0);
    // Depth 1: the shallowest leaf self-loops for five spare steps.
    assert_eq!(deep.predict(&[-0.0, f64::NAN]), 1.0);

    let model = NgBoost::from_parts(
        0.0,
        0.0,
        1.0,
        (-4.0, 4.0),
        2,
        vec![
            unbalanced_tree([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]),
            Tree::constant(-0.0),
            unbalanced_tree([0.5, -0.5, 0.25, -0.25, 0.125, -0.125, 0.0]),
        ],
        vec![
            unbalanced_tree([3.0, -3.0, 2.0, -2.0, 1.0, -1.0, 5.0]),
            Tree::constant(0.0),
            unbalanced_tree([-5.0, 5.0, -1.5, 1.5, -0.5, 0.5, -6.0]),
        ],
    )
    .expect("heads agree on length");
    assert_model_matches_reference(&model, &values);
}

#[test]
fn fitted_model_matches_reference_at_its_own_cuts() {
    let triples: Vec<(f64, f64, f64)> = (0..160)
        .map(|i| {
            let x0 = (i % 13) as f64 - 6.0;
            let x1 = ((i * 7) % 9) as f64 * 0.5;
            (x0, x1, x0 * x0 - 2.0 * x1)
        })
        .collect();
    let model = NgBoost::fit(&dataset(&triples), &ngboost_params(3)).expect("non-empty dataset");
    let mut cuts: Vec<f64> = model
        .mu_trees()
        .iter()
        .chain(model.var_trees())
        .flat_map(|t| {
            let (feature, threshold, ..) = t.to_flat_parts();
            feature
                .into_iter()
                .zip(threshold)
                .filter(|(f, _)| *f != u32::MAX)
                .map(|(_, t)| t)
                .collect::<Vec<_>>()
        })
        .collect();
    cuts.sort_by(f64::total_cmp);
    cuts.dedup();
    assert!(cuts.len() > 2, "the model should split");
    assert_model_matches_reference(&model, &edge_values(&cuts));

    let gbm = Gbm::fit(&dataset(&triples), &gbm_params(3)).expect("non-empty dataset");
    for len in BATCH_LENGTHS {
        let rows = edge_rows(&edge_values(&cuts), len);
        let batch = gbm.predict_batch(&rows);
        assert_eq!(batch.len(), len);
        for (row, got) in rows.iter().zip(&batch) {
            assert_eq!(gbm.predict(row).to_bits(), got.to_bits(), "row {row:?}");
        }
    }
}

/// A tree serialized in the enum-node JSON shape loads, predicts the same
/// bits as the reference walker, and serializes back to the same text.
#[test]
fn enum_shaped_json_tree_still_loads() {
    let json = concat!(
        r#"{"nodes":["#,
        r#"{"Split":{"feature":1,"threshold":0.5,"gain":2.0,"left":1,"right":2}},"#,
        r#"{"Leaf":{"weight":-1.25}},"#,
        r#"{"Split":{"feature":0,"threshold":-3.0,"gain":0.75,"left":3,"right":4}},"#,
        r#"{"Leaf":{"weight":3.5}},"#,
        r#"{"Leaf":{"weight":-0.0}}"#,
        r#"]}"#
    );
    let tree: Tree = serde_json::from_str(json).expect("enum-shaped tree");
    assert_eq!(tree.n_nodes(), 5);
    assert_eq!(tree.n_leaves(), 3);
    let expected = |x0: f64, x1: f64| -> f64 {
        if x1 <= 0.5 {
            -1.25
        } else if x0 <= -3.0 {
            3.5
        } else {
            -0.0
        }
    };
    for x1 in [0.5, 0.6, 0.0, -0.0, f64::NAN] {
        for x0 in [-3.0, -2.0, f64::NEG_INFINITY, f64::NAN] {
            let row = [x0, x1];
            let got = tree.predict(&row);
            assert_eq!(got.to_bits(), reference_leaf(&tree, &row).to_bits());
            assert_eq!(got.to_bits(), expected(x0, x1).to_bits(), "row {row:?}");
        }
    }
    let mut importance = [0.0; 2];
    tree.accumulate_importance(&mut importance);
    assert_eq!(importance, [0.75, 2.0]);
    assert_eq!(serde_json::to_string(&tree).expect("serialize"), json);
}

#[test]
fn malformed_json_trees_are_rejected() {
    let split = |l: u32, r: u32| {
        format!(r#"{{"Split":{{"feature":0,"threshold":1.0,"gain":1.0,"left":{l},"right":{r}}}}}"#)
    };
    let leaf = r#"{"Leaf":{"weight":1.0}}"#.to_string();
    let cases: Vec<(&str, Vec<String>)> = vec![
        ("no nodes", vec![]),
        ("child out of bounds", vec![split(1, 9), leaf.clone()]),
        (
            "child before parent",
            vec![split(1, 2), split(0, 2), leaf.clone()],
        ),
        ("self loop", vec![split(0, 1), leaf.clone()]),
        ("both children the same", vec![split(1, 1), leaf.clone()]),
        (
            "two parents",
            vec![split(1, 2), split(2, 3), leaf.clone(), leaf.clone()],
        ),
        (
            "orphan",
            vec![split(1, 2), leaf.clone(), leaf.clone(), leaf.clone()],
        ),
        ("orphan leaf", vec![leaf.clone(), leaf.clone()]),
    ];
    for (why, nodes) in cases {
        let json = format!(r#"{{"nodes":[{}]}}"#, nodes.join(","));
        assert!(
            serde_json::from_str::<Tree>(&json).is_err(),
            "{why}: {json} should not load"
        );
    }
    // The error reaches the models that own trees.
    let gbm = |node: &str| {
        format!(r#"{{"base":0.0,"learning_rate":0.1,"trees":[{{"nodes":[{node}]}}],"n_cols":1}}"#)
    };
    assert!(serde_json::from_str::<Gbm>(&gbm(&leaf)).is_ok());
    assert!(serde_json::from_str::<Gbm>(&gbm(&split(0, 1))).is_err());
}
