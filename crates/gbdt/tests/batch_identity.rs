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
