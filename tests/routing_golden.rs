//! Golden pin of the Stage routing ladder (paper §4.1, Fig. 4).
//!
//! One deterministic scenario drives a `StagePredictor` through every
//! answer source — cold-start default, cache, local, global for cold start
//! and for escalated long/uncertain answers — under a scripted component
//! fault oracle that fails the local and the global tier for a few consults
//! each. Scalar `predict` calls are interleaved with `predict_batch` calls
//! of lengths 0, 1, 2, 7 and 9. Every answer (`exec_secs`, variance,
//! source), its calibrated interval, and the final routing, degraded-mode
//! and cache counters are folded into one FNV-1a digest over `f64::to_bits`
//! and compared against a recorded constant: any change to routing order,
//! fault consults or counter accounting changes the digest.

use stage::core::{
    plan_to_tree_sample, ComponentFaults, ExecTimePredictor, GlobalModel, GlobalModelConfig,
    LocalModelConfig, Prediction, PredictionSource, StageConfig, StagePredictor, SystemContext,
};
use stage::gbdt::{EnsembleParams, NgBoostParams};
use stage::plan::{PhysicalPlan, PlanBuilder, S3Format};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Digest of the scenario, recorded before the scalar path became a batch
/// of one. It must not change while routing semantics stay the same.
const GOLDEN_DIGEST: u64 = 0xd614_de78_0a11_cb40;

/// Fault oracle whose tiers fail for their next N consults; the scenario
/// arms the budgets between calls.
#[derive(Default)]
struct ScriptedFaults {
    local_down: AtomicU64,
    global_down: AtomicU64,
}

impl ScriptedFaults {
    fn take(budget: &AtomicU64) -> bool {
        budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .is_ok()
    }
}

impl ComponentFaults for ScriptedFaults {
    fn local_unavailable(&self) -> bool {
        Self::take(&self.local_down)
    }
    fn global_unavailable(&self) -> bool {
        Self::take(&self.global_down)
    }
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.word(1);
                self.word(x.to_bits());
            }
            None => self.word(0),
        }
    }
}

fn source_code(source: PredictionSource) -> u64 {
    match source {
        PredictionSource::Cache => 1,
        PredictionSource::Local => 2,
        PredictionSource::Global => 3,
        PredictionSource::Default => 4,
    }
}

fn plan(rows: f64) -> PhysicalPlan {
    PlanBuilder::select()
        .scan("t", S3Format::Local, rows, 64.0)
        .hash_aggregate(0.01)
        .finish()
}

fn sys() -> SystemContext {
    SystemContext::empty(2)
}

/// Exec-time of the `i`-th training plan: small scans are short and
/// steady, large scans long and noisy, so a trained local model answers
/// some misses itself and escalates others.
fn exec_secs(i: u64) -> f64 {
    let rows = i as f64 * 1e4;
    if i <= 30 {
        0.02 + rows / 1e7
    } else {
        // Deterministic scatter over three orders of magnitude.
        let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
        10.0 * (1.0 + (h % 400) as f64)
    }
}

struct Scenario {
    stage: StagePredictor,
    faults: Arc<ScriptedFaults>,
    digest: Fnv,
    seen: [u64; 4],
}

impl Scenario {
    fn record(&mut self, p: &Prediction) {
        self.digest.word(p.exec_secs.to_bits());
        self.digest.opt_f64(p.log_variance);
        self.digest.word(source_code(p.source));
        let interval = self.stage.calibrated_interval(p);
        self.digest.opt_f64(interval.map(|i| i.0));
        self.digest.opt_f64(interval.map(|i| i.1));
        self.seen[source_code(p.source) as usize - 1] += 1;
    }

    fn scalar(&mut self, rows: f64) {
        let p = self.stage.predict(&plan(rows), &sys());
        self.record(&p);
    }

    fn batch(&mut self, rows: &[f64]) {
        let plans: Vec<PhysicalPlan> = rows.iter().map(|&r| plan(r)).collect();
        let preds = self.stage.predict_batch(&plans, &sys());
        assert_eq!(preds.len(), plans.len());
        self.digest.word(preds.len() as u64);
        for p in &preds {
            self.record(p);
        }
    }

    fn observe(&mut self, i: u64) {
        self.stage
            .observe(&plan(i as f64 * 1e4), &sys(), exec_secs(i));
    }
}

fn global_model() -> Arc<GlobalModel> {
    let samples: Vec<_> = (1..=40)
        .map(|i| plan_to_tree_sample(&plan(i as f64 * 1e4), &sys(), exec_secs(i)))
        .collect();
    let config = GlobalModelConfig {
        hidden: 16,
        gcn_layers: 2,
        dropout: 0.0,
        epochs: 10,
        ..GlobalModelConfig::default()
    };
    Arc::new(GlobalModel::train(&samples, 2, &config))
}

fn stage_config() -> StageConfig {
    StageConfig {
        local: LocalModelConfig {
            ensemble: EnsembleParams {
                n_members: 4,
                member: NgBoostParams {
                    n_estimators: 25,
                    ..NgBoostParams::default()
                },
                seed: 11,
            },
            min_train_examples: 20,
            retrain_interval: 40,
        },
        ..StageConfig::default()
    }
}

#[test]
fn routing_ladder_matches_recorded_digest() {
    let faults = Arc::new(ScriptedFaults::default());
    let mut stage = StagePredictor::with_global(stage_config(), global_model());
    stage.set_component_faults(faults.clone());
    let mut s = Scenario {
        stage,
        faults,
        digest: Fnv::new(),
        seen: [0; 4],
    };

    // Cold start: the global model answers every miss; a global fault
    // degrades to the default, a local fault is consulted (and counted)
    // even though the local model is untrained.
    s.batch(&[]);
    s.scalar(5e4);
    s.faults.global_down.store(2, Ordering::SeqCst);
    s.scalar(6e4);
    s.batch(&[7e4, 8e4]);
    s.faults.local_down.store(1, Ordering::SeqCst);
    s.batch(&[9e4]);

    // Warm up: distinct plans fill the pool and train the local model;
    // some repeat the cold-start plans, so later repeats hit the cache.
    for i in 1..=64 {
        s.observe(i);
    }
    assert!(s.stage.local().is_trained());

    // Warm traffic: repeats hit the cache, unseen small scans stay local,
    // unseen large scans escalate to the global tier.
    s.scalar(1e4);
    s.scalar(2.5e5);
    s.scalar(5.55e5);
    s.batch(&[1e4, 2.5e5]);
    let global_before = s.stage.stats().global;
    s.batch(&[3.3e4, 6.01e5, 2e4, 7.07e5, 1.5e5, 9.09e5, 4.4e5]);
    // No fault is armed here, so these global answers are escalations of
    // long, uncertain local answers.
    let escalated = s.stage.stats().global - global_before;
    s.faults.global_down.store(3, Ordering::SeqCst);
    s.batch(&[
        5.05e5, 6.06e5, 7.5e4, 8.08e5, 3e4, 1.15e5, 4.04e5, 2.02e5, 1e4,
    ]);
    s.scalar(5.15e5);
    s.faults.local_down.store(2, Ordering::SeqCst);
    s.scalar(3.03e5);
    s.batch(&[1.25e5, 6.66e5]);
    s.batch(&[1e4, 2e4]);
    s.scalar(3.03e5);

    // More feedback triggers a retrain; the ladder then runs again.
    for i in 65..=110 {
        s.observe(i);
    }
    s.batch(&[7.77e5]);
    s.scalar(6.5e5);
    s.batch(&[
        2.22e5, 4.5e4, 8.5e5, 1.05e6, 5e4, 9.5e5, 3.5e4, 6.0e5, 1.11e6,
    ]);
    s.scalar(1e4);

    let stats = s.stage.stats();
    let degraded = s.stage.degraded_stats();
    for w in [stats.cache, stats.local, stats.global, stats.default] {
        s.digest.word(w);
    }
    for w in [
        degraded.global_failover,
        degraded.local_failover,
        degraded.retrains_poisoned,
        degraded.retrains_slowed,
    ] {
        s.digest.word(w);
    }
    s.digest.word(s.stage.cache().hits());
    s.digest.word(s.stage.cache().misses());

    // Not vacuous: every source answered, the global tier escalated, and
    // both tiers failed over.
    assert!(s.seen.iter().all(|&n| n > 0), "sources seen {:?}", s.seen);
    assert_eq!(
        [stats.cache, stats.local, stats.global, stats.default],
        s.seen
    );
    assert!(escalated > 0, "no escalation in the fault-free batch");
    assert!(
        degraded.local_failover > 0 && degraded.global_failover > 0,
        "{degraded:?}"
    );
    assert_eq!(
        s.digest.0, GOLDEN_DIGEST,
        "routing digest changed: {:#018x} (stats {stats:?}, degraded {degraded:?})",
        s.digest.0
    );
}
