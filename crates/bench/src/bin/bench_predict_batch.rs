//! Scalar-vs-batched serving benchmark for the `PredictBatch` verb.
//!
//! Boots an in-process `stage-serve` server, trains one shard's local model
//! with a warmup stream, then prices the same probe plans through the wire
//! at batch sizes 1 (the scalar `Predict` verb), 8, and 64
//! (`PredictBatch`), reporting per-prediction latency and throughput for
//! each size. Before timing anything it cross-checks correctness: one
//! batch answer must be bit-identical, index by index, to pricing the same
//! plans one at a time.
//!
//! ```text
//! cargo run --release -p stage-bench --bin bench_predict_batch -- \
//!     [--predictions N] [--warmup N] [--seed N] [--out FILE] [--smoke]
//! ```
//!
//! `--smoke` is the CI hook: a tiny run that performs only the correctness
//! cross-check (no artefact, no throughput claims — single-core CI cannot
//! honestly rank batch against scalar) and prints
//! `bench_predict_batch smoke OK`.
//!
//! The artefact lands in `results/bench_predict_batch.json`, stamped with
//! the git revision it measured.

use serde::Serialize;
use stage_core::{LocalModelConfig, StageConfig};
use stage_gbdt::{EnsembleParams, NgBoostParams};
use stage_serve::{Response, ServeClient, ServeConfig, Server};
use stage_workload::{FleetConfig, InstanceWorkload};
use std::process::ExitCode;
use std::time::Instant;

const BATCH_SIZES: [usize; 3] = [1, 8, 64];

struct Args {
    predictions: u64,
    warmup: usize,
    seed: u64,
    out: String,
    smoke: bool,
}

/// One batch size's measurement.
#[derive(Serialize)]
struct BatchPoint {
    batch: usize,
    predictions: u64,
    requests: u64,
    elapsed_secs: f64,
    per_prediction_us: f64,
    predictions_per_sec: f64,
    requests_per_sec: f64,
}

/// The `results/bench_predict_batch.json` artefact.
#[derive(Serialize)]
struct BatchBenchReport {
    /// `git rev-parse HEAD` of the measured tree, suffixed `-dirty` when
    /// the working tree differs from it.
    git_revision: String,
    /// Cores the host offered the run.
    host_cores: usize,
    /// Local ensemble shape, members × estimators per member.
    ensemble: String,
    /// Wire codec of every timed request.
    codec: &'static str,
    warmup_observes: usize,
    probe_plans: usize,
    local_trained: bool,
    points: Vec<BatchPoint>,
    /// per_prediction_us(batch=64) / per_prediction_us(batch=1); < 1.0
    /// means batching lowered the per-prediction cost.
    batch64_vs_scalar_ratio: f64,
}

/// The same trimmed serving ensemble the load generator uses, so warmup
/// training takes milliseconds while predictions still run the full
/// Bayesian-ensemble path that batching is meant to amortise.
fn serving_stage_config() -> StageConfig {
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
            min_train_examples: 30,
            retrain_interval: 10_000,
        },
        ..StageConfig::default()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Some(a) => a,
        None => return ExitCode::from(2),
    };

    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_predict_batch: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let server = Server::start(ServeConfig {
        n_instances: 1,
        stage: serving_stage_config(),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("cannot start in-process server: {e}"))?;
    let mut client =
        ServeClient::connect(server.local_addr()).map_err(|e| format!("cannot connect: {e}"))?;

    // Warmup: feed observed executions until the local model trains, then
    // carve probe plans from *unobserved* events so every probe misses the
    // exec-time cache and runs the ensemble (the expensive path batching
    // is for).
    let workload = InstanceWorkload::generate(
        &FleetConfig {
            n_instances: 1,
            duration_days: 8.0,
            seed: args.seed,
            max_events_per_instance: 20_000,
            ..FleetConfig::tiny()
        },
        0,
    );
    if workload.events.len() < args.warmup + BATCH_SIZES[2] {
        return Err(format!(
            "workload too small: {} events for {} warmup + {} probes",
            workload.events.len(),
            args.warmup,
            BATCH_SIZES[2]
        ));
    }
    for event in &workload.events[..args.warmup] {
        let sys = workload.spec.system_features(event.concurrency);
        match client.observe(0, &event.plan, &sys, event.true_exec_secs) {
            Ok(Response::Observed { .. }) => {}
            other => return Err(format!("warmup observe rejected: {other:?}")),
        }
    }
    let probe_events = &workload.events[args.warmup..args.warmup + BATCH_SIZES[2]];
    let plans: Vec<_> = probe_events.iter().map(|e| e.plan.clone()).collect();
    let sys = workload.spec.system_features(probe_events[0].concurrency);

    // Correctness cross-check before any timing: one full-width batch
    // answer must match the scalar verb bit-for-bit at every index.
    let batch_answers = match client
        .predict_batch(0, &plans, &sys)
        .map_err(|e| format!("batch predict failed: {e}"))?
    {
        Response::PredictionsBatch { predictions, .. } => predictions,
        other => return Err(format!("batch predict rejected: {other:?}")),
    };
    if batch_answers.len() != plans.len() {
        return Err(format!(
            "batch answered {} predictions for {} plans",
            batch_answers.len(),
            plans.len()
        ));
    }
    for (k, (plan, bp)) in plans.iter().zip(&batch_answers).enumerate() {
        let (exec_secs, source) = match client
            .predict(0, plan, &sys)
            .map_err(|e| format!("scalar predict failed: {e}"))?
        {
            Response::Predicted {
                exec_secs, source, ..
            } => (exec_secs, source),
            other => return Err(format!("scalar predict rejected: {other:?}")),
        };
        if exec_secs.to_bits() != bp.exec_secs.to_bits() || source != bp.source {
            return Err(format!(
                "batch position {k} diverged from scalar: {} ({:?}) vs {exec_secs} ({source:?})",
                bp.exec_secs, bp.source
            ));
        }
    }
    println!(
        "bench_predict_batch: correctness OK — {} batch answers bit-identical to scalar",
        plans.len()
    );

    if args.smoke {
        shutdown(client, server)?;
        println!("bench_predict_batch smoke OK");
        return Ok(());
    }

    // Timed sweep: the same probe set cycled to `predictions` total
    // predictions per batch size, all through the live socket.
    let mut points = Vec::with_capacity(BATCH_SIZES.len());
    for &batch in &BATCH_SIZES {
        let requests = args.predictions / batch as u64;
        let predictions = requests * batch as u64;
        let started = Instant::now();
        let mut cursor = 0usize;
        for _ in 0..requests {
            if batch == 1 {
                let plan = &plans[cursor % plans.len()];
                cursor += 1;
                match client.predict(0, plan, &sys) {
                    Ok(Response::Predicted { .. }) => {}
                    other => return Err(format!("timed scalar predict rejected: {other:?}")),
                }
            } else {
                let group: Vec<_> = (0..batch)
                    .map(|k| plans[(cursor + k) % plans.len()].clone())
                    .collect();
                cursor += batch;
                match client.predict_batch(0, &group, &sys) {
                    Ok(Response::PredictionsBatch { predictions, .. })
                        if predictions.len() == batch => {}
                    other => return Err(format!("timed batch predict rejected: {other:?}")),
                }
            }
        }
        let elapsed = started.elapsed().as_secs_f64();
        let point = BatchPoint {
            batch,
            predictions,
            requests,
            elapsed_secs: elapsed,
            per_prediction_us: elapsed / predictions as f64 * 1e6,
            predictions_per_sec: predictions as f64 / elapsed,
            requests_per_sec: requests as f64 / elapsed,
        };
        println!(
            "bench_predict_batch: batch {:>2}: {:>7} predictions in {:.3}s = {:>8.1} pred/s, \
             {:.1} µs/prediction",
            point.batch,
            point.predictions,
            point.elapsed_secs,
            point.predictions_per_sec,
            point.per_prediction_us
        );
        points.push(point);
    }

    let local_trained = match client.stats(0) {
        Ok(Response::Stats { local_trained, .. }) => local_trained,
        other => return Err(format!("stats failed: {other:?}")),
    };
    let per_us = |b: usize| {
        points
            .iter()
            .find(|p| p.batch == b)
            .map(|p| p.per_prediction_us)
            .unwrap_or(f64::NAN)
    };
    let ensemble = serving_stage_config().local.ensemble;
    let report = BatchBenchReport {
        git_revision: git_revision(),
        host_cores: std::thread::available_parallelism().map_or(1, usize::from),
        ensemble: format!("{}x{}", ensemble.n_members, ensemble.member.n_estimators),
        codec: "binary",
        warmup_observes: args.warmup,
        probe_plans: plans.len(),
        local_trained,
        batch64_vs_scalar_ratio: per_us(64) / per_us(1),
        points,
    };
    println!(
        "bench_predict_batch: batch-64 per-prediction cost is {:.2}x the scalar cost",
        report.batch64_vs_scalar_ratio
    );

    shutdown(client, server)?;

    if let Some(parent) = std::path::Path::new(&args.out).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let file =
        std::fs::File::create(&args.out).map_err(|e| format!("cannot create {}: {e}", args.out))?;
    serde_json::to_writer_pretty(file, &report)
        .map_err(|e| format!("cannot write {}: {e}", args.out))?;
    println!("bench_predict_batch: wrote {}", args.out);
    Ok(())
}

/// The measured revision, or `unknown` outside a git checkout.
fn git_revision() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
    };
    let Some(head) = git(&["rev-parse", "HEAD"]) else {
        return "unknown".to_string();
    };
    let head = String::from_utf8_lossy(&head.stdout).trim().to_string();
    let dirty = git(&["status", "--porcelain", "--untracked-files=no"])
        .is_some_and(|o| !o.stdout.is_empty());
    if dirty {
        format!("{head}-dirty")
    } else {
        head
    }
}

fn shutdown(mut client: ServeClient, server: Server) -> Result<(), String> {
    match client.shutdown() {
        Ok(Response::ShuttingDown) => {}
        other => return Err(format!("shutdown rejected: {other:?}")),
    }
    drop(client);
    server
        .join()
        .map_err(|e| format!("server join failed: {e}"))
}

fn parse_args() -> Option<Args> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        predictions: 4096,
        warmup: 64,
        seed: 42,
        out: "results/bench_predict_batch.json".to_string(),
        smoke: false,
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--predictions" => {
                i += 1;
                args.predictions = parse_val(&argv, i, "--predictions")?;
            }
            "--warmup" => {
                i += 1;
                args.warmup = parse_val(&argv, i, "--warmup")?;
            }
            "--seed" => {
                i += 1;
                args.seed = parse_val(&argv, i, "--seed")?;
            }
            "--out" => {
                i += 1;
                args.out = argv.get(i)?.clone();
            }
            "--smoke" => args.smoke = true,
            other => {
                eprintln!("bench_predict_batch: unknown flag {other}");
                eprintln!(
                    "usage: bench_predict_batch [--predictions N] [--warmup N] [--seed N] \
                     [--out FILE] [--smoke]"
                );
                return None;
            }
        }
        i += 1;
    }
    if args.predictions < 64 || args.warmup < 30 {
        eprintln!("bench_predict_batch: need --predictions >= 64 and --warmup >= 30");
        return None;
    }
    Some(args)
}

fn parse_val<T: std::str::FromStr>(argv: &[String], i: usize, flag: &str) -> Option<T> {
    match argv.get(i).and_then(|s| s.parse().ok()) {
        Some(v) => Some(v),
        None => {
            eprintln!("bench_predict_batch: invalid value for {flag}");
            None
        }
    }
}
