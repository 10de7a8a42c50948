//! Untimed correctness: the window's exact request sequence re-run in
//! process against the warm state the server started from. Each instance
//! shard saw its requests in order over its own connection, so a
//! sequential replay through a `ShardRegistry` must reproduce every served
//! answer bit for bit. The traced pass is the same replay with spans.

use crate::client::{Ledger, Op};
use crate::trace::{Answer, Tracer};
use crate::workload::{stage_config, Event, Prepared};
use stage_core::{load_global_store, GlobalModel, SystemContext};
use stage_serve::ShardRegistry;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A registry restored from the warm artefacts, with the global model the
/// server mapped.
pub struct Restored {
    pub registry: ShardRegistry,
    pub global: Option<Arc<GlobalModel>>,
}

pub fn restore(prepared: &Prepared) -> io::Result<Restored> {
    let registry = ShardRegistry::new(prepared.spec.shards, stage_config());
    let summary = registry.load_snapshots(&prepared.warm_dir);
    if summary.restored != prepared.spec.shards {
        return Err(io::Error::other("warm artefacts did not restore"));
    }
    let global = match &prepared.global_path {
        Some(path) => {
            let (model, _) = load_global_store(path, None)
                .map_err(|e| io::Error::other(format!("global model: {e}")))?;
            let model = Arc::new(model);
            registry.set_global(Arc::clone(&model));
            Some(model)
        }
        None => None,
    };
    Ok(Restored { registry, global })
}

/// What a replay pass found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Served answers the replay did not reproduce.
    pub mismatches: u64,
    /// Served answers compared.
    pub compared: u64,
    /// Time spent inside the replayed predict calls (the trace overhead
    /// compares this between the traced and the untraced pass).
    pub predict_s: f64,
}

fn plain_predict(registry: &ShardRegistry, shard: u32, e: &Event) -> Option<Answer> {
    let sys = SystemContext {
        features: e.sys.clone(),
    };
    registry.with_shard_write(shard, |s| {
        let p = s.predict(&e.plan, &sys);
        let interval = s.calibrated_interval(&p);
        Answer::of(&p, interval)
    })
}

fn plain_batch(registry: &ShardRegistry, shard: u32, events: &[Event]) -> Option<Vec<Answer>> {
    let plans: Vec<_> = events.iter().map(|e| e.plan.clone()).collect();
    let sys = SystemContext {
        features: events.first()?.sys.clone(),
    };
    registry.with_shard_write(shard, |s| {
        let ps = s.predict_batch(&plans, &sys);
        ps.iter()
            .map(|p| {
                let interval = s.calibrated_interval(p);
                Answer::of(p, interval)
            })
            .collect()
    })
}

/// Runs `f` while a background thread checkpoints `registry` into `dir`
/// every `every`, as the server's health loop does.
pub fn with_checkpointer<R>(
    registry: &ShardRegistry,
    every: Option<Duration>,
    dir: &Path,
    f: impl FnOnce() -> R,
) -> R {
    let Some(every) = every else {
        return f();
    };
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let worker = scope.spawn(|| {
            let mut due = Instant::now() + every;
            while !stop.load(Ordering::SeqCst) {
                let now = Instant::now();
                if now < due {
                    std::thread::park_timeout(due - now);
                    continue;
                }
                if let Err(e) = registry.save_snapshots(dir) {
                    eprintln!("perfbench: replay checkpoint failed: {e}");
                }
                due += every;
            }
        });
        let r = f();
        stop.store(true, Ordering::SeqCst);
        worker.thread().unpark();
        if worker.join().is_err() {
            eprintln!("perfbench: replay checkpointer panicked");
        }
        r
    })
}

fn compare(outcome: &mut Outcome, served: Option<&Answer>, replayed: Option<Answer>, what: &str) {
    let Some(served) = served else {
        return;
    };
    outcome.compared += 1;
    if replayed.as_ref() != Some(served) {
        if outcome.mismatches == 0 {
            eprintln!("perfbench: {what}: served {served:?}, replay {replayed:?}");
        }
        outcome.mismatches += 1;
    }
}

/// Replays the open-loop ops: all of them untraced (the correctness
/// check), the first `prefix` traced. Predict time is summed over the
/// first `prefix` either way.
pub fn replay_open(
    registry: &ShardRegistry,
    window: &[Vec<Event>],
    ops: &[Op],
    ledger: &Ledger,
    mut tracer: Option<&mut Tracer>,
    prefix: usize,
) -> Outcome {
    let mut outcome = Outcome::default();
    let end = if tracer.is_some() {
        prefix.min(ops.len())
    } else {
        ops.len()
    };
    for (i, op) in ops.iter().enumerate().take(end) {
        let e = &window[op.shard as usize][op.event as usize];
        if op.observe {
            match tracer.as_deref_mut() {
                Some(t) => t.observe(registry, op.shard, e, op.secs),
                None => {
                    let sys = SystemContext {
                        features: e.sys.clone(),
                    };
                    registry.with_shard_write(op.shard, |s| s.observe(&e.plan, &sys, op.secs));
                }
            }
        } else {
            let t0 = Instant::now();
            let got = match tracer.as_deref_mut() {
                Some(t) => t.predict(registry, op.shard, e),
                None => plain_predict(registry, op.shard, e),
            };
            if i < prefix {
                outcome.predict_s += t0.elapsed().as_secs_f64();
            }
            compare(
                &mut outcome,
                ledger.answers[i].as_ref(),
                got,
                "predict replay",
            );
        }
    }
    outcome
}

/// Replays the closed-loop batch sequence `..prefix`: every distinct batch
/// appears in the first cycle, so each is checked against the in-process
/// `StagePredictor::predict_batch` on the same trained state.
pub fn replay_batches(
    registry: &ShardRegistry,
    events: &[Event],
    width: usize,
    ledger: &Ledger,
    mut tracer: Option<&mut Tracer>,
    prefix: usize,
) -> Outcome {
    let mut outcome = Outcome::default();
    let batches: Vec<&[Event]> = events.chunks_exact(width).collect();
    let n = prefix.max(batches.len()).min(ledger.batch_order.len());
    for &b in &ledger.batch_order[..n] {
        let chunk = batches[b as usize];
        let t0 = Instant::now();
        let got = match tracer.as_deref_mut() {
            Some(t) => t.predict_batch(registry, 0, chunk),
            None => plain_batch(registry, 0, chunk),
        };
        outcome.predict_s += t0.elapsed().as_secs_f64();
        let served = ledger.batch_answers[b as usize].as_deref();
        for (k, s) in served.unwrap_or(&[]).iter().enumerate() {
            let r = got.as_ref().and_then(|g| g.get(k)).copied();
            compare(&mut outcome, Some(s), r, "batch replay");
        }
    }
    outcome
}
