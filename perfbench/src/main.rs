//! The stage-serve benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload repeat-hot|adhoc-miss|batch-price --seed N --seconds S --trace 0|1
//! ```
//!
//! One run: set up (median of three set-ups unless tracing), drive an
//! in-process `stage-serve` for `--seconds` with one generator thread,
//! reconcile the server's counters with the client ledger, stop the server,
//! replay the window in process to check every answer bit for bit, apply
//! the workload's regime checks, and print every metric by name with its
//! unit. `--trace 1` adds the traced in-process pass and reports the
//! per-layer metrics instead of the end-to-end ones. The last line of
//! standard output is the result as one JSON object. See
//! `perfbench/README.md` for the metrics and why each workload exists.

mod client;
mod replay;
mod report;
mod trace;
mod workload;

use client::{call, Ledger, Op, ShardTally};
use rand::rngs::StdRng;
use rand::SeedableRng;
use report::{Metrics, Provenance};
use stage_core::{load_stage_store, save_stage_store, RoutingStats};
use stage_serve::{Request, Response, ShardRegistry};
use std::io;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::{Phase, Tracer};
use workload::{Live, Prepared, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Window requests the traced pass replays; the trace overhead compares
/// their predict calls with the untraced pass's.
const TRACE_PREFIX: usize = 12_000;

/// Window batches the traced pass replays on `batch-price`.
const TRACE_BATCHES: usize = 300;

/// Requests the traced pass covers (0: untraced run).
fn trace_prefix(spec: workload::Spec, trace: bool) -> usize {
    match (trace, spec.pairs_per_shard_s) {
        (false, _) => 0,
        (true, Some(_)) => TRACE_PREFIX,
        (true, None) => TRACE_BATCHES,
    }
}

/// Separates the stream of fresh execution times from the seed's other uses.
const EXECUTION_SALT: u64 = 0xE8EC_0710_05EE_D5A1;

/// Leading batches re-priced through the scalar verb.
const REPRICE_BATCHES: usize = 2;

/// Generator lateness (p99) above which a run is invalid: a generator that
/// cannot keep up falls behind without bound, while the stalls a shared
/// 2-vCPU host imposes on every thread stay around 10 ms.
const LAG_LIMIT_US: f64 = 25_000.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| "bad --seconds")?),
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload repeat-hot|adhoc-miss|batch-price \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let result = std::fs::create_dir_all(&work).and_then(|()| run(&args, &work));
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(out) => {
            println!("{}", out.result_line());
            if out.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: run aborted: {e}");
            ExitCode::from(2)
        }
    }
}

/// Counters of one shard, from the server's `Stats` verb.
#[derive(Debug, Clone, Copy)]
struct ShardStats {
    routing: RoutingStats,
    observes: u64,
    predict_batches: u64,
    forced_retrains: u64,
}

fn stats(conns: &mut [TcpStream]) -> io::Result<Vec<ShardStats>> {
    let mut out = Vec::new();
    for (id, conn) in conns.iter_mut().enumerate() {
        match call(
            conn,
            &Request::Stats {
                instance: id as u32,
            },
        )? {
            Response::Stats {
                routing,
                observes,
                predict_batches,
                forced_retrains,
                ..
            } => out.push(ShardStats {
                routing,
                observes,
                predict_batches,
                forced_retrains,
            }),
            other => return Err(io::Error::other(format!("stats({id}): {other:?}"))),
        }
    }
    Ok(out)
}

fn stop(live: Live) -> io::Result<()> {
    drop(live.conns);
    live.server.shutdown();
    live.server.join()
}

/// A check that failed: printed, and counted in `failed`.
struct Failures(Vec<String>);

impl Failures {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("perfbench: CHECK FAILED: {msg}");
            self.0.push(msg);
        }
    }
}

fn run(args: &Args, work: &Path) -> io::Result<report::Outcome> {
    let w = args.workload;
    let spec = w.spec();
    let mut tracer = args.trace.then(Tracer::new);
    let mut fails = Failures(Vec::new());

    // Set-up: inputs, warm-up training, artefacts, server start.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut kept: Option<(Prepared, Live)> = None;
    for _ in 0..reps {
        if let Some((_, live)) = kept.take() {
            stop(live)?;
        }
        let (prepared, live, secs) = workload::setup(w, args.seed, work, tracer.as_mut())?;
        setup_s.push(secs);
        kept = Some((prepared, live));
    }
    let Some((prepared, mut live)) = kept else {
        return Err(io::Error::other("no set-up ran"));
    };
    let before = stats(&mut live.conns)?;
    let ticks_before = report::cpu_ticks();

    // The timed window.
    let (ledger, ops): (Ledger, Vec<Op>) = match spec.pairs_per_shard_s {
        Some(rate) => {
            let cycle = w == Workload::RepeatHot;
            let mut rng = StdRng::seed_from_u64(args.seed ^ EXECUTION_SALT);
            let secs = |s: usize, e: u32| {
                let event = &prepared.window[s][e as usize];
                prepared.executions[s]
                    .as_ref()
                    .and_then(|x| x.draw(&event.plan, e as usize, &mut rng))
                    .unwrap_or(event.true_secs)
            };
            let ops =
                client::schedule(&prepared.window, rate, args.seconds, cycle, args.seed, secs)?;
            (
                client::open_loop(&mut live.conns, &prepared.window, &ops)?,
                ops,
            )
        }
        None => (
            client::closed_loop_batches(
                &mut live.conns[0],
                &prepared.window[0],
                spec.batch_width,
                args.seconds,
            )?,
            Vec::new(),
        ),
    };
    let rss_peak_mib = report::rss_peak_mib();
    let steal_frac = match (ticks_before, report::cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) => (s1 - s0) as f64 / (t1 - t0).max(1) as f64,
        _ => f64::NAN,
    };
    let mut tallies = ledger.shards.clone();

    // Leading batches re-priced through the scalar verb, bit for bit.
    if spec.batch_width > 1 {
        reprice_scalar(
            &mut live.conns[0],
            &prepared,
            &ledger,
            &mut tallies[0],
            &mut fails,
        )?;
    }

    // Server counters against the client ledger.
    let after = stats(&mut live.conns)?;
    for (id, ((b, a), t)) in before.iter().zip(&after).zip(&tallies).enumerate() {
        let served = [
            a.routing.cache - b.routing.cache,
            a.routing.local - b.routing.local,
            a.routing.global - b.routing.global,
            a.routing.default - b.routing.default,
        ];
        fails.check(served == t.sources, || {
            format!(
                "shard {id}: server routed {served:?}, client ledger {:?}",
                t.sources
            )
        });
        let observes = a.observes - b.observes;
        fails.check(observes == t.observes, || {
            format!(
                "shard {id}: server ingested {observes} observes, client acked {}",
                t.observes
            )
        });
        let batches = a.predict_batches - b.predict_batches;
        fails.check(batches == t.batches, || {
            format!(
                "shard {id}: server served {batches} batches, client {}",
                t.batches
            )
        });
    }
    let forced: u64 = after.iter().map(|s| s.forced_retrains).sum();
    fails.check(forced == 0, || {
        format!("the health loop forced {forced} retrains: served state left the replayable path")
    });
    stop(live)?;

    // Retrains in the window, from the server's final checkpoint.
    let mut retrains = 0u64;
    for (id, warm) in prepared.warm_trainings.iter().enumerate() {
        let path = ShardRegistry::snapshot_path(&prepared.serve_dir, id as u32);
        let snap = load_stage_store(&path, None)
            .map_err(|e| io::Error::other(format!("final checkpoint of shard {id}: {e}")))?;
        retrains += snap.local.trainings().saturating_sub(*warm);
    }

    // Replay: every served answer, bit for bit.
    let restored = replay::restore(&prepared)?;
    let prefix = trace_prefix(spec, args.trace);
    let ckpt_dir = work.join("replay-ckpt");
    let untraced =
        replay::with_checkpointer(&restored.registry, spec.checkpoint_every, &ckpt_dir, || {
            replay_pass(&prepared, &ops, &ledger, &restored.registry, None, prefix)
        });
    drop(restored);
    fails.check(untraced.mismatches == 0, || {
        format!(
            "{} of {} served answers differ from the in-process replay",
            untraced.mismatches, untraced.compared
        )
    });
    let mut compared = untraced.compared;

    let predictions: u64 = ledger.shards.iter().map(|t| t.predictions).sum();
    let source_total = |i: usize| ledger.shards.iter().map(|t| t.sources[i]).sum::<u64>();
    let hit_frac = source_total(0) as f64 / predictions.max(1) as f64;
    let escalation_frac = source_total(2) as f64 / predictions.max(1) as f64;
    let lag_p99_us = report::quantile_ns(&ledger.lag_ns, 0.99) / 1e3;
    regime_checks(
        w,
        hit_frac,
        escalation_frac,
        retrains,
        lag_p99_us,
        &mut fails,
    );

    let provenance = Provenance::collect(args, &prepared, hit_frac);
    let mut metrics = Metrics::default();
    let client_p50_us = report::quantile_ns(&ledger.predict_ns, 0.5) / 1e3;
    if let Some(tracer) = tracer.as_mut() {
        let traced = traced_pass(
            tracer, &prepared, &ops, &ledger, work, args.seed, &mut fails,
        )?;
        compared += traced.compared;
        let overhead = traced.predict_s / untraced.predict_s.max(1e-9) - 1.0;
        report::per_layer(
            &mut metrics,
            tracer,
            &traced,
            report::Served {
                client_p50_us,
                lag_p99_us,
                hit_frac,
                escalation_frac,
                retrains,
                overhead,
            },
        );
        let dir = PathBuf::from(".bench_out");
        std::fs::create_dir_all(&dir)?;
        tracer.write_spans(&dir.join(format!("spans-{}.jsonl", w.name())))?;
    } else {
        report::end_to_end(&mut metrics, &ledger, &setup_s, rss_peak_mib);
    }
    let extra = report::extra(&ledger, fails.0.len() as u64, retrains, steal_frac);
    let outcome = report::Outcome {
        metrics,
        extra,
        attempted: ledger.attempted + compared,
        failed: ledger.failed + untraced.mismatches + fails.0.len() as u64,
        provenance,
        failures: fails.0,
    };
    outcome.print_report(w);
    outcome.write_file(w, args.seed, args.trace)?;
    Ok(outcome)
}

fn replay_pass(
    prepared: &Prepared,
    ops: &[Op],
    ledger: &Ledger,
    registry: &ShardRegistry,
    tracer: Option<&mut Tracer>,
    prefix: usize,
) -> replay::Outcome {
    match prepared.spec.pairs_per_shard_s {
        Some(_) => replay::replay_open(registry, &prepared.window, ops, ledger, tracer, prefix),
        None => replay::replay_batches(
            registry,
            &prepared.window[0],
            prepared.spec.batch_width,
            ledger,
            tracer,
            prefix,
        ),
    }
}

/// The traced pass, the store timings and the off-path probes.
fn traced_pass(
    tracer: &mut Tracer,
    prepared: &Prepared,
    ops: &[Op],
    ledger: &Ledger,
    work: &Path,
    seed: u64,
    fails: &mut Failures,
) -> io::Result<report::Traced> {
    let spec = prepared.spec;
    let prefix = trace_prefix(spec, true);
    let mut traced = report::Traced::default();
    for id in 0..spec.shards {
        let t0 = Instant::now();
        let snap = load_stage_store(&ShardRegistry::snapshot_path(&prepared.warm_dir, id), None);
        traced.restore_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if snap.is_err() {
            return Err(io::Error::other("warm artefact did not load"));
        }
    }
    let restored = replay::restore(prepared)?;
    tracer.attach(&restored.registry, restored.global.clone());
    tracer.phase = Phase::Window;
    tracer.wire = true;
    let ckpt_dir = work.join("trace-ckpt");
    let outcome =
        replay::with_checkpointer(&restored.registry, spec.checkpoint_every, &ckpt_dir, || {
            replay_pass(
                prepared,
                ops,
                ledger,
                &restored.registry,
                Some(&mut *tracer),
                prefix,
            )
        });
    fails.check(outcome.mismatches == 0, || {
        format!(
            "{} served answers differ from the traced replay",
            outcome.mismatches
        )
    });
    fails.check(tracer.mismatches == 0, || {
        format!(
            "{} re-timed layer calls disagreed with the real call",
            tracer.mismatches
        )
    });
    traced.predict_s = outcome.predict_s;
    traced.compared = outcome.compared;

    for id in 0..spec.shards {
        let Some((snap, bytes)) = restored.registry.with_shard_read(id, |s| {
            let (c, p, l) = s.predictor().size_breakdown();
            (s.predictor().snapshot(), c + p + l)
        }) else {
            continue;
        };
        let path = work.join(format!("checkpoint-{id}.store"));
        let t0 = Instant::now();
        save_stage_store(&snap, &path, None)?;
        traced.checkpoint_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        traced.shard_bytes.push(bytes as f64);
    }

    // Probes: layers this workload's request path never reaches, timed on
    // its own inputs.
    let probe_events: Vec<_> = prepared.window[0].iter().take(64 * 16).cloned().collect();
    if spec.batch_width == 1 {
        tracer.probe_local_batch(&restored.registry, 0, &probe_events, 64);
    }
    if !spec.global {
        let global = std::sync::Arc::new(workload::train_global(seed));
        tracer.probe_global(global, &probe_events[..probe_events.len().min(256)]);
    }
    Ok(traced)
}

/// Re-prices the leading batches' plans one by one through `Predict`; the
/// answers must match the batch answers bit for bit.
fn reprice_scalar(
    conn: &mut TcpStream,
    prepared: &Prepared,
    ledger: &Ledger,
    tally: &mut ShardTally,
    fails: &mut Failures,
) -> io::Result<()> {
    let width = prepared.spec.batch_width;
    for (b, chunk) in prepared.window[0]
        .chunks_exact(width)
        .enumerate()
        .take(REPRICE_BATCHES)
    {
        let Some(Some(answers)) = ledger.batch_answers.get(b) else {
            continue;
        };
        let sys = chunk[0].sys.clone();
        for (k, e) in chunk.iter().enumerate() {
            let got = match call(
                conn,
                &Request::Predict {
                    instance: 0,
                    plan: e.plan.clone(),
                    sys: sys.clone(),
                },
            )? {
                Response::Predicted {
                    exec_secs,
                    interval_lo,
                    interval_hi,
                    source,
                    ..
                } => {
                    tally.count(source);
                    Some(trace::Answer::new(
                        exec_secs,
                        interval_lo,
                        interval_hi,
                        source,
                    ))
                }
                _ => None,
            };
            fails.check(got.as_ref() == answers.get(k), || {
                format!(
                    "batch {b} position {k}: scalar {got:?}, batch {:?}",
                    answers.get(k)
                )
            });
        }
    }
    Ok(())
}

/// Fails a run whose traffic drifted to the other side of its design.
fn regime_checks(
    w: Workload,
    hit_frac: f64,
    escalation_frac: f64,
    retrains: u64,
    lag_p99_us: f64,
    fails: &mut Failures,
) {
    let name = w.name();
    let (hit_ok, esc_ok, retrain_ok) = match w {
        Workload::RepeatHot => (hit_frac >= 0.95, escalation_frac == 0.0, retrains == 0),
        Workload::AdhocMiss => (
            hit_frac <= 0.05,
            escalation_frac > 0.0 && escalation_frac <= 0.10,
            retrains > 0,
        ),
        Workload::BatchPrice => (hit_frac <= 0.05, escalation_frac == 0.0, retrains == 0),
    };
    fails.check(hit_ok, || {
        format!("{name}: cache.hit_frac {hit_frac:.4} off design")
    });
    fails.check(esc_ok, || {
        format!("{name}: global.escalation_frac {escalation_frac:.4} off design")
    });
    fails.check(retrain_ok, || {
        format!("{name}: local.retrains_in_window {retrains} off design")
    });
    fails.check(lag_p99_us <= LAG_LIMIT_US, || {
        format!("{name}: client.lag_p99_us {lag_p99_us:.1} above {LAG_LIMIT_US}")
    });
}
