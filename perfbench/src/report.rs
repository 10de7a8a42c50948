//! Metrics, provenance and output: the human-readable report, the result
//! file under `.bench_out/`, and the one-line JSON result.

use crate::client::{Ledger, SLO_LIMIT_NS};
use crate::trace::{Phase, Span, Tracer, NO_PARENT};
use crate::workload::{Prepared, Workload, ENSEMBLE_ESTIMATORS, ENSEMBLE_MEMBERS};
use crate::Args;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Where the number came from: the served window, or for trace metrics
    /// the trace phase whose spans gave it.
    pub source: &'static str,
}

#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str, source: &'static str) {
        self.0.push(Metric {
            name,
            value,
            unit,
            source,
        });
    }
}

/// Nearest-rank quantile of raw samples (`ceil(p·n)`, clamped).
pub fn quantile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

pub fn quantile_ns(values: &[u64], p: f64) -> f64 {
    quantile(&values.iter().map(|&v| v as f64).collect::<Vec<_>>(), p)
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn rss_peak_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Host CPU ticks `(steal, total)` from `/proc/stat`: time the hypervisor
/// ran something else on this VM's CPUs.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(m: &mut Metrics, ledger: &Ledger, setup_s: &[f64], rss_peak_mib: f64) {
    let predictions: u64 = ledger.shards.iter().map(|t| t.predictions).sum();
    let served = "window";
    m.push(
        "predict_p50_us",
        quantile_ns(&ledger.predict_ns, 0.5) / 1e3,
        "us",
        served,
    );
    m.push(
        "predictions_per_s",
        predictions as f64 / ledger.window_s,
        "1/s",
        served,
    );
    m.push(
        "q_error_p50",
        quantile(&ledger.q_errors, 0.5),
        "ratio",
        served,
    );
    m.push(
        "q_error_p90",
        quantile(&ledger.q_errors, 0.9),
        "ratio",
        served,
    );
    m.push("rss_peak_mib", rss_peak_mib, "MiB", "process");
    m.push("setup_s", quantile(setup_s, 0.5), "s", "setup");
}

/// Reported by every run but not part of the result line: they do not
/// apply to every workload, read 0 on a passing run, or (the latency
/// tails) follow the host's steal time more than the server.
pub fn extra(ledger: &Ledger, check_failures: u64, retrains: u64, steal_frac: f64) -> Metrics {
    let mut m = Metrics::default();
    let w = "window";
    m.push("host.steal_frac", steal_frac, "frac", w);
    for (name, p) in [("predict_p90_us", 0.9), ("predict_p99_us", 0.99)] {
        m.push(name, quantile_ns(&ledger.predict_ns, p) / 1e3, "us", w);
    }
    if !ledger.observe_ns.is_empty() {
        m.push(
            "observe_p50_us",
            quantile_ns(&ledger.observe_ns, 0.5) / 1e3,
            "us",
            w,
        );
        m.push(
            "observe_p99_us",
            quantile_ns(&ledger.observe_ns, 0.99) / 1e3,
            "us",
            w,
        );
    }
    m.push(
        "predict_slo_miss_frac",
        ledger.slo_misses as f64 / ledger.predict_requests.max(1) as f64,
        "frac",
        w,
    );
    m.push(
        "failed_frac",
        (ledger.failed + check_failures) as f64 / ledger.attempted.max(1) as f64,
        "frac",
        w,
    );
    for (name, p) in [("client.lag_p50_us", 0.5), ("client.lag_p99_us", 0.99)] {
        m.push(name, quantile_ns(&ledger.lag_ns, p) / 1e3, "us", w);
    }
    m.push(
        "predict_samples",
        ledger.predict_ns.len() as f64,
        "count",
        w,
    );
    m.push(
        "observe_samples",
        ledger.observe_ns.len() as f64,
        "count",
        w,
    );
    m.push("window_s", ledger.window_s, "s", w);
    m.push("local.retrains_in_window", retrains as f64, "count", w);
    m
}

/// Store timings and outcome of the traced pass.
#[derive(Debug, Default)]
pub struct Traced {
    pub predict_s: f64,
    pub compared: u64,
    pub restore_ms: Vec<f64>,
    pub checkpoint_ms: Vec<f64>,
    pub shard_bytes: Vec<f64>,
}

/// Served-window numbers the per-layer report needs.
pub struct Served {
    pub client_p50_us: f64,
    pub lag_p99_us: f64,
    pub hit_frac: f64,
    pub escalation_frac: f64,
    pub retrains: u64,
    pub overhead: f64,
}

fn per_call(spans: &[Span], name: &str, phase: Phase) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && s.phase == phase)
        .map(|s| s.dur_ns as f64 / f64::from(s.count.max(1)))
        .collect()
}

/// Per-call times of `name` from the window's spans, or, for a layer the
/// window never reached, from the set-up's, or from a probe.
fn pick(spans: &[Span], name: &str) -> (Vec<f64>, &'static str) {
    for phase in [Phase::Window, Phase::Setup, Phase::Probe] {
        let v = per_call(spans, name, phase);
        if !v.is_empty() {
            return (v, phase.name());
        }
    }
    (Vec::new(), "none")
}

/// The per-layer metrics of a traced run.
pub fn per_layer(m: &mut Metrics, tracer: &Tracer, traced: &Traced, served: Served) {
    let spans = &tracer.spans;
    let median = |name: &str, scale: f64| {
        let (v, src) = pick(spans, name);
        (quantile(&v, 0.5) * scale, src)
    };
    let push_median =
        |m: &mut Metrics, metric: &'static str, span: &str, scale: f64, unit: &'static str| {
            let (v, src) = median(span, scale);
            m.push(metric, v, unit, src);
        };

    m.push("client.lag_p99_us", served.lag_p99_us, "us", "window");
    push_median(
        m,
        "wire.encode_request_ns",
        "wire.encode_request",
        1.0,
        "ns",
    );
    push_median(
        m,
        "wire.decode_request_ns",
        "wire.decode_request",
        1.0,
        "ns",
    );
    push_median(
        m,
        "wire.encode_response_ns",
        "wire.encode_response",
        1.0,
        "ns",
    );
    push_median(
        m,
        "wire.decode_response_ns",
        "wire.decode_response",
        1.0,
        "ns",
    );
    let bytes: Vec<f64> = tracer.request_bytes.iter().map(|&b| b as f64).collect();
    m.push(
        "wire.request_bytes",
        quantile(&bytes, 0.5),
        "bytes",
        "window",
    );

    // Children sums per span: re-timed layers (for self time) and direct
    // in-interval children (for unattributed time).
    let mut retimed = vec![0u64; spans.len()];
    let mut direct = vec![0u64; spans.len()];
    for s in spans.iter().filter(|s| s.parent != NO_PARENT) {
        let p = s.parent as usize;
        if s.retimed {
            retimed[p] += s.dur_ns;
        } else {
            direct[p] += s.dur_ns;
        }
    }
    let is_predict_root = |s: &Span| s.parent == NO_PARENT && s.name.starts_with("request.predict");
    let mut path: Vec<(&str, Vec<f64>)> = [
        "wire.encode_request",
        "wire.decode_request",
        "registry.with_shard_write",
        "wire.encode_response",
        "wire.decode_response",
    ]
    .iter()
    .map(|n| (*n, Vec::new()))
    .collect();
    for s in spans
        .iter()
        .filter(|s| s.phase == Phase::Window && s.parent != NO_PARENT)
    {
        if !is_predict_root(&spans[s.parent as usize]) {
            continue;
        }
        if let Some((_, v)) = path.iter_mut().find(|(n, _)| *n == s.name) {
            v.push(s.dur_ns as f64);
        }
    }
    let path_us: f64 = path.iter().map(|(_, v)| quantile(v, 0.5)).sum::<f64>() / 1e3;
    m.push(
        "server.residual_us",
        served.client_p50_us - path_us,
        "us",
        "window",
    );
    let lock: Vec<f64> = tracer.lock_wait_ns.iter().map(|&v| v as f64).collect();
    m.push(
        "registry.lock_wait_p99_us",
        quantile(&lock, 0.99) / 1e3,
        "us",
        "window",
    );
    push_median(m, "plan.featurize_ns", "plan.featurize", 1.0, "ns");
    push_median(m, "cache.key_ns", "cache.key", 1.0, "ns");
    push_median(m, "cache.lookup_ns", "cache.lookup", 1.0, "ns");
    push_median(m, "cache.record_ns", "cache.record", 1.0, "ns");
    m.push("cache.hit_frac", served.hit_frac, "frac", "window");
    push_median(m, "local.predict_us", "local.predict", 1e-3, "us");
    push_median(
        m,
        "local.predict_batch_row_us",
        "local.predict_batch",
        1e-3,
        "us",
    );
    let (retrain_ms, retrain_src) = [Phase::Window, Phase::Setup]
        .iter()
        .map(|&ph| {
            let v: Vec<f64> = spans
                .iter()
                .filter(|s| s.name == "stage.observe" && s.retrained && s.phase == ph)
                .map(|s| s.dur_ns as f64 / 1e6)
                .collect();
            (v, ph.name())
        })
        .find(|(v, _)| !v.is_empty())
        .unwrap_or((Vec::new(), "none"));
    m.push(
        "local.retrain_ms_p50",
        quantile(&retrain_ms, 0.5),
        "ms",
        retrain_src,
    );
    m.push(
        "local.retrain_ms_max",
        quantile(&retrain_ms, 1.0),
        "ms",
        retrain_src,
    );
    m.push(
        "local.retrains_in_window",
        served.retrains as f64,
        "count",
        "window",
    );
    push_median(m, "global.predict_us", "global.predict", 1e-3, "us");
    m.push(
        "global.escalation_frac",
        served.escalation_frac,
        "frac",
        "window",
    );
    push_median(m, "drift.calibrate_ns", "drift.calibrate", 1.0, "ns");
    push_median(m, "pool.add_ns", "pool.add", 1.0, "ns");
    push_median(m, "pool.to_dataset_ms", "pool.to_dataset", 1e-6, "ms");
    let self_ns: Vec<f64> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| {
            s.phase == Phase::Window
                && (s.name == "stage.predict" || s.name == "stage.predict_batch")
        })
        // Signed: the children are re-timed on warm caches, so on a path
        // as short as a cache hit they can exceed the real call.
        .map(|(i, s)| (s.dur_ns as f64 - retimed[i] as f64) / f64::from(s.count.max(1)))
        .collect();
    m.push(
        "stage.predict_self_ns",
        quantile(&self_ns, 0.5),
        "ns",
        "window",
    );
    push_median(m, "stage.observe_us", "stage.observe", 1e-3, "us");
    m.push(
        "store.checkpoint_ms",
        quantile(&traced.checkpoint_ms, 0.5),
        "ms",
        "store",
    );
    m.push(
        "store.restore_ms",
        quantile(&traced.restore_ms, 0.5),
        "ms",
        "store",
    );
    m.push(
        "store.shard_bytes",
        quantile(&traced.shard_bytes, 0.5),
        "bytes",
        "store",
    );
    m.push("trace.overhead_frac", served.overhead, "frac", "window");
    let (mut root_ns, mut covered_ns) = (0u64, 0u64);
    for (i, s) in spans.iter().enumerate() {
        if s.parent == NO_PARENT && s.phase == Phase::Window && s.name.starts_with("request.") {
            root_ns += s.dur_ns;
            covered_ns += direct[i].min(s.dur_ns);
        }
    }
    m.push(
        "trace.unattributed_frac",
        (root_ns - covered_ns) as f64 / root_ns.max(1) as f64,
        "frac",
        "window",
    );
    if path_us > served.client_p50_us {
        println!(
            "perfbench: double counting: the in-process request path sums to {path_us:.2} us, \
             above the untraced client median {:.2} us",
            served.client_p50_us
        );
    }
}

/// What every result records about the code, host and configuration.
pub struct Provenance(Vec<(&'static str, String)>);

fn git_revision() -> String {
    if !Path::new(".git").exists() {
        return "unknown (not a git checkout)".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a-64 over the sources the benchmark builds from, so results from a
/// checkout without git history still identify their code.
fn source_fingerprint() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, out);
                }
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("fnv1a64:{h:016x} over {} files", files.len())
}

impl Provenance {
    pub fn collect(args: &Args, prepared: &Prepared, hit_frac: f64) -> Self {
        let spec = prepared.spec;
        let rate = match spec.pairs_per_shard_s {
            Some(r) => format!(
                "open loop, {} Predict+Observe pairs/s ({} per shard)",
                r * f64::from(spec.shards),
                r
            ),
            None => "closed loop, 1 connection, 1 request in flight".to_string(),
        };
        let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
        Self(vec![
            ("workload", args.workload.name().to_string()),
            ("seed", args.seed.to_string()),
            ("seconds", args.seconds.to_string()),
            ("trace", u8::from(args.trace).to_string()),
            ("git_revision", git_revision()),
            ("source", source_fingerprint()),
            ("host_cores", cores.to_string()),
            (
                "ensemble",
                format!("{ENSEMBLE_MEMBERS}x{ENSEMBLE_ESTIMATORS}"),
            ),
            ("codec", "binary".to_string()),
            ("batch_width", spec.batch_width.to_string()),
            ("offered_rate", rate),
            ("shards", spec.shards.to_string()),
            ("global_model", spec.global.to_string()),
            (
                "checkpoint_every_s",
                spec.checkpoint_every
                    .map_or("none".to_string(), |d| d.as_secs_f64().to_string()),
            ),
            ("measured_hit_share", hit_frac.to_string()),
            ("warm_events", format!("{:?}", prepared.warm_events)),
            ("warm_pool_rows", format!("{:?}", prepared.warm_pool_rows)),
            (
                "window_pool_events",
                format!(
                    "{:?}",
                    prepared.window.iter().map(Vec::len).collect::<Vec<_>>()
                ),
            ),
            ("slo_limit_ms", (SLO_LIMIT_NS as f64 / 1e6).to_string()),
        ])
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\":\"{}\"", v.replace('"', "'")))
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

pub struct Outcome {
    pub metrics: Metrics,
    pub extra: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub provenance: Provenance,
    pub failures: Vec<String>,
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn metrics_json(m: &Metrics, with_source: bool) -> String {
    let fields: Vec<String> =
        m.0.iter()
            .map(|x| {
                let source = if with_source {
                    format!(",\"source\":\"{}\"", x.source)
                } else {
                    String::new()
                };
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"{source}}}",
                    x.name,
                    num(x.value),
                    x.unit
                )
            })
            .collect();
    format!("{{{}}}", fields.join(","))
}

impl Outcome {
    /// Correct when every check passed and every metric is a number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.0.iter().all(|m| m.value.is_finite())
    }

    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics_json(&self.metrics, false)
        )
    }

    pub fn print_report(&self, w: Workload) {
        println!("perfbench: provenance {}", self.provenance.json());
        for m in self.metrics.0.iter().chain(&self.extra.0) {
            println!(
                "perfbench: {} {:<28} {:>14} {:<6} [{}]",
                w.name(),
                m.name,
                num(m.value),
                m.unit,
                m.source
            );
        }
        for f in &self.failures {
            println!("perfbench: FAILED CHECK: {f}");
        }
        for m in self.metrics.0.iter().filter(|m| !m.value.is_finite()) {
            println!("perfbench: FAILED CHECK: {} is not a number", m.name);
        }
    }

    /// Writes the full result (provenance, every metric with its source,
    /// failed checks) to `.bench_out/`.
    pub fn write_file(&self, w: Workload, seed: u64, trace: bool) -> io::Result<()> {
        let dir = PathBuf::from(".bench_out");
        std::fs::create_dir_all(&dir)?;
        let mut s = String::new();
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| format!("\"{}\"", f.replace('"', "'")))
            .collect();
        let _ = write!(
            s,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"provenance\":{},\
             \"metrics\":{},\"extra\":{},\"failed_checks\":[{}]}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.provenance.json(),
            metrics_json(&self.metrics, true),
            metrics_json(&self.extra, true),
            failures.join(",")
        );
        let name = format!("{}-seed{seed}-trace{}.json", w.name(), u8::from(trace));
        std::fs::write(dir.join(name), s + "\n")
    }
}
