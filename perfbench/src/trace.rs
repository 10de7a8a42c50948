//! The in-process trace: the same requests the server answered, run
//! through the wire codec, a `ShardRegistry` and `StagePredictor`, with one
//! span per public call. Spans are recorded here, around the calls; no
//! crate is instrumented.
//!
//! A request's spans share its id. The real answer always comes from
//! `StagePredictor::predict` / `predict_batch` / `observe` under
//! `ShardRegistry::with_shard_write`. The child layers of those calls are
//! then timed again, after the real call, on the same inputs through
//! read-only accessors (or, for the cache and the training pool, on a
//! mirror copy that receives the same operations). Which children are
//! timed follows the returned `PredictionSource`, so the benchmark never
//! re-implements the routing ladder. Re-timed spans are marked `retimed`
//! and lie outside their parent's interval; a parent's self time is its
//! duration minus theirs.

use crate::workload::Event;
use stage_core::{
    ExecTimeCache, GlobalModel, Prediction, PredictionSource, SystemContext, TrainingPool,
};
use stage_plan::{plan_feature_vector, PhysicalPlan};
use stage_serve::wire::{self, Unframed};
use stage_serve::{BatchPrediction, Request, Response, ShardRegistry};
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Where a span's work happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Warm-up training during set-up.
    Setup,
    /// The window's request sequence.
    Window,
    /// A layer timed on the workload's inputs off its request path.
    Probe,
}

impl Phase {
    pub fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Window => "window",
            Phase::Probe => "probe",
        }
    }
}

/// Index value of a root span's parent.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub req: u32,
    pub parent: u32,
    pub name: &'static str,
    pub phase: Phase,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Identical calls covered by this span (batch loops); per-call time is
    /// `dur_ns / count`.
    pub count: u32,
    pub retimed: bool,
    /// On `stage.observe`: a local retrain ran inside the call.
    pub retrained: bool,
}

/// One served answer, as bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub exec: u64,
    pub lo: Option<u64>,
    pub hi: Option<u64>,
    pub source: PredictionSource,
}

impl Answer {
    pub fn new(exec: f64, lo: Option<f64>, hi: Option<f64>, source: PredictionSource) -> Self {
        Self {
            exec: exec.to_bits(),
            lo: lo.map(f64::to_bits),
            hi: hi.map(f64::to_bits),
            source,
        }
    }

    pub fn of(p: &Prediction, interval: Option<(f64, f64)>) -> Self {
        Self::new(
            p.exec_secs,
            interval.map(|i| i.0),
            interval.map(|i| i.1),
            p.source,
        )
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    pub phase: Phase,
    /// Whether requests also cross the wire codec (the window does; the
    /// set-up's warm-up observes are in-process calls).
    pub wire: bool,
    /// Framed request sizes of window requests.
    pub request_bytes: Vec<u64>,
    /// `with_shard_write` time outside its closure, window requests.
    pub lock_wait_ns: Vec<u64>,
    /// Mirror copies that receive the same cache and pool operations as the
    /// shards, so `lookup`, `record` and `add` are timed on identical state.
    mirror_cache: Vec<ExecTimeCache>,
    mirror_pool: Vec<TrainingPool>,
    global: Option<Arc<GlobalModel>>,
    /// Mirror or global re-timings that disagreed with the served answer.
    pub mismatches: u64,
    next_req: u32,
    enc: Vec<u8>,
    frame: Vec<u8>,
}

/// Runs `f`, returning its result with the instants around it.
fn timed<R>(f: impl FnOnce() -> R) -> (R, Instant, Instant) {
    let t0 = Instant::now();
    let r = f();
    (r, t0, Instant::now())
}

/// Whether the mirror cache's lookup agrees with the served prediction: a
/// hit with the same bits for a cache answer, a miss for any other.
fn mirror_agrees(hit: Option<f64>, p: &Prediction) -> bool {
    match p.source {
        PredictionSource::Cache => hit.map(f64::to_bits) == Some(p.exec_secs.to_bits()),
        _ => hit.is_none(),
    }
}

fn elapsed_ns(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            phase: Phase::Setup,
            wire: false,
            request_bytes: Vec::new(),
            lock_wait_ns: Vec::new(),
            mirror_cache: Vec::new(),
            mirror_pool: Vec::new(),
            global: None,
            mismatches: 0,
            next_req: 0,
            enc: Vec::new(),
            frame: Vec::new(),
        }
    }

    /// Points the mirrors at `registry`'s current state.
    pub fn attach(&mut self, registry: &ShardRegistry, global: Option<Arc<GlobalModel>>) {
        let n = registry.len() as u32;
        self.mirror_cache = (0..n)
            .filter_map(|id| registry.with_shard_read(id, |s| s.predictor().cache().clone()))
            .collect();
        self.mirror_pool = (0..n)
            .filter_map(|id| registry.with_shard_read(id, |s| s.predictor().pool().clone()))
            .collect();
        self.global = global;
    }

    fn new_req(&mut self) -> u32 {
        self.next_req += 1;
        self.next_req
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        req: u32,
        parent: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
        count: u32,
        retimed: bool,
    ) -> u32 {
        self.spans.push(Span {
            req,
            parent,
            name,
            phase: self.phase,
            start_ns: elapsed_ns(self.epoch, start),
            dur_ns: elapsed_ns(start, end),
            count,
            retimed,
            retrained: false,
        });
        (self.spans.len() - 1) as u32
    }

    /// Times `f` as a re-timed child span.
    fn retime<R>(&mut self, req: u32, parent: u32, name: &'static str, f: impl FnOnce() -> R) -> R {
        let (r, t0, t1) = timed(f);
        self.push(req, parent, name, t0, t1, 1, true);
        r
    }

    /// Client encode + server decode of `request`, as the binary codec does
    /// it. Returns the request the server would dispatch.
    fn request_over_wire(&mut self, req: u32, root: u32, request: &Request) -> Request {
        let t0 = Instant::now();
        self.enc.clear();
        wire::encode_request(request, &mut self.enc);
        self.frame.clear();
        let framed = wire::frame_into(&mut self.frame, &self.enc);
        let t1 = Instant::now();
        let decoded = match (framed, wire::try_unframe(&self.frame)) {
            (Ok(()), Ok(Unframed::Frame { payload, .. })) => wire::decode_request(payload).ok(),
            _ => None,
        };
        let t2 = Instant::now();
        self.push(req, root, "wire.encode_request", t0, t1, 1, false);
        self.push(req, root, "wire.decode_request", t1, t2, 1, false);
        if self.phase == Phase::Window {
            self.request_bytes.push(self.frame.len() as u64);
        }
        decoded.unwrap_or_else(|| {
            self.mismatches += 1;
            request.clone()
        })
    }

    /// Server encode + client decode of `response`.
    fn response_over_wire(&mut self, req: u32, root: u32, response: &Response) -> Option<Response> {
        let t0 = Instant::now();
        self.enc.clear();
        wire::encode_response(response, &mut self.enc);
        self.frame.clear();
        let framed = wire::frame_into(&mut self.frame, &self.enc);
        let t1 = Instant::now();
        let decoded = match (framed, wire::try_unframe(&self.frame)) {
            (Ok(()), Ok(Unframed::Frame { payload, .. })) => wire::decode_response(payload).ok(),
            _ => None,
        };
        let t2 = Instant::now();
        self.push(req, root, "wire.encode_response", t0, t1, 1, false);
        self.push(req, root, "wire.decode_response", t1, t2, 1, false);
        if decoded.is_none() {
            self.mismatches += 1;
        }
        decoded
    }

    fn close_lock(&mut self, req: u32, root: u32, t0: Instant, t1: Instant, inner_ns: u64) -> u32 {
        let id = self.push(req, root, "registry.with_shard_write", t0, t1, 1, false);
        if self.phase == Phase::Window {
            self.lock_wait_ns
                .push(elapsed_ns(t0, t1).saturating_sub(inner_ns));
        }
        id
    }

    /// One traced Observe of `e` executed in `secs`.
    pub fn observe(&mut self, registry: &ShardRegistry, shard: u32, e: &Event, secs: f64) {
        let req = self.new_req();
        let root_t0 = Instant::now();
        let root = self.push(
            req,
            NO_PARENT,
            "request.observe",
            root_t0,
            root_t0,
            1,
            false,
        );
        let (plan, sys, secs) = if self.wire {
            match self.request_over_wire(
                req,
                root,
                &Request::Observe {
                    instance: shard,
                    plan: e.plan.clone(),
                    sys: e.sys.clone(),
                    actual_secs: secs,
                },
            ) {
                Request::Observe {
                    plan,
                    sys,
                    actual_secs,
                    ..
                } => (plan, sys, actual_secs),
                _ => (e.plan.clone(), e.sys.clone(), secs),
            }
        } else {
            (e.plan.clone(), e.sys.clone(), secs)
        };
        let sys = SystemContext { features: sys };
        let l0 = Instant::now();
        let inner = registry.with_shard_write(shard, |s| {
            let trained = s.predictor().local().trainings();
            let added = s.predictor().pool().total_added();
            let a = Instant::now();
            s.observe(&plan, &sys, secs);
            let b = Instant::now();
            (
                a,
                b,
                s.predictor().local().trainings() > trained,
                s.predictor().pool().total_added() > added,
            )
        });
        let l1 = Instant::now();
        let Some((a, b, retrained, added)) = inner else {
            self.mismatches += 1;
            return;
        };
        let lock = self.close_lock(req, root, l0, l1, elapsed_ns(a, b));
        let obs = self.push(req, lock, "stage.observe", a, b, 1, false);
        if let Some(span) = self.spans.get_mut(obs as usize) {
            span.retrained = retrained;
        }
        if self.wire {
            self.response_over_wire(req, root, &Response::Observed { latency_us: 0 });
        }
        self.end_root(root);

        // Children of StagePredictor::observe, re-timed on the same inputs.
        let key = self.retime(req, obs, "cache.key", || ExecTimeCache::key_of(&plan));
        let features = self.retime(req, obs, "plan.featurize", || plan_feature_vector(&plan).0);
        self.time_local_predict(registry, shard, req, obs, &features);
        let s = shard as usize;
        if let Some(cache) = self.mirror_cache.get_mut(s) {
            let ((), t0, t1) = timed(|| cache.record(key, secs));
            self.push(req, obs, "cache.record", t0, t1, 1, true);
        }
        if added {
            let row = features.clone();
            if let Some(pool) = self.mirror_pool.get_mut(s) {
                let ((), t0, t1) = timed(|| pool.add(row, secs));
                self.push(req, obs, "pool.add", t0, t1, 1, true);
            }
        }
        if retrained {
            let timed = registry.with_shard_read(shard, |sh| {
                let t0 = Instant::now();
                let d = sh.predictor().pool().to_dataset();
                (t0, Instant::now(), d.is_some())
            });
            if let Some((t0, t1, _)) = timed {
                self.push(req, obs, "pool.to_dataset", t0, t1, 1, true);
            }
        }
    }

    fn time_local_predict(
        &mut self,
        registry: &ShardRegistry,
        shard: u32,
        req: u32,
        parent: u32,
        features: &[f64],
    ) {
        let timed = registry.with_shard_read(shard, |s| {
            let t0 = Instant::now();
            let p = s.predictor().local().predict(features);
            (t0, Instant::now(), p.is_some())
        });
        if let Some((t0, t1, _)) = timed {
            self.push(req, parent, "local.predict", t0, t1, 1, true);
        }
    }

    fn end_root(&mut self, root: u32) {
        let now = Instant::now();
        if let Some(span) = self.spans.get_mut(root as usize) {
            span.dur_ns = elapsed_ns(self.epoch, now).saturating_sub(span.start_ns);
        }
    }

    /// One traced Predict; returns the answer as the client decoded it.
    pub fn predict(&mut self, registry: &ShardRegistry, shard: u32, e: &Event) -> Option<Answer> {
        let req = self.new_req();
        let root_t0 = Instant::now();
        let root = self.push(
            req,
            NO_PARENT,
            "request.predict",
            root_t0,
            root_t0,
            1,
            false,
        );
        let (plan, sys) = match self.request_over_wire(
            req,
            root,
            &Request::Predict {
                instance: shard,
                plan: e.plan.clone(),
                sys: e.sys.clone(),
            },
        ) {
            Request::Predict { plan, sys, .. } => (plan, sys),
            _ => (e.plan.clone(), e.sys.clone()),
        };
        let sys = SystemContext { features: sys };
        let l0 = Instant::now();
        let inner = registry.with_shard_write(shard, |s| {
            let a = Instant::now();
            let p = s.predict(&plan, &sys);
            let b = Instant::now();
            let interval = s.calibrated_interval(&p);
            (a, b, Instant::now(), p, interval)
        });
        let l1 = Instant::now();
        let (a, b, c, p, interval) = inner?;
        let lock = self.close_lock(req, root, l0, l1, elapsed_ns(a, c));
        let pred = self.push(req, lock, "stage.predict", a, b, 1, false);
        self.push(req, lock, "drift.calibrate", b, c, 1, false);
        let response = Response::Predicted {
            exec_secs: p.exec_secs,
            interval_lo: interval.map(|i| i.0),
            interval_hi: interval.map(|i| i.1),
            source: p.source,
            latency_us: 0,
        };
        let decoded = self.response_over_wire(req, root, &response);
        self.end_root(root);
        self.predict_children(registry, shard, req, pred, &plan, &sys, &p);
        match decoded {
            Some(Response::Predicted {
                exec_secs,
                interval_lo,
                interval_hi,
                source,
                ..
            }) => Some(Answer::new(exec_secs, interval_lo, interval_hi, source)),
            _ => Some(Answer::of(&p, interval)),
        }
    }

    /// Children of `StagePredictor::predict`, chosen by the answer's source.
    #[allow(clippy::too_many_arguments)]
    fn predict_children(
        &mut self,
        registry: &ShardRegistry,
        shard: u32,
        req: u32,
        parent: u32,
        plan: &PhysicalPlan,
        sys: &SystemContext,
        p: &Prediction,
    ) {
        let key = self.retime(req, parent, "cache.key", || ExecTimeCache::key_of(plan));
        let s = shard as usize;
        if let Some(cache) = self.mirror_cache.get_mut(s) {
            let (hit, t0, t1) = timed(|| cache.lookup(key));
            self.push(req, parent, "cache.lookup", t0, t1, 1, true);
            self.mismatches += u64::from(!mirror_agrees(hit, p));
        }
        if p.source == PredictionSource::Cache {
            return;
        }
        let features = self.retime(req, parent, "plan.featurize", || {
            plan_feature_vector(plan).0
        });
        self.time_local_predict(registry, shard, req, parent, &features);
        if p.source == PredictionSource::Global {
            self.time_global(req, parent, plan, sys, Some(p.exec_secs));
        }
    }

    /// Times `GlobalModel::predict`; with `expect`, checks the bits.
    pub fn time_global(
        &mut self,
        req: u32,
        parent: u32,
        plan: &PhysicalPlan,
        sys: &SystemContext,
        expect: Option<f64>,
    ) {
        let Some(global) = self.global.clone() else {
            self.mismatches += u64::from(expect.is_some());
            return;
        };
        let got = self.retime(req, parent, "global.predict", || global.predict(plan, sys));
        if expect.is_some_and(|x| x.to_bits() != got.to_bits()) {
            self.mismatches += 1;
        }
    }

    /// One traced PredictBatch over `events` (sharing the first one's
    /// system context, as the client sends it).
    pub fn predict_batch(
        &mut self,
        registry: &ShardRegistry,
        shard: u32,
        events: &[Event],
    ) -> Option<Vec<Answer>> {
        let req = self.new_req();
        let root_t0 = Instant::now();
        let root = self.push(
            req,
            NO_PARENT,
            "request.predict_batch",
            root_t0,
            root_t0,
            1,
            false,
        );
        let first = events.first()?;
        let (plans, sys) = match self.request_over_wire(
            req,
            root,
            &Request::PredictBatch {
                instance: shard,
                plans: events.iter().map(|e| e.plan.clone()).collect(),
                sys: first.sys.clone(),
            },
        ) {
            Request::PredictBatch { plans, sys, .. } => (plans, sys),
            _ => (
                events.iter().map(|e| e.plan.clone()).collect(),
                first.sys.clone(),
            ),
        };
        let sys = SystemContext { features: sys };
        let l0 = Instant::now();
        let inner = registry.with_shard_write(shard, |s| {
            let a = Instant::now();
            let ps = s.predict_batch(&plans, &sys);
            let b = Instant::now();
            let intervals: Vec<_> = ps.iter().map(|p| s.calibrated_interval(p)).collect();
            (a, b, Instant::now(), ps, intervals)
        });
        let l1 = Instant::now();
        let (a, b, c, ps, intervals) = inner?;
        let n = ps.len() as u32;
        let lock = self.close_lock(req, root, l0, l1, elapsed_ns(a, c));
        let pred = self.push(req, lock, "stage.predict_batch", a, b, n, false);
        self.push(req, lock, "drift.calibrate", b, c, n, false);
        let response = Response::PredictionsBatch {
            predictions: ps
                .iter()
                .zip(&intervals)
                .map(|(p, i)| BatchPrediction {
                    exec_secs: p.exec_secs,
                    interval_lo: i.map(|x| x.0),
                    interval_hi: i.map(|x| x.1),
                    source: p.source,
                })
                .collect(),
            latency_us: 0,
        };
        let decoded = self.response_over_wire(req, root, &response);
        self.end_root(root);

        // Children of StagePredictor::predict_batch.
        let t0 = Instant::now();
        let features: Vec<Vec<f64>> = plans.iter().map(|p| plan_feature_vector(p).0).collect();
        let t1 = Instant::now();
        let keys: Vec<u64> = features
            .iter()
            .map(|f| ExecTimeCache::key_of_features(f))
            .collect();
        let t2 = Instant::now();
        self.push(req, pred, "plan.featurize", t0, t1, n, true);
        self.push(req, pred, "cache.key", t1, t2, n, true);
        let s = shard as usize;
        if let Some(cache) = self.mirror_cache.get_mut(s) {
            let (hits, t0, t1) = timed(|| {
                keys.iter()
                    .map(|k| cache.get_by_key(*k))
                    .collect::<Vec<_>>()
            });
            self.push(req, pred, "cache.lookup", t0, t1, n, true);
            for (h, p) in hits.iter().zip(&ps) {
                self.mismatches += u64::from(!mirror_agrees(*h, p));
            }
        }
        let misses: Vec<&Vec<f64>> = features
            .iter()
            .zip(&ps)
            .filter(|(_, p)| p.source != PredictionSource::Cache)
            .map(|(f, _)| f)
            .collect();
        if !misses.is_empty() {
            let timed = registry.with_shard_read(shard, |sh| {
                let t0 = Instant::now();
                let r = sh.predictor().local().predict_batch(&misses);
                (t0, Instant::now(), r.is_some())
            });
            if let Some((t0, t1, _)) = timed {
                self.push(
                    req,
                    pred,
                    "local.predict_batch",
                    t0,
                    t1,
                    misses.len() as u32,
                    true,
                );
            }
        }
        for (plan, p) in plans.iter().zip(&ps) {
            if p.source == PredictionSource::Global {
                self.time_global(req, pred, plan, &sys, Some(p.exec_secs));
            }
        }
        let answers = match decoded {
            Some(Response::PredictionsBatch { predictions, .. }) => predictions
                .iter()
                .map(|bp| Answer::new(bp.exec_secs, bp.interval_lo, bp.interval_hi, bp.source))
                .collect(),
            _ => ps
                .iter()
                .zip(&intervals)
                .map(|(p, i)| Answer::of(p, *i))
                .collect(),
        };
        Some(answers)
    }

    /// Off-path probe: `LocalModel::predict_batch` over `events` in groups
    /// of `width`, on shard `shard`'s trained model.
    pub fn probe_local_batch(
        &mut self,
        registry: &ShardRegistry,
        shard: u32,
        events: &[Event],
        width: usize,
    ) {
        let prev = self.phase;
        self.phase = Phase::Probe;
        for chunk in events.chunks(width.max(1)) {
            let req = self.new_req();
            let rows: Vec<Vec<f64>> = chunk
                .iter()
                .map(|e| plan_feature_vector(&e.plan).0)
                .collect();
            let timed = registry.with_shard_read(shard, |s| {
                let t0 = Instant::now();
                let r = s.predictor().local().predict_batch(&rows);
                (t0, Instant::now(), r.is_some())
            });
            if let Some((t0, t1, true)) = timed {
                self.push(
                    req,
                    NO_PARENT,
                    "local.predict_batch",
                    t0,
                    t1,
                    rows.len() as u32,
                    true,
                );
            }
        }
        self.phase = prev;
    }

    /// Off-path probe: `GlobalModel::predict` on `events`' plans.
    pub fn probe_global(&mut self, global: Arc<GlobalModel>, events: &[Event]) {
        let prev = (self.phase, self.global.replace(global));
        self.phase = Phase::Probe;
        for e in events {
            let req = self.new_req();
            let sys = SystemContext {
                features: e.sys.clone(),
            };
            self.time_global(req, NO_PARENT, &e.plan, &sys, None);
        }
        self.phase = prev.0;
        self.global = prev.1;
    }

    /// Writes the spans as JSON lines.
    pub fn write_spans(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"req\":{},\"parent\":{parent},\"name\":\"{}\",\"phase\":\"{}\",\
                 \"start_ns\":{},\"dur_ns\":{},\"count\":{},\"retimed\":{},\"retrained\":{}}}",
                s.req,
                s.name,
                s.phase.name(),
                s.start_ns,
                s.dur_ns,
                s.count,
                s.retimed,
                s.retrained
            )?;
        }
        out.flush()
    }
}
