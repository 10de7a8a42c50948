//! The three traffic mixes and their set-up: each shard's events, sliced by
//! the seed from a fixed generated fleet; warm-up training of each instance
//! shard in process; the store artefacts the server warm-starts from; and
//! the server itself.

use crate::trace::Tracer;
use rand::rngs::StdRng;
use stage_core::{
    plan_to_tree_sample, save_global_store, ExecTimeCache, GlobalModel, GlobalModelConfig,
    LocalModelConfig, StageConfig, SystemContext,
};
use stage_gbdt::{EnsembleParams, NgBoostParams};
use stage_plan::PhysicalPlan;
use stage_serve::wire::HANDSHAKE;
use stage_serve::{ServeConfig, Server, ShardRegistry};
use stage_workload::instance::INSTANCE_FEATURE_DIM;
use stage_workload::{
    CostTruthModel, FleetConfig, InstanceSpec, InstanceTruth, InstanceWorkload, LoadProfile,
    TemplateKind,
};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Members × estimators of the local ensemble: the paper's 10 × 200.
pub const ENSEMBLE_MEMBERS: usize = 10;
/// Boosting rounds per member (early stopping may end a member sooner).
pub const ENSEMBLE_ESTIMATORS: usize = 200;

/// Salt separating the global model's training fleet from the served one.
const TRAIN_FLEET_SALT: u64 = 0x7E11_6A0B_A1F1_EE75;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RepeatHot,
    AdhocMiss,
    BatchPrice,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "repeat-hot" => Some(Self::RepeatHot),
            "adhoc-miss" => Some(Self::AdhocMiss),
            "batch-price" => Some(Self::BatchPrice),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::RepeatHot => "repeat-hot",
            Self::AdhocMiss => "adhoc-miss",
            Self::BatchPrice => "batch-price",
        }
    }

    /// The fixed shape of each mix.
    pub fn spec(self) -> Spec {
        match self {
            Self::RepeatHot => Spec {
                shards: 2,
                pairs_per_shard_s: Some(2_000.0),
                batch_width: 1,
                global: false,
                checkpoint_every: None,
            },
            Self::AdhocMiss => Spec {
                shards: 2,
                pairs_per_shard_s: Some(100.0),
                batch_width: 1,
                global: true,
                checkpoint_every: Some(Duration::from_secs(1)),
            },
            Self::BatchPrice => Spec {
                shards: 1,
                pairs_per_shard_s: None,
                batch_width: 64,
                global: false,
                checkpoint_every: None,
            },
        }
    }
}

/// Shape of one traffic mix.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Instance shards, one connection each.
    pub shards: u32,
    /// Open loop: offered Predict+Observe pairs per second per shard.
    /// `None`: closed loop.
    pub pairs_per_shard_s: Option<f64>,
    /// Plans per Predict request (1 = scalar verb).
    pub batch_width: usize,
    /// Whether a fleet-trained global model is mapped into the server.
    pub global: bool,
    /// Background checkpoint cadence.
    pub checkpoint_every: Option<Duration>,
}

/// Ad-hoc events observed by shard 0 during warm-up: retrains fire at 30,
/// 330, 630 and 930 observations, leaving a pool of ~1.2k rows whose next
/// default-interval retrain is 30 misses into the window.
const ADHOC_WARM_EVENTS: usize = 1_200;

/// Each further shard warms up on this many fewer events, so its retrains
/// fall half an interval after shard 0's instead of on the same requests
/// (two loops retraining at once would leave no core for the generator).
const ADHOC_WARM_STAGGER: usize = 150;

/// Unseen plans priced by `batch-price` (cycled: no observes means they
/// stay unseen).
const BATCH_PLANS: usize = 64 * 32;

/// The served Stage configuration: defaults except the paper's ensemble.
pub fn stage_config() -> StageConfig {
    StageConfig {
        local: LocalModelConfig {
            ensemble: EnsembleParams {
                n_members: ENSEMBLE_MEMBERS,
                member: NgBoostParams {
                    n_estimators: ENSEMBLE_ESTIMATORS,
                    ..NgBoostParams::default()
                },
                seed: 42,
            },
            ..LocalModelConfig::default()
        },
        ..StageConfig::default()
    }
}

/// One query as the client sends it.
#[derive(Debug, Clone)]
pub struct Event {
    pub plan: PhysicalPlan,
    pub sys: Vec<f64>,
    pub true_secs: f64,
}

/// Seed of the generated fleet every workload draws its instances from.
///
/// The instances are fixed; `--seed` picks where each shard's warm-up
/// starts in its instance's log and which of the later queries the window
/// sends, in which order. Across freshly generated fleets, per-instance
/// retrain time and model accuracy differ by 20–40 %, which would swamp any
/// regression bound; and in this fleet both ad-hoc instances produce the
/// long, uncertain predictions that escalate to the global model.
pub const FLEET_SEED: u64 = 12;

fn fleet(workload: Workload) -> FleetConfig {
    match workload {
        // A day of a dashboard-heavy instance: plans only change at the
        // daily statistics refresh, so dashboards recur exactly.
        Workload::RepeatHot => FleetConfig {
            n_instances: 2,
            duration_days: 1.0,
            seed: FLEET_SEED,
            max_events_per_instance: 50_000,
            ..FleetConfig::default()
        },
        // Ad-hoc-heavy: parameter jitter makes nearly every plan new.
        Workload::AdhocMiss | Workload::BatchPrice => FleetConfig {
            n_instances: 2,
            duration_days: 4.0,
            seed: FLEET_SEED,
            dashboards: (0, 0),
            reports: (1, 2),
            adhoc: (80, 100),
            etl: (0, 1),
            max_events_per_instance: 50_000,
            ..FleetConfig::default()
        },
    }
}

/// Where shard `shard`'s warm-up starts in its log, drawn from `seed`:
/// the first `span` events are candidates.
fn warm_start(seed: u64, shard: u32, span: usize) -> usize {
    let mut state = seed ^ (u64::from(shard) + 1).wrapping_mul(0xA076_1D64_78BD_642F);
    (crate::client::splitmix(&mut state) % span.max(1) as u64) as usize
}

/// Dashboard-heavy events observed per shard during warm-up (the smaller
/// instance logs ~1.5k events in its day).
const REPEAT_WARM_EVENTS: usize = 900;

/// Latest warm-up start on the dashboard logs.
const REPEAT_START_SPAN: usize = 300;

/// Latest warm-up start on the ad-hoc logs (each holds ~3k events; warm-up
/// plus window need ~2.2k).
const ADHOC_START_SPAN: usize = 600;

/// The instance log as client events, each with its template's role and
/// its index in the log.
fn events_of(w: &InstanceWorkload) -> Vec<(Option<TemplateKind>, Event, usize)> {
    w.events
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let kind = w.templates.get(e.template_id as usize).map(|t| t.kind);
            let event = Event {
                plan: e.plan.clone(),
                sys: w.spec.system_features(e.concurrency),
                true_secs: e.true_exec_secs,
            };
            (kind, event, i)
        })
        .collect()
}

/// Fresh executions of a shard's recurring queries, drawn from its
/// instance's cost model exactly as the generator draws each logged run.
/// A replayed dashboard then runs with new noise every time, instead of
/// repeating one recorded execution (outlier included) every cycle.
pub struct Executions {
    model: CostTruthModel,
    spec: InstanceSpec,
    truth: InstanceTruth,
    load: LoadProfile,
    /// Per window event: true and scanned rows, template latent factor,
    /// arrival time in the log.
    runs: Vec<(Vec<f64>, Vec<f64>, f64, f64)>,
}

impl Executions {
    fn new(cfg: &FleetConfig, w: &InstanceWorkload, log_index: &[usize]) -> Self {
        let runs = log_index
            .iter()
            .filter_map(|&i| w.events.get(i))
            .map(|e| {
                let latent = w
                    .templates
                    .get(e.template_id as usize)
                    .map_or(1.0, |t| t.latent_factor());
                (
                    e.true_rows.clone(),
                    e.scanned_rows.clone(),
                    latent,
                    e.arrival_secs,
                )
            })
            .collect();
        Self {
            model: cfg.truth_model.clone(),
            spec: w.spec,
            truth: w.truth.clone(),
            load: w.load.clone(),
            runs,
        }
    }

    /// One execution time of window event `event`.
    pub fn draw(&self, plan: &PhysicalPlan, event: usize, rng: &mut StdRng) -> Option<f64> {
        let (true_rows, scanned, latent, at) = self.runs.get(event)?;
        let load = self.load.factor(*at, rng);
        let secs =
            self.model
                .exec_time(plan, true_rows, scanned, &self.spec, &self.truth, load, rng);
        Some(secs * latent)
    }
}

/// A small fleet-trained global model (plan GCN): a training fleet disjoint
/// from the served instances, a few hundred samples each, CPU-sized.
pub fn train_global(seed: u64) -> GlobalModel {
    let cfg = FleetConfig {
        n_instances: 4,
        seed: FLEET_SEED ^ TRAIN_FLEET_SALT,
        ..fleet(Workload::AdhocMiss)
    };
    let mut samples = Vec::new();
    for id in 0..4 {
        let w = InstanceWorkload::generate(&cfg, id);
        for e in w.events.iter().step_by(4).take(150) {
            let sys = SystemContext {
                features: w.spec.system_features(e.concurrency),
            };
            samples.push(plan_to_tree_sample(&e.plan, &sys, e.true_exec_secs));
        }
    }
    GlobalModel::train(
        &samples,
        INSTANCE_FEATURE_DIM,
        &GlobalModelConfig {
            hidden: 16,
            gcn_layers: 2,
            epochs: 6,
            seed,
            ..GlobalModelConfig::default()
        },
    )
}

/// Everything a run needs after set-up.
pub struct Prepared {
    pub spec: Spec,
    /// Per shard: the events the window draws from.
    pub window: Vec<Vec<Event>>,
    /// Per shard, recurring workloads only: fresh executions of `window`.
    pub executions: Vec<Option<Executions>>,
    /// Warm shard state, as store artefacts (never written after set-up).
    pub warm_dir: PathBuf,
    /// The server's snapshot directory (a copy of `warm_dir`).
    pub serve_dir: PathBuf,
    pub global_path: Option<PathBuf>,
    /// `LocalModel::trainings()` per shard at the end of warm-up.
    pub warm_trainings: Vec<u64>,
    /// Training-pool rows per shard at the end of warm-up.
    pub warm_pool_rows: Vec<usize>,
    /// Events observed per shard during warm-up.
    pub warm_events: Vec<usize>,
}

/// Generates the inputs, warms every shard in process, and writes the
/// warm state as the store artefacts the server restores. With a tracer,
/// the warm-up observes are traced as the set-up phase.
pub fn prepare(
    workload: Workload,
    seed: u64,
    dir: &Path,
    mut tracer: Option<&mut Tracer>,
) -> io::Result<Prepared> {
    let spec = workload.spec();
    let warm_dir = dir.join("warm");
    let serve_dir = dir.join("serve");
    for d in [&warm_dir, &serve_dir] {
        if d.exists() {
            std::fs::remove_dir_all(d)?;
        }
        std::fs::create_dir_all(d)?;
    }
    let cfg = fleet(workload);
    let registry = ShardRegistry::new(spec.shards, stage_config());
    if let Some(t) = tracer.as_deref_mut() {
        t.attach(&registry, None);
    }
    let mut window = Vec::new();
    let mut executions = Vec::new();
    let mut warm_events = Vec::new();
    for shard in 0..spec.shards {
        let w = InstanceWorkload::generate(&cfg, shard);
        let all = events_of(&w);
        let (start, n_warm) = match workload {
            Workload::RepeatHot => (
                warm_start(seed, shard, REPEAT_START_SPAN),
                REPEAT_WARM_EVENTS,
            ),
            Workload::AdhocMiss => (
                warm_start(seed, shard, ADHOC_START_SPAN),
                ADHOC_WARM_EVENTS - ADHOC_WARM_STAGGER * shard as usize,
            ),
            // One shard's model sets every answer, and its tail accuracy
            // moves with the warm-up slice; the seed varies the batches.
            Workload::BatchPrice => (0, ADHOC_WARM_EVENTS),
        };
        let (warm, later) = all
            .get(start..)
            .unwrap_or_default()
            .split_at(n_warm.min(all.len().saturating_sub(start)));
        for (_, e, _) in warm {
            match tracer.as_deref_mut() {
                Some(t) => t.observe(&registry, shard, e, e.true_secs),
                None => {
                    let sys = SystemContext {
                        features: e.sys.clone(),
                    };
                    registry.with_shard_write(shard, |s| s.observe(&e.plan, &sys, e.true_secs));
                }
            }
        }
        let cached = |plan: &PhysicalPlan| {
            registry
                .with_shard_read(shard, |s| {
                    s.predictor().cache().contains(ExecTimeCache::key_of(plan))
                })
                .unwrap_or(false)
        };
        let later = later.iter();
        let pool: Vec<(Event, usize)> = match workload {
            // Later runs of recurring dashboards whose plan the warm cache
            // already holds.
            Workload::RepeatHot => later
                .filter(|(k, e, _)| *k == Some(TemplateKind::Dashboard) && cached(&e.plan))
                .map(|(_, e, i)| (e.clone(), *i))
                .collect(),
            // The log after warm-up, in arrival order.
            Workload::AdhocMiss => later.map(|(_, e, i)| (e.clone(), *i)).collect(),
            // Plans the shard has never observed, shuffled into batches by
            // the seed.
            Workload::BatchPrice => {
                let mut unseen: Vec<(Event, usize)> = later
                    .filter(|(_, e, _)| !cached(&e.plan))
                    .take(BATCH_PLANS)
                    .map(|(_, e, i)| (e.clone(), *i))
                    .collect();
                let mut state = seed;
                for i in (1..unseen.len()).rev() {
                    let j = (crate::client::splitmix(&mut state) % (i as u64 + 1)) as usize;
                    unseen.swap(i, j);
                }
                unseen
            }
        };
        let (pool, log_index): (Vec<Event>, Vec<usize>) = pool.into_iter().unzip();
        executions
            .push((workload == Workload::RepeatHot).then(|| Executions::new(&cfg, &w, &log_index)));
        warm_events.push(warm.len());
        window.push(pool);
    }
    registry.save_snapshots(&warm_dir)?;
    let mut warm_trainings = Vec::new();
    let mut warm_pool_rows = Vec::new();
    for shard in 0..spec.shards {
        let (t, p) = registry
            .with_shard_read(shard, |s| {
                (
                    s.predictor().local().trainings(),
                    s.predictor().pool().len(),
                )
            })
            .unwrap_or((0, 0));
        warm_trainings.push(t);
        warm_pool_rows.push(p);
        let name = ShardRegistry::snapshot_path(&warm_dir, shard);
        std::fs::copy(&name, ShardRegistry::snapshot_path(&serve_dir, shard))?;
    }
    let global_path = if spec.global {
        let path = dir.join("global.store");
        save_global_store(&train_global(seed), &path, 1, None)?;
        Some(path)
    } else {
        None
    };
    Ok(Prepared {
        spec,
        window,
        executions,
        warm_dir,
        serve_dir,
        global_path,
        warm_trainings,
        warm_pool_rows,
        warm_events,
    })
}

/// A running server and one binary-codec connection per shard, handshake
/// acknowledged.
pub struct Live {
    pub server: Server,
    pub conns: Vec<TcpStream>,
}

pub fn start(prepared: &Prepared) -> io::Result<Live> {
    let spec = prepared.spec;
    let server = Server::start(ServeConfig {
        n_instances: spec.shards,
        stage: stage_config(),
        snapshot_dir: Some(prepared.serve_dir.clone()),
        snapshot_every: spec.checkpoint_every,
        global_model_path: prepared.global_path.clone(),
        ..ServeConfig::default()
    })?;
    let addr = server.local_addr();
    let mut conns = Vec::new();
    for _ in 0..spec.shards {
        let mut c = TcpStream::connect(addr)?;
        c.set_nodelay(true)?;
        c.set_read_timeout(Some(Duration::from_secs(30)))?;
        c.write_all(&HANDSHAKE)?;
        let mut ack = [0u8; 4];
        c.read_exact(&mut ack)?;
        if ack != HANDSHAKE {
            return Err(io::Error::other("server did not ack the binary handshake"));
        }
        conns.push(c);
    }
    if spec.global && server.global_generation().is_none() {
        return Err(io::Error::other("global model artefact was not mapped"));
    }
    Ok(Live { server, conns })
}

/// One timed set-up: inputs, warm-up training, artefacts, server start.
pub fn setup(
    workload: Workload,
    seed: u64,
    dir: &Path,
    tracer: Option<&mut Tracer>,
) -> io::Result<(Prepared, Live, f64)> {
    let t0 = Instant::now();
    let prepared = prepare(workload, seed, dir, tracer)?;
    let live = start(&prepared)?;
    Ok((prepared, live, t0.elapsed().as_secs_f64()))
}
