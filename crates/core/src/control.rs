//! The sans-IO control core both execution surfaces drive.
//!
//! Helix's coordinator (Fig. 3) is where model placement meets request
//! scheduling: it routes every request over the max-flow plan with IWRR and
//! re-plans when the cluster changes.  [`ControlCore`] makes each of those
//! decisions in exactly one place:
//!
//! * **admission** — prefix hit, miss or bypass, then IWRR, then defer a
//!   pipeline that crosses a dead node, then adopt the prefix home; a request
//!   a fail-over handed back resumes with what it kept;
//! * **replication** — whether a request replicates, and each trickle delta;
//! * **fail-over** — promote or abort every pipeline crossing the dead
//!   nodes, the record's token accounting, and evicting the dead nodes from
//!   the prefix routers;
//! * **re-plan** — from a policy tick or an explicit delta: the fleet
//!   re-plan, one new IWRR per affected model, clearing the routers, and the
//!   record;
//! * **release** of a finished request's router and replica state.
//!
//! Sans-IO means the core only decides: the caller does every send, queue
//! push and wait.  The discrete-event simulator and the async runtime are
//! two drivers of one core.  Each passes in its own [`ClusterState`] view and
//! liveness check and turns the returned decisions into actions — event
//! pushes and engine calls in the simulator, fabric envelopes and estimator
//! updates in the runtime.  What differs by surface stays there: when a
//! re-planned scheduler is installed (the simulator at once, the runtime
//! once a KV hand-over lands — see [`ControlCore::install_scheduler`]) and
//! how KV pages physically move.

use crate::exec_model::DEFAULT_TOKENS_PER_PAGE;
use crate::fleet::FleetTopology;
use crate::ha::{
    select_standby, FailoverRecord, ReplicaTracker, ReplicationPolicy, ReplicationStats,
};
use crate::placement::LayerRange;
use crate::replan::{
    EngineCounters, KvMigration, KvTransferModel, NodeObservations, ObservationWindows,
    PlacementDelta, ReplanPolicy, ReplanReason, ReplanRecord,
};
use crate::scheduling::iwrr::IwrrScheduler;
use crate::scheduling::prefix::{PrefixRoute, PrefixRouter, PrefixStats, PrefixWork};
use crate::scheduling::{ClusterState, RequestPipeline, Scheduler};
use crate::HelixError;
use helix_cluster::{ModelId, NodeId, PrefixId};
use std::collections::{HashMap, HashSet};

/// A request id (the workload crate's `RequestId`).
pub type RequestId = u64;

/// What admission needs to know about one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestSpec {
    /// The request.
    pub id: RequestId,
    /// The model it targets.
    pub model: ModelId,
    /// Its prompt length.
    pub prompt_tokens: usize,
    /// Output tokens it will generate.
    pub output_tokens: usize,
    /// The shared prompt prefix it references and the prefix length, if any.
    pub shared_prefix: Option<(PrefixId, usize)>,
}

/// How far one request has got, as its client sees it.  Drivers keep one
/// per in-flight request and hand it to [`ControlCore::fail_nodes`]; the
/// request's next admission returns it, so a fail-over never restarts the
/// request's latency clock or re-counts tokens the client already has.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Progress {
    /// When the request arrived (its first admission's arrival).
    pub arrival: f64,
    /// When its first output token was delivered, if it has been.
    pub first_token: Option<f64>,
    /// Output tokens the current pipeline has produced.
    pub generated: usize,
    /// Output tokens ever delivered.  Exceeds `generated` while an aborted
    /// request re-decodes the progress its dead pipeline lost.
    pub delivered: usize,
}

impl Progress {
    /// A request that has produced nothing yet.
    pub fn new(arrival: f64) -> Self {
        Progress {
            arrival,
            first_token: None,
            generated: 0,
            delivered: 0,
        }
    }

    /// Counts one output token reaching the coordinator.  Returns whether it
    /// is new to the client (`false` for a token re-decoded after an abort,
    /// which adds no decode count, latency sample or inter-token gap).
    pub fn advance(&mut self) -> bool {
        self.generated += 1;
        let new = self.generated > self.delivered;
        self.delivered = self.delivered.max(self.generated);
        new
    }
}

/// One admitted request: where to run it and what its first pass does.
#[derive(Debug, Clone, PartialEq)]
pub struct Admitted {
    /// The pipeline to dispatch on (`model` already set).
    pub pipeline: RequestPipeline,
    /// The incarnation this admission starts; work of older epochs is stale.
    pub epoch: u64,
    /// Tokens the first (prompt-phase) pass runs: the unshared suffix on a
    /// prefix hit, only the tokens its standbys lack on a promotion, never
    /// fewer than one.
    pub prefill_tokens: usize,
    /// The shared-prefix reference taken, released through
    /// [`ControlCore::complete`] or a fail-over.
    pub prefix: Option<PrefixWork>,
    /// On a promotion: sequence tokens durable on the standbys, to seed as
    /// KV residency on every stage before the prompt pass.
    pub resume_tokens: Option<usize>,
    /// Progress kept from an earlier incarnation (`None` for a first
    /// admission, which starts from [`Progress::new`]).
    pub progress: Option<Progress>,
}

/// A re-plan the core applied to its fleet.  The driver installs each new
/// scheduler with [`ControlCore::install_scheduler`] when its surface is
/// ready, reconciles its execution resources with the affected models'
/// topologies, and moves the KV state of each migration.
pub struct Replan {
    /// Models whose topology was re-solved.
    pub affected: Vec<ModelId>,
    /// The partial-layer migrations whose KV the surface now owes.
    pub migrations: Vec<KvMigration>,
    /// A fresh IWRR per affected model whose re-planned flow can seed one (a
    /// model left with zero flow keeps its old scheduler: serving degraded
    /// beats serving nothing).
    pub schedulers: Vec<(ModelId, Box<dyn Scheduler>)>,
}

/// An in-flight request as [`ControlCore::fail_nodes`] needs to see it.
#[derive(Debug, Clone, Copy)]
pub struct InFlightRequest<'a> {
    /// The request.
    pub id: RequestId,
    /// Its prompt length.
    pub prompt_tokens: usize,
    /// The pipeline it runs on.
    pub pipeline: &'a RequestPipeline,
    /// The shared-prefix reference it holds.
    pub prefix: Option<PrefixWork>,
    /// Its progress.
    pub progress: Progress,
}

/// What a failure did: the requests it took off their pipelines and the
/// re-plan around the hole.
pub struct Failover {
    /// Requests whose pipelines crossed a dead node, in id order.  The
    /// driver purges their KV, releases their prefix residency and admits
    /// each again; that admission promotes or restarts it.
    pub doomed: Vec<RequestId>,
    /// The re-plan removing the dead nodes (`None` when it is infeasible and
    /// the old plan keeps serving).
    pub replan: Option<Replan>,
}

/// A replication milestone: the newly durable tokens of one request, to
/// ship from every primary stage to its standby.
#[derive(Debug, Clone, PartialEq)]
pub struct Trickle {
    /// Sequence tokens durable on the standbys once this milestone lands.
    pub durable: usize,
    /// Tokens this milestone makes durable.
    pub tokens: usize,
    /// KV pages those tokens occupy.
    pub pages: u64,
    /// `(primary, standby, stage layers, bytes)` per pipeline stage.
    pub shipments: Vec<(NodeId, NodeId, LayerRange, f64)>,
}

/// The control state and decisions shared by the simulator and the runtime
/// (see the [module docs](self)).
pub struct ControlCore {
    fleet: FleetTopology,
    schedulers: Vec<Box<dyn Scheduler>>,
    routers: Vec<PrefixRouter>,
    windows: ObservationWindows,
    last_replan: Option<f64>,
    replication: ReplicationPolicy,
    replicas: ReplicaTracker,
    failed: HashSet<NodeId>,
    epochs: HashMap<RequestId, u64>,
    /// Promoted requests awaiting admission: kept progress, the
    /// standby-substituted pipeline and the tokens durable on it.
    promoted: HashMap<RequestId, (Progress, RequestPipeline, usize)>,
    /// Aborted requests awaiting admission, with their kept progress.
    aborted: HashMap<RequestId, Progress>,
    failovers: Vec<FailoverRecord>,
    replans: Vec<ReplanRecord>,
}

impl ControlCore {
    /// A core serving `fleet` with one scheduler per model, replication
    /// disabled.
    pub fn new(fleet: FleetTopology, schedulers: Vec<Box<dyn Scheduler>>) -> Self {
        let routers = schedulers.iter().map(|_| PrefixRouter::new()).collect();
        ControlCore {
            fleet,
            schedulers,
            routers,
            windows: ObservationWindows::new(),
            last_replan: None,
            replication: ReplicationPolicy::disabled(),
            replicas: ReplicaTracker::new(),
            failed: HashSet::new(),
            epochs: HashMap::new(),
            promoted: HashMap::new(),
            aborted: HashMap::new(),
            failovers: Vec::new(),
            replans: Vec::new(),
        }
    }

    /// The fleet plan being served (re-plans update it).
    pub fn fleet(&self) -> &FleetTopology {
        &self.fleet
    }

    /// Number of models served.
    pub fn num_models(&self) -> usize {
        self.schedulers.len()
    }

    /// The replication policy applied at admission.
    pub fn replication(&self) -> ReplicationPolicy {
        self.replication
    }

    /// Sets the replication policy for requests admitted from now on.
    pub fn set_replication(&mut self, policy: ReplicationPolicy) {
        self.replication = policy;
    }

    /// Whether `node` failed and has not rejoined.
    pub fn is_failed(&self, node: NodeId) -> bool {
        self.failed.contains(&node)
    }

    /// Returns a failed node to service; `false` if it was not failed.
    pub fn rejoin(&mut self, node: NodeId) -> bool {
        self.failed.remove(&node)
    }

    /// Starts a new timeline: state measured in the old timeline's seconds
    /// (observation marks, the last re-plan time, requests awaiting
    /// re-admission) is dropped.  For drivers whose clock restarts at zero.
    pub fn rebase_epoch(&mut self) {
        self.windows = ObservationWindows::new();
        self.last_replan = None;
        self.promoted.clear();
        self.aborted.clear();
    }

    /// Admits one request against `view`.  A request a fail-over handed back
    /// resumes with its kept [`Progress`]: a promoted one on its standby
    /// pipeline without scheduling, an aborted one through the normal path.
    /// Returns `Ok(None)` when it must wait — every candidate is masked, or
    /// the scheduled pipeline crosses a dead node because the re-plan around
    /// it was infeasible — and nothing is held for it.
    ///
    /// # Errors
    ///
    /// [`HelixError::UnknownModel`] for a model the fleet does not serve, and
    /// scheduling errors other than [`HelixError::NoCandidateAvailable`].
    pub fn admit(
        &mut self,
        request: &RequestSpec,
        view: &dyn ClusterState,
    ) -> Result<Option<Admitted>, HelixError> {
        let model = request.model;
        let num_models = self.schedulers.len();
        if model.index() >= num_models {
            return Err(HelixError::UnknownModel { model, num_models });
        }
        let epoch = self.epochs.get(&request.id).copied().unwrap_or(0);
        if let Some((progress, pipeline, resume)) = self.promoted.remove(&request.id) {
            let total = request.prompt_tokens + progress.generated;
            return Ok(Some(Admitted {
                pipeline,
                epoch,
                prefill_tokens: total.saturating_sub(resume).max(1),
                prefix: None,
                resume_tokens: Some(resume),
                progress: Some(progress),
            }));
        }
        // Cache-aware routing: a prefix-tagged request goes to the pipeline
        // already holding its prefix when that pipeline has KV headroom; a
        // saturated home degrades to plain IWRR with sharing disabled.
        let router = &mut self.routers[model.index()];
        let mut prefix = None;
        let mut routed = None;
        let mut bypassed = false;
        if let Some((id, tokens)) = request.shared_prefix {
            match router.route(id, tokens, view) {
                PrefixRoute::Hit {
                    pipeline,
                    shared_tokens,
                } => {
                    prefix = Some(PrefixWork {
                        id,
                        tokens: shared_tokens,
                        hit: true,
                    });
                    routed = Some(pipeline);
                }
                PrefixRoute::Miss => {
                    prefix = Some(PrefixWork {
                        id,
                        tokens,
                        hit: false,
                    });
                }
                PrefixRoute::Bypass => bypassed = true,
            }
        }
        let hit = routed.is_some();
        let mut pipeline = match routed {
            Some(pipeline) => pipeline,
            // A hit never fails here (route() pre-checks headroom and takes
            // its reference only on Hit), so waiting leaks nothing.
            None => match self.schedulers[model.index()].schedule(view) {
                Ok(pipeline) => pipeline,
                Err(HelixError::NoCandidateAvailable { .. }) => return Ok(None),
                Err(e) => return Err(e),
            },
        };
        pipeline.model = model;
        // When the re-plan around a failed node was infeasible the scheduler
        // keeps serving the old plan, which may still route across the hole;
        // wait until a live pipeline comes up in rotation.  Hits never cross
        // one: a failure evicts the dead nodes from every router first.
        if !hit
            && !self.failed.is_empty()
            && pipeline
                .stages
                .iter()
                .any(|s| self.failed.contains(&s.node))
        {
            return Ok(None);
        }
        match prefix {
            // A miss materialises the prefix: the scheduled pipeline becomes
            // its home for later sharers.
            Some(p) if !p.hit => router.adopt(p.id, p.tokens, &pipeline),
            None if bypassed => router.record_bypass(),
            _ => {}
        }
        let prefill_tokens = match prefix {
            Some(p) if p.hit => request.prompt_tokens.saturating_sub(p.tokens),
            _ => request.prompt_tokens,
        }
        .max(1);
        let progress = self.aborted.remove(&request.id);
        self.begin_replication(request, &pipeline);
        Ok(Some(Admitted {
            pipeline,
            epoch,
            prefill_tokens,
            prefix,
            resume_tokens: None,
            progress,
        }))
    }

    /// Starts replication tracking for a newly admitted request when the
    /// policy marks it hot *and* every pipeline stage has a live standby
    /// whose layer range covers it; otherwise the request runs unreplicated
    /// and a failure falls back to abort-and-readmit.  Promoted incarnations
    /// are not re-tracked — the replication factor applies from admission.
    fn begin_replication(&mut self, request: &RequestSpec, pipeline: &RequestPipeline) {
        if !self.replication.replicates(request.output_tokens) {
            return;
        }
        let Some(topology) = self.fleet.model(pipeline.model) else {
            return;
        };
        let candidates: Vec<(NodeId, LayerRange)> = topology
            .nodes()
            .filter(|n| !self.failed.contains(&n.node))
            .map(|n| (n.node, n.layers))
            .collect();
        let mut standbys = Vec::with_capacity(pipeline.stages.len());
        for stage in &pipeline.stages {
            match select_standby(stage.node, stage.layers, &candidates) {
                Some(standby) => standbys.push((stage.node, standby)),
                None => return,
            }
        }
        self.replicas.begin(request.id, standbys);
    }

    /// Records that `request` has `total_tokens` cached (prompt + decoded)
    /// and returns the replication milestone that makes due, if any: at
    /// prompt completion (`force`) everything cached so far, then whole
    /// chunks at every chunk boundary.  The shipments are priced by the
    /// shared [`KvTransferModel`] and already counted in the replication
    /// stats; the driver moves them over its own links.
    pub fn trickle(
        &mut self,
        request: RequestId,
        pipeline: &RequestPipeline,
        total_tokens: usize,
        force: bool,
    ) -> Option<Trickle> {
        let tokens = self.replicas.record_progress(
            request,
            total_tokens,
            self.replication.chunk_tokens,
            force,
        );
        if tokens == 0 {
            return None;
        }
        let transfer = KvTransferModel::new(
            self.fleet.profiles()[pipeline.model.index()]
                .model()
                .kv_bytes_per_token_per_layer(),
            DEFAULT_TOKENS_PER_PAGE,
        );
        let shipments: Vec<(NodeId, NodeId, LayerRange, f64)> = self
            .replicas
            .standbys(request)
            .iter()
            .zip(&pipeline.stages)
            .map(|(&(primary, standby), stage)| {
                let bytes = transfer.bytes(tokens as f64, stage.layers.len());
                (primary, standby, stage.layers, bytes)
            })
            .collect();
        for &(_, _, _, bytes) in &shipments {
            self.replicas.record_bytes(bytes);
        }
        Some(Trickle {
            durable: self.replicas.replicated_tokens(request),
            tokens,
            pages: transfer.pages(tokens as f64),
            shipments,
        })
    }

    /// Releases a finished request's prefix-home reference and replica
    /// tracking.
    pub fn complete(&mut self, request: RequestId, model: ModelId, prefix: Option<PrefixWork>) {
        if let Some(p) = prefix {
            self.routers[model.index()].release(p.id);
        }
        self.replicas.finish(request);
    }

    /// Fails `nodes` at `now` (one node, or a whole region at once).  Every
    /// in-flight pipeline crossing a dead node is taken off it under a new
    /// epoch: a replicated request whose standbys are all live (`is_live`)
    /// is promoted — its next admission resumes on the standby pipeline,
    /// recomputing only the tokens decoded since the last replicated chunk —
    /// and every other request is aborted, to restart from token zero.
    /// Either way it keeps its [`Progress`].  Logs one [`FailoverRecord`],
    /// evicts the dead nodes from every prefix router (the re-plan may be
    /// infeasible and leave the old plan serving), and re-plans with one
    /// removal delta covering every dead node.
    pub fn fail_nodes<'a>(
        &mut self,
        nodes: &[NodeId],
        reason: ReplanReason,
        now: f64,
        in_flight: impl IntoIterator<Item = InFlightRequest<'a>>,
        is_live: impl Fn(NodeId, ModelId) -> bool,
    ) -> Failover {
        self.failed.extend(nodes.iter().copied());
        let mut doomed: Vec<InFlightRequest<'a>> = in_flight
            .into_iter()
            .filter(|f| f.pipeline.stages.iter().any(|s| nodes.contains(&s.node)))
            .collect();
        // Deterministic fail-over order (map iteration order is not).
        doomed.sort_unstable_by_key(|f| f.id);
        let mut record = FailoverRecord {
            at: now,
            node: nodes[0],
            promoted: Vec::new(),
            aborted: Vec::new(),
            tokens_recomputed: 0,
            abort_recompute_tokens: 0,
            replica_tokens_used: 0,
        };
        for f in &doomed {
            if let Some(p) = f.prefix {
                self.routers[f.pipeline.model.index()].release(p.id);
            }
            *self.epochs.entry(f.id).or_insert(0) += 1;
            let total = f.prompt_tokens + f.progress.generated;
            record.abort_recompute_tokens += total as u64;
            match self.promote(f.id, f.pipeline, nodes, &is_live) {
                Some(pipeline) => {
                    let resume = self.replicas.replicated_tokens(f.id).min(total);
                    record.promoted.push(f.id);
                    record.tokens_recomputed += (total - resume) as u64;
                    record.replica_tokens_used += resume as u64;
                    self.promoted.insert(f.id, (f.progress, pipeline, resume));
                }
                None => {
                    record.aborted.push(f.id);
                    record.tokens_recomputed += total as u64;
                    let progress = Progress {
                        generated: 0,
                        ..f.progress
                    };
                    self.aborted.insert(f.id, progress);
                }
            }
            self.replicas.finish(f.id);
        }
        self.failovers.push(record);
        // Dead pipelines must not stay prefix homes.  A successful re-plan
        // clears the routers anyway; an infeasible one leaves the old plan
        // serving, so evict exactly the homes that crossed a dead node.
        for router in &mut self.routers {
            for &node in nodes {
                router.evict_node(node);
            }
        }
        let mut delta = PlacementDelta::new();
        for &node in nodes {
            delta = delta.remove_node(node, self.fleet.num_models());
        }
        Failover {
            doomed: doomed.iter().map(|f| f.id).collect(),
            replan: self.apply_delta(&delta, reason, now),
        }
    }

    /// The promoted pipeline of `request`: every stage on a node failing now
    /// substituted by its standby.  `None` (untracked request, no standby
    /// for a failed stage, or a standby that is itself dead) means abort.
    fn promote(
        &self,
        request: RequestId,
        pipeline: &RequestPipeline,
        failing: &[NodeId],
        is_live: &impl Fn(NodeId, ModelId) -> bool,
    ) -> Option<RequestPipeline> {
        if !self.replicas.is_tracked(request) {
            return None;
        }
        let standbys = self.replicas.standbys(request);
        let mut promoted = pipeline.clone();
        for stage in &mut promoted.stages {
            if failing.contains(&stage.node) {
                let standby = standbys
                    .iter()
                    .find(|&&(primary, _)| primary == stage.node)
                    .map(|&(_, s)| s)?;
                if self.failed.contains(&standby) || !is_live(standby, pipeline.model) {
                    return None;
                }
                stage.node = standby;
            }
        }
        Some(promoted)
    }

    /// Measures one engine's observation window (the same math on both
    /// surfaces) against the speeds the current plan priced in.
    pub fn measure(
        &mut self,
        observed: &mut NodeObservations,
        node: NodeId,
        model: ModelId,
        counters: EngineCounters,
        window_secs: f64,
    ) {
        self.windows.measure(
            observed,
            node,
            model,
            counters,
            window_secs,
            self.fleet.observations(),
        );
    }

    /// One policy check at `now`: when the measured speeds stray from the
    /// planned ones past `policy`'s threshold (and the cooldown since the
    /// last applied re-plan elapsed), re-plans against the measurements.
    pub fn policy_tick(
        &mut self,
        policy: &ReplanPolicy,
        observed: &NodeObservations,
        now: f64,
    ) -> Option<Replan> {
        let (node, model, speed) =
            policy.should_replan(observed, self.fleet.observations(), now, self.last_replan)?;
        let replan = self.replan(
            &PlacementDelta::new(),
            observed,
            ReplanReason::ThroughputGap { node, model, speed },
            now,
        )?;
        self.last_replan = Some(now);
        Some(replan)
    }

    /// Applies an explicit placement delta (keeping the observations the
    /// plan already priced in).  `None` when it is infeasible: the current
    /// plan keeps serving.
    pub fn apply_delta(
        &mut self,
        delta: &PlacementDelta,
        reason: ReplanReason,
        now: f64,
    ) -> Option<Replan> {
        let observed = self.fleet.observations().clone();
        self.replan(delta, &observed, reason, now)
    }

    fn replan(
        &mut self,
        delta: &PlacementDelta,
        observed: &NodeObservations,
        reason: ReplanReason,
        now: f64,
    ) -> Option<Replan> {
        let outcome = self.fleet.replan(delta, observed).ok()?;
        let mut schedulers: Vec<(ModelId, Box<dyn Scheduler>)> = Vec::new();
        for &model in &outcome.affected {
            let topology = self.fleet.model(model).expect("affected model exists");
            if let Ok(scheduler) = IwrrScheduler::from_topology(topology) {
                schedulers.push((model, Box::new(scheduler)));
            }
            // Pipelines of the old plan are stale prefix homes.  In-flight
            // references stay balanced through their own release path; only
            // future routing is affected.
            self.routers[model.index()].clear();
        }
        self.replans.push(ReplanRecord {
            at: now,
            reason,
            affected: outcome.affected.clone(),
            planned_flow: self.fleet.total_flow_value(),
        });
        Some(Replan {
            affected: outcome.affected,
            migrations: outcome.migrations,
            schedulers,
        })
    }

    /// Installs `scheduler` for new requests of `model` (drain-then-switch:
    /// in-flight pipelines keep their routes).
    pub fn install_scheduler(&mut self, model: ModelId, scheduler: Box<dyn Scheduler>) {
        self.schedulers[model.index()] = scheduler;
    }

    /// The re-plans applied since the last call.
    pub fn take_replans(&mut self) -> Vec<ReplanRecord> {
        std::mem::take(&mut self.replans)
    }

    /// The fail-overs handled since the last call.
    pub fn take_failovers(&mut self) -> Vec<FailoverRecord> {
        std::mem::take(&mut self.failovers)
    }

    /// Prefix-sharing counters summed over all models since the last call.
    pub fn take_prefix_stats(&mut self) -> PrefixStats {
        let mut stats = PrefixStats::default();
        for router in &mut self.routers {
            stats.merge(&router.take_stats());
        }
        stats
    }

    /// Replica traffic since the last call.
    pub fn take_replication_stats(&mut self) -> ReplicationStats {
        self.replicas.take_stats()
    }
}
