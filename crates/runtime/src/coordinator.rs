//! The coordinator: request admission, per-request pipeline scheduling and
//! lifecycle tracking.
//!
//! This is the runtime counterpart of the coordinator in the paper's Fig. 3,
//! and a driver of the shared [`ControlCore`], which makes every control
//! decision (admission, replication, fail-over, re-plan) for both surfaces:
//! when a request arrives the core picks its pipeline — prefix home or the
//! model's [`Scheduler`] — the coordinator sends it to the first node, and
//! when the last node reports a finished iteration it either launches the
//! next decode iteration on the *same* pipeline or completes the request and
//! releases its KV cache everywhere (§5.1–§5.2).
//!
//! The coordinator runs in one of two modes:
//!
//! * **batch** ([`Coordinator::run`]) — every request of a [`Workload`] is
//!   admitted at its arrival time and the future resolves when all of them
//!   completed;
//! * **live** ([`Coordinator::run_live`]) — the session loop behind
//!   [`ServingSession`](crate::ServingSession): requests arrive through a
//!   control channel, completions stream back as they happen, and the
//!   control plane accepts mid-run placement deltas that can *spawn new
//!   workers* for (node, model) pairs the original build never had.
//!
//! When a [`ReplanPolicy`] is configured, either mode also closes the online
//! re-planning loop: every policy interval the workers' shared statistics
//! are read into [`NodeObservations`], and when the measured speed factors
//! warrant action [`FleetTopology::replan`] is applied **drain-then-switch**
//! — the affected models' schedulers and KV estimators are swapped for *new*
//! requests while every in-flight pipeline keeps the route it was assigned,
//! so nothing is dropped mid-generation.

use crate::clock::VirtualClock;
use crate::error::RuntimeError;
use crate::message::{Envelope, Phase, RuntimeMsg, StageWork};
use crate::metrics::RequestOutcome;
use crate::registry::{WorkerKey, WorkerRegistry, WorkerSpawner};
use helix_cluster::{ModelId, NodeId, TOKEN_WIRE_BYTES};
use helix_core::{
    Admitted, ClusterState, ControlCore, EngineCounters, FailoverRecord, FleetTopology,
    InFlightRequest, IwrrScheduler, KvCacheEstimator, KvMigration, KvTransferRecord, LayerRange,
    NodeDirectory, NodeObservations, PlacementDelta, PrefixStats, PrefixWork, Progress, Replan,
    ReplanPolicy, ReplanReason, ReplanRecord, ReplicationPolicy, ReplicationStats, RequestPipeline,
    RequestSpec, Scheduler, Trickle,
};
use helix_workload::{Request, RequestId, Workload};
use minirt::channel::{Receiver, Sender, TryRecvError};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deadline slack absorbing float rounding between virtual-time deadlines and
/// the wall clock, so a wait never wakes an iteration too early and re-arms a
/// deadline that is microscopically in the past.
const DEADLINE_SLACK: Duration = Duration::from_micros(1);

/// What arrives on the coordinator's inbound channel: worker traffic routed
/// by the fabric, or a wake-up ping the session sends right after queueing a
/// control message so the coordinator's waker-based wait returns immediately
/// and drains the control channel.
pub(crate) enum CoordinatorMsg {
    /// A message from a worker, delivered by the fabric.
    Runtime(RuntimeMsg),
    /// The session queued a control message; drain the control channel now.
    Wake,
}

/// Control messages a [`ServingSession`](crate::ServingSession) sends to its
/// coordinator thread.
pub(crate) enum SessionControl {
    /// Admit one request (honouring its `arrival_time` in virtual seconds).
    Submit(Request),
    /// Apply a placement delta to the standing fleet plan: re-plan, swap the
    /// affected models' schedulers, spawn workers for newly added
    /// (node, model) tenancies and retire ones the plan dropped (after their
    /// in-flight pipelines drain).
    ApplyDelta(PlacementDelta),
    /// Retire a worker that the active plan no longer schedules onto.
    Retire(NodeId, ModelId),
    /// Fail a node at the given virtual time: detach its workers, promote
    /// replicated in-flight pipelines onto their standbys (or abort and
    /// re-admit), and re-plan around the hole.
    FailNode(NodeId, f64),
    /// Install the replication policy governing subsequently admitted
    /// requests (already-running requests keep their admission-time
    /// decision).
    SetReplication(ReplicationPolicy),
    /// Complete everything submitted so far, then acknowledge.
    Drain(Sender<()>),
    /// Drain and exit the live loop.
    Finish,
}

/// Everything a finished coordinator hands to the report besides the
/// outcomes themselves.
#[derive(Default)]
pub(crate) struct CoordinatorArtifacts {
    pub replans: Vec<ReplanRecord>,
    pub kv_transfers: Vec<KvTransferRecord>,
    pub prefix: PrefixStats,
    pub failovers: Vec<FailoverRecord>,
    pub replication: ReplicationStats,
}

/// Everything the coordinator needs to run.
pub(crate) struct CoordinatorSpec {
    /// One scheduling policy per model of the fleet (Helix IWRR or one of the
    /// baselines); single-model runs carry exactly one entry.
    pub schedulers: Vec<Box<dyn Scheduler>>,
    /// One KV-cache usage estimator per model (§5.2) — each model's slice of
    /// a shared node's KV pool is masked independently.
    pub estimators: Vec<KvCacheEstimator>,
    /// Shared virtual clock.
    pub clock: VirtualClock,
    /// Messages arriving from workers through the fabric, plus session
    /// wake-ups.
    pub inbound: Receiver<CoordinatorMsg>,
    /// Outgoing messages into the fabric.
    pub fabric: Sender<Envelope>,
    /// The live worker set (shared with the fabric and the front door).
    pub registry: Arc<WorkerRegistry>,
    /// Spawns additional workers when a re-plan adds a tenancy.
    pub spawner: WorkerSpawner,
    /// Wall-clock budget for the whole run.
    pub max_wall: Duration,
    /// The standing fleet plan, mutated in place by re-plans.
    pub fleet: FleetTopology,
    /// When the observation-driven loop fires (None = only explicit deltas
    /// re-plan).
    pub policy: Option<ReplanPolicy>,
}

/// The coordinator's runtime view of the cluster for one model, used by that
/// model's scheduler.
///
/// Queue lengths and recent throughput come from the model's workers' shared
/// statistics (the runtime equivalent of the paper's runtime monitoring);
/// KV usage comes from the model's coordinator-side estimator, exactly as in
/// §5.2.
struct CoordinatorView<'a> {
    model: ModelId,
    estimators: &'a [KvCacheEstimator],
    registry: &'a WorkerRegistry,
}

impl ClusterState for CoordinatorView<'_> {
    fn queue_len(&self, node: NodeId) -> usize {
        self.registry
            .stats((node, self.model))
            .map(|s| s.lock().queue_len)
            .unwrap_or(0)
    }

    fn recent_throughput(&self, node: NodeId) -> f64 {
        self.registry
            .stats((node, self.model))
            .map(|s| s.lock().recent_throughput)
            .unwrap_or(0.0)
    }

    fn kv_used_tokens(&self, node: NodeId) -> f64 {
        self.estimators[self.model.index()].estimated_tokens(node)
    }

    fn kv_capacity_tokens(&self, node: NodeId) -> f64 {
        self.estimators[self.model.index()].capacity_tokens(node)
    }
}

/// The in-flight state of one admitted request.
struct InFlight {
    request: Request,
    pipeline: Arc<RequestPipeline>,
    /// First-token time and tokens generated (one per completed pipeline
    /// pass), kept across fail-overs; the request finishes when
    /// `generated` reaches `output_tokens`.
    progress: Progress,
    /// The incarnation the in-flight pipeline belongs to; iteration reports
    /// carrying an older epoch are stale (pre-failure work still draining
    /// through surviving stages) and are dropped.
    epoch: u64,
    /// The shared-prefix reference this admission holds, released (estimator
    /// refcounts and router home) when the request finishes.
    prefix: Option<PrefixWork>,
}

pub(crate) struct Coordinator {
    /// The control decisions (admission, replication, fail-over, re-plan)
    /// this coordinator drives, shared with the simulator.
    core: ControlCore,
    estimators: Vec<KvCacheEstimator>,
    clock: VirtualClock,
    inbound: Receiver<CoordinatorMsg>,
    fabric: Sender<Envelope>,
    registry: Arc<WorkerRegistry>,
    spawner: WorkerSpawner,
    max_wall: Duration,
    in_flight: HashMap<RequestId, InFlight>,
    outcomes: Vec<RequestOutcome>,
    /// When the observation-driven loop fires (None = only explicit deltas
    /// re-plan).
    policy: Option<ReplanPolicy>,
    /// Virtual time of the last observation-window check.
    last_check: f64,
    /// Workers the plan dropped, awaiting their in-flight pipelines to drain.
    pending_retire: HashSet<WorkerKey>,
    /// KV hand-overs in flight, with the virtual time each freeze began.
    /// Drains wait for these; each resolves on the matching `KvInstalled`.
    /// Freezes are layer-scoped: each pending migration holds exactly one
    /// `Freeze(layers)` on each endpoint, and overlapping hand-overs stack
    /// their ranges on the worker rather than refcounting here.
    pending_migrations: Vec<(KvMigration, f64)>,
    /// Re-route deferred until a model's last pending transfer lands: the
    /// re-planned scheduler to install then (freeze → transfer → re-route →
    /// resume).
    deferred_swaps: HashMap<usize, Box<dyn Scheduler>>,
    /// Completed KV hand-overs, for the final report.
    kv_transfers: Vec<KvTransferRecord>,
    /// Live-mode completion stream (None in batch mode).
    completions: Option<Sender<RequestOutcome>>,
    /// Node-level membership health (heartbeats from live worker stats).
    node_health: NodeDirectory,
    /// Injected failures not yet due: `(virtual time, node)`.
    pending_failures: Vec<(f64, NodeId)>,
}

impl Coordinator {
    pub(crate) fn new(spec: CoordinatorSpec) -> Self {
        assert_eq!(
            spec.schedulers.len(),
            spec.estimators.len(),
            "one estimator per model"
        );
        let mut node_health = NodeDirectory::default();
        for m in 0..spec.fleet.num_models() {
            if let Some(topology) = spec.fleet.model(ModelId(m)) {
                for n in topology.nodes() {
                    node_health.register(n.node, 0.0);
                }
            }
        }
        Coordinator {
            core: ControlCore::new(spec.fleet, spec.schedulers),
            estimators: spec.estimators,
            clock: spec.clock,
            inbound: spec.inbound,
            fabric: spec.fabric,
            registry: spec.registry,
            spawner: spec.spawner,
            max_wall: spec.max_wall,
            in_flight: HashMap::new(),
            outcomes: Vec::new(),
            policy: spec.policy,
            last_check: 0.0,
            pending_retire: HashSet::new(),
            pending_migrations: Vec::new(),
            deferred_swaps: HashMap::new(),
            kv_transfers: Vec::new(),
            completions: None,
            node_health,
            pending_failures: Vec::new(),
        }
    }

    /// Everything the run accumulated besides the outcomes, taken (not
    /// copied) once the loop ends and threaded into the final report.
    pub(crate) fn take_artifacts(&mut self) -> CoordinatorArtifacts {
        CoordinatorArtifacts {
            replans: self.core.take_replans(),
            kv_transfers: std::mem::take(&mut self.kv_transfers),
            prefix: self.core.take_prefix_stats(),
            failovers: self.core.take_failovers(),
            replication: self.core.take_replication_stats(),
        }
    }

    /// Serves the whole workload, returning one outcome per request in
    /// completion order (the batch path — the session's `serve` convenience
    /// wrapper drives exactly this future to completion on its own thread).
    pub(crate) async fn run(
        &mut self,
        workload: &Workload,
    ) -> Result<Vec<RequestOutcome>, RuntimeError> {
        let requests: Vec<Request> = workload.requests().to_vec();
        let total = requests.len();
        let mut next_arrival = 0usize;
        let mut deferred: VecDeque<Request> = VecDeque::new();

        while self.outcomes.len() < total {
            if self.clock.wall_elapsed() > self.max_wall {
                return Err(RuntimeError::WallClockBudgetExceeded {
                    budget: self.max_wall,
                    completed: self.outcomes.len(),
                    total,
                });
            }

            // Admit every request whose arrival time has passed.
            let now = self.clock.now();
            while next_arrival < total && requests[next_arrival].arrival_time <= now {
                let request = requests[next_arrival];
                next_arrival += 1;
                if !self.try_dispatch(request)? {
                    deferred.push_back(request);
                }
            }
            // Retry requests that could not be scheduled earlier (all
            // candidates masked by the KV high-water mark).
            for _ in 0..deferred.len() {
                let request = deferred.pop_front().expect("bounded by len");
                if !self.try_dispatch(request)? {
                    deferred.push_back(request);
                }
            }
            if !deferred.is_empty() && self.in_flight.is_empty() {
                return Err(RuntimeError::Stalled {
                    pending: deferred.len() + (total - next_arrival),
                    completed: self.outcomes.len(),
                });
            }

            // Wait for worker events on the channel's waker, with a deadline
            // at whichever comes first: the next arrival, the next policy
            // tick or the wall budget.  No polling interval — a completion
            // wakes this the instant the fabric delivers it.
            let mut deadline = self.clock.instant_at_wall(self.max_wall);
            if next_arrival < total {
                deadline = deadline.min(self.clock.instant_at(requests[next_arrival].arrival_time));
            }
            if let Some(at) = self.next_policy_deadline() {
                deadline = deadline.min(at);
            }
            let received =
                minirt::time::timeout_at(deadline + DEADLINE_SLACK, self.inbound.recv()).await;
            if let Ok(result) = received {
                match result {
                    Ok(msg) => {
                        self.handle_inbound(msg)?;
                    }
                    Err(_) => return Err(RuntimeError::Disconnected("network fabric")),
                }
            }
            while let Ok(msg) = self.inbound.try_recv() {
                self.handle_inbound(msg)?;
            }

            // The feedback half of the loop: observe the workers, consult
            // the policy, re-plan and hand over.
            self.maybe_replan();
        }
        Ok(std::mem::take(&mut self.outcomes))
    }

    /// The live session loop: requests, placement deltas and drain/finish
    /// commands arrive over `control`; completions stream out over
    /// `completions` as they happen.
    ///
    /// Requests are admitted when their `arrival_time` (virtual seconds)
    /// passes, exactly as in the batch path, so replaying a workload through
    /// submit-all-then-drain exercises the same admission mechanics as
    /// [`Coordinator::run`].  The wall-clock budget is enforced only while a
    /// drain or finish is pending — an idle session may live indefinitely,
    /// parked on its inbound channel's waker at zero cost.
    pub(crate) async fn run_live(
        &mut self,
        control: Receiver<SessionControl>,
        completions: Sender<RequestOutcome>,
    ) -> Result<Vec<RequestOutcome>, RuntimeError> {
        self.completions = Some(completions);
        let mut pending: VecDeque<Request> = VecDeque::new();
        let mut deferred: VecDeque<Request> = VecDeque::new();
        let mut drain_acks: Vec<Sender<()>> = Vec::new();
        let mut finishing = false;
        let mut submitted = 0usize;
        // Wall-clock mark of when the current drain began; the budget bounds
        // each drain, not the session's lifetime.
        let mut drain_started: Option<Duration> = None;

        loop {
            // 1. Drain the control channel.
            loop {
                match control.try_recv() {
                    Ok(SessionControl::Submit(request)) => {
                        submitted += 1;
                        pending.push_back(request);
                    }
                    Ok(SessionControl::ApplyDelta(delta)) => {
                        let now = self.clock.now();
                        if let Some(replan) =
                            self.core.apply_delta(&delta, ReplanReason::Manual, now)
                        {
                            self.enact(replan, now);
                        }
                    }
                    Ok(SessionControl::Retire(node, model)) => {
                        self.request_retirement(node, model);
                    }
                    Ok(SessionControl::FailNode(node, at)) => {
                        self.pending_failures.push((at, node));
                    }
                    Ok(SessionControl::SetReplication(policy)) => {
                        self.core.set_replication(policy);
                    }
                    Ok(SessionControl::Drain(ack)) => drain_acks.push(ack),
                    Ok(SessionControl::Finish) => finishing = true,
                    Err(TryRecvError::Empty) => break,
                    // The session handle was dropped: finish cleanly.
                    Err(TryRecvError::Disconnected) => {
                        finishing = true;
                        break;
                    }
                }
            }
            let draining = finishing || !drain_acks.is_empty();

            // 2. The wall budget guards each drain (measured from when the
            // drain began), never idle session time.
            if draining {
                let started = *drain_started.get_or_insert_with(|| self.clock.wall_elapsed());
                if self.clock.wall_elapsed().saturating_sub(started) > self.max_wall {
                    return Err(RuntimeError::WallClockBudgetExceeded {
                        budget: self.max_wall,
                        completed: self.outcomes.len(),
                        total: submitted,
                    });
                }
            } else {
                drain_started = None;
            }

            // 3. Fire injected node failures whose virtual time has passed:
            // promote replicated in-flight pipelines, abort the rest and
            // queue them for re-admission through the normal path.
            let now = self.clock.now();
            if self.pending_failures.iter().any(|&(at, _)| at <= now) {
                let due: Vec<NodeId> = {
                    let mut due = Vec::new();
                    self.pending_failures.retain(|&(at, node)| {
                        if at <= now {
                            due.push(node);
                            false
                        } else {
                            true
                        }
                    });
                    due
                };
                for node in due {
                    for request in self.fail_node(node)? {
                        pending.push_back(request);
                    }
                }
            }

            // 4. Admit every request whose arrival time has passed, in
            // submission order.
            for _ in 0..pending.len() {
                let request = pending.pop_front().expect("bounded by len");
                if request.arrival_time <= now {
                    if !self.try_dispatch(request)? {
                        deferred.push_back(request);
                    }
                } else {
                    pending.push_back(request);
                }
            }
            // 5. Retry requests every candidate masked out earlier.
            for _ in 0..deferred.len() {
                let request = deferred.pop_front().expect("bounded by len");
                if !self.try_dispatch(request)? {
                    deferred.push_back(request);
                }
            }
            // Deferred work is only genuinely stuck when nothing can still
            // unmask a candidate: an in-flight completion frees KV, a landed
            // transfer lifts its freeze, and a due failure re-plans — so a
            // pending migration or failure postpones the stall verdict.
            if draining
                && !deferred.is_empty()
                && self.in_flight.is_empty()
                && self.pending_migrations.is_empty()
                && self.pending_failures.is_empty()
            {
                return Err(RuntimeError::Stalled {
                    pending: deferred.len() + pending.len(),
                    completed: self.outcomes.len(),
                });
            }

            // 6. Acknowledge drains once everything in sight completed —
            // including any KV hand-over still in flight (its frozen workers
            // resume before the drain resolves).
            if draining
                && pending.is_empty()
                && deferred.is_empty()
                && self.in_flight.is_empty()
                && self.pending_migrations.is_empty()
                && self.pending_failures.is_empty()
            {
                for ack in drain_acks.drain(..) {
                    let _ = ack.send(());
                }
                if finishing {
                    break;
                }
            }

            // 7. Wait for worker events on the channel's waker.  A control
            // message wakes this wait immediately (the session pings the
            // inbound channel after queueing one); deadlines exist only to
            // pace deferred arrivals, injected failures, policy ticks and
            // the drain budget — a fully idle session waits with *no*
            // deadline at all.
            let next_arrival = pending
                .iter()
                .map(|r| r.arrival_time)
                .chain(self.pending_failures.iter().map(|&(at, _)| at))
                .fold(f64::INFINITY, f64::min);
            let mut deadline: Option<Instant> = None;
            if next_arrival.is_finite() {
                deadline = Some(self.clock.instant_at(next_arrival));
            }
            if let Some(at) = self.next_policy_deadline() {
                deadline = Some(deadline.map_or(at, |d| d.min(at)));
            }
            if let Some(started) = drain_started {
                let at = self.clock.instant_at_wall(started + self.max_wall);
                deadline = Some(deadline.map_or(at, |d| d.min(at)));
            }
            let received = match deadline {
                Some(at) => minirt::time::timeout_at(at + DEADLINE_SLACK, self.inbound.recv())
                    .await
                    .ok(),
                None => Some(self.inbound.recv().await),
            };
            if let Some(result) = received {
                match result {
                    Ok(msg) => self.handle_inbound(msg)?,
                    Err(_) => return Err(RuntimeError::Disconnected("network fabric")),
                }
            }
            while let Ok(msg) = self.inbound.try_recv() {
                self.handle_inbound(msg)?;
            }

            // 8. Observe, consult the policy, re-plan, hand over.
            self.maybe_replan();
        }
        Ok(std::mem::take(&mut self.outcomes))
    }

    /// When the next observation-window check is due, if a policy is
    /// configured — the wake-up deadline for the waker-based waits.
    fn next_policy_deadline(&self) -> Option<Instant> {
        let policy = self.policy?;
        Some(
            self.clock
                .instant_at(self.last_check + policy.check_interval_secs),
        )
    }

    /// One observation-window check of the online re-planning loop.  Reads
    /// every live worker's shared statistics into a [`NodeObservations`]
    /// snapshot (speed factor = predicted / actual busy seconds over the
    /// window); when the policy fires, applies [`FleetTopology::replan`] and
    /// swaps the affected models' schedulers and KV-estimator capacities.
    /// In-flight pipelines are untouched — they drain over their old routes.
    fn maybe_replan(&mut self) {
        let Some(policy) = self.policy else {
            return;
        };
        let now = self.clock.now();
        let window = now - self.last_check;
        if window < policy.check_interval_secs {
            return;
        }
        self.last_check = now;

        let mut observed = NodeObservations::new();
        for ((node, model), stats) in self.registry.live_stats_snapshot() {
            // A worker whose stats are still readable is alive: node-level
            // membership decays from these heartbeats exactly as region
            // membership decays from region heartbeats.
            self.node_health.heartbeat(node, now);
            self.core.measure(
                &mut observed,
                node,
                model,
                EngineCounters {
                    nominal_busy_secs: stats.nominal_busy_secs,
                    busy_secs: stats.busy_secs,
                    tokens: stats.prompt_tokens + stats.decode_tokens,
                },
                window,
            );
        }
        if let Some(replan) = self.core.policy_tick(&policy, &observed, now) {
            self.enact(replan, now);
        }
    }

    /// Carries out a re-plan the control core applied (drain-then-switch:
    /// in-flight pipelines keep their routes): re-derives the affected
    /// models' KV budgets, spawns workers for (node, model) tenancies the
    /// re-plan added, queues drain-aware retirement for ones it dropped, and
    /// starts each migration's KV hand-over.  A model's new scheduler is
    /// installed at once, or — when a transfer for it is in flight — once
    /// that transfer lands (freeze → transfer → re-route → resume).
    fn enact(&mut self, replan: Replan, now: f64) {
        for &model in &replan.affected {
            let fleet = self.core.fleet();
            let topology = fleet.model(model).expect("affected model exists");
            // Re-derived KV budgets, and dynamic membership — a tenancy the
            // delta added gets a live worker on the spot, routable through
            // the fabric immediately (a migration destination must exist
            // before the pages can land).  New workers execute at the
            // analytic contention split; measured speed factors re-price
            // planning, not execution.
            let planned: Vec<(NodeId, String, usize, f64)> = topology
                .nodes()
                .map(|n| (n.node, n.name.clone(), n.layers.len(), n.kv_capacity_tokens))
                .collect();
            let contention = fleet.contention_profile(model);
            let mut planned_nodes: HashSet<NodeId> = HashSet::new();
            for (node, name, layers, kv_capacity_tokens) in planned {
                planned_nodes.insert(node);
                self.estimators[model.index()].set_capacity(node, kv_capacity_tokens);
                self.pending_retire.remove(&(node, model));
                self.spawner
                    .spawn(&contention, node, model, &name, layers, kv_capacity_tokens);
            }
            // Pairs the plan no longer includes keep serving their in-flight
            // pipelines and are detached once those drain; new requests
            // already steer around them.
            for key in self.registry.live_keys_for_model(model) {
                if !planned_nodes.contains(&key.0) {
                    self.pending_retire.insert(key);
                }
            }
        }
        // Initiate each migration's KV transfer — freeze the *migrated layer
        // range* on both ends (work on other layers keeps executing;
        // overlapping hand-overs stack their ranges on the worker), then ask
        // the source to extract its pool through the fabric as a pipelined
        // chunk stream (the pages queue behind — and interleave with —
        // activation traffic on the `from → to` link).  `KvInstalled`
        // re-routes and resumes.
        let mut migrating: HashSet<ModelId> = HashSet::new();
        for &migration in &replan.migrations {
            let KvMigration {
                model,
                from,
                to,
                layers,
            } = migration;
            let Some(source) = self.registry.route((from, model)) else {
                continue;
            };
            self.freeze_endpoint((from, model), layers);
            self.freeze_endpoint((to, model), layers);
            let kv_bytes_per_token_per_layer = self.core.fleet().profiles()[model.index()]
                .model()
                .kv_bytes_per_token_per_layer();
            let _ = source.send(RuntimeMsg::KvExtract {
                to,
                layers,
                kv_bytes_per_token_per_layer,
            });
            self.pending_migrations.push((migration, now));
            migrating.insert(model);
        }
        for (model, scheduler) in replan.schedulers {
            if migrating.contains(&model) {
                self.deferred_swaps.insert(model.index(), scheduler);
            } else {
                self.core.install_scheduler(model, scheduler);
            }
        }
        self.sweep_retirements();
    }

    /// Queues the retirement of one worker, refusing pairs the active plan
    /// still schedules onto (retiring those would strand new pipelines).
    fn request_retirement(&mut self, node: NodeId, model: ModelId) {
        let still_planned = self
            .core
            .fleet()
            .model(model)
            .is_some_and(|t| t.node(node).is_some());
        if !still_planned && self.registry.is_live((node, model)) {
            self.pending_retire.insert((node, model));
            self.sweep_retirements();
        }
    }

    /// Detaches every pending-retire worker whose in-flight pipelines have
    /// all drained (drain-then-switch: the worker keeps executing the routes
    /// it was already part of, and disappears only when they finish).
    fn sweep_retirements(&mut self) {
        if self.pending_retire.is_empty() {
            return;
        }
        let busy: HashSet<WorkerKey> = self
            .in_flight
            .values()
            .flat_map(|flight| {
                let model = flight.pipeline.model;
                flight
                    .pipeline
                    .stages
                    .iter()
                    .map(move |stage| (stage.node, model))
            })
            .collect();
        let ready: Vec<WorkerKey> = self
            .pending_retire
            .iter()
            .copied()
            .filter(|key| !busy.contains(key))
            .collect();
        for key in ready {
            self.pending_retire.remove(&key);
            self.registry.detach(key);
        }
    }

    /// Tries to admit one request through the control core.  Returns
    /// `Ok(false)` if it must wait — every candidate is masked out, or the
    /// only pipeline in rotation crosses a dead node — and should be retried
    /// later.
    fn try_dispatch(&mut self, request: Request) -> Result<bool, RuntimeError> {
        let model = request.model;
        let spec = RequestSpec {
            id: request.id,
            model,
            prompt_tokens: request.prompt_tokens,
            output_tokens: request.output_tokens,
            shared_prefix: request.shared_prefix(),
        };
        let view = CoordinatorView {
            model,
            estimators: &self.estimators,
            registry: &self.registry,
        };
        let Some(Admitted {
            pipeline,
            epoch,
            prefill_tokens,
            prefix,
            resume_tokens,
            progress,
        }) = self.core.admit(&spec, &view)?
        else {
            return Ok(false);
        };
        let pipeline = Arc::new(pipeline);
        let progress = progress.unwrap_or(Progress::new(request.arrival_time));
        // The per-request estimate covers the unshared suffix plus any
        // decode progress a promotion carries; the shared range is attached
        // (refcounted, counted once per node) so the estimator mirrors the
        // workers' refcounted pool entries.
        let shared_tokens = prefix.map_or(0, |p| p.tokens.min(request.prompt_tokens));
        let kv_tokens = request.prompt_tokens + progress.generated - shared_tokens;
        for stage in &pipeline.stages {
            self.estimators[model.index()].on_scheduled(stage.node, request.id, kv_tokens);
            if let Some(p) = prefix {
                self.estimators[model.index()].attach_shared(stage.node, p.id, p.tokens);
            }
            // A promoted request re-seeds its replicated tokens on every
            // stage (the fail-over purge released them; per-link FIFO
            // delivers the purge first).
            if let Some(tokens) = resume_tokens.filter(|&t| t > 0) {
                let _ = self.send(Envelope {
                    from: None,
                    to: Some(stage.node),
                    model,
                    bytes: TOKEN_WIRE_BYTES,
                    msg: RuntimeMsg::KvChunk {
                        from: stage.node,
                        layers: stage.layers,
                        entries: vec![(request.id, tokens)],
                        prefix_entries: Vec::new(),
                        tokens: tokens as u64,
                        pages: 0,
                        bytes: 0.0,
                        last: false,
                    },
                });
            }
        }
        self.send(Envelope {
            from: None,
            to: Some(pipeline.stages[0].node),
            model,
            bytes: TOKEN_WIRE_BYTES * prefill_tokens as f64,
            msg: RuntimeMsg::Work(StageWork {
                request: request.id,
                phase: Phase::Prompt,
                tokens: prefill_tokens,
                stage_index: 0,
                epoch,
                pipeline: Arc::clone(&pipeline),
                prefix,
            }),
        })?;
        self.in_flight.insert(
            request.id,
            InFlight {
                request,
                pipeline,
                progress,
                epoch,
                prefix,
            },
        );
        Ok(true)
    }

    /// Ships one replication milestone: the newly durable tokens travel
    /// from every primary stage to its standby as a non-final
    /// [`RuntimeMsg::KvChunk`], and the standby workers seed them as KV
    /// residency — replication steals link bandwidth and KV headroom, which
    /// is exactly the trade-off measured.
    fn ship_replicas(&mut self, request: RequestId, model: ModelId, trickle: &Trickle) {
        for &(primary, standby, layers, bytes) in &trickle.shipments {
            let _ = self.send(Envelope {
                from: Some(primary),
                to: Some(standby),
                model,
                bytes,
                msg: RuntimeMsg::KvChunk {
                    from: primary,
                    layers,
                    entries: vec![(request, trickle.durable)],
                    prefix_entries: Vec::new(),
                    tokens: trickle.tokens as u64,
                    pages: trickle.pages,
                    bytes,
                    last: false,
                },
            });
        }
    }

    /// Fails one node: marks it down and detaches its workers; the control
    /// core takes every in-flight pipeline crossing it off it and re-plans
    /// around the hole.  Each doomed request's KV is purged and it is
    /// admitted again at once — promoted onto its standbys, or restarted —
    /// after the re-plan is enacted.  Returns the requests that must wait
    /// for a later admission.
    fn fail_node(&mut self, node: NodeId) -> Result<Vec<Request>, RuntimeError> {
        let now = self.clock.now();
        self.node_health.mark_down(node);
        // Detach the node's workers now: their in-flight work is lost, and
        // messages routed to them from here on drop harmlessly.
        for m in 0..self.core.num_models() {
            let key = (node, ModelId(m));
            self.pending_retire.remove(&key);
            if self.registry.is_live(key) {
                self.registry.detach(key);
            }
        }
        let in_flight = self.in_flight.iter().map(|(&id, f)| InFlightRequest {
            id,
            prompt_tokens: f.request.prompt_tokens,
            pipeline: &f.pipeline,
            prefix: f.prefix,
            progress: f.progress,
        });
        let registry = &self.registry;
        let failover = self.core.fail_nodes(
            &[node],
            ReplanReason::NodeFailure { node },
            now,
            in_flight,
            |n, m| registry.is_live((n, m)),
        );
        let mut doomed = Vec::with_capacity(failover.doomed.len());
        for id in failover.doomed {
            let flight = self
                .in_flight
                .remove(&id)
                .expect("doomed requests are in flight");
            let model = flight.pipeline.model;
            for stage in &flight.pipeline.stages {
                self.estimators[model.index()].on_finished(
                    stage.node,
                    id,
                    flight.progress.generated,
                );
                if let Some(p) = flight.prefix {
                    self.estimators[model.index()].release_shared(stage.node, p.id);
                }
            }
            // Purge the stranded incarnation's KV on *every* live worker of
            // its model: pipeline nodes, migration destinations seeded with
            // its pages, and replica standbys (a promoted request re-seeds
            // its surviving tokens on admission).  Entries are keyed by
            // request id, so other requests are untouched.
            for (n, _) in self.registry.live_keys_for_model(model) {
                self.send(Envelope {
                    from: None,
                    to: Some(n),
                    model,
                    bytes: TOKEN_WIRE_BYTES,
                    msg: RuntimeMsg::Release(id),
                })?;
            }
            doomed.push(flight.request);
        }
        if let Some(replan) = failover.replan {
            self.enact(replan, now);
        }
        let mut waiting = Vec::new();
        for request in doomed {
            if !self.try_dispatch(request)? {
                waiting.push(request);
            }
        }
        self.sweep_retirements();
        Ok(waiting)
    }

    fn handle_inbound(&mut self, msg: CoordinatorMsg) -> Result<(), RuntimeError> {
        match msg {
            CoordinatorMsg::Runtime(msg) => self.handle(msg),
            // The next loop iteration drains the control channel.
            CoordinatorMsg::Wake => Ok(()),
        }
    }

    fn handle(&mut self, msg: RuntimeMsg) -> Result<(), RuntimeError> {
        let RuntimeMsg::IterationDone {
            request,
            phase,
            emitted_at,
            epoch,
        } = msg
        else {
            if let RuntimeMsg::KvInstalled {
                model,
                from,
                to,
                layers,
                tokens,
                pages,
                bytes,
            } = msg
            {
                self.finish_migration(model, from, to, layers, tokens, pages, bytes);
            }
            // Work/Release/Shutdown are worker-bound; nothing else to do.
            return Ok(());
        };
        let Some(flight) = self.in_flight.get_mut(&request) else {
            return Ok(());
        };
        // Stale incarnation: pre-failure work was still draining through
        // surviving stages when the request was promoted or re-admitted.
        if epoch != flight.epoch {
            return Ok(());
        }
        // The first token of this incarnation ends its prompt pass.
        let prompt_done = flight.progress.generated == 0;
        if phase == Phase::Prompt {
            flight.progress.first_token.get_or_insert(emitted_at);
        }
        flight.progress.advance();
        if flight.progress.generated >= flight.request.output_tokens {
            self.finish(request, emitted_at)
        } else {
            let pipeline = Arc::clone(&flight.pipeline);
            let total = flight.request.prompt_tokens + flight.progress.generated;
            let first = pipeline.stages[0].node;
            let model = pipeline.model;
            // Trickle KV replication as decode proceeds, over the
            // primary→standby links like any other transfer.
            if let Some(trickle) = self.core.trickle(request, &pipeline, total, prompt_done) {
                self.ship_replicas(request, model, &trickle);
            }
            self.send(Envelope {
                from: None,
                to: Some(first),
                model,
                bytes: TOKEN_WIRE_BYTES,
                msg: RuntimeMsg::Work(StageWork {
                    request,
                    phase: Phase::Decode,
                    tokens: 1,
                    stage_index: 0,
                    epoch,
                    pipeline,
                    prefix: None,
                }),
            })
        }
    }

    /// Freezes one hand-over's layer range on one endpoint.  The worker
    /// stacks ranges, so overlapping hand-overs sharing an endpoint each
    /// freeze (and later thaw) their own range independently — and work on
    /// layers outside every frozen range keeps executing throughout.
    fn freeze_endpoint(&mut self, key: WorkerKey, layers: LayerRange) {
        if let Some(tx) = self.registry.route(key) {
            let _ = tx.send(RuntimeMsg::Freeze(layers));
        }
    }

    /// Thaws one hand-over's layer range on one endpoint (its transfer
    /// landed).
    fn thaw_endpoint(&mut self, key: WorkerKey, layers: LayerRange) {
        if let Some(tx) = self.registry.route(key) {
            let _ = tx.send(RuntimeMsg::Resume(layers));
        }
    }

    /// Completes one KV hand-over: records the transfer, installs the
    /// deferred scheduler once the model's last pending transfer landed
    /// (re-route), and thaws the migrated layer range on both ends (an
    /// endpoint with another hand-over still in flight keeps that other
    /// range frozen).
    #[allow(clippy::too_many_arguments)]
    fn finish_migration(
        &mut self,
        model: ModelId,
        from: NodeId,
        to: NodeId,
        layers: LayerRange,
        tokens: u64,
        pages: u64,
        bytes: f64,
    ) {
        let now = self.clock.now();
        let migration = KvMigration {
            model,
            from,
            to,
            layers,
        };
        // Resolve the exact pending entry this `KvInstalled` acknowledges
        // (a migration is unique by (model, from, to, layers) at any time:
        // resolution would reject re-moving layers the source gave up).
        let Some(position) = self
            .pending_migrations
            .iter()
            .position(|&(pending, _)| pending == migration)
        else {
            return;
        };
        let (_, started) = self.pending_migrations.remove(position);
        self.kv_transfers.push(KvTransferRecord {
            at: now,
            migration,
            tokens: tokens as f64,
            pages,
            bytes,
            transfer_secs: (now - started).max(0.0),
        });
        if !self
            .pending_migrations
            .iter()
            .any(|&(pending, _)| pending.model == model)
        {
            if let Some(scheduler) = self.deferred_swaps.remove(&model.index()) {
                // A node failure may have re-planned while this transfer was
                // in flight; the snapshot built at freeze time would
                // resurrect routes through nodes that died since.  Re-derive
                // the weights from the fleet as it stands now, falling back
                // to the snapshot only when the current topology cannot seed
                // an IWRR.
                let fresh = self
                    .core
                    .fleet()
                    .model(model)
                    .and_then(|topology| IwrrScheduler::from_topology(topology).ok());
                let scheduler: Box<dyn Scheduler> = match fresh {
                    Some(current) => Box::new(current),
                    None => scheduler,
                };
                self.core.install_scheduler(model, scheduler);
            }
        }
        self.thaw_endpoint((from, model), layers);
        self.thaw_endpoint((to, model), layers);
    }

    /// Completes a request: records its outcome, updates the estimator and
    /// frees its KV pages on every node of its pipeline.
    fn finish(&mut self, request: RequestId, completed_at: f64) -> Result<(), RuntimeError> {
        let Some(flight) = self.in_flight.remove(&request) else {
            return Ok(());
        };
        let model = flight.pipeline.model;
        for stage in &flight.pipeline.stages {
            self.estimators[model.index()].on_finished(
                stage.node,
                request,
                flight.request.output_tokens,
            );
            if let Some(p) = flight.prefix {
                self.estimators[model.index()].release_shared(stage.node, p.id);
            }
        }
        self.core.complete(request, model, flight.prefix);
        // Release the request's KV on *every* live worker of its model, not
        // only its pipeline nodes: migrations seed destination workers and
        // replication seeds standbys, and all those copies are keyed by this
        // request id.
        for (node, _) in self.registry.live_keys_for_model(model) {
            self.send(Envelope {
                from: None,
                to: Some(node),
                model,
                bytes: TOKEN_WIRE_BYTES,
                msg: RuntimeMsg::Release(request),
            })?;
        }
        let outcome = RequestOutcome {
            id: request,
            model,
            prompt_tokens: flight.request.prompt_tokens,
            output_tokens: flight.request.output_tokens,
            arrival: flight.progress.arrival,
            first_token_at: flight.progress.first_token.unwrap_or(completed_at),
            completed_at,
            pipeline_depth: flight.pipeline.stages.len(),
        };
        if let Some(tx) = &self.completions {
            let _ = tx.send(outcome);
        }
        self.outcomes.push(outcome);
        // A completed pipeline may free a pending-retire worker.
        self.sweep_retirements();
        Ok(())
    }

    fn send(&self, envelope: Envelope) -> Result<(), RuntimeError> {
        self.fabric
            .send(envelope)
            .map_err(|_| RuntimeError::Disconnected("network fabric"))
    }
}
