//! The cluster simulator: the event loop driving the shared control core
//! (admission, replication, fail-over and re-plan decisions come from
//! [`ControlCore`]), engines, links, metrics collection — and the simulated
//! half of the online re-planning loop (perturbation events, windowed
//! observation, policy-driven re-plans with drain/hand-over).

use crate::engine::NodeEngine;
use crate::event::{Event, EventQueue, PerturbationEvent, Phase, RequestState, SimTime, WorkItem};
use crate::metrics::{IntervalMetrics, LatencyStats, LinkStats, Metrics};
use crate::network::LinkQueue;
use helix_cluster::{ModelId, NodeId, PrefixId, Region, TOKEN_WIRE_BYTES};
use helix_core::exec_model::DEFAULT_TOKENS_PER_PAGE;
use helix_core::{
    Admitted, ClusterState, ControlCore, EngineCounters, FailoverRecord, FleetScheduler,
    FleetTopology, InFlightRequest, KvTransferModel, KvTransferRecord, LayerRange, ModelPlacement,
    NodeDirectory, NodeObservations, PlacementDelta, PrefixStats, Progress, Replan, ReplanPolicy,
    ReplanReason, ReplanRecord, ReplicationPolicy, ReplicationStats, RequestSpec, Scheduler,
    Topology, Trickle,
};
use helix_workload::{Request, RequestId, Workload};
use std::collections::{HashMap, VecDeque};

/// Configuration of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulationConfig {
    /// Warm-up period excluded from measurements (seconds).
    pub warmup_secs: f64,
    /// Measurement window length (seconds).
    pub duration_secs: f64,
    /// Maximum number of requests concurrently admitted into the cluster;
    /// further arrivals wait in the coordinator backlog.  This is how the
    /// offline setting saturates the cluster without infinite queues.
    pub admission_limit: usize,
    /// Safety cap on processed events.
    pub max_events: u64,
}

impl SimulationConfig {
    /// Offline serving (paper: 1 minute warm-up, 10 minute measurement; here
    /// parameterised): all requests are available immediately and admission
    /// control keeps the cluster saturated.
    pub fn offline(duration_secs: f64) -> Self {
        SimulationConfig {
            warmup_secs: duration_secs * 0.1,
            duration_secs,
            admission_limit: 512,
            max_events: 200_000_000,
        }
    }

    /// Online serving: requests arrive over time; admission control is
    /// effectively unlimited.
    pub fn online(duration_secs: f64) -> Self {
        SimulationConfig {
            warmup_secs: duration_secs * 0.05,
            duration_secs,
            admission_limit: usize::MAX,
            max_events: 200_000_000,
        }
    }

    /// Overrides the warm-up period.
    pub fn with_warmup(mut self, warmup_secs: f64) -> Self {
        self.warmup_secs = warmup_secs;
        self
    }

    /// Overrides the admission limit.
    pub fn with_admission_limit(mut self, limit: usize) -> Self {
        self.admission_limit = limit;
        self
    }
}

/// One model's engines as its scheduler sees them: queue, throughput and KV
/// state of that model's engines only, so per-model KV masking sees its own
/// partition.
struct EngineView<'a> {
    engines: &'a HashMap<(NodeId, ModelId), NodeEngine>,
    model: ModelId,
}

impl EngineView<'_> {
    fn engine(&self, node: NodeId) -> Option<&NodeEngine> {
        self.engines.get(&(node, self.model))
    }
}

impl ClusterState for EngineView<'_> {
    fn queue_len(&self, node: NodeId) -> usize {
        self.engine(node)
            .map_or(0, |e| e.queue_len() + usize::from(e.is_busy()))
    }
    fn recent_throughput(&self, node: NodeId) -> f64 {
        self.engine(node).map_or(0.0, NodeEngine::recent_throughput)
    }
    fn kv_used_tokens(&self, node: NodeId) -> f64 {
        self.engine(node).map_or(0.0, NodeEngine::kv_used_tokens)
    }
    fn kv_capacity_tokens(&self, node: NodeId) -> f64 {
        self.engine(node)
            .map_or(f64::INFINITY, NodeEngine::kv_capacity_tokens)
    }
}

/// Per-model metrics of a fleet simulation, alongside the combined view.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetMetrics {
    /// Metrics over all models together (per-model link contention included).
    pub overall: Metrics,
    /// Metrics of each model's own requests, indexed by [`ModelId`].  Link
    /// statistics live only in `overall` — links are shared by the fleet.
    pub per_model: Vec<Metrics>,
}

/// One request finishing in a simulation run — the simulator's analogue of
/// the runtime's per-request outcome, so cross-surface suites can compare
/// *when* things completed (e.g. relative to a KV hand-over window), not
/// just how many did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletionRecord {
    /// The completed request.
    pub id: RequestId,
    /// The model it ran against.
    pub model: ModelId,
    /// Virtual time its final output token reached the coordinator.
    pub at: SimTime,
}

/// The full result of a [`ClusterSimulator::run_with_events`] run: end-of-run
/// metrics plus the windowed interval metrics and the re-plan log.
#[derive(Debug, Clone)]
pub struct FleetRunReport {
    /// End-of-run metrics (identical shape to [`ClusterSimulator::run_per_model`]).
    pub metrics: FleetMetrics,
    /// Windowed per-model decode progress, one entry per observation window.
    pub intervals: Vec<IntervalMetrics>,
    /// Every re-plan the run applied, in order.
    pub replans: Vec<ReplanRecord>,
    /// Every KV hand-over a partial-layer migration performed, in completion
    /// order.
    pub kv_transfers: Vec<KvTransferRecord>,
    /// Every in-window request completion, in completion order (the count
    /// matches `metrics.overall.completed_requests`).
    pub completions: Vec<CompletionRecord>,
    /// Prefix-sharing counters summed over all models (all zeros when no
    /// request carries a prefix tag).
    pub prefix: PrefixStats,
    /// Every fail-over the run handled (one record per failure event), with
    /// the promoted/aborted request sets and the recompute-token accounting.
    pub failovers: Vec<FailoverRecord>,
    /// Replica traffic the run's replication policy trickled to standbys.
    pub replication: ReplicationStats,
}

/// Discrete-event simulator of a Helix-style serving cluster.
///
/// One simulator serves one model (via [`ClusterSimulator::new`]) or a whole
/// multi-model fleet (via [`ClusterSimulator::new_fleet`]): every (node,
/// model) pair gets its own batching engine with the capacity-split profile
/// the fleet planner assigned it, while network links are shared across
/// models, so cross-model link contention emerges naturally.
///
/// The simulator **owns** its [`FleetTopology`] (inside its [`ControlCore`],
/// whose decisions it turns into event pushes and engine calls), because
/// [`ClusterSimulator::run_with_events`] closes the loop mid-run: engines are
/// observed over windows, a [`ReplanPolicy`] decides when the observed
/// throughput gap warrants action, and [`FleetTopology::replan`] re-derives
/// the plan — after which schedulers are swapped **drain-then-switch**:
/// in-flight pipelines keep routing over the engines they were assigned,
/// while new requests follow the re-planned IWRR weights.  The plain
/// [`ClusterSimulator::run`] / [`ClusterSimulator::run_per_model`] paths
/// schedule no observation ticks and are bit-identical to the static
/// pipeline.
///
/// To drive the simulator through the same submit → drain → finish surface
/// as the async runtime's serving session, wrap it in a
/// [`SimSession`](crate::SimSession).
///
/// See the [crate-level documentation](crate) for an end-to-end example.
pub struct ClusterSimulator {
    /// The control decisions (admission, replication, fail-over, re-plan)
    /// this simulator drives, shared with the runtime coordinator.
    core: ControlCore,
    engines: HashMap<(NodeId, ModelId), NodeEngine>,
    links: HashMap<(Option<NodeId>, Option<NodeId>), LinkQueue>,
    /// Active slowdown perturbations by node (applied to engines created by
    /// later re-plans too).
    slowdowns: HashMap<NodeId, f64>,
    /// Node-level health membership, driven by observation-tick heartbeats
    /// and failure/straggler overrides.
    node_health: NodeDirectory,
    /// Per-model forwarding of migrated prefix homes: `(prefix, old node)` →
    /// the node now holding the refcounted entry.  Releases follow the chain
    /// so a sharer admitted before a migration still balances its reference
    /// after the entry moved.
    prefix_forwards: Vec<HashMap<(PrefixId, NodeId), NodeId>>,
    /// Layer ranges captured when a flapping node drops, handed back to the
    /// planner when it rejoins.
    rejoin_ranges: HashMap<NodeId, Vec<(ModelId, LayerRange)>>,
}

impl ClusterSimulator {
    /// Creates a simulator for one (topology, scheduler) pair.  Node
    /// engines, layer counts and KV capacities all come from the shared
    /// planning artifact, so the simulator sees exactly the cluster the
    /// planner evaluated.
    pub fn new(topology: &Topology, scheduler: Box<dyn Scheduler>) -> Self {
        Self::from_parts(FleetTopology::single(topology.clone()), vec![scheduler])
    }

    /// Creates a fleet simulator: one lane per model of the fleet topology,
    /// with the matching per-model schedulers.
    ///
    /// # Panics
    ///
    /// Panics if the scheduler count does not match the fleet's model count.
    pub fn new_fleet(fleet: &FleetTopology, schedulers: FleetScheduler) -> Self {
        let schedulers = schedulers.into_parts();
        assert_eq!(
            fleet.num_models(),
            schedulers.len(),
            "one scheduler per model"
        );
        Self::from_parts(fleet.clone(), schedulers)
    }

    fn from_parts(fleet: FleetTopology, schedulers: Vec<Box<dyn Scheduler>>) -> Self {
        let mut engines = HashMap::new();
        for (m, topology) in fleet.topologies().iter().enumerate() {
            // Engines run at the analytic contention split (identical to the
            // planning profile when the fleet was planned without
            // observations); measured speed factors never slow an engine —
            // they re-price planning against a degradation the engine's own
            // slowdown state delivers.
            let profile = fleet.contention_profile(ModelId(m));
            for n in topology.nodes() {
                let engine = NodeEngine::new(
                    profile.node_profile(n.node),
                    n.layers.len(),
                    n.kv_capacity_tokens,
                );
                engines.insert((n.node, ModelId(m)), engine);
            }
        }
        let num_models = schedulers.len();
        ClusterSimulator {
            core: ControlCore::new(fleet, schedulers),
            engines,
            links: HashMap::new(),
            slowdowns: HashMap::new(),
            node_health: NodeDirectory::default(),
            prefix_forwards: vec![HashMap::new(); num_models],
            rejoin_ranges: HashMap::new(),
        }
    }

    /// The fleet plan the simulator currently serves (re-plans update it).
    pub fn fleet(&self) -> &FleetTopology {
        self.core.fleet()
    }

    /// Sets the fleet-wide KV replication policy.  Takes effect for requests
    /// admitted afterwards; [`ReplicationPolicy::disabled`] (the default)
    /// reproduces pure abort-and-readmit recovery.
    pub fn set_replication(&mut self, policy: ReplicationPolicy) {
        self.core.set_replication(policy);
    }

    /// The current replication policy.
    pub fn replication(&self) -> ReplicationPolicy {
        self.core.replication()
    }

    /// The node-level health directory (heartbeats ride the observation
    /// ticks; failures and stragglers are forced overrides).
    pub fn node_health(&self) -> &NodeDirectory {
        &self.node_health
    }

    /// The topology the simulator runs for one model.
    pub fn model_topology(&self, model: ModelId) -> Option<&Topology> {
        self.core.fleet().model(model)
    }

    /// Number of models the simulator serves.
    pub fn num_models(&self) -> usize {
        self.core.num_models()
    }

    /// The topology the simulator is running (the first model's lane).
    pub fn topology(&self) -> &Topology {
        &self.core.fleet().topologies()[0]
    }

    /// The placement the simulator is running for one model.
    pub fn model_placement(&self, model: ModelId) -> Option<&ModelPlacement> {
        self.core.fleet().model(model).map(Topology::placement)
    }

    /// The placement the simulator is running (the first model's lane).
    pub fn placement(&self) -> &ModelPlacement {
        self.core.fleet().topologies()[0].placement()
    }

    /// Runs the simulation of `workload` and returns the combined metrics.
    pub fn run(&mut self, workload: &Workload, config: SimulationConfig) -> Metrics {
        self.run_per_model(workload, config).overall
    }

    /// Runs the simulation and reports both combined and per-model metrics.
    ///
    /// # Panics
    ///
    /// Panics if a request targets a model the fleet does not serve — the
    /// same workload fails loudly on the runtime surface too
    /// (`HelixError::UnknownModel`), so the two surfaces stay comparable.
    pub fn run_per_model(&mut self, workload: &Workload, config: SimulationConfig) -> FleetMetrics {
        self.run_loop(workload, config, &[], None).metrics
    }

    /// Runs the simulation with scripted mid-run perturbations and (when a
    /// policy is given) the closed re-planning loop: every
    /// `check_interval_secs` the engines are measured into
    /// [`NodeObservations`], interval metrics are emitted, and the policy
    /// decides whether the observed-vs-planned gap warrants a
    /// [`FleetTopology::replan`].  Node failures always re-plan immediately
    /// (removal delta), aborting and re-admitting the pipelines they strand.
    ///
    /// With no events and no policy this is exactly
    /// [`ClusterSimulator::run_per_model`] (no observation ticks are
    /// scheduled, so event timing is bit-identical).
    pub fn run_with_events(
        &mut self,
        workload: &Workload,
        config: SimulationConfig,
        events: &[PerturbationEvent],
        policy: Option<ReplanPolicy>,
    ) -> FleetRunReport {
        self.run_loop(workload, config, events, policy)
    }

    fn run_loop(
        &mut self,
        workload: &Workload,
        config: SimulationConfig,
        events: &[PerturbationEvent],
        policy: Option<ReplanPolicy>,
    ) -> FleetRunReport {
        let num_models = self.core.num_models();
        let mut queue = EventQueue::new();
        // Each run's timeline restarts at zero; links and engines keep their
        // cumulative counters but must not stay "busy" (or frozen) into the
        // new epoch, and the control core forgets times of the old one.
        self.core.rebase_epoch();
        for link in self.links.values_mut() {
            link.rebase_epoch();
        }
        for engine in self.engines.values_mut() {
            engine.rebase_epoch();
        }
        // Every engine node joins the health directory (re-registration
        // across drains refreshes the heartbeat but keeps forced overrides,
        // so a node failed in an earlier drain stays Down).
        for &(node, _) in self.engines.keys() {
            self.node_health.register(node, 0.0);
        }
        let mut specs: HashMap<RequestId, Request> = workload.iter().map(|r| (r.id, *r)).collect();

        // Arrival-rate shifts re-time the arrival process: gaps after the
        // shift point shrink by the rate factor.  Shifts are applied in
        // effect-time order, each in the already-shifted timeline.
        let mut shifts: Vec<(SimTime, f64)> = events
            .iter()
            .filter_map(|e| match *e {
                PerturbationEvent::ArrivalRateShift { at, factor } => Some((at, factor)),
                _ => None,
            })
            .collect();
        shifts.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        if !shifts.is_empty() {
            for spec in specs.values_mut() {
                let mut t = spec.arrival_time;
                for &(at, factor) in &shifts {
                    if t > at && factor > 0.0 {
                        t = at + (t - at) / factor;
                    }
                }
                spec.arrival_time = t;
            }
        }

        for r in workload.iter() {
            assert!(
                r.model.index() < num_models,
                "request {} targets {} but the fleet serves {num_models} model(s)",
                r.id,
                r.model,
            );
            let arrival = specs[&r.id].arrival_time;
            queue.push(arrival, Event::RequestArrival { request: r.id });
        }
        let end_time = config.warmup_secs + config.duration_secs;
        for e in events {
            match e {
                PerturbationEvent::ArrivalRateShift { .. } => {} // applied above
                other => queue.push(other.at(), Event::Perturbation(*other)),
            }
        }
        // Observation ticks exist only for perturbed / policy-driven runs, so
        // the static serve path schedules exactly the events it always did.
        let ticks_enabled = policy.is_some() || !events.is_empty();
        let tick_interval = policy
            .map(|p| p.check_interval_secs)
            .unwrap_or(10.0)
            .max(1e-3);
        if ticks_enabled && tick_interval <= end_time {
            queue.push(tick_interval, Event::ObservationTick);
        }

        let mut states: HashMap<RequestId, RequestState> = HashMap::new();
        let mut backlog: VecDeque<RequestId> = VecDeque::new();
        let mut active = 0usize;

        // Per-model measurement accumulators.
        let mut decode_tokens: Vec<u64> = vec![0; num_models];
        let mut completed: Vec<u64> = vec![0; num_models];
        let mut prompt_latencies: Vec<Vec<f64>> = vec![Vec::new(); num_models];
        let mut decode_gaps: Vec<Vec<f64>> = vec![Vec::new(); num_models];
        // Warmup-independent totals backing the windowed interval metrics.
        let mut total_decode_tokens: Vec<u64> = vec![0; num_models];
        let mut processed_events: u64 = 0;
        let mut now: SimTime = 0.0;

        // Feedback-loop state.
        let mut intervals: Vec<IntervalMetrics> = Vec::new();
        let mut kv_transfers: Vec<KvTransferRecord> = Vec::new();
        let mut completions: Vec<CompletionRecord> = Vec::new();
        let mut last_tick: SimTime = 0.0;
        let mut interval_base: Vec<u64> = vec![0; num_models];

        while let Some((time, event)) = queue.pop() {
            if time > end_time {
                break;
            }
            // Bookkeeping events don't advance the measured clock: the
            // no-perturbation path must report bit-identical metrics.
            if !matches!(
                event,
                Event::ObservationTick | Event::Perturbation(_) | Event::EngineThaw { .. }
            ) {
                now = time;
            }
            processed_events += 1;
            if processed_events > config.max_events {
                break;
            }
            match event {
                Event::RequestArrival { request } => {
                    if active >= config.admission_limit {
                        backlog.push_back(request);
                        continue;
                    }
                    self.admit_request(request, &specs, &mut states, &mut queue, now, &mut active);
                }
                Event::NodeArrival { node, item } => {
                    if states
                        .get(&item.request)
                        .is_none_or(|s| s.epoch != item.epoch)
                    {
                        // The request (incarnation) was aborted — e.g. its
                        // pipeline crossed a failed node; drop the stale work.
                        continue;
                    }
                    let model = item.model;
                    if let Some(engine) = self.engines.get_mut(&(node, model)) {
                        engine.enqueue(item);
                        if let Some(done) = engine.try_start_batch(now) {
                            queue.push(done, Event::BatchComplete { node, model });
                        }
                    }
                }
                Event::BatchComplete { node, model } => {
                    let items = self
                        .engines
                        .get_mut(&(node, model))
                        .expect("batch completed on unknown engine")
                        .complete_batch();
                    for item in items {
                        self.route_onward(node, item, &states, &mut queue, now);
                    }
                    if let Some(engine) = self.engines.get_mut(&(node, model)) {
                        if let Some(done) = engine.try_start_batch(now) {
                            queue.push(done, Event::BatchComplete { node, model });
                        }
                    }
                }
                Event::TokenAtCoordinator {
                    request,
                    epoch,
                    phase: _,
                } => {
                    let Some(state) = states.get_mut(&request) else {
                        continue;
                    };
                    if state.epoch != epoch {
                        // A token of an aborted incarnation; ignore.
                        continue;
                    }
                    let model = state.pipeline.model;
                    let m = model.index();
                    // The first token of this incarnation ends its prompt pass.
                    let prompt_done = state.progress.generated == 0;
                    let in_window = now >= config.warmup_secs;
                    // A token re-decoded after an abort reached the client
                    // before: it counts in no metric.
                    if state.progress.advance() {
                        total_decode_tokens[m] += 1;
                        if in_window {
                            decode_tokens[m] += 1;
                        }
                        if state.progress.first_token.is_none() {
                            state.progress.first_token = Some(now);
                            if in_window {
                                prompt_latencies[m].push(now - state.progress.arrival);
                            }
                        } else if let Some(last) = state.last_token_time {
                            if in_window {
                                decode_gaps[m].push(now - last);
                            }
                        }
                        state.last_token_time = Some(now);
                    }
                    if state.progress.generated >= state.output_tokens {
                        state.finish_time = Some(now);
                        if in_window {
                            completed[m] += 1;
                            completions.push(CompletionRecord {
                                id: request,
                                model,
                                at: now,
                            });
                        }
                        // Release the request's KV on *every* engine of its
                        // model, not only its pipeline nodes: migrations seed
                        // destination engines and replication seeds standbys,
                        // and all those copies are keyed by this request id.
                        for (&(_, em), engine) in self.engines.iter_mut() {
                            if em == model {
                                engine.release_request(request);
                            }
                        }
                        // Prefix references release where the refcounted
                        // entry actually lives now — a migration may have
                        // moved it off the pipeline node (see
                        // `release_prefix_at`).
                        if let Some(p) = state.prefix {
                            for node in state.pipeline.nodes() {
                                self.release_prefix_at(model, node, p.id);
                            }
                        }
                        self.core.complete(request, model, state.prefix);
                        active = active.saturating_sub(1);
                        if let Some(next) = backlog.pop_front() {
                            self.admit_request(
                                next,
                                &specs,
                                &mut states,
                                &mut queue,
                                now,
                                &mut active,
                            );
                        }
                    } else {
                        let total = state.prompt_tokens + state.progress.generated;
                        if let Some(trickle) =
                            self.core
                                .trickle(request, &state.pipeline, total, prompt_done)
                        {
                            self.ship_replicas(request, model, &trickle, now);
                        }
                        // Schedule the next decode iteration over the same pipeline.
                        let first = state.pipeline.stages[0];
                        let arrival =
                            self.link_transfer(None, Some(first.node), now, TOKEN_WIRE_BYTES);
                        queue.push(
                            arrival,
                            Event::NodeArrival {
                                node: first.node,
                                item: WorkItem {
                                    request,
                                    epoch,
                                    model,
                                    phase: Phase::Decode,
                                    tokens: 1,
                                    layers: first.layers,
                                    stage_index: 0,
                                    prefix: None,
                                },
                            },
                        );
                    }
                }
                Event::MeasurementEnd => {}
                Event::Perturbation(perturbation) => {
                    self.apply_perturbation(
                        perturbation,
                        time,
                        &mut states,
                        &mut queue,
                        &mut active,
                        &mut kv_transfers,
                    );
                }
                Event::EngineThaw { node, model } => {
                    // The KV hand-over finished; work that queued up during
                    // the freeze starts batching again.
                    if let Some(engine) = self.engines.get_mut(&(node, model)) {
                        if let Some(done) = engine.try_start_batch(time) {
                            queue.push(done, Event::BatchComplete { node, model });
                        }
                    }
                }
                Event::ObservationTick => {
                    // 1. Close the interval window.
                    intervals.push(IntervalMetrics {
                        start: last_tick,
                        end: time,
                        decode_tokens: total_decode_tokens
                            .iter()
                            .zip(&interval_base)
                            .map(|(t, b)| t - b)
                            .collect(),
                    });
                    interval_base.clone_from(&total_decode_tokens);
                    // Live engines heartbeat the node directory; a node that
                    // stops ticking (failed, partitioned) decays Healthy →
                    // Degraded → Down on the membership clock.
                    for (&(node, _), engine) in &self.engines {
                        if !engine.is_failed() {
                            self.node_health.heartbeat(node, time);
                        }
                    }
                    // 2. Measure the engines.
                    let window = (time - last_tick).max(1e-9);
                    let observed = self.collect_observations(window);
                    // 3. Consult the policy: measured speeds vs the speeds
                    // the current plan already priced in.
                    if let Some(policy) = policy {
                        if let Some(replan) = self.core.policy_tick(&policy, &observed, time) {
                            self.enact(replan, time, &mut queue, &mut kv_transfers);
                        }
                    }
                    last_tick = time;
                    // 4. Schedule the next window.
                    let next = time + tick_interval;
                    if next <= end_time {
                        queue.push(next, Event::ObservationTick);
                    }
                }
            }
        }

        let measured = (now.min(end_time) - config.warmup_secs).max(1e-9);
        // Overall utilisation merges each node's per-model engines.
        let mut node_busy: HashMap<NodeId, f64> = HashMap::new();
        for (&(node, _), engine) in &self.engines {
            *node_busy.entry(node).or_insert(0.0) += engine.busy_seconds;
        }
        let node_utilization: HashMap<NodeId, f64> = node_busy
            .into_iter()
            .map(|(node, busy)| (node, (busy / now.max(1e-9)).min(1.0)))
            .collect();
        let mut link_stats: Vec<LinkStats> = self
            .links
            .iter()
            .map(|(&(from, to), link)| LinkStats {
                from,
                to,
                transfers: link.transfers,
                bytes: link.bytes_transferred,
                mean_queue_delay: link.mean_queue_delay(),
                max_queue_delay: link.max_queue_delay,
            })
            .collect();
        link_stats.sort_by(|a, b| {
            b.mean_queue_delay
                .partial_cmp(&a.mean_queue_delay)
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        let per_model: Vec<Metrics> = (0..num_models)
            .map(|m| {
                let utilization: HashMap<NodeId, f64> = self
                    .engines
                    .iter()
                    .filter(|((_, model), _)| model.index() == m)
                    .map(|(&(node, _), engine)| {
                        (node, (engine.busy_seconds / now.max(1e-9)).min(1.0))
                    })
                    .collect();
                Metrics {
                    measured_seconds: measured,
                    decode_tokens: decode_tokens[m],
                    completed_requests: completed[m],
                    prompt_latency: LatencyStats::from_samples(&prompt_latencies[m]),
                    decode_latency: LatencyStats::from_samples(&decode_gaps[m]),
                    node_utilization: utilization,
                    // Links are shared across the fleet; see `overall`.
                    link_stats: Vec::new(),
                }
            })
            .collect();
        let overall = Metrics {
            measured_seconds: measured,
            decode_tokens: decode_tokens.iter().sum(),
            completed_requests: completed.iter().sum(),
            prompt_latency: LatencyStats::from_samples(&prompt_latencies.concat()),
            decode_latency: LatencyStats::from_samples(&decode_gaps.concat()),
            node_utilization,
            link_stats,
        };
        // Per-run logs and counters are taken (not copied) so back-to-back
        // runs on one simulator — e.g. session drains — each report their own.
        FleetRunReport {
            metrics: FleetMetrics { overall, per_model },
            intervals,
            replans: self.core.take_replans(),
            kv_transfers,
            completions,
            prefix: self.core.take_prefix_stats(),
            failovers: self.core.take_failovers(),
            replication: self.core.take_replication_stats(),
        }
    }

    /// Measures every engine's window deltas into a [`NodeObservations`]
    /// snapshot through the control core (the same measurement math the
    /// runtime coordinator runs), against the speeds the current plan
    /// already priced in.
    fn collect_observations(&mut self, window: f64) -> NodeObservations {
        let mut observed = NodeObservations::new();
        for (&(node, model), engine) in &self.engines {
            self.core.measure(
                &mut observed,
                node,
                model,
                EngineCounters {
                    nominal_busy_secs: engine.nominal_busy_seconds,
                    busy_secs: engine.busy_seconds,
                    tokens: engine.tokens_processed,
                },
                window,
            );
        }
        observed
    }

    #[allow(clippy::too_many_arguments)]
    fn apply_perturbation(
        &mut self,
        perturbation: PerturbationEvent,
        time: SimTime,
        states: &mut HashMap<RequestId, RequestState>,
        queue: &mut EventQueue,
        active: &mut usize,
        kv_transfers: &mut Vec<KvTransferRecord>,
    ) {
        match perturbation {
            PerturbationEvent::NodeSlowdown { node, factor, .. } => {
                self.slowdowns.insert(node, factor);
                for ((n, _), engine) in self.engines.iter_mut() {
                    if *n == node {
                        engine.set_slowdown(factor);
                    }
                }
                if factor > 1.0 {
                    self.node_health.mark_degraded(node);
                }
            }
            PerturbationEvent::NodeRecovery { node, .. } => {
                self.slowdowns.remove(&node);
                for ((n, _), engine) in self.engines.iter_mut() {
                    if *n == node {
                        engine.set_slowdown(1.0);
                    }
                }
                self.node_health.mark_healthy(node, time);
            }
            PerturbationEvent::NodeStraggler {
                node,
                factor,
                recover_secs,
                ..
            } => {
                // A straggler is a slowdown that the health layer surfaces
                // (Degraded) and that heals itself after `recover_secs`.
                self.slowdowns.insert(node, factor);
                for ((n, _), engine) in self.engines.iter_mut() {
                    if *n == node {
                        engine.set_slowdown(factor);
                    }
                }
                self.node_health.mark_degraded(node);
                let heal = time + recover_secs.max(0.0);
                queue.push(
                    heal,
                    Event::Perturbation(PerturbationEvent::NodeRecovery { at: heal, node }),
                );
            }
            PerturbationEvent::NodeFlap {
                node, down_secs, ..
            } => {
                // The down edge is a full node failure; the rejoin is
                // scheduled up front with the layer ranges the node holds
                // right now, so the planner can hand them back.
                self.schedule_rejoin(node, time + down_secs.max(0.0), queue);
                self.fail_nodes(
                    &[node],
                    ReplanReason::NodeFailure { node },
                    time,
                    states,
                    queue,
                    active,
                    kv_transfers,
                );
            }
            PerturbationEvent::RegionPartition {
                region, heal_secs, ..
            } => {
                // The coordinator cannot tell a partition from a crash: the
                // unreachable side fails as a region outage, and every node
                // rejoins when the partition heals.
                let nodes = self.region_nodes(region);
                if !nodes.is_empty() {
                    let heal = time + heal_secs.max(0.0);
                    for &n in &nodes {
                        self.schedule_rejoin(n, heal, queue);
                    }
                    self.fail_nodes(
                        &nodes,
                        ReplanReason::RegionOutage { region },
                        time,
                        states,
                        queue,
                        active,
                        kv_transfers,
                    );
                }
            }
            PerturbationEvent::NodeRejoin { node, .. } => {
                self.rejoin_node(node, time, queue, kv_transfers);
            }
            PerturbationEvent::NodeFailure { node, .. } => {
                self.fail_nodes(
                    &[node],
                    ReplanReason::NodeFailure { node },
                    time,
                    states,
                    queue,
                    active,
                    kv_transfers,
                );
            }
            PerturbationEvent::RegionOutage { region, .. } => {
                // Fail the region's nodes together: one abort/re-admit
                // sweep, one re-plan removing the whole region.
                let nodes = self.region_nodes(region);
                if !nodes.is_empty() {
                    self.fail_nodes(
                        &nodes,
                        ReplanReason::RegionOutage { region },
                        time,
                        states,
                        queue,
                        active,
                        kv_transfers,
                    );
                }
            }
            PerturbationEvent::ArrivalRateShift { .. } => {
                // Applied to the arrival process before the run started.
            }
            PerturbationEvent::Migrate {
                model,
                from,
                to,
                layers,
                ..
            } => {
                let delta = PlacementDelta::new().migrate(model, from, to, layers);
                if let Some(replan) = self.core.apply_delta(&delta, ReplanReason::Manual, time) {
                    self.enact(replan, time, queue, kv_transfers);
                }
            }
        }
    }

    /// The nodes of `region`, resolved against the fleet's cluster spec (all
    /// profiles share one spec).
    fn region_nodes(&self, region: Region) -> Vec<NodeId> {
        self.core.fleet().profiles()[0]
            .cluster()
            .nodes()
            .iter()
            .filter(|n| n.region == region)
            .map(|n| n.id)
            .collect()
    }

    /// Fails a set of nodes at once (one node for [`NodeFailure`], a whole
    /// region for [`RegionOutage`]): their engines stop, and the control
    /// core takes every *unfinished* pipeline crossing a dead node off it
    /// under a new epoch (stale work of the old incarnation is dropped on
    /// arrival) and re-plans the dead nodes away.  The KV pages each doomed
    /// request held anywhere are purged and it arrives again at once, to be
    /// promoted onto its standbys or restarted.  Completed requests keep
    /// their state — and their counted completion — untouched.
    ///
    /// [`NodeFailure`]: PerturbationEvent::NodeFailure
    /// [`RegionOutage`]: PerturbationEvent::RegionOutage
    #[allow(clippy::too_many_arguments)]
    fn fail_nodes(
        &mut self,
        nodes: &[NodeId],
        reason: ReplanReason,
        time: SimTime,
        states: &mut HashMap<RequestId, RequestState>,
        queue: &mut EventQueue,
        active: &mut usize,
        kv_transfers: &mut Vec<KvTransferRecord>,
    ) {
        for &node in nodes {
            self.node_health.mark_down(node);
            for ((n, _), engine) in self.engines.iter_mut() {
                if *n == node {
                    engine.fail();
                }
            }
        }
        let in_flight = states
            .iter()
            .filter(|(_, s)| s.finish_time.is_none())
            .map(|(&id, s)| InFlightRequest {
                id,
                prompt_tokens: s.prompt_tokens,
                pipeline: &s.pipeline,
                prefix: s.prefix,
                progress: s.progress,
            });
        let engines = &self.engines;
        let failover = self
            .core
            .fail_nodes(nodes, reason, time, in_flight, |node, model| {
                engines.contains_key(&(node, model))
            });
        for id in failover.doomed {
            let state = states.remove(&id).expect("doomed requests are in flight");
            let model = state.pipeline.model;
            // Purge the stranded incarnation's KV on *every* engine of its
            // model: pipeline nodes, migration destinations seeded with its
            // pages, and replica standbys (a promoted request re-seeds its
            // surviving tokens on re-admission).  Entries are keyed by
            // request id, so other requests are untouched.
            for (&(_, em), engine) in self.engines.iter_mut() {
                if em == model {
                    engine.purge_request(id);
                }
            }
            if let Some(p) = state.prefix {
                for n in state.pipeline.nodes() {
                    self.release_prefix_at(model, n, p.id);
                }
            }
            *active = active.saturating_sub(1);
            queue.push(time, Event::RequestArrival { request: id });
        }
        if let Some(replan) = failover.replan {
            self.enact(replan, time, queue, kv_transfers);
        }
    }

    /// Carries out a re-plan the control core applied: installs the
    /// affected models' new schedulers at once (drain-then-switch —
    /// in-flight pipelines keep their routes), reconciles the engine set
    /// with the new plan and performs the KV hand-over of any partial-layer
    /// migration the delta carried.
    fn enact(
        &mut self,
        replan: Replan,
        time: SimTime,
        queue: &mut EventQueue,
        kv_transfers: &mut Vec<KvTransferRecord>,
    ) {
        for (model, scheduler) in replan.schedulers {
            self.core.install_scheduler(model, scheduler);
        }
        for &model in &replan.affected {
            let fleet = self.core.fleet();
            let topology = fleet.model(model).expect("affected model exists");
            // Reconcile engines.  Existing engines take
            // the new layer count / KV budget in place (their queues and
            // cached tokens survive) *and rebuild their execution cost model
            // from the re-derived contention split*, so a surviving engine
            // on a node whose tenancy changed runs at the same re-split
            // speed a freshly created engine would; pairs the plan no longer
            // includes keep draining their in-flight work but receive no new
            // pipelines; newly planned pairs get fresh engines.
            let planned: Vec<(NodeId, usize, f64)> = topology
                .nodes()
                .map(|n| (n.node, n.layers.len(), n.kv_capacity_tokens))
                .collect();
            // Engines run at the analytic contention split; observed speed
            // factors only re-price planning (the engine's own `slowdown`
            // already delivers the physical degradation being measured).
            let profile = fleet.contention_profile(model);
            for (node, layers, kv_capacity) in planned {
                match self.engines.get_mut(&(node, model)) {
                    Some(engine) => {
                        engine.update_plan(profile.node_profile(node), layers, kv_capacity)
                    }
                    None => {
                        let mut engine =
                            NodeEngine::new(profile.node_profile(node), layers, kv_capacity);
                        if let Some(&factor) = self.slowdowns.get(&node) {
                            engine.set_slowdown(factor);
                        }
                        if self.core.is_failed(node) {
                            engine.fail();
                        }
                        self.engines.insert((node, model), engine);
                    }
                }
            }
        }
        // Move the KV state of each migration.  The moved
        // pages travel as real traffic on the `from → to` link (queueing
        // behind activations), and both ends freeze *only the migrated
        // layer range* until the transfer lands — freeze → transfer →
        // re-route (the scheduler install above) → resume.  Requests whose
        // stages run on disjoint layers of the same nodes keep decoding
        // throughout.
        for migration in &replan.migrations {
            let m = migration.model;
            let Some(source) = self.engines.get(&(migration.from, m)) else {
                continue;
            };
            let snapshot = source.kv_snapshot();
            let prefix_snapshot = source.prefix_snapshot();
            // Shared prefixes travel once each, no matter how many requests
            // reference them — the transfer prices the deduplicated pages.
            let tokens: f64 = snapshot.iter().map(|&(_, t)| t).sum::<f64>()
                + prefix_snapshot.iter().map(|&(_, t, _)| t).sum::<f64>();
            let transfer = KvTransferModel::new(
                self.core.fleet().profiles()[m.index()]
                    .model()
                    .kv_bytes_per_token_per_layer(),
                DEFAULT_TOKENS_PER_PAGE,
            );
            let pages = transfer.pages(tokens);
            let bytes = transfer.bytes(tokens, migration.layers.len());
            let arrival = self.link_transfer(Some(migration.from), Some(migration.to), time, bytes);
            let source_retired = self.core.fleet().placement().placements()[m.index()]
                .range(migration.from)
                .is_none();
            if let Some(engine) = self.engines.get_mut(&(migration.from, m)) {
                engine.freeze_range_until(migration.layers, arrival);
                if source_retired {
                    // The whole range moved: every page now lives on the
                    // destination.
                    engine.clear_kv();
                }
                // Shared-prefix entries *move* (references and all): drop
                // them from the source so later releases follow the
                // forwarding map to the destination instead of decrementing
                // a stale copy while the live one leaks.
                for &(prefix, _, _) in &prefix_snapshot {
                    engine.remove_prefix(prefix);
                }
            }
            if let Some(engine) = self.engines.get_mut(&(migration.to, m)) {
                engine.freeze_range_until(migration.layers, arrival);
                for &(request, tokens) in &snapshot {
                    engine.seed_kv(request, tokens);
                }
                for &(prefix, tokens, refcount) in &prefix_snapshot {
                    engine.seed_prefix(prefix, tokens, refcount);
                }
            }
            for &(prefix, _, _) in &prefix_snapshot {
                self.prefix_forwards[m.index()].insert((prefix, migration.from), migration.to);
            }
            queue.push(
                arrival,
                Event::EngineThaw {
                    node: migration.from,
                    model: m,
                },
            );
            queue.push(
                arrival,
                Event::EngineThaw {
                    node: migration.to,
                    model: m,
                },
            );
            kv_transfers.push(KvTransferRecord {
                at: arrival,
                migration: *migration,
                tokens,
                pages,
                bytes,
                transfer_secs: arrival - time,
            });
        }
    }

    /// The standing engine of one (node, model) pair, if any — exposed so
    /// tests can compare surviving engines against freshly created ones.
    pub fn engine(&self, node: NodeId, model: ModelId) -> Option<&NodeEngine> {
        self.engines.get(&(node, model))
    }

    /// Ships one replication milestone over the real links, from every
    /// primary stage to its standby, and seeds the durable tokens as KV
    /// residency on the standby engines — replication steals serving
    /// bandwidth and KV headroom, which is exactly the trade-off measured.
    fn ship_replicas(
        &mut self,
        request: RequestId,
        model: ModelId,
        trickle: &Trickle,
        now: SimTime,
    ) {
        for &(primary, standby, _, bytes) in &trickle.shipments {
            self.link_transfer(Some(primary), Some(standby), now, bytes);
            if let Some(engine) = self.engines.get_mut(&(standby, model)) {
                engine.seed_kv(request, trickle.durable as f64);
            }
        }
    }

    /// Releases one shared-prefix reference at the node where the entry
    /// lives *now*: when a migration moved the home's entry, the release
    /// follows the per-model forwarding chain (hop-limited against cycles).
    fn release_prefix_at(&mut self, model: ModelId, node: NodeId, prefix: PrefixId) {
        let mut at = node;
        for _ in 0..16 {
            if let Some(engine) = self.engines.get_mut(&(at, model)) {
                if engine.has_prefix(prefix) {
                    engine.release_prefix(prefix);
                    return;
                }
            }
            match self.prefix_forwards[model.index()].get(&(prefix, at)) {
                Some(&next) => at = next,
                None => return,
            }
        }
    }

    /// Captures the layer ranges `node` holds right now (before the failure
    /// re-plan removes them) and schedules its rejoin.
    fn schedule_rejoin(&mut self, node: NodeId, at: SimTime, queue: &mut EventQueue) {
        let mut ranges: Vec<(ModelId, LayerRange)> = Vec::new();
        let fleet = self.core.fleet();
        for m in 0..fleet.num_models() {
            if let Some(n) = fleet.model(ModelId(m)).and_then(|t| t.node(node)) {
                ranges.push((ModelId(m), n.layers));
            }
        }
        self.rejoin_ranges.insert(node, ranges);
        queue.push(
            at,
            Event::Perturbation(PerturbationEvent::NodeRejoin { at, node }),
        );
    }

    /// A flapped node comes back: its engines recover, membership returns to
    /// Healthy, and one assign-delta re-plan hands the node its pre-failure
    /// layer ranges back (a no-op when the failure-time removal was
    /// infeasible and the node never left the plan).
    fn rejoin_node(
        &mut self,
        node: NodeId,
        time: SimTime,
        queue: &mut EventQueue,
        kv_transfers: &mut Vec<KvTransferRecord>,
    ) {
        if !self.core.rejoin(node) {
            return;
        }
        for ((n, _), engine) in self.engines.iter_mut() {
            if *n == node {
                engine.recover();
            }
        }
        self.node_health.mark_healthy(node, time);
        let ranges = self.rejoin_ranges.remove(&node).unwrap_or_default();
        let mut delta = PlacementDelta::new();
        let mut missing = false;
        for (m, layers) in ranges {
            if self
                .core
                .fleet()
                .model(m)
                .and_then(|t| t.node(node))
                .is_none()
            {
                delta = delta.assign(m, node, layers);
                missing = true;
            }
        }
        if missing {
            if let Some(replan) =
                self.core
                    .apply_delta(&delta, ReplanReason::NodeRejoin { node }, time)
            {
                self.enact(replan, time, queue, kv_transfers);
            }
        }
    }

    /// Admits one arriving request through the control core and dispatches
    /// its prompt pass; a request that must wait arrives again shortly.
    fn admit_request(
        &mut self,
        request: RequestId,
        specs: &HashMap<RequestId, Request>,
        states: &mut HashMap<RequestId, RequestState>,
        queue: &mut EventQueue,
        now: SimTime,
        active: &mut usize,
    ) {
        let Some(spec) = specs.get(&request).copied() else {
            return;
        };
        let model = spec.model;
        let admission = RequestSpec {
            id: request,
            model,
            prompt_tokens: spec.prompt_tokens,
            output_tokens: spec.output_tokens,
            shared_prefix: spec.shared_prefix(),
        };
        let Ok(Some(Admitted {
            pipeline,
            epoch,
            prefill_tokens,
            prefix,
            resume_tokens,
            progress,
        })) = self.core.admit(
            &admission,
            &EngineView {
                engines: &self.engines,
                model,
            },
        )
        else {
            // Every candidate is masked (e.g. KV caches full) or crosses a
            // dead node: retry shortly.  Nothing was held for the request.
            queue.push(now + 0.2, Event::RequestArrival { request });
            return;
        };
        // Shared residency is attached (refcounted) on every pipeline node,
        // the per-request KV entries holding only the suffix; a promoted
        // request seeds the tokens its standbys already hold.
        for node in pipeline.nodes() {
            if let Some(engine) = self.engines.get_mut(&(node, model)) {
                if let Some(p) = prefix {
                    engine.attach_prefix(p.id, p.tokens as f64);
                }
                if let Some(tokens) = resume_tokens {
                    engine.seed_kv(request, tokens as f64);
                }
            }
        }
        let first = pipeline.stages[0];
        states.insert(
            request,
            RequestState {
                pipeline,
                epoch,
                prompt_tokens: spec.prompt_tokens,
                output_tokens: spec.output_tokens,
                progress: progress
                    .unwrap_or_else(|| Progress::new(spec.arrival_time.max(0.0).min(now))),
                last_token_time: None,
                finish_time: None,
                prefix,
            },
        );
        *active += 1;
        let bytes = prefill_tokens as f64 * TOKEN_WIRE_BYTES;
        let arrival = self.link_transfer(None, Some(first.node), now, bytes);
        queue.push(
            arrival,
            Event::NodeArrival {
                node: first.node,
                item: WorkItem {
                    request,
                    epoch,
                    model,
                    phase: Phase::Prompt,
                    tokens: prefill_tokens,
                    layers: first.layers,
                    stage_index: 0,
                    prefix,
                },
            },
        );
    }

    fn route_onward(
        &mut self,
        node: NodeId,
        item: WorkItem,
        states: &HashMap<RequestId, RequestState>,
        queue: &mut EventQueue,
        now: SimTime,
    ) {
        let Some(state) = states.get(&item.request) else {
            return;
        };
        if state.epoch != item.epoch {
            // Work of an aborted incarnation: its stage indices describe the
            // old pipeline, not the re-admitted one.  Drop it.
            return;
        }
        let next_index = item.stage_index + 1;
        if next_index < state.pipeline.stages.len() {
            let next = state.pipeline.stages[next_index];
            let activation_bytes = self.core.fleet().topologies()[item.model.index()]
                .profile()
                .model()
                .activation_bytes();
            let bytes = item.tokens as f64 * activation_bytes;
            let arrival = self.link_transfer(Some(node), Some(next.node), now, bytes);
            queue.push(
                arrival,
                Event::NodeArrival {
                    node: next.node,
                    item: WorkItem {
                        request: item.request,
                        epoch: item.epoch,
                        model: item.model,
                        phase: item.phase,
                        tokens: item.tokens,
                        layers: next.layers,
                        stage_index: next_index,
                        prefix: item.prefix,
                    },
                },
            );
        } else {
            // Last stage: the generated token returns to the coordinator.
            let arrival = self.link_transfer(Some(node), None, now, TOKEN_WIRE_BYTES);
            queue.push(
                arrival,
                Event::TokenAtCoordinator {
                    request: item.request,
                    epoch: item.epoch,
                    phase: item.phase,
                },
            );
        }
    }

    fn link_transfer(
        &mut self,
        from: Option<NodeId>,
        to: Option<NodeId>,
        now: SimTime,
        bytes: f64,
    ) -> SimTime {
        // Link hardware is shared by every model; the first lane's profile
        // supplies the (model-independent) bandwidth and latency numbers.
        let profile = self.core.fleet().topologies()[0].profile();
        let link = self.links.entry((from, to)).or_insert_with(|| {
            let spec = profile.cluster().link(from, to);
            LinkQueue::new(spec.bandwidth_bytes_per_sec(), spec.latency_secs())
        });
        link.transfer(now, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_cluster::{ClusterProfile, ClusterSpec, ModelConfig};
    use helix_core::{heuristics, IwrrScheduler, RandomScheduler, SwarmScheduler};
    use helix_workload::ArrivalPattern;

    fn small_profile() -> ClusterProfile {
        ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b())
    }

    fn petals_topology(profile: &ClusterProfile) -> Topology {
        let placement = heuristics::petals_placement(profile).unwrap();
        Topology::plan(profile, &placement, true).unwrap()
    }

    fn small_workload(n: usize) -> Workload {
        // Short requests keep the unit tests quick.
        let config = helix_workload::AzureTraceConfig {
            mean_input_tokens: 128.0,
            mean_output_tokens: 32.0,
            max_input_tokens: 512,
            max_output_tokens: 64,
            ..Default::default()
        };
        config
            .generate(n, 3)
            .with_arrivals(ArrivalPattern::Offline, 4)
    }

    #[test]
    fn simulation_completes_requests_and_reports_metrics() {
        let profile = small_profile();
        let topology = petals_topology(&profile);
        let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
        let workload = small_workload(40);
        let mut sim = ClusterSimulator::new(&topology, Box::new(scheduler));
        let metrics = sim.run(&workload, SimulationConfig::offline(120.0).with_warmup(0.0));
        assert!(metrics.decode_throughput() > 0.0);
        assert!(metrics.completed_requests > 0);
        assert!(metrics.avg_prompt_latency() > 0.0);
        assert!(metrics.avg_decode_latency() > 0.0);
        // Utilisation values are sane.
        for u in metrics.node_utilization.values() {
            assert!(*u >= 0.0 && *u <= 1.0);
        }
        assert!(!metrics.link_stats.is_empty());
    }

    #[test]
    fn online_arrivals_produce_lower_latency_than_saturation() {
        let profile = small_profile();
        let topology = petals_topology(&profile);
        let workload_sat = small_workload(60);
        let workload_light =
            small_workload(60).with_arrivals(ArrivalPattern::constant_rate(0.5), 5);
        let run = |w: &Workload| {
            let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
            let mut sim = ClusterSimulator::new(&topology, Box::new(scheduler));
            sim.run(w, SimulationConfig::online(200.0).with_warmup(0.0))
        };
        let saturated = run(&workload_sat);
        let light = run(&workload_light);
        assert!(
            light.avg_prompt_latency() <= saturated.avg_prompt_latency() * 1.5,
            "light {} vs saturated {}",
            light.avg_prompt_latency(),
            saturated.avg_prompt_latency()
        );
    }

    #[test]
    fn admission_limit_throttles_concurrency() {
        let profile = small_profile();
        let topology = petals_topology(&profile);
        let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
        let workload = small_workload(30);
        let mut sim = ClusterSimulator::new(&topology, Box::new(scheduler));
        let metrics = sim.run(
            &workload,
            SimulationConfig::offline(120.0)
                .with_warmup(0.0)
                .with_admission_limit(2),
        );
        assert!(metrics.completed_requests > 0);
    }

    #[test]
    fn different_schedulers_run_on_the_same_placement() {
        let profile = small_profile();
        let placement = heuristics::swarm_placement(&profile).unwrap();
        let topology = Topology::plan(&profile, &placement, true).unwrap();
        let workload = small_workload(25);
        let schedulers: Vec<Box<dyn Scheduler>> = vec![
            Box::new(IwrrScheduler::from_topology(&topology).unwrap()),
            Box::new(SwarmScheduler::new(&topology)),
            Box::new(RandomScheduler::new(&topology, 11)),
        ];
        for scheduler in schedulers {
            let mut sim = ClusterSimulator::new(&topology, scheduler);
            let metrics = sim.run(&workload, SimulationConfig::offline(90.0).with_warmup(0.0));
            assert!(metrics.decode_tokens > 0);
        }
    }

    #[test]
    fn fleet_simulation_reports_per_model_metrics() {
        use helix_core::fleet::{fleet_profiles, FleetAnnealingOptions, FleetAnnealingPlanner};
        use helix_core::{FleetScheduler, FleetTopology};
        let profiles = fleet_profiles(
            &ClusterSpec::single_cluster_24(),
            &[ModelConfig::llama_30b(), ModelConfig::llama_13b()],
        );
        let planner = FleetAnnealingPlanner::new(&profiles).with_options(FleetAnnealingOptions {
            iterations: 300,
            ..Default::default()
        });
        let (placement, _) = planner.solve().unwrap();
        let fleet = FleetTopology::plan(&profiles, &placement, true).unwrap();
        let schedulers = FleetScheduler::iwrr(&fleet).unwrap();
        let config = helix_workload::AzureTraceConfig {
            mean_input_tokens: 128.0,
            mean_output_tokens: 32.0,
            max_input_tokens: 512,
            max_output_tokens: 64,
            ..Default::default()
        };
        let workload = Workload::merge(vec![
            config.generate(25, 3).with_model(helix_cluster::ModelId(0)),
            config.generate(25, 4).with_model(helix_cluster::ModelId(1)),
        ])
        .with_arrivals(ArrivalPattern::Offline, 4);
        let mut sim = ClusterSimulator::new_fleet(&fleet, schedulers);
        assert_eq!(sim.num_models(), 2);
        let metrics =
            sim.run_per_model(&workload, SimulationConfig::offline(150.0).with_warmup(0.0));
        assert_eq!(metrics.per_model.len(), 2);
        for m in &metrics.per_model {
            assert!(m.decode_tokens > 0, "every model makes progress");
        }
        assert_eq!(
            metrics.overall.decode_tokens,
            metrics
                .per_model
                .iter()
                .map(|m| m.decode_tokens)
                .sum::<u64>()
        );
        assert_eq!(
            metrics.overall.completed_requests,
            metrics
                .per_model
                .iter()
                .map(|m| m.completed_requests)
                .sum::<u64>()
        );
        // The two models run on disjoint node partitions.
        let nodes0: Vec<_> = metrics.per_model[0].node_utilization.keys().collect();
        assert!(nodes0
            .iter()
            .all(|n| !metrics.per_model[1].node_utilization.contains_key(n)));
    }

    #[test]
    fn single_model_run_matches_fleet_of_one() {
        let profile = small_profile();
        let topology = petals_topology(&profile);
        let workload = small_workload(30);
        let config = SimulationConfig::offline(100.0).with_warmup(0.0);
        let single = {
            let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
            let mut sim = ClusterSimulator::new(&topology, Box::new(scheduler));
            sim.run(&workload, config)
        };
        let fleet_of_one = {
            let fleet = helix_core::FleetTopology::single(topology.clone());
            let schedulers = helix_core::FleetScheduler::iwrr(&fleet).unwrap();
            let mut sim = ClusterSimulator::new_fleet(&fleet, schedulers);
            sim.run_per_model(&workload, config)
        };
        assert_eq!(single, fleet_of_one.overall);
        // Per-model metrics carry no link stats (links are fleet-shared);
        // everything else matches the single-model run exactly.
        let mut per_model = fleet_of_one.per_model[0].clone();
        per_model.link_stats = single.link_stats.clone();
        assert_eq!(single, per_model);
    }

    #[test]
    fn warmup_window_excludes_early_tokens() {
        let profile = small_profile();
        let topology = petals_topology(&profile);
        let workload = small_workload(40);
        let run = |warmup: f64| {
            let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
            let mut sim = ClusterSimulator::new(&topology, Box::new(scheduler));
            sim.run(
                &workload,
                SimulationConfig {
                    warmup_secs: warmup,
                    duration_secs: 60.0,
                    admission_limit: 64,
                    max_events: 10_000_000,
                },
            )
        };
        let with_warmup = run(30.0);
        let without = run(0.0);
        assert!(with_warmup.decode_tokens <= without.decode_tokens);
    }

    #[test]
    fn run_with_no_events_is_bit_identical_to_the_static_path() {
        let profile = small_profile();
        let topology = petals_topology(&profile);
        let workload = small_workload(30);
        let config = SimulationConfig::offline(100.0).with_warmup(0.0);
        let static_metrics = {
            let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
            let mut sim = ClusterSimulator::new(&topology, Box::new(scheduler));
            sim.run_per_model(&workload, config)
        };
        let event_metrics = {
            let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
            let mut sim = ClusterSimulator::new(&topology, Box::new(scheduler));
            sim.run_with_events(&workload, config, &[], None)
        };
        assert!(event_metrics.replans.is_empty());
        assert!(event_metrics.intervals.is_empty());
        assert_eq!(static_metrics.overall, event_metrics.metrics.overall);
        assert_eq!(static_metrics.per_model, event_metrics.metrics.per_model);
    }

    #[test]
    fn slowdown_without_policy_degrades_throughput_and_reports_intervals() {
        let profile = small_profile();
        let topology = petals_topology(&profile);
        let workload = small_workload(60);
        let config = SimulationConfig::offline(200.0).with_warmup(0.0);
        // Slow down the busiest node hard at t=0.
        let slow = topology
            .nodes()
            .max_by(|a, b| a.flow.partial_cmp(&b.flow).unwrap())
            .unwrap()
            .node;
        let events = [PerturbationEvent::NodeSlowdown {
            at: 0.0,
            node: slow,
            factor: 4.0,
        }];
        let run = |events: &[PerturbationEvent]| {
            let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
            let mut sim = ClusterSimulator::new(&topology, Box::new(scheduler));
            sim.run_with_events(&workload, config, events, None)
        };
        let healthy = run(&[]);
        let degraded = run(&events);
        assert!(
            degraded.metrics.overall.decode_throughput()
                < healthy.metrics.overall.decode_throughput()
        );
        // Perturbed runs emit interval metrics even without a policy.
        assert!(!degraded.intervals.is_empty());
        assert!(degraded.replans.is_empty(), "no policy, no re-plan");
        for w in &degraded.intervals {
            assert!(w.end > w.start);
            assert_eq!(w.decode_tokens.len(), 1);
        }
    }

    #[test]
    fn node_failure_triggers_immediate_replan_and_requests_still_complete() {
        let profile = small_profile();
        let topology = petals_topology(&profile);
        let workload = small_workload(40);
        let config = SimulationConfig::offline(240.0).with_warmup(0.0);
        // Fail a node that holds layers but is not the only holder of any
        // layer (petals over 10 nodes replicates ranges).
        let candidates: Vec<NodeId> = topology.nodes().map(|n| n.node).collect();
        let placement = topology.placement().clone();
        let num_layers = topology.num_layers();
        let failed = candidates
            .iter()
            .copied()
            .find(|&node| {
                let mut without = placement.clone();
                without.clear(node);
                without.has_complete_pipeline(num_layers)
            })
            .expect("some node is redundant");
        let events = [PerturbationEvent::NodeFailure {
            at: 30.0,
            node: failed,
        }];
        let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
        let mut sim = ClusterSimulator::new(&topology, Box::new(scheduler));
        let report = sim.run_with_events(&workload, config, &events, None);
        assert_eq!(report.replans.len(), 1);
        assert!(matches!(
            report.replans[0].reason,
            ReplanReason::NodeFailure { node } if node == failed
        ));
        // The failed node left the plan …
        assert!(sim
            .fleet()
            .model(ModelId(0))
            .unwrap()
            .node(failed)
            .is_none());
        // … and the run still completes requests afterwards.
        assert!(report.metrics.overall.completed_requests > 0);
        // Requests that finished before the failure keep exactly one counted
        // completion, and aborted incarnations are never double-counted.
        assert!(report.metrics.overall.completed_requests <= 40);
    }
}
