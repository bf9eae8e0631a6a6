//! A session-style front door over the discrete-event simulator.
//!
//! [`SimSession`] mirrors the async runtime's serving-session surface
//! (`submit` → `drain` → `finish`) so examples, tests and benches can drive
//! the simulator and the prototype runtime through one API (the facade
//! crate's `ServingFrontEnd` trait is implemented by both).  Because the
//! simulator is pull-based, submissions are buffered and the event loop runs
//! when the session drains; the underlying [`ClusterSimulator`] — including
//! its standing fleet plan and any re-plans — persists across drains.

use crate::event::PerturbationEvent;
use crate::metrics::{LatencyStats, Metrics};
use crate::simulator::{ClusterSimulator, FleetRunReport, SimulationConfig};
use helix_cluster::{ModelId, NodeId};
use helix_core::{LayerRange, ReplanPolicy, ReplicationPolicy};
use helix_workload::{Request, TicketId, Workload};

/// A live handle over a [`ClusterSimulator`], shaped like the runtime's
/// serving session.
///
/// * [`submit`](Self::submit) buffers a request and returns its ticket.
/// * [`inject_speed`](Self::inject_speed) schedules a slowdown (or recovery)
///   at the start of the next drained batch — the simulated counterpart of
///   flipping a live worker's speed mid-session.
/// * [`schedule`](Self::schedule) scripts an arbitrary mid-run
///   [`PerturbationEvent`] at a simulated time.
/// * [`drain`](Self::drain) simulates everything submitted so far (with the
///   configured [`ReplanPolicy`], if any, closing the feedback loop);
///   [`finish`](Self::finish) drains and returns the final
///   [`FleetRunReport`].
pub struct SimSession {
    sim: ClusterSimulator,
    config: SimulationConfig,
    policy: Option<ReplanPolicy>,
    pending: Vec<Request>,
    events: Vec<PerturbationEvent>,
    report: Option<FleetRunReport>,
}

impl SimSession {
    /// Wraps a simulator in a session front door.
    pub fn new(sim: ClusterSimulator, config: SimulationConfig) -> Self {
        SimSession {
            sim,
            config,
            policy: None,
            pending: Vec::new(),
            events: Vec::new(),
            report: None,
        }
    }

    /// Closes the observe → re-plan → hand-over loop for every drained batch.
    #[must_use]
    pub fn with_policy(mut self, policy: ReplanPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Buffers one request for the next drain and returns its ticket.
    pub fn submit(&mut self, request: Request) -> TicketId {
        self.pending.push(request);
        TicketId(request.id)
    }

    /// Injects a node slowdown at the start of the next drained batch
    /// (`factor` multiplies batch durations; 1.0 restores nominal speed).
    /// The simulator *measures* the resulting gap; a policy-driven session
    /// reacts to the measurement, never to the injected value.
    pub fn inject_speed(&mut self, node: NodeId, factor: f64) {
        self.events.push(PerturbationEvent::NodeSlowdown {
            at: 0.0,
            node,
            factor,
        });
    }

    /// Scripts a mid-run perturbation for the next drained batch.
    pub fn schedule(&mut self, event: PerturbationEvent) {
        self.events.push(event);
    }

    /// Kills one node at simulated time `at` of the next drained batch (see
    /// [`PerturbationEvent::NodeFailure`]).  With a replication policy set,
    /// in-flight replicated pipelines promote their standbys and resume with
    /// bounded token loss; everything else aborts and re-admits.
    pub fn fail_node(&mut self, node: NodeId, at: f64) {
        self.events
            .push(PerturbationEvent::NodeFailure { at, node });
    }

    /// Sets the fleet-wide KV replication policy on the underlying
    /// simulator (applies to requests admitted in later drains).
    pub fn set_replication(&mut self, policy: ReplicationPolicy) {
        self.sim.set_replication(policy);
    }

    /// Takes a whole region down at the start of the next drained batch:
    /// every node the fleet's cluster spec places in `region` fails at once
    /// (see [`PerturbationEvent::RegionOutage`]).  In-flight requests
    /// through the region are re-admitted on surviving pipelines; its prefix
    /// homes are evicted.
    pub fn fail_region(&mut self, region: helix_cluster::Region) {
        self.events
            .push(PerturbationEvent::RegionOutage { at: 0.0, region });
    }

    /// Queues a partial-layer migration at the start of the next drained
    /// batch: `layers` of `model` move from `from` to `to`, their KV pages
    /// travel the `from → to` link as modelled traffic, and both engines
    /// freeze until the transfer lands — the simulated counterpart of
    /// [`ServingSession::apply_placement_delta`] with a
    /// [`PlacementDelta::migrate`] delta.
    ///
    /// [`ServingSession::apply_placement_delta`]: https://docs.rs/helix-runtime
    /// [`PlacementDelta::migrate`]: helix_core::PlacementDelta::migrate
    pub fn migrate(&mut self, model: ModelId, from: NodeId, to: NodeId, layers: LayerRange) {
        self.events.push(PerturbationEvent::Migrate {
            at: 0.0,
            model,
            from,
            to,
            layers,
        });
    }

    /// Simulates everything submitted since the last drain.  A drain with no
    /// pending requests is a no-op; a later batch runs on the same simulator
    /// (its fleet plan, applied re-plans and slowdowns persist), and its
    /// results are **merged** into the session report so
    /// [`finish`](Self::finish) covers every drained batch — matching the
    /// runtime session, whose report covers all submissions.
    pub fn drain(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let workload = Workload::new(std::mem::take(&mut self.pending));
        let events = std::mem::take(&mut self.events);
        let next = self
            .sim
            .run_with_events(&workload, self.config, &events, self.policy);
        match self.report.take() {
            Some(base) => self.report = Some(merge_reports(base, next)),
            None => self.report = Some(next),
        }
    }

    /// Drains and returns the session's cumulative report, covering every
    /// drained batch (an empty run's report if nothing was ever submitted).
    pub fn finish(mut self) -> FleetRunReport {
        self.drain();
        match self.report.take() {
            Some(report) => report,
            None => {
                // Nothing was submitted: report an empty, well-formed run.
                let events = std::mem::take(&mut self.events);
                self.sim.run_with_events(
                    &Workload::new(Vec::new()),
                    self.config,
                    &events,
                    self.policy,
                )
            }
        }
    }

    /// The cumulative report over every batch drained so far, if any.
    pub fn report(&self) -> Option<&FleetRunReport> {
        self.report.as_ref()
    }

    /// The underlying simulator (its standing fleet plan reflects applied
    /// re-plans).
    pub fn simulator(&self) -> &ClusterSimulator {
        &self.sim
    }
}

/// Merges a later drained batch into the session's cumulative report.
///
/// Counts (tokens, completions, measured seconds) add exactly; interval
/// windows and re-plan logs concatenate (each batch's timeline restarts at
/// zero); node utilisation and link statistics come from the latest batch,
/// whose engines and links already carry the cumulative state.  Latency
/// distributions are merged count-weighted — the mean stays exact, the
/// percentiles are approximations (the raw samples are not retained).
fn merge_reports(mut base: FleetRunReport, next: FleetRunReport) -> FleetRunReport {
    base.metrics.overall = merge_metrics(&base.metrics.overall, &next.metrics.overall);
    base.metrics.per_model = base
        .metrics
        .per_model
        .iter()
        .zip(&next.metrics.per_model)
        .map(|(b, n)| merge_metrics(b, n))
        .collect();
    base.intervals.extend(next.intervals);
    base.replans.extend(next.replans);
    base.kv_transfers.extend(next.kv_transfers);
    base.completions.extend(next.completions);
    base.prefix.merge(&next.prefix);
    base.failovers.extend(next.failovers);
    base.replication.merge(&next.replication);
    base
}

fn merge_metrics(base: &Metrics, next: &Metrics) -> Metrics {
    Metrics {
        measured_seconds: base.measured_seconds + next.measured_seconds,
        decode_tokens: base.decode_tokens + next.decode_tokens,
        completed_requests: base.completed_requests + next.completed_requests,
        prompt_latency: merge_latency(&base.prompt_latency, &next.prompt_latency),
        decode_latency: merge_latency(&base.decode_latency, &next.decode_latency),
        // The simulator's engines and links persist across batches, so the
        // latest batch's views already reflect the whole session.
        node_utilization: next.node_utilization.clone(),
        link_stats: next.link_stats.clone(),
    }
}

fn merge_latency(base: &LatencyStats, next: &LatencyStats) -> LatencyStats {
    if base.count == 0 {
        return next.clone();
    }
    if next.count == 0 {
        return base.clone();
    }
    let count = base.count + next.count;
    let weigh = |b: f64, n: f64| (b * base.count as f64 + n * next.count as f64) / count as f64;
    LatencyStats {
        count,
        mean: weigh(base.mean, next.mean),
        p5: weigh(base.p5, next.p5),
        p25: weigh(base.p25, next.p25),
        p50: weigh(base.p50, next.p50),
        p75: weigh(base.p75, next.p75),
        p95: weigh(base.p95, next.p95),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_cluster::{ClusterProfile, ClusterSpec, ModelConfig};
    use helix_core::{heuristics, IwrrScheduler, Topology};
    use helix_workload::ArrivalPattern;

    fn topology() -> Topology {
        let profile =
            ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b());
        let placement = heuristics::petals_placement(&profile).unwrap();
        Topology::plan(&profile, &placement, true).unwrap()
    }

    fn workload(n: usize, seed: u64) -> Workload {
        helix_workload::AzureTraceConfig {
            mean_input_tokens: 128.0,
            mean_output_tokens: 32.0,
            max_input_tokens: 512,
            max_output_tokens: 64,
            ..Default::default()
        }
        .generate(n, seed)
        .with_arrivals(ArrivalPattern::Offline, 4)
    }

    #[test]
    fn session_drain_matches_a_direct_run() {
        let topology = topology();
        let config = SimulationConfig::offline(100.0).with_warmup(0.0);
        let workload = workload(30, 3);

        let direct = {
            let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
            let mut sim = ClusterSimulator::new(&topology, Box::new(scheduler));
            sim.run_per_model(&workload, config)
        };
        let via_session = {
            let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
            let sim = ClusterSimulator::new(&topology, Box::new(scheduler));
            let mut session = SimSession::new(sim, config);
            for request in workload.requests() {
                session.submit(*request);
            }
            session.finish()
        };
        // The session path schedules no extra events, so the discrete-event
        // timeline — and therefore every metric — is bit-identical.
        assert_eq!(direct.overall, via_session.metrics.overall);
        assert_eq!(direct.per_model, via_session.metrics.per_model);
        assert!(via_session.replans.is_empty());
    }

    #[test]
    fn multi_batch_session_report_covers_all_batches() {
        let topology = topology();
        let config = SimulationConfig::offline(100.0).with_warmup(0.0);
        let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
        let sim = ClusterSimulator::new(&topology, Box::new(scheduler));
        let mut session = SimSession::new(sim, config);

        for request in workload(10, 1).requests() {
            session.submit(*request);
        }
        session.drain();
        let first_batch = session.report().unwrap().metrics.overall.clone();
        assert_eq!(first_batch.completed_requests, 10);

        for request in workload(10, 2).requests() {
            session.submit(*request);
        }
        let report = session.finish();
        // The final report accumulates both drained batches, matching the
        // runtime session's "finish covers every submission" contract.
        assert_eq!(report.metrics.overall.completed_requests, 20);
        assert!(report.metrics.overall.decode_tokens > first_batch.decode_tokens);
        assert_eq!(report.metrics.overall.prompt_latency.count, 20);
    }

    #[test]
    fn empty_session_reports_an_empty_run() {
        let topology = topology();
        let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
        let sim = ClusterSimulator::new(&topology, Box::new(scheduler));
        let session = SimSession::new(sim, SimulationConfig::offline(10.0));
        let report = session.finish();
        assert_eq!(report.metrics.overall.completed_requests, 0);
        assert!(report.replans.is_empty());
    }

    #[test]
    fn injected_slowdown_degrades_the_session_batch() {
        let topology = topology();
        let config = SimulationConfig::offline(150.0).with_warmup(0.0);
        let slow = topology
            .nodes()
            .max_by(|a, b| a.flow.partial_cmp(&b.flow).unwrap())
            .unwrap()
            .node;
        let run = |inject: bool| {
            let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
            let sim = ClusterSimulator::new(&topology, Box::new(scheduler));
            let mut session = SimSession::new(sim, config);
            if inject {
                session.inject_speed(slow, 4.0);
            }
            for request in workload(40, 5).requests() {
                session.submit(*request);
            }
            session.finish()
        };
        let healthy = run(false);
        let degraded = run(true);
        assert!(
            degraded.metrics.overall.decode_throughput()
                < healthy.metrics.overall.decode_throughput()
        );
    }
}
