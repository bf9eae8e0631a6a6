//! Discrete-event queue.

use helix_cluster::{ModelId, NodeId, Region};
use helix_core::{LayerRange, PrefixWork, Progress, RequestPipeline};
use helix_workload::RequestId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Simulation time in seconds since the start of the run.
pub type SimTime = f64;

/// Phase of an LLM request iteration (the shared execution-model type).
pub use helix_core::exec_model::Phase;

/// A unit of work delivered to a compute node: process `tokens` tokens of a
/// request through `layers`.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkItem {
    /// The request this work belongs to.
    pub request: RequestId,
    /// Which admission of the request this work belongs to (0 for the
    /// first).  A node failure aborts and re-admits the pipelines it
    /// strands; items of the aborted incarnation still in flight carry the
    /// old epoch and are dropped instead of corrupting the new pipeline.
    pub epoch: u64,
    /// The fleet model the request targets (selects the per-model engine on
    /// shared nodes).
    pub model: ModelId,
    /// Prompt or decode.
    pub phase: Phase,
    /// Number of tokens to run through the layers (prompt length for the
    /// prompt phase, 1 for decode).
    pub tokens: usize,
    /// Layers this node computes for this request.
    pub layers: LayerRange,
    /// Index of this stage within the request's pipeline.
    pub stage_index: usize,
    /// Shared-prefix work riding on this item (prompt phase only; `None`
    /// for decode iterations and prefix-free requests).  A cache hit's
    /// `tokens` already excludes the shared range; a miss's `tokens` include
    /// it, but the engine accounts the shared range in its refcounted
    /// prefix residency instead of the per-request KV entry.
    pub prefix: Option<PrefixWork>,
}

/// A scripted mid-run disturbance of the cluster or the workload — the
/// scenarios the online re-planning loop exists to absorb.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PerturbationEvent {
    /// The node's batches start taking `factor`× the cost model's prediction
    /// (thermal throttling, a noisy co-tenant, a failing NIC…).
    NodeSlowdown {
        /// When the slowdown begins (simulated seconds).
        at: SimTime,
        /// The affected node.
        node: NodeId,
        /// Duration multiplier (`2.0` = half speed).
        factor: f64,
    },
    /// The node returns to nominal speed.
    NodeRecovery {
        /// When the recovery happens.
        at: SimTime,
        /// The recovered node.
        node: NodeId,
    },
    /// The node drops out: its engines stop, in-flight pipelines through it
    /// are aborted and re-admitted, and an immediate re-plan removes it from
    /// every model's placement.
    NodeFailure {
        /// When the node fails.
        at: SimTime,
        /// The failed node.
        node: NodeId,
    },
    /// Every node of `region` drops out at once — a power or backbone
    /// failure taking a whole regional cluster down.  All the region's
    /// engines stop, in-flight pipelines crossing any of its nodes are
    /// aborted and re-admitted under new epochs, their KV pages and prefix
    /// homes are purged, and **one** re-plan removes the entire region from
    /// every model's placement (per-node re-plans would thrash, and an
    /// intermediate single-node removal may be infeasible even when the
    /// full-region removal is not).
    RegionOutage {
        /// When the region fails.
        at: SimTime,
        /// The failed region (nodes resolved against the fleet's cluster
        /// spec at apply time).
        region: Region,
    },
    /// The node drops out and rejoins `down_secs` later — a flapping node.
    /// The down edge is a full [`PerturbationEvent::NodeFailure`] (abort or
    /// promote in-flight pipelines, purge, re-plan); the rejoin restores the
    /// node's engines and hands its pre-failure layer ranges back to the
    /// planner via an assign-delta re-plan.
    NodeFlap {
        /// When the node drops.
        at: SimTime,
        /// The flapping node.
        node: NodeId,
        /// How long the node stays down before rejoining.
        down_secs: SimTime,
    },
    /// The node keeps serving but `factor`× slower, and the health directory
    /// marks it Degraded until it recovers `recover_secs` later — a straggler
    /// rather than a failure.  Equivalent to a
    /// [`PerturbationEvent::NodeSlowdown`] with a scheduled
    /// [`PerturbationEvent::NodeRecovery`].
    NodeStraggler {
        /// When the straggle begins.
        at: SimTime,
        /// The straggling node.
        node: NodeId,
        /// Duration multiplier while straggling.
        factor: f64,
        /// How long until the node returns to nominal speed.
        recover_secs: SimTime,
    },
    /// Every node of `region` becomes unreachable for `heal_secs` — a network
    /// partition rather than a power loss.  The partitioned side is treated
    /// as failed (the coordinator cannot tell a partition from a crash), and
    /// when the partition heals every node rejoins as in
    /// [`PerturbationEvent::NodeFlap`].
    RegionPartition {
        /// When the partition forms.
        at: SimTime,
        /// The partitioned region.
        region: Region,
        /// How long until the partition heals.
        heal_secs: SimTime,
    },
    /// Internal: a previously flapped/partitioned node comes back.  Scheduled
    /// by [`PerturbationEvent::NodeFlap`] / [`PerturbationEvent::RegionPartition`];
    /// not normally scripted directly.
    NodeRejoin {
        /// When the node rejoins.
        at: SimTime,
        /// The rejoining node.
        node: NodeId,
    },
    /// The arrival process speeds up (`factor > 1`) or slows down
    /// (`factor < 1`) for every request arriving after `at`.
    ArrivalRateShift {
        /// When the shift takes effect.
        at: SimTime,
        /// Rate multiplier applied to subsequent inter-arrival gaps.
        factor: f64,
    },
    /// A partial-layer migration: `layers` of `model` move from `from` to
    /// `to` together with their KV state.  The fleet re-plans with the
    /// equivalent placement delta, the KV pages travel over the `from → to`
    /// link as modelled traffic, and both engines are frozen until the
    /// transfer lands (freeze → transfer → re-route → resume); in-flight
    /// pipelines keep their routes and are never dropped.
    Migrate {
        /// When the migration is initiated.
        at: SimTime,
        /// The model whose layers move.
        model: ModelId,
        /// The node giving the layers up.
        from: NodeId,
        /// The node receiving them.
        to: NodeId,
        /// The moved layer sub-range.
        layers: LayerRange,
    },
}

impl PerturbationEvent {
    /// When the perturbation takes effect.
    pub fn at(&self) -> SimTime {
        match *self {
            PerturbationEvent::NodeSlowdown { at, .. }
            | PerturbationEvent::NodeRecovery { at, .. }
            | PerturbationEvent::NodeFailure { at, .. }
            | PerturbationEvent::RegionOutage { at, .. }
            | PerturbationEvent::NodeFlap { at, .. }
            | PerturbationEvent::NodeStraggler { at, .. }
            | PerturbationEvent::RegionPartition { at, .. }
            | PerturbationEvent::NodeRejoin { at, .. }
            | PerturbationEvent::ArrivalRateShift { at, .. }
            | PerturbationEvent::Migrate { at, .. } => at,
        }
    }
}

/// Events driving the simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A new request arrives at the coordinator.
    RequestArrival {
        /// The arriving request.
        request: RequestId,
    },
    /// A work item arrives at a compute node (after network transfer).
    NodeArrival {
        /// Destination node.
        node: NodeId,
        /// The work to enqueue.
        item: WorkItem,
    },
    /// A node finishes the current batch of one model's engine.
    BatchComplete {
        /// The node that finished.
        node: NodeId,
        /// The model whose engine finished.
        model: ModelId,
    },
    /// The coordinator receives a generated token for a request.
    TokenAtCoordinator {
        /// The request that produced the token.
        request: RequestId,
        /// The admission epoch the token belongs to (see `WorkItem::epoch`).
        epoch: u64,
        /// Whether this token came from the prompt phase (the request's first
        /// token) or a decode iteration.
        phase: Phase,
    },
    /// Bookkeeping tick used to close the measurement window.
    MeasurementEnd,
    /// A scripted cluster/workload disturbance takes effect.
    Perturbation(PerturbationEvent),
    /// Windowed observation boundary: interval metrics are emitted, engines
    /// are measured and the re-plan policy is consulted.
    ObservationTick,
    /// A KV hand-over finished: the frozen engines of a migration resume and
    /// restart batching if work queued up during the freeze.
    EngineThaw {
        /// The node whose engine thaws.
        node: NodeId,
        /// The model whose engine thaws.
        model: ModelId,
    },
}

/// An event scheduled at a point in simulated time.
#[derive(Debug, Clone)]
struct ScheduledEvent {
    time: SimTime,
    sequence: u64,
    event: Event,
}

impl PartialEq for ScheduledEvent {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.sequence == other.sequence
    }
}
impl Eq for ScheduledEvent {}
impl PartialOrd for ScheduledEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ScheduledEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then(other.sequence.cmp(&self.sequence))
    }
}

/// A time-ordered event queue with FIFO tie-breaking.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<ScheduledEvent>,
    sequence: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at absolute time `time`.
    pub fn push(&mut self, time: SimTime, event: Event) {
        debug_assert!(
            time.is_finite() && time >= 0.0,
            "event scheduled at invalid time {time}"
        );
        self.heap.push(ScheduledEvent {
            time,
            sequence: self.sequence,
            event,
        });
        self.sequence += 1;
    }

    /// Pops the earliest event, returning `(time, event)`.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.heap.pop().map(|s| (s.time, s.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// The request's pipeline plus progress bookkeeping kept by the coordinator.
#[derive(Debug, Clone)]
pub struct RequestState {
    /// The assigned per-request pipeline.
    pub pipeline: RequestPipeline,
    /// The admission epoch this state belongs to (see `WorkItem::epoch`);
    /// work items and coordinator tokens from older epochs are ignored.
    pub epoch: u64,
    /// Prompt length in tokens (with `progress.generated`, the cached sequence length
    /// that replication trickles and a fail-over must restore).
    pub prompt_tokens: usize,
    /// Output tokens the request will generate before finishing.
    pub output_tokens: usize,
    /// Arrival, first-token time and token counts, kept across fail-overs.
    pub progress: Progress,
    /// Time the previous new output token reached the coordinator.
    pub last_token_time: Option<SimTime>,
    /// Completion time.
    pub finish_time: Option<SimTime>,
    /// The shared-prefix reference this admission holds, released (engine
    /// refcounts and router home) when the request finishes or aborts.
    pub prefix: Option<PrefixWork>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order_with_fifo_ties() {
        let mut q = EventQueue::new();
        q.push(5.0, Event::MeasurementEnd);
        q.push(1.0, Event::RequestArrival { request: 1 });
        q.push(1.0, Event::RequestArrival { request: 2 });
        q.push(3.0, Event::RequestArrival { request: 3 });
        assert_eq!(q.len(), 4);
        let (t1, e1) = q.pop().unwrap();
        assert_eq!(t1, 1.0);
        assert_eq!(e1, Event::RequestArrival { request: 1 });
        let (_, e2) = q.pop().unwrap();
        assert_eq!(e2, Event::RequestArrival { request: 2 });
        let (t3, _) = q.pop().unwrap();
        assert_eq!(t3, 3.0);
        let (t4, _) = q.pop().unwrap();
        assert_eq!(t4, 5.0);
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "invalid time")]
    #[cfg(debug_assertions)]
    fn scheduling_at_nan_time_panics_in_debug() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, Event::MeasurementEnd);
    }
}
