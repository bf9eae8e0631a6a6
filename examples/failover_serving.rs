//! High availability under node failure: KV replication to standby
//! tenancies, replica promotion with bounded token loss, and the
//! abort-and-readmit fallback — on both serving surfaces.
//!
//! A LLaMA-2 13B deployment runs a two-stage pipeline with every stage
//! doubled (nodes 0/2 hold the bottom half, nodes 1/3 the top half).  With
//! `ReplicationPolicy::rf2` installed, every admitted sequence trickles its
//! KV pages to the standby replica of each stage as decode proceeds — the
//! same 64-page chunk streams and `KvTransferModel` pricing the migration
//! path uses.  At t=3s node 0 is killed mid-run: in-flight pipelines
//! crossing it promote their standbys and resume from the last replicated
//! chunk, so only the un-replicated tail of each sequence is recomputed.
//! The run with replication disabled shows the fallback: the same failure
//! aborts every doomed pipeline and readmits it from scratch.
//!
//! The example asserts the headline guarantee on both the discrete-event
//! simulator and the async prototype runtime: zero requests lost, and
//! strictly fewer tokens recomputed than abort-and-readmit would bill.
//!
//! ```text
//! cargo run --release --example failover_serving
//! ```

use helix::prelude::*;
use std::time::Duration;

/// Two-stage pipeline with every stage doubled: any single node can fail
/// and the surviving replica of its stage absorbs both the re-plan and the
/// promoted pipelines.
fn redundant_topology() -> Topology {
    let cluster = ClusterBuilder::new("ha-redundant-4")
        .intra_region(10_000.0, 1.0)
        .add_nodes(GpuType::A100_80, 4, 1, Region(0))
        .build();
    let profile = ClusterProfile::analytic(cluster, ModelConfig::llama_13b());
    let layers = profile.model().num_layers;
    let half = layers / 2;
    let mut placement = ModelPlacement::empty(4);
    placement.assign(NodeId(0), LayerRange::new(0, half));
    placement.assign(NodeId(2), LayerRange::new(0, half));
    placement.assign(NodeId(1), LayerRange::new(half, layers));
    placement.assign(NodeId(3), LayerRange::new(half, layers));
    placement.validate(&profile).expect("placement is valid");
    Topology::plan(&profile, &placement, true).expect("topology plans")
}

fn workload() -> Workload {
    Workload::new(
        (0..48u64)
            .map(|i| Request {
                id: i,
                prompt_tokens: 64,
                output_tokens: 24,
                arrival_time: 0.05 * i as f64,
                model: ModelId(0),
                ..Request::default()
            })
            .collect(),
    )
}

/// Install a policy, submit everything, kill node 0 at t=3s, finish.
fn run<F: ServingFrontEnd>(mut front: F, policy: ReplicationPolicy) -> F::Report {
    front.set_replication(policy);
    for request in workload().requests() {
        front.submit(*request);
    }
    front.fail_node(NodeId(0), 3.0);
    front.drain().expect("the failed-over batch drains");
    front.finish().expect("the session finishes")
}

fn describe(surface: &str, completed: u64, record: &FailoverRecord) {
    let saved = record.abort_recompute_tokens - record.tokens_recomputed;
    println!(
        "  {surface}: {completed}/48 completed | {} promoted, {} aborted | \
         {} tokens recomputed vs {} under abort-and-readmit ({saved} saved, \
         {} replica tokens resumed)",
        record.promoted.len(),
        record.aborted.len(),
        record.tokens_recomputed,
        record.abort_recompute_tokens,
        record.replica_tokens_used,
    );
}

fn main() {
    let topology = redundant_topology();
    println!(
        "planned 4 nodes ({} pipelines), {:.0} tokens/s max flow",
        topology.num_pipelines(),
        topology.flow_value()
    );
    println!("scripted: node 0 killed at t=3s, 48 requests in flight\n");

    let sim = |topology: &Topology| {
        let scheduler = IwrrScheduler::from_topology(topology).expect("IWRR seeds");
        SimSession::new(
            ClusterSimulator::new(topology, Box::new(scheduler)),
            SimulationConfig::offline(600.0).with_warmup(0.0),
        )
    };

    // 1. RF=2 on the simulator: promote, resume from the replicated chunks.
    println!("simulator, RF=2 replication:");
    let report = run(sim(&topology), ReplicationPolicy::rf2(0, 16));
    assert_eq!(report.metrics.overall.completed_requests, 48);
    assert_eq!(report.failovers.len(), 1);
    let promoted = &report.failovers[0];
    assert!(!promoted.promoted.is_empty(), "replicas were promotable");
    assert!(
        promoted.tokens_recomputed < promoted.abort_recompute_tokens,
        "bounded token loss: promotion must beat abort-and-readmit"
    );
    describe("sim", report.metrics.overall.completed_requests, promoted);
    println!(
        "  replication traffic: {} chunks, {} tokens, {:.1} MB\n",
        report.replication.chunks,
        report.replication.tokens,
        report.replication.bytes / 1e6
    );

    // 2. Replication disabled on the simulator: the abort-and-readmit
    //    fallback — available, but every doomed token is recomputed.
    println!("simulator, replication disabled (fallback):");
    let report = run(sim(&topology), ReplicationPolicy::disabled());
    assert_eq!(report.metrics.overall.completed_requests, 48);
    let aborted = &report.failovers[0];
    assert!(aborted.promoted.is_empty());
    assert_eq!(aborted.tokens_recomputed, aborted.abort_recompute_tokens);
    describe("sim", report.metrics.overall.completed_requests, aborted);
    println!();

    // 3. RF=2 on the async prototype runtime: same guarantee, real
    //    threads, real channels, wall-driven virtual clock.
    println!("runtime, RF=2 replication:");
    let session = ServingBuilder::new()
        .topology(&topology)
        .config(RuntimeConfig {
            wall_per_virtual: 0.01,
            max_wall: Duration::from_secs(30),
            ..RuntimeConfig::default()
        })
        .build()
        .expect("the runtime session builds");
    let report = run(session, ReplicationPolicy::rf2(0, 16));
    assert_eq!(report.completed(), 48, "zero requests lost to the kill");
    assert_eq!(report.failovers.len(), 1);
    let record = &report.failovers[0];
    assert!(!record.promoted.is_empty(), "replicas were promotable");
    assert!(
        record.tokens_recomputed < record.abort_recompute_tokens,
        "bounded token loss on the runtime too"
    );
    describe("runtime", report.completed() as u64, record);

    println!("\nall fail-over guarantees held on both surfaces");
}
