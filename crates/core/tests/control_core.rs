//! The control core on its own, with no simulator or runtime around it:
//! fail-over around an infeasible re-plan, the fail-over token accounting
//! under promotion and abort, and when replication starts.

use helix_cluster::{
    ClusterBuilder, ClusterProfile, GpuType, ModelConfig, ModelId, NodeId, PrefixId, Region,
};
use helix_core::fleet::{fleet_profiles, FleetPlacement};
use helix_core::{
    Admitted, ControlCore, FleetScheduler, FleetTopology, IdleClusterState, InFlightRequest,
    LayerRange, ModelPlacement, Progress, Replan, ReplanReason, ReplicationPolicy, RequestPipeline,
    RequestSpec,
};

fn core_for(fleet: FleetTopology) -> ControlCore {
    let schedulers = FleetScheduler::iwrr(&fleet).unwrap().into_parts();
    ControlCore::new(fleet, schedulers)
}

/// Two-stage pipeline with every stage doubled: nodes 0 and 2 hold the
/// bottom half, nodes 1 and 3 the top half.
fn redundant_core() -> ControlCore {
    let cluster = ClusterBuilder::new("control-redundant-4")
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
    let fleet = FleetTopology::plan(&[profile], &FleetPlacement::new(vec![placement]), true);
    core_for(fleet.unwrap())
}

fn request(id: u64, model: usize, prefix: Option<u64>) -> RequestSpec {
    RequestSpec {
        id,
        model: ModelId(model),
        prompt_tokens: 64,
        output_tokens: 24,
        shared_prefix: prefix.map(|p| (PrefixId(p), 32)),
    }
}

/// Installs a re-plan's schedulers at once, as the simulator does.
fn install(core: &mut ControlCore, replan: Replan) {
    for (model, scheduler) in replan.schedulers {
        core.install_scheduler(model, scheduler);
    }
}

fn crosses(pipeline: &RequestPipeline, node: NodeId) -> bool {
    pipeline.stages.iter().any(|s| s.node == node)
}

/// Admits `n` requests on the redundant core, each with `generated`
/// tokens decoded and its prompt completion replicated, and fails node 0.
/// Returns the core and the fail-over's doomed ids.
fn fail_mid_decode(policy: ReplicationPolicy, n: u64, generated: usize) -> (ControlCore, Vec<u64>) {
    let mut core = redundant_core();
    core.set_replication(policy);
    let mut flights = Vec::new();
    for id in 0..n {
        let spec = request(id, 0, None);
        let admitted = core.admit(&spec, &IdleClusterState).unwrap().unwrap();
        core.trickle(id, &admitted.pipeline, spec.prompt_tokens + 1, true);
        let progress = Progress {
            generated,
            delivered: generated,
            first_token: Some(1.0),
            ..Progress::new(0.0)
        };
        flights.push((id, admitted.pipeline, progress));
    }
    let in_flight = flights
        .iter()
        .map(|(id, pipeline, progress)| InFlightRequest {
            id: *id,
            prompt_tokens: 64,
            pipeline,
            prefix: None,
            progress: *progress,
        });
    let reason = ReplanReason::NodeFailure { node: NodeId(0) };
    let failover = core.fail_nodes(&[NodeId(0)], reason, 5.0, in_flight, |_, _| true);
    install(&mut core, failover.replan.expect("node 0 has a twin"));
    (core, failover.doomed)
}

#[test]
fn infeasible_replan_after_failure_never_admits_across_the_dead_node() {
    // Model 0: both stages doubled (nodes 0 and 2 bottom, 1 and 3 top);
    // model 1: sole replica on node 0, so removing node 0 is infeasible and
    // the old plan (and its IWRR rotation through node 0) keeps serving.
    let cluster = ClusterBuilder::new("control-drain-4")
        .intra_region(10_000.0, 1.0)
        .add_nodes(GpuType::A100_80, 4, 1, Region(0))
        .build();
    let profiles = fleet_profiles(
        &cluster,
        &[ModelConfig::llama_13b(), ModelConfig::llama_13b()],
    );
    let layers = profiles[0].model().num_layers;
    let half = layers / 2;
    let mut doubled = ModelPlacement::empty(4);
    doubled.assign(NodeId(0), LayerRange::new(0, half));
    doubled.assign(NodeId(2), LayerRange::new(0, half));
    doubled.assign(NodeId(1), LayerRange::new(half, layers));
    doubled.assign(NodeId(3), LayerRange::new(half, layers));
    let mut sole = ModelPlacement::empty(4);
    sole.assign(NodeId(0), LayerRange::new(0, layers));
    let placement = FleetPlacement::new(vec![doubled, sole]);
    let mut core = core_for(FleetTopology::plan(&profiles, &placement, true).unwrap());

    // Home one prefix on each bottom replica: IWRR interleaves them.
    let mut homes: Vec<(u64, Admitted)> = Vec::new();
    for id in 0..8 {
        let admitted = core
            .admit(&request(id, 0, Some(id)), &IdleClusterState)
            .unwrap()
            .unwrap();
        let dead = crosses(&admitted.pipeline, NodeId(0));
        if homes
            .iter()
            .all(|(_, h)| crosses(&h.pipeline, NodeId(0)) != dead)
        {
            homes.push((id, admitted));
        }
    }
    homes.sort_by_key(|(_, h)| !crosses(&h.pipeline, NodeId(0)));
    let [(dead_prefix, a), (live_prefix, b)] = <[_; 2]>::try_from(homes).unwrap();
    let live_pipeline = b.pipeline.clone();

    // Both stay in flight through the failure.
    let in_flight = [(dead_prefix, &a), (live_prefix, &b)].map(|(id, admitted)| InFlightRequest {
        id,
        prompt_tokens: 64,
        pipeline: &admitted.pipeline,
        prefix: admitted.prefix,
        progress: Progress::new(0.0),
    });
    let reason = ReplanReason::NodeFailure { node: NodeId(0) };
    let failover = core.fail_nodes(&[NodeId(0)], reason, 1.5, in_flight, |_, _| true);
    assert!(failover.replan.is_none(), "model 1 has nowhere to go");
    assert_eq!(failover.doomed.len(), 1);
    assert!(core.take_replans().is_empty());
    let record = &core.take_failovers()[0];
    assert_eq!(record.aborted, failover.doomed);

    // The dead prefix's home was evicted: its next sharer misses and homes
    // on a live pipeline; the live prefix still hits its home.
    let mut next_id = 10;
    let mut admit = |core: &mut ControlCore, prefix: Option<u64>| loop {
        next_id += 1;
        if let Some(admitted) = core
            .admit(&request(next_id, 0, prefix), &IdleClusterState)
            .unwrap()
        {
            return admitted;
        }
    };
    let sharer = admit(&mut core, Some(dead_prefix));
    assert!(!sharer.prefix.unwrap().hit);
    assert!(!crosses(&sharer.pipeline, NodeId(0)));
    let hit = admit(&mut core, Some(live_prefix));
    assert!(hit.prefix.unwrap().hit);
    assert_eq!(hit.pipeline, live_pipeline);

    // The aborted request and every later admission wait rather than take
    // a pipeline across the dead node, though the rotation still offers one.
    let mut waited = 0;
    for id in failover.doomed.iter().copied().chain(100..120) {
        match core
            .admit(&request(id, 0, None), &IdleClusterState)
            .unwrap()
        {
            Some(admitted) => assert!(!crosses(&admitted.pipeline, NodeId(0))),
            None => waited += 1,
        }
    }
    assert!(waited > 0, "the old rotation still routes through node 0");
}

#[test]
fn failover_records_balance_under_promotion_and_abort() {
    for policy in [ReplicationPolicy::rf2(0, 16), ReplicationPolicy::disabled()] {
        let (mut core, doomed) = fail_mid_decode(policy, 8, 5);
        let records = core.take_failovers();
        assert_eq!(records.len(), 1);
        let record = &records[0];
        assert!(!doomed.is_empty());
        for r in &records {
            assert_eq!(
                r.tokens_recomputed + r.replica_tokens_used,
                r.abort_recompute_tokens,
                "{r:?}"
            );
        }
        // Every doomed request re-admits off node 0 with its progress kept.
        for &id in &doomed {
            let admitted = core
                .admit(&request(id, 0, None), &IdleClusterState)
                .unwrap()
                .unwrap();
            assert!(!crosses(&admitted.pipeline, NodeId(0)));
            let progress = admitted.progress.expect("a fail-over keeps progress");
            assert_eq!(progress.delivered, 5);
            assert_eq!(progress.first_token, Some(1.0));
            if policy.enabled() {
                // Promoted: resumes on the standby, recomputing only the
                // tokens decoded since the replicated prompt.
                assert_eq!(admitted.resume_tokens, Some(65));
                assert_eq!(progress.generated, 5);
                assert_eq!(admitted.prefill_tokens, 64 + 5 - 65);
            } else {
                assert_eq!(admitted.resume_tokens, None);
                assert_eq!(progress.generated, 0);
            }
        }
        if policy.enabled() {
            assert_eq!(record.promoted, doomed);
            assert!(record.aborted.is_empty());
            assert!(record.replica_tokens_used > 0);
        } else {
            assert_eq!(record.aborted, doomed);
            assert!(record.promoted.is_empty());
            assert_eq!(record.replica_tokens_used, 0);
        }
    }
}

#[test]
fn replication_starts_only_with_a_covering_live_standby_for_every_stage() {
    let policy = ReplicationPolicy::rf2(0, 16);
    let mut core = redundant_core();
    core.set_replication(policy);
    let spec = request(0, 0, None);
    let admitted = core.admit(&spec, &IdleClusterState).unwrap().unwrap();
    let trickle = core
        .trickle(0, &admitted.pipeline, 65, true)
        .expect("both stages have a twin");
    assert_eq!(trickle.durable, 65);
    assert_eq!(trickle.shipments.len(), 2);
    for (stage, &(primary, standby, layers, _)) in
        admitted.pipeline.stages.iter().zip(&trickle.shipments)
    {
        assert_eq!((primary, layers), (stage.node, stage.layers));
        assert_ne!(standby, primary);
    }
    assert_eq!(core.take_replication_stats().tokens, 65);

    // Node 2 dies: every surviving pipeline's bottom stage runs on node 0,
    // whose only twin is dead, so nothing admitted now replicates.
    let reason = ReplanReason::NodeFailure { node: NodeId(2) };
    let failover = core.fail_nodes(&[NodeId(2)], reason, 1.0, [], |_, _| true);
    install(&mut core, failover.replan.expect("node 2 has a twin"));
    for id in 1..5 {
        let admitted = core
            .admit(&request(id, 0, None), &IdleClusterState)
            .unwrap()
            .unwrap();
        assert!(core.trickle(id, &admitted.pipeline, 65, true).is_none());
    }

    // And a disabled policy replicates nothing even with twins available.
    let mut core = redundant_core();
    let admitted = core.admit(&spec, &IdleClusterState).unwrap().unwrap();
    assert!(core.trickle(0, &admitted.pipeline, 65, true).is_none());
}
