//! Max-flow solves made apart from the planners: the reference values the
//! correctness checks compare planned throughputs against, and the cold
//! solve timings of the `helix_maxflow` layer.

use crate::stats::median;
use crate::trace::Tracer;
use helix::prelude::*;
use std::hint::black_box;
use std::time::Instant;

/// The flow network of `placement` on `profile` (partial inference on, no
/// pruning — the planners' convention) with its source and sink.
fn network(
    profile: &ClusterProfile,
    placement: &ModelPlacement,
) -> (FlowNetwork, helix::maxflow::NodeId, helix::maxflow::NodeId) {
    let graph = FlowGraphBuilder::new(profile)
        .partial_inference(true)
        .build(placement)
        .expect("a validated placement builds a flow graph");
    let network = graph.network().clone();
    let source = network
        .node_by_name("source")
        .expect("graphs have a source");
    let sink = network.node_by_name("sink").expect("graphs have a sink");
    (network, source, sink)
}

/// Max-flow value of `placement` solved cold with `algorithm`.
pub fn max_flow(
    profile: &ClusterProfile,
    placement: &ModelPlacement,
    algorithm: MaxFlowAlgorithm,
) -> f64 {
    let (network, source, sink) = network(profile, placement);
    network.max_flow_with(source, sink, algorithm).value
}

/// Whether two throughputs agree to floating-point accumulation error.
pub fn agree(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0)
}

/// Median microseconds of a cold Dinic solve and of a cold push-relabel
/// solve of `placement`'s flow network, over `repeats` solves each.
pub fn cold_solve_us(
    tracer: &Tracer,
    profile: &ClusterProfile,
    placement: &ModelPlacement,
    repeats: usize,
) -> (f64, f64) {
    let (network, source, sink) = network(profile, placement);
    let time = |name: &'static str, algorithm: MaxFlowAlgorithm| {
        let samples: Vec<f64> = (0..repeats)
            .map(|_| {
                let _span = tracer.span(name);
                let start = Instant::now();
                black_box(network.max_flow_with(source, sink, algorithm));
                start.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        median(&samples).unwrap_or(0.0)
    };
    let dinic = time("maxflow.dinic", MaxFlowAlgorithm::Dinic);
    let push_relabel = time("maxflow.push_relabel", MaxFlowAlgorithm::PushRelabel);
    (dinic, push_relabel)
}
