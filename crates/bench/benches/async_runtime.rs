//! Latency and scaling of the async data plane: submit → completion round
//! trips through a live `ServingSession` whose workers are tasks on the
//! single-threaded `minirt` executor, measured at 24, 96 and 500 nodes.
//!
//! The interesting axis is *node count*: the thread-per-worker design paid
//! one OS thread per (node, model) engine, so fleets past a few dozen nodes
//! meant hundreds of threads before the first token.  The task-per-engine
//! executor keeps the data plane on one thread regardless of fleet size;
//! these benchmarks pin down what that costs (or saves) in end-to-end
//! submit → completion latency as the fleet grows.  The 24-node numbers are
//! directly comparable to the thread-per-worker baseline quoted in
//! `BENCH_async.json`.
//!
//! Run with `cargo bench -p helix-bench --bench async_runtime`; results are
//! recorded in `BENCH_async.json` at the repository root.

use criterion::{criterion_group, criterion_main, Criterion};
use helix_cluster::{ClusterBuilder, ClusterProfile, ClusterSpec, GpuType, ModelConfig, Region};
use helix_core::{heuristics, Topology};
use helix_runtime::{ExecutionKind, RuntimeConfig, ServingBuilder, ServingSession};
use helix_workload::Request;
use std::hint::black_box;
use std::time::Duration;

/// Single-region fleets of increasing size, all three GPU generations.
fn cluster(nodes: usize) -> ClusterSpec {
    match nodes {
        24 => ClusterSpec::single_cluster_24(),
        96 => ClusterBuilder::new("async-bench-96")
            .intra_region(10_000.0, 1.0)
            .add_nodes(GpuType::A100_40, 16, 1, Region(0))
            .add_nodes(GpuType::L4, 32, 1, Region(0))
            .add_nodes(GpuType::T4, 48, 1, Region(0))
            .build(),
        500 => ClusterBuilder::new("async-bench-500")
            .intra_region(10_000.0, 1.0)
            .add_nodes(GpuType::A100_40, 100, 1, Region(0))
            .add_nodes(GpuType::L4, 150, 1, Region(0))
            .add_nodes(GpuType::T4, 250, 1, Region(0))
            .build(),
        other => panic!("no bench cluster of {other} nodes"),
    }
}

fn topology(nodes: usize) -> Topology {
    let profile = ClusterProfile::analytic(cluster(nodes), ModelConfig::llama_30b());
    let placement = heuristics::swarm_placement(&profile).unwrap();
    Topology::plan(&profile, &placement, true).unwrap()
}

fn config() -> RuntimeConfig {
    RuntimeConfig {
        wall_per_virtual: 0.0001,
        execution: ExecutionKind::Instant,
        // The standing session outlives many samples; never trip the budget.
        max_wall: Duration::from_secs(3600),
        ..RuntimeConfig::default()
    }
}

fn session(topology: &Topology) -> ServingSession {
    ServingBuilder::new()
        .topology(topology)
        .config(config())
        .build()
        .unwrap()
}

fn request(id: u64) -> Request {
    Request {
        id,
        prompt_tokens: 64,
        output_tokens: 4,
        arrival_time: 0.0,
        ..Request::default()
    }
}

fn bench_async_runtime(c: &mut Criterion) {
    let mut group = c.benchmark_group("async_runtime");
    group.sample_size(10);

    for nodes in [24usize, 96, 500] {
        let topology = topology(nodes);
        let mut live = session(&topology);
        let mut next_id = 0u64;

        // One full round trip: submit over the control channel → wake ping →
        // coordinator schedules → fabric delivers the prompt + 3 decode
        // iterations over the pipeline → the completion wakes the waiting
        // caller.  Every hop is waker-driven; no polling interval is paid.
        group.bench_function(format!("submit_to_completion/nodes_{nodes}"), |b| {
            b.iter(|| {
                let ticket = live.submit(request(next_id));
                next_id += 1;
                black_box(live.wait_completion(ticket).unwrap().completed_at)
            })
        });

        // Twenty requests in flight at once: the amortised per-request cost
        // (divide by 20) when the executor interleaves pipeline passes of
        // different requests on its one thread.
        group.bench_function(format!("pipelined_burst_of_20/nodes_{nodes}"), |b| {
            b.iter(|| {
                let tickets: Vec<_> = (0..20)
                    .map(|_| {
                        let ticket = live.submit(request(next_id));
                        next_id += 1;
                        ticket
                    })
                    .collect();
                live.drain().unwrap();
                for ticket in tickets {
                    black_box(live.wait_completion(ticket).unwrap());
                }
            })
        });

        let report = live.finish().unwrap();
        assert_eq!(report.completed() as u64, next_id);
    }
    group.finish();
}

criterion_group!(benches, bench_async_runtime);
criterion_main!(benches);
