//! Criterion benchmarks for the async prototype runtime.
//!
//! These measure the control-plane cost of the runtime itself — scheduling,
//! message passing, dynamic batching and KV paging — by running with the
//! instant execution model so no time is spent in the (modelled) GPU kernels.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use helix_cluster::{ClusterProfile, ClusterSpec, ModelConfig};
use helix_core::{heuristics, IwrrScheduler, RandomScheduler, Scheduler, Topology};
use helix_runtime::{ExecutionKind, RuntimeConfig, ServingBuilder};
use helix_workload::{Request, Workload};
use std::hint::black_box;

fn workload(n: u64) -> Workload {
    Workload::new(
        (0..n)
            .map(|id| Request {
                id,
                prompt_tokens: 64,
                output_tokens: 4,
                arrival_time: 0.0,
                model: Default::default(),
                ..Request::default()
            })
            .collect(),
    )
}

fn config() -> RuntimeConfig {
    RuntimeConfig {
        wall_per_virtual: 0.0001,
        execution: ExecutionKind::Instant,
        ..RuntimeConfig::default()
    }
}

fn bench_runtime_control_plane(c: &mut Criterion) {
    let profile =
        ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b());
    let placement = heuristics::swarm_placement(&profile).unwrap();
    let topology = Topology::plan(&profile, &placement, true).unwrap();

    let mut group = c.benchmark_group("runtime_control_plane");
    group.sample_size(10);
    for &n in &[20u64, 60] {
        let w = workload(n);
        group.bench_with_input(BenchmarkId::new("iwrr", n), &w, |b, w| {
            b.iter(|| {
                let scheduler = IwrrScheduler::from_topology(&topology).unwrap();
                let session = ServingBuilder::new()
                    .topology(&topology)
                    .scheduler(Box::new(scheduler))
                    .config(config())
                    .build()
                    .unwrap();
                black_box(session.serve(w).unwrap().completed())
            })
        });
    }
    group.finish();
}

fn bench_scheduler_choice_on_runtime(c: &mut Criterion) {
    let profile =
        ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b());
    let placement = heuristics::swarm_placement(&profile).unwrap();
    let topology = Topology::plan(&profile, &placement, true).unwrap();
    let w = workload(30);

    let mut group = c.benchmark_group("runtime_scheduler_choice");
    group.sample_size(10);
    group.bench_function("iwrr", |b| {
        b.iter(|| {
            let scheduler: Box<dyn Scheduler> =
                Box::new(IwrrScheduler::from_topology(&topology).unwrap());
            let session = ServingBuilder::new()
                .topology(&topology)
                .scheduler(scheduler)
                .config(config())
                .build()
                .unwrap();
            black_box(session.serve(&w).unwrap().decode_tokens())
        })
    });
    group.bench_function("random", |b| {
        b.iter(|| {
            let scheduler: Box<dyn Scheduler> = Box::new(RandomScheduler::new(&topology, 5));
            let session = ServingBuilder::new()
                .topology(&topology)
                .scheduler(scheduler)
                .config(config())
                .build()
                .unwrap();
            black_box(session.serve(&w).unwrap().decode_tokens())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_runtime_control_plane,
    bench_scheduler_choice_on_runtime
);
criterion_main!(benches);
