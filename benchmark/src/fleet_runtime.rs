//! `fleet1008_runtime`: the 12-region, 1008-node, 4-model fleet of
//! `examples/plan_at_scale.rs`, planned by the hierarchical planner and
//! served by the async runtime with instant execution.
//!
//! The only workload that runs the pod partitioner, the parallel annealer
//! at scale and the runtime's coordinator / fabric / worker / executor
//! path; no simulator runs.  Pipelines are ~23 stages deep on average, so
//! the runtime's per-hop cost dominates.  Each round serves a closed loop of
//! one client (submit, then `wait_completion`, round-robin over the models)
//! and then bursts submitted at once and drained.

use crate::checks::Checks;
use crate::stats::{median, quantile, LatencyLimits};
use crate::{flows, inputs, simrun, Ctx, Metrics, Outcome};
use helix::core::{
    HierarchicalFleetPlanner, HierarchicalOptions, HierarchicalPlan, NodeObservations,
    PlacementDelta, PodPartitionOptions, PodPartitioner,
};
use helix::prelude::*;
use helix::runtime::{ExecutionKind, RequestOutcome};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Sizes of the workload (the smoke test runs a small copy).
pub struct Size {
    /// Regions of 84 nodes each.
    pub regions: u32,
    /// Fleet-wide annealing budget of the hierarchical planner.
    pub iterations: usize,
    /// Set-ups per run (their median is `setup_s`).
    pub setups: usize,
    /// Closed-loop requests per round (after one warm-up request).
    pub closed_loop: usize,
    /// Bursts per round.
    pub bursts: usize,
    /// Requests per burst.
    pub burst: usize,
}

/// The benchmark's size.
pub const FULL: Size = Size {
    regions: 12,
    iterations: 6000,
    setups: 7,
    closed_loop: 100,
    bursts: 3,
    burst: 200,
};

/// Wall seconds per virtual second of the runtime's clock.  Small enough
/// that the runtime's own per-hop work, not virtual-time waits, sets the
/// wall-clock round trip.
pub const WALL_PER_VIRTUAL: f64 = 1e-5;
/// Planner threads: at most the two cores the benchmark is sized for.
pub const PLANNER_THREADS: usize = 2;
/// Goodput limits of a burst, in wall seconds: first token within 50 ms,
/// then 50 tokens per second.
pub const LIMITS: LatencyLimits = LatencyLimits {
    ttft_s: 50e-3,
    tpot_s: 20e-3,
};

/// The four models, in `ModelId` order.
fn models() -> [ModelConfig; 4] {
    [
        ModelConfig::llama_30b(),
        ModelConfig::llama_13b(),
        ModelConfig::llama2_70b(),
        ModelConfig::llama3_405b(),
    ]
}

/// Regions of 16×A100-40G, 28×L4 and 40×T4 with fast links inside a region
/// and slow, high-latency links between regions.
fn cluster(regions: u32) -> ClusterSpec {
    let mut builder = ClusterBuilder::new("planet-1008")
        .intra_region(10_000.0, 1.0)
        .inter_region(150.0, 40.0);
    for r in 0..regions {
        builder = builder
            .add_nodes(GpuType::A100_40, 16, 1, Region(r))
            .add_nodes(GpuType::L4, 28, 1, Region(r))
            .add_nodes(GpuType::T4, 40, 1, Region(r));
    }
    builder.build()
}

fn planner_options(size: &Size) -> HierarchicalOptions {
    HierarchicalOptions {
        pods: PodPartitionOptions {
            max_pod_size: 24,
            ..PodPartitionOptions::default()
        },
        annealing: FleetAnnealingOptions {
            iterations: size.iterations,
            ..FleetAnnealingOptions::default()
        },
        threads: PLANNER_THREADS,
        ..HierarchicalOptions::default()
    }
}

fn runtime_config() -> RuntimeConfig {
    RuntimeConfig {
        wall_per_virtual: WALL_PER_VIRTUAL,
        execution: ExecutionKind::Instant,
        max_wall: Duration::from_secs(60),
        ..RuntimeConfig::default()
    }
}

/// One round's requests, in submission order with ids to match: one
/// warm-up request, the closed loop, then the bursts.  Models take turns
/// round-robin; each model's closed-loop and burst requests are fixed
/// multisets of short Azure-like lengths (128 / 32 tokens on average)
/// whose order `seed` sets (see [`inputs`]).
pub fn requests(size: &Size, seed: u64) -> Vec<Request> {
    let lanes = |per_model: usize, salt: u64| -> Vec<Request> {
        let lanes: Vec<Workload> = (0..4)
            .map(|m| {
                crate::offline_milp::short_requests(per_model, inputs::LENGTH_SEED + salt + m, seed)
            })
            .collect();
        (0..per_model)
            .flat_map(|i| lanes.iter().map(move |lane| lane.requests()[i]))
            .collect()
    };
    let warm_up = Request {
        prompt_tokens: 128,
        output_tokens: 32,
        ..Request::default()
    };
    std::iter::once(warm_up)
        .chain(lanes(size.closed_loop / 4, 10))
        .chain(lanes(size.bursts * size.burst / 4, 20))
        .enumerate()
        .map(|(i, r)| Request {
            id: i as u64,
            model: ModelId(i.saturating_sub(1) % 4),
            arrival_time: 0.0,
            ..r
        })
        .collect()
}

struct Setup {
    requests: Vec<Request>,
    profiles: Vec<ClusterProfile>,
    plan: HierarchicalPlan,
    fleet: FleetTopology,
}

fn setup(ctx: &Ctx, size: &Size) -> Setup {
    let t = ctx.tracer;
    let requests = {
        let _span = t.span("workload.gen");
        requests(size, ctx.seed)
    };
    let profiles = fleet_profiles(&cluster(size.regions), &models());
    let plan = {
        let _span = t.span("placement.hier_plan");
        HierarchicalFleetPlanner::new(&profiles)
            .with_options(planner_options(size))
            .solve()
            .expect("the fleet plans")
    };
    let fleet = {
        let _span = t.span("fleet.plan");
        FleetTopology::plan(&profiles, &plan.placement, true).expect("the fleet placement plans")
    };
    {
        let _span = t.span("runtime.build");
        ServingBuilder::new()
            .fleet(&fleet)
            .config(runtime_config())
            .build()
            .expect("the runtime builds over the fleet")
            .finish()
            .expect("an idle session shuts down");
    }
    Setup {
        requests,
        profiles,
        plan,
        fleet,
    }
}

fn check_plan(checks: &mut Checks, s: &Setup) {
    checks.expect(!s.plan.used_fallback, || {
        "the fleet fell back to flat annealing".into()
    });
    checks.expect(s.plan.placement.validate(&s.profiles).is_ok(), || {
        "the fleet placement does not validate".into()
    });
    for (m, (&flow, profile)) in s.plan.flows.iter().zip(&s.profiles).enumerate() {
        let placement = s
            .plan
            .placement
            .placement(ModelId(m))
            .expect("one placement per model");
        let independent = flows::max_flow(profile, placement, MaxFlowAlgorithm::PushRelabel);
        checks.expect(flows::agree(flow, independent), || {
            format!("model {m}: planned {flow} tok/s, push-relabel solve {independent}")
        });
    }
    let total: f64 = s.plan.flows.iter().sum();
    checks.expect(flows::agree(total, s.fleet.total_flow_value()), || {
        format!(
            "plan flows sum to {total}, the fleet topology to {}",
            s.fleet.total_flow_value()
        )
    });
}

/// One burst: when it was submitted (virtual seconds), its wall time per
/// request from the first submit to the end of the drain, and its outcomes.
struct Burst {
    start: f64,
    wall_us_per_req: f64,
    outcomes: Vec<RequestOutcome>,
}

/// What one round measured.
#[derive(Default)]
struct Round {
    rtts_us: Vec<f64>,
    bursts: Vec<Burst>,
    batches: u64,
    fabric_msgs: u64,
    depth_sum: usize,
    outcomes: usize,
    failed: u64,
}

/// Serves one round on a fresh session and checks every outcome.
fn round(ctx: &Ctx, size: &Size, s: &Setup, checks: &mut Checks) -> Round {
    let t = ctx.tracer;
    let mut r = Round::default();
    let mut session = {
        let _span = t.span("runtime.build");
        ServingBuilder::new()
            .fleet(&s.fleet)
            .config(runtime_config())
            .build()
            .expect("the runtime builds over the fleet")
    };
    let mut submitted: HashMap<u64, Request> = HashMap::new();
    let mut serve_one = |session: &mut ServingSession, request: Request| {
        submitted.insert(request.id, request);
        let ticket = {
            let _span = t.span_for("runtime.submit", request.id);
            session.submit(request)
        };
        let _span = t.span_for("runtime.wait", request.id);
        session.wait_completion(ticket)
    };

    // Warm-up: reads the session's virtual clock off the first completion.
    let mut now = match serve_one(&mut session, s.requests[0]) {
        Ok(o) => o.completed_at,
        Err(e) => {
            checks.expect(false, || format!("warm-up request failed: {e}"));
            0.0
        }
    };
    for request in &s.requests[1..=size.closed_loop] {
        let request = Request {
            arrival_time: now,
            ..*request
        };
        let start = Instant::now();
        match serve_one(&mut session, request) {
            Ok(o) => {
                r.rtts_us.push(start.elapsed().as_secs_f64() * 1e6);
                now = o.completed_at;
            }
            Err(e) => checks.expect(false, || format!("request {} failed: {e}", request.id)),
        }
    }

    for chunk in s.requests[1 + size.closed_loop..].chunks(size.burst) {
        let start = Instant::now();
        for request in chunk {
            let request = Request {
                arrival_time: now,
                ..*request
            };
            submitted.insert(request.id, request);
            let _span = t.span_for("runtime.submit", request.id);
            session.submit(request);
        }
        let drained = {
            let _span = t.span("runtime.drain");
            session.drain()
        };
        let wall_us_per_req = start.elapsed().as_secs_f64() * 1e6 / chunk.len() as f64;
        if let Err(e) = drained {
            checks.expect(false, || format!("a burst failed to drain: {e}"));
            break;
        }
        let outcomes = session.try_completions();
        let burst_start = now;
        now = outcomes.iter().map(|o| o.completed_at).fold(now, f64::max);
        r.bursts.push(Burst {
            start: burst_start,
            wall_us_per_req,
            outcomes,
        });
    }

    let report = {
        let _span = t.span("runtime.finish");
        session.finish()
    };
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            checks.expect(false, || format!("the session failed to finish: {e}"));
            r.failed = submitted.len() as u64;
            return r;
        }
    };
    let mut seen: HashMap<u64, usize> = HashMap::new();
    for o in &report.outcomes {
        *seen.entry(o.id).or_default() += 1;
        let Some(req) = submitted.get(&o.id) else {
            checks.expect(false, || format!("outcome for unknown request {}", o.id));
            continue;
        };
        checks.expect(
            o.model == req.model
                && o.output_tokens == req.output_tokens
                && o.arrival == req.arrival_time
                && o.arrival <= o.first_token_at
                && o.first_token_at <= o.completed_at,
            || format!("request {} came back wrong: {o:?} for {req:?}", o.id),
        );
    }
    let once = submitted
        .keys()
        .filter(|id| seen.get(id) == Some(&1))
        .count();
    r.failed = (submitted.len() - once) as u64;
    checks.expect(
        once == submitted.len() && seen.len() == submitted.len(),
        || {
            format!(
                "{once} of {} requests completed exactly once",
                submitted.len()
            )
        },
    );
    let asked: u64 = submitted.values().map(|q| q.output_tokens as u64).sum();
    checks.expect(report.decode_tokens() == asked, || {
        format!(
            "decoded {} tokens, {asked} were asked for",
            report.decode_tokens()
        )
    });
    r.batches = report.nodes.iter().map(|n| n.batches).sum();
    r.fabric_msgs = report.links.iter().map(|l| l.messages).sum();
    r.depth_sum = report.outcomes.iter().map(|o| o.pipeline_depth).sum();
    r.outcomes = report.outcomes.len();
    r
}

/// Runs the workload: set-ups, then rounds on fresh runtime sessions.
pub fn run(ctx: &Ctx, size: &Size, checks: &mut Checks, metrics: &mut Metrics) -> Outcome {
    let t = ctx.tracer;
    let mut plans = Vec::new();
    let set_up = || {
        let s = setup(ctx, size);
        plans.push(s.fleet.total_flow_value().to_bits());
        s
    };
    let mut rounds_out: Vec<Round> = Vec::new();
    let (s, rounds) = ctx.measure(metrics, size.setups, set_up, |s, _| {
        let r = round(ctx, size, s, checks);
        let per_req: Vec<f64> = r.bursts.iter().map(|b| b.wall_us_per_req).collect();
        let cost = median(&per_req).unwrap_or(0.0);
        rounds_out.push(r);
        cost
    });
    checks.expect(plans.windows(2).all(|w| w[0] == w[1]), || {
        format!("the fleet planned different throughputs across set-ups: {plans:?}")
    });
    check_plan(checks, &s);
    metrics.set("planned_tok_s", s.fleet.total_flow_value());

    let rtts: Vec<f64> = rounds_out
        .iter()
        .flat_map(|r| r.rtts_us.iter().copied())
        .collect();
    // With instant execution the runtime's virtual clock is its wall clock
    // divided by WALL_PER_VIRTUAL, so its latencies are reported in wall
    // seconds, scaled like every wall-clock metric (see `calibrate`).
    // Latencies and throughputs are taken per burst and the median over
    // bursts reported: a burst is CPU-bound, while the closed loop's tail
    // rides on thread wake-ups that other work on the machine delays (its
    // per-round TTFT p95 ranged 2–9 ms within one run).
    let wall = |virtual_s: f64| ctx.wall_time(virtual_s * WALL_PER_VIRTUAL);
    let bursts: Vec<&Burst> = rounds_out.iter().flat_map(|r| &r.bursts).collect();
    let over_bursts = |f: &dyn Fn(&Burst) -> f64| -> f64 {
        median(&bursts.iter().map(|b| f(b)).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let span = |b: &Burst| {
        wall(
            b.outcomes
                .iter()
                .map(|o| o.completed_at)
                .fold(b.start, f64::max)
                - b.start,
        )
    };
    let latency = |b: &Burst, q: f64, f: fn(&RequestOutcome) -> f64| {
        let v: Vec<f64> = b.outcomes.iter().map(|o| wall(f(o))).collect();
        quantile(&v, q).unwrap_or(0.0)
    };
    let ttft = RequestOutcome::prompt_latency;
    let tpot = RequestOutcome::decode_latency_per_token;
    metrics.set(
        "decode_tok_s",
        over_bursts(&|b| {
            b.outcomes.iter().map(|o| o.output_tokens).sum::<usize>() as f64 / span(b)
        }),
    );
    let us_per_req = ctx.wall_time(over_bursts(&|b| b.wall_us_per_req));
    metrics.set("host_us_per_req", us_per_req);
    metrics.set("ttft_p50_s", over_bursts(&|b| latency(b, 0.5, ttft)));
    metrics.set("ttft_p95_s", over_bursts(&|b| latency(b, 0.95, ttft)));
    metrics.set("tpot_p50_s", over_bursts(&|b| latency(b, 0.5, tpot)));
    metrics.set("tpot_p95_s", over_bursts(&|b| latency(b, 0.95, tpot)));
    metrics.set(
        "goodput_req_s",
        over_bursts(&|b| {
            let good = b
                .outcomes
                .iter()
                .filter(|o| LIMITS.met(wall(o.arrival), o.output_tokens, wall(o.completed_at)));
            good.count() as f64 / span(b)
        }),
    );
    metrics.set("rtt_p50_us", ctx.wall_time(median(&rtts).unwrap_or(0.0)));
    metrics.note(
        "rtt_p99_us",
        ctx.wall_time(quantile(&rtts, 0.99).unwrap_or(0.0)),
        "us",
    );
    metrics.note("rt_burst_req_s", 1e6 / us_per_req, "req/s");

    if ctx.traced {
        metrics.not_called(&[
            "milp.plan_s",
            "milp.bb_nodes",
            "milp.bb_nodes_per_s",
            "milp.root_lp_s",
            "milp.best_bound_tok_s",
            "placement.anneal_moves_per_s",
            "scheduling.prefix_route_ns",
            "prefix.hits",
            "prefix.prefill_tokens_saved",
            "sim.run_s",
            "sim.kv_used_tokens_ns",
            "sim.intervals",
            "sim.node_util_mean",
            "sim.link_mb",
            "sim.link_queue_ms_mean",
            "ha.replica_mb",
            "ha.promoted",
            "ha.aborted",
            "ha.tokens_recomputed",
        ]);
        let ms = |name: &str| median(&t.durations(name)).unwrap_or(0.0) * 1e3;
        metrics.set("workload.gen_ms", ms("workload.gen"));
        metrics.set("placement.hier_plan_s", ms("placement.hier_plan") / 1e3);
        metrics.set("fleet.plan_ms", ms("fleet.plan"));
        metrics.set("runtime.build_ms", ms("runtime.build"));
        metrics.set("runtime.submit_us", ms("runtime.submit") * 1e3);
        metrics.set("runtime.wait_us", ms("runtime.wait") * 1e3);
        metrics.set("runtime.drain_ms", ms("runtime.drain"));
        let depth: usize = rounds_out.iter().map(|r| r.depth_sum).sum();
        let outcomes: usize = rounds_out.iter().map(|r| r.outcomes).sum();
        metrics.set(
            "runtime.pipeline_depth_mean",
            depth as f64 / outcomes.max(1) as f64,
        );
        let per_round = |f: fn(&Round) -> u64| -> f64 {
            median(&rounds_out.iter().map(|r| f(r) as f64).collect::<Vec<_>>()).unwrap_or(0.0)
        };
        metrics.set("runtime.batches", per_round(|r| r.batches));
        metrics.set("runtime.fabric_msgs", per_round(|r| r.fabric_msgs));
        layer_probes(ctx, size, &s, metrics);
    }
    let per_round = s.requests.len() as u64;
    Outcome {
        attempted: rounds as u64 * per_round,
        failed: rounds_out.iter().map(|r| r.failed).sum(),
    }
}

/// The planning layers timed on their own: pod partitioning, the cold
/// solves of the largest model's flow graph, a single-node-loss re-plan and
/// IWRR picks on the largest model.
fn layer_probes(ctx: &Ctx, size: &Size, s: &Setup, metrics: &mut Metrics) {
    let t = ctx.tracer;
    let pods = planner_options(size).pods;
    let partition: Vec<f64> = (0..5)
        .map(|_| {
            let _span = t.span("placement.partition");
            let start = Instant::now();
            black_box(
                PodPartitioner::new(&s.profiles)
                    .with_options(pods.clone())
                    .partition(),
            )
            .expect("the fleet partitions into pods");
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    metrics.set("placement.partition_ms", median(&partition).unwrap_or(0.0));

    let largest = (0..s.profiles.len())
        .max_by_key(|&m| {
            s.plan
                .placement
                .placement(ModelId(m))
                .map_or(0, |p| p.num_assigned())
        })
        .expect("the fleet serves models");
    let placement = s
        .plan
        .placement
        .placement(ModelId(largest))
        .expect("model placed");
    let (dinic, push_relabel) = flows::cold_solve_us(t, &s.profiles[largest], placement, 20);
    metrics.set("maxflow.dinic_us", dinic);
    metrics.set("maxflow.push_relabel_us", push_relabel);

    let topology = s.fleet.model(ModelId(largest)).expect("model planned");
    let lost = topology
        .nodes()
        .max_by(|a, b| a.flow.total_cmp(&b.flow).then(b.node.cmp(&a.node)))
        .expect("a planned model has nodes")
        .node;
    let replans: Vec<f64> = (0..5)
        .map(|_| {
            let mut fleet = s.fleet.clone();
            let delta = PlacementDelta::new().remove_node(lost, s.profiles.len());
            let _span = t.span("fleet.replan");
            let start = Instant::now();
            black_box(fleet.replan(&delta, &NodeObservations::new()))
                .expect("the fleet survives losing one node");
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    metrics.set("fleet.replan_us", median(&replans).unwrap_or(0.0));
    metrics.set("scheduling.iwrr_pick_ns", simrun::iwrr_pick_ns(t, topology));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;

    #[test]
    fn smoke_run_passes_its_checks() {
        let size = Size {
            regions: 6,
            iterations: 1200,
            setups: 1,
            closed_loop: 8,
            bursts: 2,
            burst: 12,
        };
        let tracer = Tracer::new(true);
        let ctx = Ctx::new(2, 0.0, true, &tracer, true);
        let (mut checks, mut metrics) = (Checks::default(), Metrics::default());
        let outcome = run(&ctx, &size, &mut checks, &mut metrics);
        assert!(checks.failures().is_empty(), "{:?}", checks.failures());
        assert_eq!(outcome.attempted, 2 * (1 + 8 + 24));
        assert_eq!(outcome.failed, 0);
        assert!(metrics.get("rtt_p50_us").unwrap() > 0.0);
        assert!(metrics.get("runtime.fabric_msgs").unwrap() > 0.0);
        assert!(metrics.get("placement.partition_ms").unwrap() > 0.0);
        assert_eq!(metrics.missing(crate::PER_LAYER), Vec::<&str>::new());
    }
}
