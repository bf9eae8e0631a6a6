//! `offline_milp`: the paper's Fig. 12 cluster (4×L4 + 6×T4, LLaMA-30B)
//! planned by the MILP planner, then a long offline trace served by the
//! simulator on that placement.
//!
//! The only workload that runs `helix_milp`.  Every request arrives at t=0
//! and [`ADMISSION_LIMIT`] of them are admitted at once, so hundreds of
//! requests are resident and the simulator's per-request cost is dominated
//! by its KV accounting; no prefixes, failures or runtime.

use crate::checks::Checks;
use crate::stats::median;
use crate::{flows, inputs, simrun, Ctx, Metrics, Outcome};
use helix::prelude::*;
use std::time::Duration;

/// Sizes of the workload (the smoke test runs a small copy).
pub struct Size {
    /// Requests in the offline trace.
    pub requests: usize,
    /// Branch-and-bound node budget of the MILP planner.
    pub node_budget: u64,
    /// Set-ups per run (their median is `setup_s`).
    pub setups: usize,
    /// Requests of the single-request closed loop per round.
    pub closed_loop: usize,
}

/// The benchmark's size.
pub const FULL: Size = Size {
    requests: 16_000,
    node_budget: 5,
    setups: 5,
    closed_loop: 100,
};

/// The offline trace: Azure-like lengths scaled down to 128 prompt / 32
/// output tokens on average, so a long trace stays affordable, dealt out
/// in an order set by `seed` (see [`inputs`]).
pub fn trace(requests: usize, seed: u64) -> Workload {
    short_requests(requests, inputs::LENGTH_SEED, seed)
}

/// `requests` short Azure-like requests drawn with `length_seed`, all
/// arriving at t=0, their lengths permuted by `seed`.
pub fn short_requests(requests: usize, length_seed: u64, seed: u64) -> Workload {
    let base = AzureTraceConfig {
        mean_input_tokens: 128.0,
        mean_output_tokens: 32.0,
        ..AzureTraceConfig::default()
    }
    .generate(requests, length_seed)
    .with_arrivals(ArrivalPattern::Offline, 0);
    inputs::permute_lengths(base, seed)
}

/// Requests admitted at once.  The simulator's default of 512 runs this
/// cluster's KV caches past capacity: there the simulated TPOT swings by 20%
/// and more with request order alone (1.31–1.61 s over five orders) and the
/// host cost per request rises ninefold.  At 256 the figures repeat within
/// 2% from order to order while hundreds of requests stay resident.
pub const ADMISSION_LIMIT: usize = 256;

/// The run-to-completion window: long enough that every request finishes
/// inside it.
fn config() -> SimulationConfig {
    SimulationConfig::offline(1e9)
        .with_warmup(0.0)
        .with_admission_limit(ADMISSION_LIMIT)
}

/// A MILP planner with a fixed node budget, no early stop and a time limit
/// that never binds, so the placement does not depend on the clock.
fn planner(profile: &ClusterProfile, node_budget: u64) -> MilpPlacementPlanner<'_> {
    MilpPlacementPlanner::with_options(
        profile,
        PlannerOptions {
            node_limit: node_budget,
            time_limit: Duration::from_secs(3600),
            early_stop_fraction: None,
            ..PlannerOptions::default()
        },
    )
}

struct Setup {
    trace: Workload,
    closed: Vec<Request>,
    profile: ClusterProfile,
    placement: ModelPlacement,
    report: MilpPlannerReport,
    topology: Topology,
}

fn setup(ctx: &Ctx, size: &Size) -> Setup {
    let t = ctx.tracer;
    let (trace, closed) = {
        let _span = t.span("workload.gen");
        let closed = short_requests(size.closed_loop, inputs::LENGTH_SEED + 1, ctx.seed);
        (trace(size.requests, ctx.seed), closed.requests().to_vec())
    };
    let profile =
        ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b());
    let (placement, report) = {
        let _span = t.span("milp.plan");
        planner(&profile, size.node_budget)
            .solve()
            .expect("the MILP planner places LLaMA-30B on the Fig. 12 cluster")
    };
    let topology = {
        let _span = t.span("topology.plan");
        Topology::plan(&profile, &placement, true).expect("the MILP placement plans")
    };
    Setup {
        trace,
        closed,
        profile,
        placement,
        report,
        topology,
    }
}

fn check_plan(checks: &mut Checks, s: &Setup) {
    checks.expect(s.placement.validate(&s.profile).is_ok(), || {
        "the MILP placement does not validate".into()
    });
    let objective = s.report.objective_tokens_per_sec;
    let independent = flows::max_flow(&s.profile, &s.placement, MaxFlowAlgorithm::PushRelabel);
    checks.expect(
        flows::agree(objective, independent) && flows::agree(objective, s.topology.flow_value()),
        || {
            format!(
                "MILP objective {objective} vs push-relabel {independent} vs topology {}",
                s.topology.flow_value()
            )
        },
    );
    let upper = s.profile.throughput_upper_bound();
    checks.expect(
        objective <= s.report.best_bound * (1.0 + 1e-9) && objective <= upper * (1.0 + 1e-9),
        || {
            format!(
                "MILP objective {objective} above its bound {} or the upper bound {upper}",
                s.report.best_bound
            )
        },
    );
}

/// Runs the workload: set-ups, then rounds of one bulk simulator run plus a
/// closed loop of single-request drains.
pub fn run(ctx: &Ctx, size: &Size, checks: &mut Checks, metrics: &mut Metrics) -> Outcome {
    let t = ctx.tracer;
    let mut plans = Vec::new();
    let set_up = || {
        let s = setup(ctx, size);
        plans.push(s.topology.flow_value().to_bits());
        s
    };
    let mut walls = Vec::new();
    let mut rtts = Vec::new();
    let mut failed = 0;
    let mut first: Option<(FleetRunReport, Vec<u64>)> = None;
    let (s, rounds) = ctx.measure(metrics, size.setups, set_up, |s, _| {
        let (report, wall) = simrun::bulk_run(t, &s.topology, &s.trace, config(), |_| {});
        walls.push(wall);
        failed += simrun::check_report(checks, &report, &s.trace, s.topology.flow_value());
        let print = simrun::fingerprint(&report);
        match &first {
            None => first = Some((report, print)),
            Some((_, p)) => checks.expect(*p == print, || "a repeated round differs".into()),
        }
        let (closed_rtts, closed_failed) =
            simrun::closed_loop(t, checks, &s.topology, &s.closed, config());
        rtts.extend(closed_rtts);
        failed += closed_failed;
        wall * 1e6 / s.trace.len() as f64
    });
    checks.expect(plans.windows(2).all(|w| w[0] == w[1]), || {
        format!("the MILP planned different throughputs across set-ups: {plans:?}")
    });
    check_plan(checks, &s);
    metrics.set("planned_tok_s", s.topology.flow_value());

    let (report, _) = first.expect("at least one round ran");
    simrun::end_to_end(ctx, metrics, &report, &s.trace, None, &walls, &rtts);

    if ctx.traced {
        metrics.not_called(&[
            "placement.anneal_moves_per_s",
            "placement.partition_ms",
            "placement.hier_plan_s",
            "fleet.plan_ms",
            "fleet.replan_us",
            "scheduling.prefix_route_ns",
            "runtime.build_ms",
            "runtime.submit_us",
            "runtime.wait_us",
            "runtime.drain_ms",
            "runtime.pipeline_depth_mean",
            "runtime.batches",
            "runtime.fabric_msgs",
        ]);
        metrics.set(
            "workload.gen_ms",
            median(&t.durations("workload.gen")).unwrap_or(0.0) * 1e3,
        );
        metrics.set(
            "milp.plan_s",
            median(&t.durations("milp.plan")).unwrap_or(0.0),
        );
        metrics.set("milp.bb_nodes", s.report.nodes_explored as f64);
        metrics.set(
            "milp.bb_nodes_per_s",
            s.report.nodes_explored as f64 / s.report.solve_seconds,
        );
        metrics.set("milp.best_bound_tok_s", s.report.best_bound);
        let root = {
            let _span = t.span("milp.root_lp");
            planner(&s.profile, 1)
                .solve()
                .expect("a one-node budget still returns the warm start")
                .1
        };
        metrics.set("milp.root_lp_s", root.solve_seconds);
        let (dinic, push_relabel) = flows::cold_solve_us(t, &s.profile, &s.placement, 200);
        metrics.set("maxflow.dinic_us", dinic);
        metrics.set("maxflow.push_relabel_us", push_relabel);
        metrics.set(
            "scheduling.iwrr_pick_ns",
            simrun::iwrr_pick_ns(t, &s.topology),
        );
        metrics.set("sim.run_s", median(&t.durations("sim.run")).unwrap_or(0.0));
        metrics.set(
            "sim.kv_used_tokens_ns",
            simrun::kv_used_tokens_ns(t, &s.topology, 512),
        );
        simrun::per_layer(metrics, &report);
    }
    let per_round = (s.trace.len() + s.closed.len()) as u64;
    Outcome {
        attempted: rounds as u64 * per_round,
        failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;

    #[test]
    fn smoke_run_passes_its_checks() {
        let size = Size {
            requests: 120,
            node_budget: 1,
            setups: 1,
            closed_loop: 4,
        };
        let tracer = Tracer::new(true);
        let ctx = Ctx::new(3, 0.0, true, &tracer, false);
        let (mut checks, mut metrics) = (Checks::default(), Metrics::default());
        let outcome = run(&ctx, &size, &mut checks, &mut metrics);
        assert!(checks.failures().is_empty(), "{:?}", checks.failures());
        assert_eq!(outcome.attempted, 2 * 124);
        assert_eq!(metrics.get("milp.bb_nodes"), Some(1.0));
        assert!(metrics.get("decode_tok_s").unwrap() > 0.0);
        assert!(metrics.get("maxflow.push_relabel_us").unwrap() > 0.0);
        assert_eq!(outcome.failed, 0);
        assert_eq!(metrics.missing(crate::PER_LAYER), Vec::<&str>::new());
    }

    #[test]
    fn the_trace_depends_only_on_the_seed() {
        assert_eq!(trace(50, 9), trace(50, 9));
        assert_ne!(trace(50, 9), trace(50, 10));
    }
}
