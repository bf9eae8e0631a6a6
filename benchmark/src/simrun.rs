//! What the two simulator workloads share: one bulk run of a trace through
//! a `SimSession`, a closed loop of single-request drains, the checks on a
//! simulator report and the metrics read from it.

use crate::checks::Checks;
use crate::stats::{median, quantile, LatencyLimits};
use crate::trace::Tracer;
use crate::{Ctx, Metrics};
use helix::prelude::*;
use helix::sim::NodeEngine;
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

/// Builds a fresh simulator over `topology` with IWRR scheduling.
pub fn simulator(tracer: &Tracer, topology: &Topology) -> ClusterSimulator {
    let _span = tracer.span("sim.build");
    let scheduler = IwrrScheduler::from_topology(topology).expect("a planned topology seeds IWRR");
    ClusterSimulator::new(topology, Box::new(scheduler))
}

/// One bulk run: every request of `trace` submitted to one session, which
/// `prepare` may perturb first.  Returns the report and the wall seconds of
/// the run itself (submission to report).
pub fn bulk_run(
    tracer: &Tracer,
    topology: &Topology,
    trace: &Workload,
    config: SimulationConfig,
    prepare: impl FnOnce(&mut SimSession),
) -> (FleetRunReport, f64) {
    let mut session = SimSession::new(simulator(tracer, topology), config);
    prepare(&mut session);
    let _span = tracer.span("sim.run");
    let start = Instant::now();
    for request in trace.requests() {
        session.submit(*request);
    }
    let report = session.finish();
    (report, start.elapsed().as_secs_f64())
}

/// A closed loop of one caller: each request is submitted alone, drained,
/// and its completion read back before the next is sent.  Returns the wall
/// round trip of each request in microseconds and the number of requests
/// that did not complete alone.
pub fn closed_loop(
    tracer: &Tracer,
    checks: &mut Checks,
    topology: &Topology,
    requests: &[Request],
    config: SimulationConfig,
) -> (Vec<f64>, u64) {
    let mut session = SimSession::new(simulator(tracer, topology), config);
    let mut rtts = Vec::with_capacity(requests.len());
    let mut failed = 0;
    for (done, request) in requests.iter().enumerate() {
        let request = Request {
            arrival_time: 0.0,
            ..*request
        };
        let _span = tracer.span_for("sim.drain", request.id);
        let start = Instant::now();
        session.submit(request);
        session.drain();
        let completions = session.report().map_or(&[][..], |r| &r.completions[..]);
        rtts.push(start.elapsed().as_secs_f64() * 1e6);
        let alone = completions.len() == done + 1 && completions[done].id == request.id;
        failed += u64::from(!alone);
        checks.expect(alone, || {
            format!("closed-loop request {} did not complete alone", request.id)
        });
    }
    (rtts, failed)
}

/// Checks a bulk report against the trace it served and returns the number
/// of the trace's requests that did not complete exactly once.
pub fn check_report(
    checks: &mut Checks,
    report: &FleetRunReport,
    trace: &Workload,
    planned: f64,
) -> u64 {
    let mut seen: HashMap<u64, usize> = HashMap::new();
    for c in &report.completions {
        *seen.entry(c.id).or_default() += 1;
    }
    let once = trace.iter().filter(|r| seen.get(&r.id) == Some(&1)).count();
    checks.expect(once == trace.len() && seen.len() == trace.len(), || {
        format!(
            "{} of {} requests completed exactly once ({} distinct ids completed)",
            once,
            trace.len(),
            seen.len()
        )
    });
    let overall = &report.metrics.overall;
    // A request aborted by a node failure and re-admitted from scratch
    // decodes its lost progress again, and the simulator counts those
    // tokens too; they can only come from aborted requests.
    let asked = trace.total_output_tokens();
    let aborted: HashSet<u64> = report
        .failovers
        .iter()
        .flat_map(|f| f.aborted.iter().copied())
        .collect();
    let redecodable: u64 = trace
        .iter()
        .filter(|r| aborted.contains(&r.id))
        .map(|r| r.output_tokens as u64)
        .sum();
    checks.expect(
        overall.decode_tokens >= asked && overall.decode_tokens <= asked + redecodable,
        || {
            format!(
                "decoded {} tokens; the trace asks for {asked}, and aborted requests \
                 could re-decode at most {redecodable} more",
                overall.decode_tokens
            )
        },
    );
    for f in &report.failovers {
        checks.expect(
            f.tokens_recomputed + f.replica_tokens_used == f.abort_recompute_tokens,
            || format!("fail-over of {} does not balance: {f:?}", f.node),
        );
    }
    let decode = overall.decode_throughput();
    checks.expect(decode > 0.0 && decode <= planned, || {
        format!("simulated decode {decode} tok/s outside (0, planned {planned}]")
    });
    (trace.len() - once) as u64
}

/// The figures of a bulk report that repeat exactly from run to run; two
/// rounds on the same inputs must agree on all of them.
pub fn fingerprint(report: &FleetRunReport) -> Vec<u64> {
    let m = &report.metrics.overall;
    let mut v = vec![
        m.decode_tokens,
        m.completed_requests,
        m.measured_seconds.to_bits(),
        m.prompt_latency.p50.to_bits(),
        m.prompt_latency.p95.to_bits(),
        m.decode_latency.p50.to_bits(),
        m.decode_latency.p95.to_bits(),
        report.intervals.len() as u64,
        report.prefix.prefix_hits,
        report.prefix.prefill_tokens_saved,
        report.replication.bytes.to_bits(),
    ];
    v.extend(report.completions.iter().map(|c| c.id));
    v.extend(report.failovers.iter().map(|f| f.tokens_recomputed));
    v
}

/// Requests per simulated second that met `limits` (every completion when
/// `limits` is `None`, as in offline serving, which has no latency limit).
pub fn goodput(report: &FleetRunReport, trace: &Workload, limits: Option<LatencyLimits>) -> f64 {
    let specs: HashMap<u64, &Request> = trace.iter().map(|r| (r.id, r)).collect();
    let good = report
        .completions
        .iter()
        .filter(|c| {
            limits.is_none_or(|l| {
                let r = specs[&c.id];
                l.met(r.arrival_time, r.output_tokens, c.at)
            })
        })
        .count();
    good as f64 / report.metrics.overall.measured_seconds
}

/// The end-to-end figures of a simulator workload.
pub fn end_to_end(
    ctx: &Ctx,
    metrics: &mut Metrics,
    report: &FleetRunReport,
    trace: &Workload,
    limits: Option<LatencyLimits>,
    bulk_walls: &[f64],
    rtts_us: &[f64],
) {
    let m = &report.metrics.overall;
    metrics.set("decode_tok_s", m.decode_throughput());
    metrics.set("ttft_p50_s", m.prompt_latency.p50);
    metrics.set("ttft_p95_s", m.prompt_latency.p95);
    metrics.set("tpot_p50_s", m.decode_latency.p50);
    metrics.set("tpot_p95_s", m.decode_latency.p95);
    metrics.set("goodput_req_s", goodput(report, trace, limits));
    let per_req: Vec<f64> = bulk_walls
        .iter()
        .map(|w| w * 1e6 / trace.len() as f64)
        .collect();
    metrics.set(
        "host_us_per_req",
        ctx.wall_time(median(&per_req).unwrap_or(0.0)),
    );
    metrics.set("rtt_p50_us", ctx.wall_time(median(rtts_us).unwrap_or(0.0)));
    metrics.note(
        "rtt_p99_us",
        ctx.wall_time(quantile(rtts_us, 0.99).unwrap_or(0.0)),
        "us",
    );
}

/// The per-layer figures read from a simulator report.
pub fn per_layer(metrics: &mut Metrics, report: &FleetRunReport) {
    let m = &report.metrics.overall;
    metrics.set("sim.intervals", report.intervals.len() as f64);
    let utils: Vec<f64> = m.node_utilization.values().copied().collect();
    metrics.set(
        "sim.node_util_mean",
        utils.iter().sum::<f64>() / utils.len().max(1) as f64,
    );
    metrics.set(
        "sim.link_mb",
        m.link_stats.iter().map(|l| l.bytes).sum::<f64>() / 1e6,
    );
    let transfers: u64 = m.link_stats.iter().map(|l| l.transfers).sum();
    let queued: f64 = m
        .link_stats
        .iter()
        .map(|l| l.mean_queue_delay * l.transfers as f64)
        .sum();
    metrics.set(
        "sim.link_queue_ms_mean",
        queued * 1e3 / transfers.max(1) as f64,
    );
    metrics.set("prefix.hits", report.prefix.prefix_hits as f64);
    metrics.set(
        "prefix.prefill_tokens_saved",
        report.prefix.prefill_tokens_saved as f64,
    );
    metrics.set("ha.replica_mb", report.replication.bytes / 1e6);
    metrics.set(
        "ha.promoted",
        report
            .failovers
            .iter()
            .map(|f| f.promoted.len())
            .sum::<usize>() as f64,
    );
    metrics.set(
        "ha.aborted",
        report
            .failovers
            .iter()
            .map(|f| f.aborted.len())
            .sum::<usize>() as f64,
    );
    metrics.set(
        "ha.tokens_recomputed",
        report
            .failovers
            .iter()
            .map(|f| f.tokens_recomputed)
            .sum::<u64>() as f64,
    );
}

/// Nanoseconds per `NodeEngine::kv_used_tokens` call on the engine of the
/// topology's first node with `residents` seeded resident requests.
pub fn kv_used_tokens_ns(tracer: &Tracer, topology: &Topology, residents: u64) -> f64 {
    let node = topology
        .nodes()
        .next()
        .expect("a planned topology has nodes");
    let profile = topology.profile().node_profile(node.node);
    let mut engine = NodeEngine::new(profile, node.layers.len(), node.kv_capacity_tokens);
    for id in 0..residents {
        engine.seed_kv(id, 64.0 + id as f64);
    }
    const CALLS: u32 = 20_000;
    let _span = tracer.span("sim.kv_used_tokens");
    let start = Instant::now();
    let mut total = 0.0;
    for _ in 0..CALLS {
        total += black_box(&engine).kv_used_tokens();
    }
    black_box(total);
    start.elapsed().as_secs_f64() * 1e9 / f64::from(CALLS)
}

/// Nanoseconds per IWRR pipeline pick on `topology` with an idle cluster.
pub fn iwrr_pick_ns(tracer: &Tracer, topology: &Topology) -> f64 {
    let mut scheduler =
        IwrrScheduler::from_topology(topology).expect("a planned topology seeds IWRR");
    const PICKS: u32 = 20_000;
    let _span = tracer.span("scheduling.iwrr_pick");
    let start = Instant::now();
    for _ in 0..PICKS {
        let pipeline = scheduler
            .schedule(&helix::core::IdleClusterState)
            .expect("an idle cluster always has a pipeline");
        black_box(pipeline);
    }
    start.elapsed().as_secs_f64() * 1e9 / f64::from(PICKS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix::core::heuristics::swarm_placement;

    #[test]
    fn a_lost_or_repeated_completion_counts_as_failed() {
        let profile =
            ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_30b());
        let placement = swarm_placement(&profile).expect("swarm places LLaMA-30B");
        let topology = Topology::plan(&profile, &placement, true).expect("the placement plans");
        let trace = crate::offline_milp::trace(30, 1);
        let config = SimulationConfig::offline(1e9).with_warmup(0.0);
        let tracer = Tracer::new(false);
        let (mut report, _) = bulk_run(&tracer, &topology, &trace, config, |_| {});
        let planned = topology.flow_value();

        let mut checks = Checks::default();
        assert_eq!(check_report(&mut checks, &report, &trace, planned), 0);
        assert!(checks.failures().is_empty(), "{:?}", checks.failures());

        // One request completes twice and another never does.
        let first = report.completions[0];
        report.completions.pop();
        report.completions.push(first);
        let mut checks = Checks::default();
        assert_eq!(check_report(&mut checks, &report, &trace, planned), 2);
        assert!(!checks.failures().is_empty());
    }
}
