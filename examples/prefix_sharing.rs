//! Prefix-aware KV sharing: compute shared prefixes once per node.
//!
//! Serving workloads reuse long prompt prefixes — system prompts, few-shot
//! templates, multi-turn session history.  This example tags a workload with
//! shared prefixes (`Workload::with_shared_prefixes`), serves it on both
//! execution surfaces, and compares against the cache-blind twin of the same
//! workload (`Workload::without_prefixes`): identical token counts and
//! arrivals, but no request may share KV pages or skip prefill.
//!
//! Cache-aware routing (a `PrefixRouter` layered on the IWRR scheduler)
//! sends each sharer to the pipeline already holding its prefix; the shared
//! pool refcounts the resident pages so the prefix is materialised once per
//! node; prefill skips the shared range.  Both surfaces report what that
//! saved: hits, misses, skipped prefill tokens and shared pages.
//!
//! Run with: `cargo run --release --example prefix_sharing`
//!
//! CI runs this as a smoke test: it asserts the cache-aware run saves
//! prefill work and serves at least as fast as the cache-blind baseline.

use helix::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's 10-node study cluster serving LLaMA-2 13B.
    let profile =
        ClusterProfile::analytic(ClusterSpec::solver_quality_10(), ModelConfig::llama_13b());
    let placement = heuristics::swarm_placement(&profile)?;
    let topology = Topology::plan(&profile, &placement, true)?;

    // A prefill-dominated burst: 256-token prompts of which 224 are one of
    // eight shared templates, 8 output tokens, everything arriving at once
    // (so each template keeps a sharer in flight and its home stays warm).
    let requests: Vec<Request> = (0..80u64)
        .map(|id| Request {
            id,
            prompt_tokens: 256,
            output_tokens: 8,
            arrival_time: 0.0,
            ..Request::default()
        })
        .collect();
    let aware = Workload::new(requests).with_shared_prefixes(8, 224, 0.9);
    let blind = aware.clone().without_prefixes();

    // Simulator: the deterministic throughput comparison.
    let serve = |workload: &Workload| -> Result<FleetRunReport, Box<dyn std::error::Error>> {
        let scheduler = IwrrScheduler::from_topology(&topology)?;
        let sim = ClusterSimulator::new(&topology, Box::new(scheduler));
        let mut session = SimSession::new(sim, SimulationConfig::offline(3600.0).with_warmup(0.0));
        for request in workload.requests() {
            session.submit(*request);
        }
        Ok(session.finish())
    };
    let aware_report = serve(&aware)?;
    let blind_report = serve(&blind)?;
    let aware_tps = aware_report.metrics.overall.decode_throughput();
    let blind_tps = blind_report.metrics.overall.decode_throughput();
    println!("== simulator ==");
    println!(
        "  cache-aware : {:>7.1} tok/s  (hits {}, misses {}, {} prefill tokens skipped, {} shared pages)",
        aware_tps,
        aware_report.prefix.prefix_hits,
        aware_report.prefix.prefix_misses,
        aware_report.prefix.prefill_tokens_saved,
        aware_report.prefix.shared_pages,
    );
    println!("  cache-blind : {:>7.1} tok/s", blind_tps);
    println!("  speed-up    : {:>7.2}x", aware_tps / blind_tps.max(1e-9));

    // Prototype runtime: the same workload through the async surface.
    let runtime = |workload: &Workload| -> Result<RuntimeReport, Box<dyn std::error::Error>> {
        let session = ServingBuilder::new()
            .topology(&topology)
            .config(RuntimeConfig {
                wall_per_virtual: 0.0001,
                ..RuntimeConfig::default()
            })
            .build()?;
        Ok(session.serve(workload)?)
    };
    let rt_aware = runtime(&aware)?;
    println!("\n== prototype runtime ==");
    println!(
        "  completed {} requests; hits {}, misses {}, {} prefill tokens skipped, {} shared pages",
        rt_aware.completed(),
        rt_aware.prefix.prefix_hits,
        rt_aware.prefix.prefix_misses,
        rt_aware.prefix.prefill_tokens_saved,
        rt_aware.prefix.shared_pages,
    );

    // The smoke assertions CI relies on: sharing saved real prefill work on
    // both surfaces, and the cache-aware run is at least as fast as the
    // cache-blind baseline on the deterministic surface.
    assert!(
        aware_report.prefix.prefill_tokens_saved > 0,
        "the simulator skipped prefill work for shared prefixes"
    );
    assert!(
        rt_aware.prefix.prefill_tokens_saved > 0,
        "the runtime skipped prefill work for shared prefixes"
    );
    assert_eq!(rt_aware.completed(), 80);
    assert!(
        aware_tps >= blind_tps,
        "cache-aware throughput ({aware_tps:.1} tok/s) is at least cache-blind ({blind_tps:.1} tok/s)"
    );
    println!("\nprefix sharing smoke checks passed");
    Ok(())
}
