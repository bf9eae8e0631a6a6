//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <offline_milp|online_geo|fleet1008_runtime> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in this process: it sets the workload
//! up several times (the median is `setup_s`), then repeats whole rounds of
//! the same operations for `--seconds`, checks every output and prints the
//! metrics, ending with one JSON line.  `--trace 0` prints the end-to-end
//! metrics; `--trace 1` alternates untraced and traced rounds, records spans
//! around the benchmark's calls into each layer, writes them to
//! `benchmark/out/` as Chrome trace-event JSON and prints the per-layer
//! metrics plus the tracing overhead.  See `benchmark/README.md`.

mod calibrate;
mod checks;
mod fleet_runtime;
mod flows;
mod inputs;
mod offline_milp;
mod online_geo;
mod simrun;
mod stats;
mod trace;

use checks::Checks;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("planned_tok_s", "tok/s"),
    ("decode_tok_s", "tok/s"),
    ("host_us_per_req", "us"),
    ("ttft_p50_s", "s"),
    ("ttft_p95_s", "s"),
    ("tpot_p50_s", "s"),
    ("tpot_p95_s", "s"),
    ("goodput_req_s", "req/s"),
    ("rtt_p50_us", "us"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`.  A layer a
/// workload does not call reads 0 there; each workload names those layers
/// itself (see [`Metrics::not_called`]), so a metric it forgets to set fails
/// the run's completeness check.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.overhead_pct", "%"),
    ("workload.gen_ms", "ms"),
    ("milp.plan_s", "s"),
    ("milp.bb_nodes", "count"),
    ("milp.bb_nodes_per_s", "1/s"),
    ("milp.root_lp_s", "s"),
    ("milp.best_bound_tok_s", "tok/s"),
    ("maxflow.dinic_us", "us"),
    ("maxflow.push_relabel_us", "us"),
    ("placement.anneal_moves_per_s", "1/s"),
    ("placement.partition_ms", "ms"),
    ("placement.hier_plan_s", "s"),
    ("fleet.plan_ms", "ms"),
    ("fleet.replan_us", "us"),
    ("scheduling.iwrr_pick_ns", "ns"),
    ("scheduling.prefix_route_ns", "ns"),
    ("prefix.hits", "count"),
    ("prefix.prefill_tokens_saved", "count"),
    ("sim.run_s", "s"),
    ("sim.kv_used_tokens_ns", "ns"),
    ("sim.intervals", "count"),
    ("sim.node_util_mean", "fraction"),
    ("sim.link_mb", "MB"),
    ("sim.link_queue_ms_mean", "ms"),
    ("ha.replica_mb", "MB"),
    ("ha.promoted", "count"),
    ("ha.aborted", "count"),
    ("ha.tokens_recomputed", "count"),
    ("runtime.build_ms", "ms"),
    ("runtime.submit_us", "us"),
    ("runtime.wait_us", "us"),
    ("runtime.drain_ms", "ms"),
    ("runtime.pipeline_depth_mean", "count"),
    ("runtime.batches", "count"),
    ("runtime.fabric_msgs", "count"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["offline_milp", "online_geo", "fleet1008_runtime"];

/// The metrics one run measured, by name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
    /// Printed with the table but not part of the JSON result.
    notes: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    /// Records a metric listed in [`END_TO_END`] or [`PER_LAYER`].
    ///
    /// # Panics
    ///
    /// Panics on an unlisted name: the lists and `BENCHMARK.json` define
    /// what a run reports.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not listed"
        );
        self.values.insert(name, value);
    }

    /// Records 0 for per-layer metrics of layers the workload does not call.
    pub fn not_called(&mut self, names: &[&'static str]) {
        for name in names {
            self.set(name, 0.0);
        }
    }

    /// Records a figure that is printed but not gated.
    pub fn note(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.notes.push((name, value, unit));
    }

    /// The metrics of `listed` that were not recorded or are not finite.
    pub fn missing(&self, listed: &[(&'static str, &str)]) -> Vec<&'static str> {
        listed
            .iter()
            .map(|(name, _)| *name)
            .filter(|name| !self.values.get(name).is_some_and(|v| v.is_finite()))
            .collect()
    }

    /// A recorded value (tests read metrics back through this).
    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// How one run is driven.
pub struct Ctx<'a> {
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the measured rounds run, in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub traced: bool,
    /// Span recorder (enabled only in traced rounds and set-ups).
    pub tracer: &'a Tracer,
    /// Whether the workload's set-up keeps two threads busy.
    parallel_setup: bool,
    /// One calibration buffer per calibration thread.
    scratch: RefCell<Vec<calibrate::Scratch>>,
    /// Milliseconds of each one-thread calibration pass taken so far.
    passes: RefCell<Vec<f64>>,
    /// Milliseconds of each two-thread calibration pass taken so far (none
    /// unless the set-up is parallel).
    setup_passes: RefCell<Vec<f64>>,
}

impl<'a> Ctx<'a> {
    /// A run with no calibration passes yet.
    pub fn new(
        seed: u64,
        seconds: f64,
        traced: bool,
        tracer: &'a Tracer,
        parallel_setup: bool,
    ) -> Self {
        let buffers = if parallel_setup { 2 } else { 1 };
        Ctx {
            seed,
            seconds,
            traced,
            tracer,
            parallel_setup,
            scratch: RefCell::new((0..buffers).map(|_| calibrate::Scratch::new()).collect()),
            passes: RefCell::new(Vec::new()),
            setup_passes: RefCell::new(Vec::new()),
        }
    }

    /// Times three one-thread calibration passes.
    fn calibrate(&self) {
        let mut scratch = self.scratch.borrow_mut();
        let mut passes = self.passes.borrow_mut();
        passes.extend((0..3).map(|_| calibrate::pass_ms(&mut scratch[..1])));
    }

    /// Times the calibration passes before a set-up: three on one thread
    /// and, for a parallel set-up, three on two threads at once.
    fn calibrate_setup(&self) {
        self.calibrate();
        if self.parallel_setup {
            let mut scratch = self.scratch.borrow_mut();
            let mut passes = self.setup_passes.borrow_mut();
            passes.extend((0..3).map(|_| calibrate::pass_ms(&mut scratch)));
        }
    }

    /// How much slower than the reference machine this one ran: the median
    /// one-thread calibration pass over [`calibrate::NOMINAL_MS`] (1 before
    /// any pass).
    pub fn slowdown(&self) -> f64 {
        stats::median(&self.passes.borrow()).map_or(1.0, |ms| ms / calibrate::NOMINAL_MS)
    }

    /// The slowdown `setup_s` is scaled by: [`Ctx::slowdown`] for a
    /// one-thread set-up; for a parallel set-up, the geometric mean of that
    /// and the same ratio measured on two threads at once (see
    /// [`calibrate`]).
    fn setup_slowdown(&self) -> f64 {
        if !self.parallel_setup {
            return self.slowdown();
        }
        let parallel = stats::median(&self.setup_passes.borrow())
            .map_or(1.0, |ms| ms / calibrate::NOMINAL_MS_TWO_THREADS);
        (self.slowdown() * parallel).sqrt()
    }

    /// A wall-clock duration scaled to the reference machine.
    pub fn wall_time(&self, measured: f64) -> f64 {
        measured / self.slowdown()
    }

    /// Sets the workload up, then repeats whole rounds until they have taken
    /// `seconds` (at least one round; two in a traced run), and returns the
    /// first set-up with the number of rounds.  Set-ups and calibration
    /// passes do not count against `seconds`.
    ///
    /// The workload is set up `setups` times in all: once before the first
    /// round and then once after each round (any left over after the last),
    /// so that `setup_s`, the median, samples the machine across the run
    /// rather than in one stretch.  In a traced run even rounds are untraced
    /// and odd rounds traced; `round` returns the round's wall cost per
    /// operation, and the traced rounds' median excess over the untraced
    /// ones is recorded as `trace.overhead_pct`.  Calibration passes run
    /// before every set-up and every round; `setup_s` is scaled by
    /// [`Ctx::setup_slowdown`], everything else by [`Ctx::slowdown`] (see
    /// [`calibrate`]).
    pub fn measure<S>(
        &self,
        metrics: &mut Metrics,
        setups: usize,
        mut setup: impl FnMut() -> S,
        mut round: impl FnMut(&S, usize) -> f64,
    ) -> (S, usize) {
        let mut walls = Vec::with_capacity(setups);
        let mut timed_setup = |walls: &mut Vec<f64>| {
            self.calibrate_setup();
            self.tracer.set_enabled(self.traced);
            let _span = self.tracer.span("setup");
            let start = Instant::now();
            let set_up = setup();
            walls.push(start.elapsed().as_secs_f64());
            set_up
        };
        let first = timed_setup(&mut walls);
        let mut measured = 0.0;
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let min_rounds = if self.traced { 2 } else { 1 };
        let mut n = 0;
        while n < min_rounds || measured < self.seconds {
            let trace_this = self.traced && n % 2 == 1;
            self.calibrate();
            self.tracer.set_enabled(trace_this);
            let start = Instant::now();
            let cost = {
                let _span = self.tracer.span("round");
                round(&first, n)
            };
            measured += start.elapsed().as_secs_f64();
            if trace_this { &mut traced } else { &mut plain }.push(cost);
            n += 1;
            if walls.len() < setups {
                drop(timed_setup(&mut walls));
            }
        }
        while walls.len() < setups {
            drop(timed_setup(&mut walls));
        }
        self.tracer.set_enabled(self.traced);
        metrics.set(
            "setup_s",
            stats::median(&walls).unwrap_or(0.0) / self.setup_slowdown(),
        );
        metrics.note("machine_slowdown", self.slowdown(), "x");
        if self.parallel_setup {
            metrics.note("setup_slowdown", self.setup_slowdown(), "x");
        }
        if let (Some(p), Some(t)) = (stats::median(&plain), stats::median(&traced)) {
            metrics.set("trace.overhead_pct", (t - p) / p * 100.0);
        }
        (first, n)
    }
}

/// What one workload run produced.
pub struct Outcome {
    /// Operations (requests submitted) attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds >= 0.0 && f64::is_finite(seconds)) {
                    return Err("--seconds must be a finite non-negative number".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Runs one workload at full size.
fn run_workload(ctx: &Ctx, name: &str, checks: &mut Checks, metrics: &mut Metrics) -> Outcome {
    match name {
        "offline_milp" => offline_milp::run(ctx, &offline_milp::FULL, checks, metrics),
        "online_geo" => online_geo::run(ctx, &online_geo::FULL, checks, metrics),
        "fleet1008_runtime" => fleet_runtime::run(ctx, &fleet_runtime::FULL, checks, metrics),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

/// The JSON result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding every metric of `listed`.
fn result_json(
    correct: bool,
    outcome: &Outcome,
    metrics: &Metrics,
    listed: &[(&str, &str)],
) -> String {
    let body: Vec<String> = listed
        .iter()
        .map(|(name, unit)| {
            let value = metrics.values.get(name).copied().unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    // The fleet's planner anneals on two threads.
    let parallel_setup = args.workload == "fleet1008_runtime";
    let ctx = Ctx::new(args.seed, args.seconds, args.trace, &tracer, parallel_setup);
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    let outcome = run_workload(&ctx, &args.workload, &mut checks, &mut metrics);
    metrics.set("peak_rss_mb", stats::peak_rss_mib().unwrap_or(0.0));

    let listed = if args.trace { PER_LAYER } else { END_TO_END };
    for name in metrics.missing(listed) {
        let value = metrics.values.get(name);
        checks.expect(false, || {
            format!("metric {name} is missing or not finite: {value:?}")
        });
    }
    for failure in checks.failures() {
        eprintln!("CHECK FAILED: {failure}");
    }
    if args.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        match std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, tracer.chrome_json()))
        {
            Ok(()) => println!("{} spans written to {}", tracer.len(), path.display()),
            Err(e) => eprintln!("could not write the trace: {e}"),
        }
    }
    println!(
        "workload {} seed {} ({} mode): {} attempted, {} failed",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        outcome.attempted,
        outcome.failed
    );
    for (name, unit) in listed {
        let value = metrics.values.get(name).copied().unwrap_or(f64::NAN);
        println!("  {name:<30} {value:>18.6} {unit}");
    }
    for (name, value, unit) in &metrics.notes {
        println!("  {name:<30} {value:>18.6} {unit}   (not gated)");
    }
    let correct = checks.failures().is_empty();
    println!("{}", result_json(correct, &outcome, &metrics, listed));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let a = args("--workload online_geo --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("online_geo", 7, 3.0, true)
        );
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload online_geo --trace 2").is_err());
        assert!(args("--workload online_geo --seconds -1").is_err());
        assert!(args("--workload online_geo --seed").is_err());
    }

    #[test]
    fn result_json_has_exactly_the_four_keys() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.5);
        let json = result_json(
            true,
            &Outcome {
                attempted: 3,
                failed: 0,
            },
            &m,
            &END_TO_END[..1],
        );
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }

    /// The string values of `key` inside the JSON array named `list`
    /// (enough of a reader for `BENCHMARK.json`, whose arrays hold flat
    /// objects).
    fn strings_in(text: &str, list: &str, key: &str) -> Vec<String> {
        let at = text.find(&format!("\"{list}\"")).expect("list present");
        let open = at + text[at..].find('[').expect("list is an array");
        let close = open + text[open..].find(']').expect("array closes");
        let needle = format!("\"{key}\"");
        text[open..close]
            .match_indices(&needle)
            .map(|(i, _)| {
                let rest = &text[open + i + needle.len()..];
                let rest = &rest[rest.find('"').expect("string value") + 1..];
                rest[..rest.find('"').expect("string ends")].to_string()
            })
            .collect()
    }

    /// The metric lists here and in `BENCHMARK.json` must not drift apart.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        for (list, own) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let names: Vec<&str> = own.iter().map(|(n, _)| *n).collect();
            let units: Vec<&str> = own.iter().map(|(_, u)| *u).collect();
            assert_eq!(strings_in(&text, list, "name"), names, "{list} names");
            assert_eq!(strings_in(&text, list, "unit"), units, "{list} units");
        }
        assert_eq!(strings_in(&text, "workloads", "name"), WORKLOADS);
    }
}
