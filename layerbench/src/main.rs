//! The mechanism service's benchmark: three workloads driven through
//! `platform::MechanismService`'s public API, end-to-end metrics from
//! untraced runs and per-layer metrics from a separate traced run.
//!
//! ```text
//! layerbench --workload <hit_zipf|cold_sweep|trace_budget> --seed <n> \
//!            --seconds <s> --trace <0|1> [--repeat-check]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Any failed output
//! check makes the command exit with status 1. `--repeat-check` runs the
//! workload twice with `--seed` and once with `--seed + 1`, and fails
//! unless the two same-seed runs report identical deterministic work
//! counts. See `layerbench/README.md` for the workloads and the
//! per-layer to end-to-end map.

mod cold_sweep;
mod common;
mod hit_zipf;
mod measure;
mod spans;
mod trace_budget;

use std::path::PathBuf;
use std::process::ExitCode;

use crate::spans::Tracer;

/// End-to-end metrics: name, unit. Every workload reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("etdd_km", "km"),
    ("served_share", "ratio"),
];

/// Per-layer metrics of the traced run: name, unit, which way is better.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("roadnet.all_pairs_ms", "ms", "lower"),
    ("roadnet.partition_ms", "ms", "lower"),
    ("roadnet.dijkstra_runs", "count", "lower"),
    ("roadnet.settled_nodes", "count", "lower"),
    ("core.discretize_ms", "ms", "lower"),
    ("core.aux_build_ms", "ms", "lower"),
    ("core.cost_build_ms", "ms", "lower"),
    ("core.intervals_k", "count", "lower"),
    ("cr.reduce_ms", "ms", "lower"),
    ("cr.constraints_reduced", "count", "lower"),
    ("cr.reduction_ratio", "ratio", "lower"),
    ("lp.solves", "count", "lower"),
    ("lp.pivots", "count", "lower"),
    ("lp.ns_per_pivot", "ns", "lower"),
    ("lp.warm_hit_rate", "ratio", "higher"),
    ("lp.refactorizations", "count", "lower"),
    ("lp.phase1_skipped", "count", "higher"),
    ("cg.iterations", "count", "lower"),
    ("cg.columns_added", "count", "lower"),
    ("cg.master_ms", "ms", "lower"),
    ("cg.pricing_ms", "ms", "lower"),
    ("cg.pricing_share", "ratio", "lower"),
    ("cg.master_pivots", "count", "lower"),
    ("cg.pricing_pivots", "count", "lower"),
    ("cg.gap_rel", "ratio", "lower"),
    ("cg.stall_exits", "count", "lower"),
    ("cg.floor_losses", "count", "lower"),
    ("tiers.exact_ms", "ms", "lower"),
    ("tiers.clustered_ms", "ms", "lower"),
    ("tiers.spanner_ms", "ms", "lower"),
    ("tiers.lp_vars", "count", "lower"),
    ("tiers.etdd_exact_km", "km", "lower"),
    ("tiers.etdd_clustered_km", "km", "lower"),
    ("tiers.etdd_spanner_km", "km", "lower"),
    ("tiers.etdd_laplace_km", "km", "lower"),
    ("local.neighborhoods", "count", "lower"),
    ("local.max_lp_vars", "count", "lower"),
    ("local.solve_ms", "ms", "lower"),
    ("mech.locate_ns", "ns", "lower"),
    ("mech.sample_ns", "ns", "lower"),
    ("mech.transplant_ns", "ns", "lower"),
    ("service.route_ns", "ns", "lower"),
    ("service.hit_self_ns", "ns", "lower"),
    ("service.hit_ratio", "ratio", "higher"),
    ("service.scaling_2v1", "ratio", "higher"),
    ("service.queue_wait_ms", "ms", "lower"),
    ("service.enqueued", "count", "lower"),
    ("service.coalesced", "count", "lower"),
    ("service.solves", "count", "lower"),
    ("trace.charges", "count", "higher"),
    ("trace.throttled", "count", "lower"),
    ("trace.refusals", "count", "lower"),
    ("trace.served_ns", "ns", "lower"),
    ("trace.refused_ns", "ns", "lower"),
    ("trace.accountant_ns", "ns", "lower"),
    ("mem.peak_rss_mb", "MB", "lower"),
    ("bench.tracing_overhead_pct", "%", "lower"),
];

/// Command-line settings of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub repeat_check: bool,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end values by name (untraced runs).
    pub e2e: Vec<(&'static str, f64)>,
    /// Per-layer values by name (traced runs).
    pub layers: Vec<(&'static str, f64)>,
    /// Deterministic work counts: identical on every run with one seed.
    pub work: Vec<(String, String)>,
    /// Human-readable facts printed with the result, such as which
    /// order statistic a tail latency is.
    pub notes: Vec<String>,
    /// Failed output checks.
    pub errors: Vec<String>,
}

impl Report {
    pub fn work(&mut self, name: impl Into<String>, value: impl std::fmt::Display) {
        self.work.push((name.into(), value.to_string()));
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        repeat_check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--repeat-check" {
            args.repeat_check = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn run(args: &Args, tracer: &Tracer) -> Report {
    // Counter deltas only: nothing recorded before this workload (or by
    // a previous one in the same process) can leak into its numbers.
    vlp_obs::global().reset();
    let mut report = match args.workload.as_str() {
        "hit_zipf" => hit_zipf::run(args, tracer),
        "cold_sweep" => cold_sweep::run(args, tracer),
        "trace_budget" => trace_budget::run(args, tracer),
        other => unreachable!("workload {other} is validated in main"),
    };
    // Peak RSS is a per-layer metric, not an end-to-end one: in
    // `cold_sweep` it is bimodal (about 620 or 800 MB) depending on how
    // glibc reuses the arenas of the per-round pricing threads, which no
    // end-to-end bound could hold.
    let rss = measure::peak_rss_mb();
    report.notes.push(format!("peak_rss_mb (VmHWM) = {rss} MB"));
    if let Some(slot) = report
        .layers
        .iter_mut()
        .find(|(n, _)| *n == "mem.peak_rss_mb")
    {
        slot.1 = rss;
    }
    report
}

fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric values are finite");
    format!("{v}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("layerbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !["hit_zipf", "cold_sweep", "trace_budget"].contains(&args.workload.as_str()) {
        eprintln!("layerbench: --workload must be hit_zipf, cold_sweep or trace_budget");
        return ExitCode::from(2);
    }
    if args.repeat_check {
        return repeat_check(&args);
    }
    let tracer = Tracer::new();
    let report = run(&args, &tracer);

    println!(
        "workload {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for (k, v) in measure::fingerprint() {
        println!("machine {k}: {v}");
    }
    for note in &report.notes {
        println!("note {note}");
    }
    for (k, v) in &report.work {
        println!("work {k} = {v}");
    }
    let shown: Vec<(&str, f64, &str)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| {
                let v = report
                    .layers
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|&(_, v)| v)
                    .expect("every per-layer metric is reported");
                (name, v, unit)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let v = report
                    .e2e
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|&(_, v)| v)
                    .expect("every end-to-end metric is reported");
                (name, v, unit)
            })
            .collect()
    };
    for &(name, v, unit) in &shown {
        println!("metric {name} = {} {unit}", json_number(v));
    }
    // Failed operations are the result line's `failed` / `attempted`,
    // not a metric: the share is 0 whenever the program is correct.
    println!(
        "metric failed_share = {} ratio",
        json_number(report.failed as f64 / report.attempted.max(1) as f64)
    );
    if args.trace {
        let out = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write(&out, 20_000) {
            Ok(()) => println!("spans {} written to {}", tracer.span_count(), out.display()),
            Err(e) => eprintln!("layerbench: writing spans to {}: {e}", out.display()),
        }
        for (name, s) in tracer.summary() {
            println!(
                "span {name}: count {} total {:.3} ms self {:.3} ms",
                s.count,
                s.total_ns as f64 / 1e6,
                s.self_ns as f64 / 1e6
            );
        }
    }
    for e in &report.errors {
        println!("CHECK FAILED: {e}");
    }
    let correct = report.errors.is_empty() && report.failed == 0;
    let metrics: Vec<String> = shown
        .iter()
        .map(|&(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn report_error(errors: &mut Vec<String>, e: &str) {
    eprintln!("layerbench: {e}");
    errors.push(e.to_string());
}

/// Runs the workload twice with one seed and once with the next, and
/// compares the deterministic work counts of the first two.
fn repeat_check(args: &Args) -> ExitCode {
    let mut failures = Vec::new();
    let mut runs = Vec::new();
    for seed in [args.seed, args.seed, args.seed + 1] {
        let a = Args {
            workload: args.workload.clone(),
            seed,
            seconds: args.seconds,
            trace: args.trace,
            repeat_check: false,
        };
        let report = run(&a, &Tracer::new());
        for e in &report.errors {
            report_error(&mut failures, &format!("seed {seed}: {e}"));
        }
        if report.failed > 0 {
            report_error(
                &mut failures,
                &format!("seed {seed}: {} failed operations", report.failed),
            );
        }
        runs.push(report.work);
    }
    for ((k, a), (_, b)) in runs[0].iter().zip(&runs[1]) {
        let same = if a == b { "identical" } else { "DIFFERS" };
        println!("work {k}: {a} | {b} -> {same}");
        if a != b {
            report_error(
                &mut failures,
                &format!("work count {k} differs: {a} vs {b}"),
            );
        }
    }
    if runs[0].len() != runs[1].len() {
        report_error(&mut failures, "work count lists differ in length");
    }
    println!(
        "repeat-check {}: {} work counts compared; seed {} ran {}",
        args.workload,
        runs[0].len(),
        args.seed + 1,
        if failures.is_empty() {
            "clean"
        } else {
            "with failures"
        }
    );
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
