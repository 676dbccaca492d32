//! `trace_budget`: reads with writes. A fleet's continuous report
//! stream is served through the per-vehicle trace-budget accountant:
//! the same hit path as `hit_zipf`, but every report also writes the
//! vehicle's ledger under the accountant's lock, and refusals take
//! their own short path.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mobility::TripConfig;
use platform::{
    MechanismService, Obfuscation, Response, Served, ServiceConfig, ServiceHandle,
    TraceBudgetConfig, VelocityEpsilon, WorkerId,
};
use roadnet::{generators, RoadGraph};
use vlp_bench::streams::{trip_stream, TraceReport};
use vlp_core::{privacy, PrivacySpec, QualityTier};

use crate::common::{self, closed_loop, CgTally, HitSample, Layers, ObsSnap, Phase};
use crate::measure::{median, LatencyHist};
use crate::spans::Tracer;
use crate::{Args, Report};

const VEHICLES: usize = 32;
const REPORTS: usize = 300;
const BUCKET: f64 = 0.5;
/// Per-vehicle trace budget, sized so roughly half of each vehicle's
/// reports are served before the ledger runs dry.
const TRACE_BUDGET: f64 = 300.0;
/// Set-ups per untraced run; `setup_s` is their median. Each one solves
/// every ε bucket the stream reaches (about 22 s on 2 vCPU), so two.
const SETUPS: usize = 2;

fn graph() -> RoadGraph {
    generators::grid(4, 4, 0.4, true)
}

fn budget() -> TraceBudgetConfig {
    TraceBudgetConfig {
        trace_budget: TRACE_BUDGET,
        throttle_start: 0.5,
    }
}

fn config(budget: Option<TraceBudgetConfig>) -> ServiceConfig {
    ServiceConfig {
        n_shards: 1,
        delta: 0.3,
        epsilon_bucket: BUCKET,
        budget,
        ..ServiceConfig::default()
    }
}

/// The stream, each report's requested ε, and the set-up replay's
/// outcome per report: `Some(canonical ε)` when served, `None` when
/// refused. Fresh ledgers reproduce the outcomes exactly.
struct Inputs {
    stream: Vec<TraceReport>,
    eps: Vec<f64>,
}

fn inputs(seed: u64) -> Inputs {
    let cfg = TripConfig {
        reports: REPORTS,
        ..TripConfig::default()
    };
    let stream = trip_stream(&graph(), &cfg, VEHICLES, seed);
    let va = VelocityEpsilon::default();
    let eps = stream.iter().map(|r| va.epsilon_for(r.speed_kmh)).collect();
    Inputs { stream, eps }
}

/// Builds a service and replays `reports` once in stream order,
/// quiescing after each so every key the stream touches is solved.
fn setup(
    input: &Inputs,
    reports: &[(usize, f64)],
    budget: Option<TraceBudgetConfig>,
    seed: u64,
    tracer: Option<&Tracer>,
    report: &mut Report,
) -> (MechanismService, Vec<Option<f64>>) {
    let name = if budget.is_some() {
        "setup"
    } else {
        "setup.twin"
    };
    let root = tracer.map(|t| t.open(name, 0, None));
    let svc = MechanismService::new(graph(), config(budget));
    let mut rng = common::rng(seed, 2);
    let outcomes = reports
        .iter()
        .map(|&(k, eps)| {
            let r = &input.stream[k];
            let resp = svc.submit(WorkerId(r.vehicle.0), r.location, eps, &mut rng);
            svc.quiesce();
            match resp {
                Response::Served(o) => Some(o.epsilon),
                Response::BudgetExhausted { .. } => None,
                other => {
                    report.check(false, || format!("set-up report {k} came back {other:?}"));
                    None
                }
            }
        })
        .collect();
    svc.flush_metrics();
    if let (Some(t), Some(o)) = (tracer, root) {
        t.close(o);
    }
    (svc, outcomes)
}

/// What one client saw besides its latencies.
struct Seen {
    served: LatencyHist,
    refused: LatencyHist,
    /// Σ served ε per fresh vehicle id, for the ledger check.
    spent: Vec<(usize, f64)>,
    passes: usize,
}

/// Closed-loop replay of the stream by `clients` callers, each owning
/// the vehicles `v % clients == c` in stream order, in whole passes
/// until `dur` has elapsed. Pass `p` of phase `phase` reports under
/// fresh vehicle ids, so its ledgers grant the same ε sequence as the
/// set-up replay did and every outcome must match `expected`.
#[allow(clippy::too_many_arguments)]
fn phase(
    handle: &ServiceHandle,
    input: &Inputs,
    reports: &[(usize, f64)],
    expected: &[Option<f64>],
    clients: usize,
    dur: Duration,
    phase: usize,
    seed: u64,
    tracer: Option<&Tracer>,
) -> (Phase, Vec<Seen>) {
    closed_loop(clients, dur, tracer, |c, run| {
        let mut rng = common::rng(seed, 100 + (phase * 8 + c) as u64);
        let mine: Vec<usize> = (0..reports.len())
            .filter(|&i| input.stream[reports[i].0].vehicle.0 % clients == c)
            .collect();
        let mut seen = Seen {
            served: LatencyHist::new(),
            refused: LatencyHist::new(),
            spent: Vec::new(),
            passes: 0,
        };
        let mut spent: BTreeMap<usize, f64> = BTreeMap::new();
        loop {
            for &i in &mine {
                let (k, eps) = reports[i];
                let r = &input.stream[k];
                let worker = (phase << 40) | (seen.passes << 8) | r.vehicle.0;
                let t0 = Instant::now();
                let resp = handle.submit(WorkerId(worker), r.location, eps, &mut rng);
                let d = t0.elapsed();
                run.record(t0, d);
                match (resp, expected[i]) {
                    (
                        Response::Served(Obfuscation {
                            served: Served::Optimal { cached: true },
                            tier: QualityTier::Exact,
                            epsilon,
                            ..
                        }),
                        Some(e),
                    ) if epsilon == e => {
                        seen.served.record(d);
                        *spent.entry(worker).or_default() += epsilon;
                    }
                    (Response::BudgetExhausted { .. }, None) => seen.refused.record(d),
                    _ => run.bad += 1,
                }
                run.sample_span(tracer, d, clients as u64, c as u64);
                run.ops += 1;
            }
            seen.passes += 1;
            if run.expired() {
                break;
            }
        }
        seen.spent = spent.into_iter().collect();
        seen
    })
}

pub fn run(args: &Args, tracer: &Tracer) -> Report {
    let mut report = Report::default();
    let input = inputs(args.seed);
    let all: Vec<(usize, f64)> = input.eps.iter().copied().enumerate().collect();

    let dur = Duration::from_secs_f64(args.seconds);
    let traced = args.trace.then_some(tracer);
    // Untraced runs alternate set-up and measurement, as in `hit_zipf`;
    // the traced run has one round with three phases.
    let rounds = if args.trace { 1 } else { SETUPS };
    let mut setup_times = Vec::new();
    let mut setup_delta = ObsSnap::default();
    let mut measured = ObsSnap::default();
    let mut phases: Vec<(Phase, Vec<Seen>)> = Vec::new();
    let mut checked = 0;
    let mut last: Option<(MechanismService, Vec<Option<f64>>)> = None;
    for round in 0..rounds {
        let previous = last.take().map(|(_, e)| e);
        let before_setup = ObsSnap::take();
        let t = Instant::now();
        let (svc, expected) = setup(&input, &all, Some(budget()), args.seed, traced, &mut report);
        setup_times.push(t.elapsed().as_secs_f64());
        if round == 0 {
            setup_delta = ObsSnap::take().since(&before_setup);
        }
        report.check(previous.as_ref().is_none_or(|p| *p == expected), || {
            "set-up replays granted different outcomes".into()
        });
        let handle = svc.handle();
        let before = ObsSnap::take();
        let run_phase = |clients, dur, n, tracer| {
            phase(
                &handle, &input, &all, &expected, clients, dur, n, args.seed, tracer,
            )
        };
        let now: Vec<(Phase, Vec<Seen>)> = if args.trace {
            let quarter = dur / 4;
            vec![
                run_phase(2, quarter, 1, None),
                run_phase(1, quarter, 2, None),
                run_phase(2, quarter, 3, traced),
            ]
        } else {
            vec![run_phase(2, dur / SETUPS as u32, 1, None)]
        };
        svc.flush_metrics();
        measured = measured.plus(&ObsSnap::take().since(&before));
        // Output checks, outside the timed region: this round's ledger.
        let ledger: BTreeMap<usize, f64> = svc
            .budget_ledger()
            .into_iter()
            .map(|(w, e)| (w.0, e))
            .collect();
        for seen in now.iter().flat_map(|(_, s)| s) {
            for &(worker, sum) in &seen.spent {
                let booked = ledger.get(&worker).copied().unwrap_or(0.0);
                report.check((booked - sum).abs() <= 1e-9 && sum <= TRACE_BUDGET + 1e-9, || {
                    format!("vehicle {worker}: served ε sums to {sum}, ledger says {booked}, budget {TRACE_BUDGET}")
                });
                checked += 1;
            }
        }
        if args.trace {
            phases = now;
        } else {
            for (chunk, seen) in now {
                match phases.first_mut() {
                    Some((p, s)) => {
                        p.absorb(chunk);
                        s.extend(seen);
                    }
                    None => phases.push((chunk, seen)),
                }
            }
        }
        last = Some((svc, expected));
    }
    let (svc, expected) = last.expect("at least one round");
    let inst = svc.shard_instance(0);
    let mut served_eps: Vec<f64> = expected.iter().flatten().copied().collect();
    served_eps.sort_by(f64::total_cmp);
    served_eps.dedup();
    let mut etdd_of = BTreeMap::new();
    for &e in &served_eps {
        match svc.cached_mechanism(0, e) {
            Some(m) => report.check(
                privacy::verify(&m, &PrivacySpec::full(&inst.aux, e, f64::INFINITY), 1e-6),
                || format!("mechanism at ε={e} violates Geo-I"),
            ),
            None => report.check(false, || format!("ε={e} served but not cached")),
        }
        etdd_of.insert(e.to_bits(), svc.cached_quality_loss(0, e).unwrap_or(0.0));
    }
    let served_per_pass = expected.iter().flatten().count();
    let mean_etdd = expected
        .iter()
        .flatten()
        .map(|e| etdd_of[&e.to_bits()])
        .sum::<f64>()
        / served_per_pass.max(1) as f64;

    let ops: u64 = phases.iter().map(|(p, _)| p.ops).sum();
    let bad: u64 = phases.iter().map(|(p, _)| p.bad).sum();
    let served: u64 = phases
        .iter()
        .flat_map(|(_, s)| s)
        .map(|s| s.served.len())
        .sum();
    report.attempted = ops;
    report.failed = bad;

    let mut floor_losses = 0;
    for &e in &served_eps {
        report.work(
            format!("etdd_km.eps{e}"),
            format!("{:.12}", etdd_of[&e.to_bits()]),
        );
        floor_losses += usize::from(etdd_of[&e.to_bits()] > common::floor_etdd(&inst, e));
    }
    report.work("etdd_km", format!("{mean_etdd:.12}"));
    report.work("cg.floor_losses", floor_losses);
    report.work("served_per_pass", served_per_pass);
    report.work("refused_per_pass", expected.len() - served_per_pass);
    for name in ["charges", "throttled", "refusals"] {
        report.work(
            format!("setup.trace.{name}"),
            setup_delta.get(&format!("service.trace.{name}")),
        );
    }
    common::solve_work(&mut report, "setup.", &setup_delta);

    let main = &phases[0].0;
    report.notes.push(format!(
        "{checked} vehicle ledgers checked; {}; closed loop, 2 clients",
        main.note()
    ));
    if args.trace {
        report.layers = layers(
            &svc,
            &input,
            &expected,
            &phases,
            &setup_delta,
            &measured,
            args,
            tracer,
            &mut report,
        );
    } else {
        report.e2e = vec![
            ("setup_s", median(&setup_times)),
            ("throughput_ops_s", main.throughput()),
            ("latency_p50_us", main.quantile_ns(0.5) / 1e3),
            ("latency_p99_us", main.quantile_ns(0.99) / 1e3),
            ("etdd_km", mean_etdd),
            ("served_share", served as f64 / ops as f64),
        ];
    }
    report
}

#[allow(clippy::too_many_arguments)]
fn layers(
    svc: &MechanismService,
    input: &Inputs,
    expected: &[Option<f64>],
    phases: &[(Phase, Vec<Seen>)],
    setup_delta: &ObsSnap,
    measured: &ObsSnap,
    args: &Args,
    tracer: &Tracer,
    report: &mut Report,
) -> Vec<(&'static str, f64)> {
    let mut l = Layers::new();
    l.service_counters(setup_delta);
    l.set("trace.charges", setup_delta.f("service.trace.charges"));
    l.set("trace.throttled", setup_delta.f("service.trace.throttled"));
    l.set("trace.refusals", setup_delta.f("service.trace.refusals"));

    let p50 = |h: &LatencyHist| if h.len() > 0 { h.quantile_ns(0.5) } else { 0.0 };
    let merged = |seen: &[Seen], f: fn(&Seen) -> &LatencyHist| {
        let mut h = LatencyHist::new();
        for s in seen {
            h.merge(f(s));
        }
        h
    };
    let (two, one, traced) = (&phases[0], &phases[1], &phases[2]);
    let served_ns = p50(&merged(&two.1, |s| &s.served));
    l.set("trace.served_ns", served_ns);
    l.set("trace.refused_ns", p50(&merged(&two.1, |s| &s.refused)));

    // The budget-free twin: the same served reports at the ε they were
    // granted, on a service without an accountant.
    let granted: Vec<(usize, f64)> = expected
        .iter()
        .enumerate()
        .filter_map(|(k, e)| e.map(|e| (k, e)))
        .collect();
    let (twin, twin_expected) = setup(input, &granted, None, args.seed, Some(tracer), report);
    let twin_handle = twin.handle();
    let (twin_phase, twin_seen) = phase(
        &twin_handle,
        input,
        &granted,
        &twin_expected,
        2,
        Duration::from_secs_f64(args.seconds / 4.0),
        4,
        args.seed,
        None,
    );
    report.attempted += twin_phase.ops;
    report.failed += twin_phase.bad;
    l.set(
        "trace.accountant_ns",
        served_ns - p50(&merged(&twin_seen, |s| &s.served)),
    );

    let (hits, misses) = (
        measured.f("service.cache_hits"),
        measured.f("service.cache_misses"),
    );
    l.set("service.hit_ratio", hits / (hits + misses).max(1.0));
    l.set(
        "service.scaling_2v1",
        two.0.throughput() / (2.0 * one.0.throughput()),
    );
    l.set(
        "bench.tracing_overhead_pct",
        (two.0.throughput() / traced.0.throughput() - 1.0) * 100.0,
    );

    common::rebuild_layers(tracer, &mut l, &graph(), 1, config(None).delta);
    let cg = config(None).cg;
    let inst = svc.shard_instance(0);
    let mut keys: Vec<f64> = expected.iter().flatten().copied().collect();
    keys.sort_by(f64::total_cmp);
    keys.dedup();
    let mut tally = CgTally::default();
    for (op, &e) in keys.iter().enumerate() {
        tally.resolve(tracer, &inst, e, f64::INFINITY, &cg, op as u64);
    }
    tally.report(tracer, &mut l);

    let mut rng = common::rng(args.seed, 3);
    let samples: Vec<HitSample<'_>> = granted
        .iter()
        .take(4096)
        .map(|&(k, e)| {
            let loc = input.stream[k].location;
            let (_, local) = svc.partition().to_local(loc).expect("on-partition");
            let row = inst.disc.locate(&inst.graph, local).expect("on the shard");
            let mech = svc.cached_mechanism(0, e).expect("served keys are cached");
            let j = mech.sample_interval(row, &mut rng);
            HitSample {
                part: svc.partition(),
                global: loc,
                graph: &inst.graph,
                disc: &inst.disc,
                local,
                mech: Arc::clone(&mech),
                row,
                j,
            }
        })
        .collect();
    let [route, locate, sample, transplant] = common::replay_hit_path(&samples, args.seed);
    l.set("service.route_ns", route);
    l.set("mech.locate_ns", locate);
    l.set("mech.sample_ns", sample);
    l.set("mech.transplant_ns", transplant);
    l.set(
        "service.hit_self_ns",
        p50(&merged(&one.1, |s| &s.served)) - (route + locate + sample + transplant),
    );
    l.0.into_iter().collect()
}
