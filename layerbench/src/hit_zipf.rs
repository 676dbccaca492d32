//! `hit_zipf`: warm reads. Two closed-loop clients call
//! `ServiceHandle::submit` on keys that set-up already solved, so only
//! the hit path runs (route → locate → table lock → sample →
//! transplant), plus the contention between the two callers.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use platform::{
    MechanismService, Obfuscation, Response, Served, ServiceConfig, ServiceHandle, WorkerId,
};
use roadnet::{generators, Location, Partition, RoadGraph};
use vlp_core::{privacy, PrivacySpec, QualityTier, VlpInstance};

use crate::common::{self, closed_loop, floor_etdd, CgTally, HitSample, Layers, ObsSnap, Phase};
use crate::measure::median;
use crate::spans::Tracer;
use crate::{Args, Report};

const EPSILONS: [f64; 3] = [5.0, 10.0, 20.0];
const SHARDS: usize = 2;
const LOCS_PER_SHARD: usize = 8;
const ZIPF_EXPONENT: f64 = 1.1;
/// Requests each client cycles through.
const SEQ_LEN: usize = 1 << 16;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

fn graph() -> RoadGraph {
    generators::grid(4, 6, 0.4, true)
}

fn config() -> ServiceConfig {
    ServiceConfig {
        n_shards: SHARDS,
        delta: 0.2,
        ..ServiceConfig::default()
    }
}

/// One (location, ε) request shape.
struct Archetype {
    loc: Location,
    shard: usize,
    eps: f64,
}

/// 16 seeded locations × 3 ε = 48 archetypes in Zipf rank order. Ranks
/// interleave ε and shard (rank `r` has ε index `r % 3` and shard
/// `(r / 3) % 2`), so every (shard, ε) key carries the same Zipf mass
/// under every seed; the seed picks the locations and the draws.
fn archetypes(seed: u64) -> Vec<Archetype> {
    let g = graph();
    let part = Partition::by_bands(&g, SHARDS);
    let mut rng = common::rng(seed, 1);
    let locs: Vec<Vec<Location>> = (0..SHARDS)
        .map(|s| {
            (0..LOCS_PER_SHARD)
                .map(|_| common::location_in_shard(&g, &part, s, &mut rng))
                .collect()
        })
        .collect();
    (0..EPSILONS.len() * SHARDS * LOCS_PER_SHARD)
        .map(|r| {
            let shard = (r / EPSILONS.len()) % SHARDS;
            Archetype {
                loc: locs[shard][r / (EPSILONS.len() * SHARDS)],
                shard,
                eps: EPSILONS[r % EPSILONS.len()],
            }
        })
        .collect()
}

/// Builds the service and solves every (shard, ε) key through the
/// batch path, which waits for the Exact solve.
fn setup(
    arch: &[Archetype],
    seed: u64,
    tracer: Option<&Tracer>,
    report: &mut Report,
) -> MechanismService {
    let root = tracer.map(|t| t.open("setup", 0, None));
    let parent = root.as_ref().map(|o| o.id());
    let new = tracer.map(|t| t.open("service.new", 0, parent));
    let mut svc = MechanismService::new(graph(), config());
    if let (Some(t), Some(o)) = (tracer, new) {
        t.close(o);
    }
    let mut rng = common::rng(seed, 2);
    for s in 0..SHARDS {
        let loc = arch
            .iter()
            .find(|a| a.shard == s)
            .expect("archetypes cover every shard")
            .loc;
        for (e, &eps) in EPSILONS.iter().enumerate() {
            let warm =
                tracer.map(|t| t.open("service.warm", (s * EPSILONS.len() + e) as u64, parent));
            let out = svc.obfuscate_batch(&[(WorkerId(0), loc, eps)], &mut rng);
            if let (Some(t), Some(o)) = (tracer, warm) {
                t.close(o);
            }
            let ok = matches!(
                out.as_slice(),
                [Obfuscation {
                    served: Served::Optimal { cached: false },
                    tier: QualityTier::Exact,
                    ..
                }]
            );
            report.check(ok, || {
                format!("warm-up of shard {s} at ε={eps} was not an Exact solve: {out:?}")
            });
        }
    }
    if let (Some(t), Some(o)) = (tracer, root) {
        t.close(o);
    }
    svc
}

/// Each client's request sequence: archetype indices drawn Zipf(1.1).
fn sequences(seed: u64, n_arch: usize) -> Vec<Vec<u16>> {
    let cdf = common::zipf_cdf(n_arch, ZIPF_EXPONENT);
    (0..2)
        .map(|c| {
            let mut rng = common::rng(seed, 10 + c);
            (0..SEQ_LEN)
                .map(|_| common::zipf_draw(&cdf, &mut rng) as u16)
                .collect()
        })
        .collect()
}

fn is_hit(r: &Response) -> bool {
    matches!(
        r,
        Response::Served(Obfuscation {
            served: Served::Optimal { cached: true },
            tier: QualityTier::Exact,
            ..
        })
    )
}

/// A closed-loop phase of `clients` callers for `dur`; with a tracer,
/// one op in [`SPAN_EVERY`] records a span.
fn hit_phase(
    handle: &ServiceHandle,
    arch: &[Archetype],
    seqs: &[Vec<u16>],
    seed: u64,
    clients: usize,
    dur: Duration,
    tracer: Option<&Tracer>,
) -> Phase {
    let (phase, _) = closed_loop(clients, dur, tracer, |c, run| {
        let mut rng = common::rng(seed, 100 + c as u64);
        let seq = &seqs[c];
        let mut i = 0usize;
        while !run.expired() {
            for _ in 0..256 {
                let a = &arch[seq[i % SEQ_LEN] as usize];
                i += 1;
                let t0 = Instant::now();
                let r = handle.submit(WorkerId(c), a.loc, a.eps, &mut rng);
                let d = t0.elapsed();
                run.record(t0, d);
                run.bad += u64::from(!is_hit(black_box(&r)));
                run.sample_span(tracer, d, clients as u64, c as u64);
                run.ops += 1;
            }
        }
    });
    phase
}

/// The full-spec privacy audit of every mechanism that served an op,
/// plus per-key ETDD and closed-form floor.
fn audit(svc: &MechanismService, report: &mut Report) -> Vec<Vec<f64>> {
    (0..SHARDS)
        .map(|s| {
            let inst = svc.shard_instance(s);
            EPSILONS
                .iter()
                .map(|&eps| {
                    let canonical = svc.canonical_epsilon(eps);
                    match svc.cached_mechanism(s, eps) {
                        Some(m) => {
                            let spec = PrivacySpec::full(&inst.aux, canonical, f64::INFINITY);
                            report.check(privacy::verify(&m, &spec, 1e-6), || {
                                format!("shard {s} mechanism at ε={canonical} violates Geo-I")
                            });
                        }
                        None => report.check(false, || format!("shard {s} ε={eps} is not cached")),
                    }
                    svc.cached_quality_loss(s, eps).unwrap_or(0.0)
                })
                .collect()
        })
        .collect()
}

pub fn run(args: &Args, tracer: &Tracer) -> Report {
    let mut report = Report::default();
    let arch = archetypes(args.seed);
    let seqs = sequences(args.seed, arch.len());
    let dur = Duration::from_secs_f64(args.seconds);
    let traced = args.trace.then_some(tracer);

    // Untraced runs alternate set-up and measurement: each of the
    // SETUPS rounds builds a fresh service and measures a share of
    // `--seconds` on it, so the measured windows are spread over the
    // whole run. The traced run has one round with three phases.
    let rounds = if args.trace { 1 } else { SETUPS };
    let mut setup_times = Vec::new();
    let mut setup_delta = ObsSnap::default();
    let mut measured = ObsSnap::default();
    let mut phases: Vec<(&str, Phase)> = Vec::new();
    let mut svc = None;
    for round in 0..rounds {
        drop(svc.take());
        let before_setup = ObsSnap::take();
        let t = Instant::now();
        let s = setup(&arch, args.seed, traced, &mut report);
        setup_times.push(t.elapsed().as_secs_f64());
        if round == 0 {
            setup_delta = ObsSnap::take().since(&before_setup);
        }
        let handle = s.handle();
        s.flush_metrics();
        let before = ObsSnap::take();
        if args.trace {
            let third = dur / 3;
            phases.push((
                "untraced_2",
                hit_phase(&handle, &arch, &seqs, args.seed, 2, third, None),
            ));
            phases.push((
                "untraced_1",
                hit_phase(&handle, &arch, &seqs, args.seed, 1, third, None),
            ));
            phases.push((
                "traced_2",
                hit_phase(&handle, &arch, &seqs, args.seed, 2, third, traced),
            ));
        } else {
            let chunk = hit_phase(
                &handle,
                &arch,
                &seqs,
                args.seed,
                2,
                dur / SETUPS as u32,
                None,
            );
            match phases.first_mut() {
                Some((_, p)) => p.absorb(chunk),
                None => phases.push(("measured", chunk)),
            }
        }
        s.flush_metrics();
        measured = measured.plus(&ObsSnap::take().since(&before));
        svc = Some(s);
    }
    let svc = svc.expect("at least one round");

    // Output checks, outside the timed region. Every round's service
    // holds the same six mechanisms; the last one is audited.
    let etdd = audit(&svc, &mut report);
    let ops: u64 = phases.iter().map(|(_, p)| p.ops).sum();
    let bad: u64 = phases.iter().map(|(_, p)| p.bad).sum();
    report.attempted = ops;
    report.failed = bad;
    report.check(
        measured.get("service.cache_hits") == ops && measured.get("service.cache_misses") == 0,
        || {
            format!(
                "measured phase is not 100% hits: {} hits, {} misses, {ops} ops",
                measured.get("service.cache_hits"),
                measured.get("service.cache_misses")
            )
        },
    );
    let mean_etdd = seqs
        .iter()
        .flatten()
        .map(|&a| {
            let a = &arch[a as usize];
            etdd[a.shard][EPSILONS.iter().position(|&e| e == a.eps).expect("known ε")]
        })
        .sum::<f64>()
        / (seqs.len() * SEQ_LEN) as f64;

    let mut floor_losses = 0;
    for (s, per_eps) in etdd.iter().enumerate() {
        let inst = svc.shard_instance(s);
        for (&eps, &e) in EPSILONS.iter().zip(per_eps) {
            report.work(format!("etdd_km.shard{s}.eps{eps}"), format!("{e:.12}"));
            floor_losses += usize::from(e > floor_etdd(&inst, svc.canonical_epsilon(eps)));
        }
    }
    report.work("etdd_km", format!("{mean_etdd:.12}"));
    report.work("cg.floor_losses", floor_losses);
    common::solve_work(&mut report, "setup.", &setup_delta);

    let main = &phases[0].1;
    report
        .notes
        .push(format!("{}; closed loop, 2 clients", main.note()));
    if args.trace {
        report.layers = layers(&svc, &arch, &phases, &setup_delta, &measured, args, tracer);
    } else {
        report.e2e = vec![
            ("setup_s", median(&setup_times)),
            ("throughput_ops_s", main.throughput()),
            ("latency_p50_us", main.quantile_ns(0.5) / 1e3),
            ("latency_p99_us", main.quantile_ns(0.99) / 1e3),
            ("etdd_km", mean_etdd),
            ("served_share", (ops - bad) as f64 / ops as f64),
        ];
    }
    report
}

fn layers(
    svc: &MechanismService,
    arch: &[Archetype],
    phases: &[(&str, Phase)],
    setup_delta: &ObsSnap,
    measured: &ObsSnap,
    args: &Args,
    tracer: &Tracer,
) -> Vec<(&'static str, f64)> {
    let mut l = Layers::new();
    common::rebuild_layers(tracer, &mut l, &graph(), SHARDS, config().delta);
    l.service_counters(setup_delta);

    let cg = config().cg;
    let mut tally = CgTally::default();
    for s in 0..SHARDS {
        let inst = svc.shard_instance(s);
        for (e, &eps) in EPSILONS.iter().enumerate() {
            let op = (s * EPSILONS.len() + e) as u64;
            tally.resolve(
                tracer,
                &inst,
                svc.canonical_epsilon(eps),
                f64::INFINITY,
                &cg,
                op,
            );
        }
    }
    tally.report(tracer, &mut l);

    let insts: Vec<Arc<VlpInstance>> = (0..SHARDS).map(|s| svc.shard_instance(s)).collect();
    let mut rng = common::rng(args.seed, 3);
    let samples: Vec<HitSample<'_>> = arch
        .iter()
        .map(|a| {
            let inst = &insts[a.shard];
            let (_, local) = svc
                .partition()
                .to_local(a.loc)
                .expect("archetypes are on-partition");
            let row = inst
                .disc
                .locate(&inst.graph, local)
                .expect("location is on its shard");
            let mech = svc.cached_mechanism(a.shard, a.eps).expect("warm key");
            let j = mech.sample_interval(row, &mut rng);
            HitSample {
                part: svc.partition(),
                global: a.loc,
                graph: &inst.graph,
                disc: &inst.disc,
                local,
                mech,
                row,
                j,
            }
        })
        .collect();
    let [route, locate, sample, transplant] = common::replay_hit_path(&samples, args.seed);
    let phase = |name: &str| {
        &phases
            .iter()
            .find(|(n, _)| *n == name)
            .expect("phase ran")
            .1
    };
    let (two, one, traced) = (phase("untraced_2"), phase("untraced_1"), phase("traced_2"));
    l.set("mech.locate_ns", locate);
    l.set("mech.sample_ns", sample);
    l.set("mech.transplant_ns", transplant);
    l.set("service.route_ns", route);
    l.set(
        "service.hit_self_ns",
        one.quantile_ns(0.5) - (route + locate + sample + transplant),
    );
    let (hits, misses) = (
        measured.f("service.cache_hits"),
        measured.f("service.cache_misses"),
    );
    l.set("service.hit_ratio", hits / (hits + misses).max(1.0));
    l.set(
        "service.scaling_2v1",
        two.throughput() / (2.0 * one.throughput()),
    );
    l.set(
        "bench.tracing_overhead_pct",
        (two.throughput() / traced.throughput() - 1.0) * 100.0,
    );
    l.0.into_iter().collect()
}
