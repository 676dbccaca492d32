//! `cold_sweep`: the miss path and the solvers. Every operation is one
//! cold key served optimally by its own single-request
//! `obfuscate_batch_with_deadline`, one after another.
//!
//! Phase A (full engine, the `hit_zipf` map) asks for every
//! (ε, shard) key Exact, and at the two highest ε also at the Spanner
//! and Clustered rungs, worst rung first, so every rung really solves.
//! Phase B (locally-relevant engine, a larger map) asks for two seeded
//! neighborhoods per shard at every ε, Exact only.

use std::sync::Arc;
use std::time::{Duration, Instant};

use platform::{
    LocalConfig, MechanismService, Obfuscation, Served, ServiceConfig, TierPolicy, WorkerId,
};
use rand::RngExt;
use roadnet::{generators, Location, RoadGraph};
use vlp_core::local::local_index;
use vlp_core::{privacy, LocalShard, Mechanism, PrivacySpec, QualityTier, VlpInstance};

use crate::common::{self, CgTally, HitSample, Layers, ObsSnap};
use crate::measure::{self, median, quantile};
use crate::spans::Tracer;
use crate::{Args, Report};

const EPSILONS: [f64; 5] = [1.0, 2.0, 5.0, 10.0, 20.0];
/// The ε at which phase A also asks for the two intermediate rungs, on
/// shard 0 only. At ε ≤ 5 a Clustered solve of this map takes 18–37 s
/// per key (2 vCPU), which would not fit a run; ε = 10 still includes
/// a Spanner solve that stalls at 30 CG iterations. The band partition
/// makes the two shards mirror images, so shard 1's rungs would repeat
/// shard 0's solves exactly.
const TIER_EPSILONS: [f64; 2] = [10.0, 20.0];
/// Worst rung first: a better rung asked later is not a hit on a worse
/// cached one, so each rung runs its own solve.
const RUNGS: [QualityTier; 3] = [
    QualityTier::Spanner,
    QualityTier::Clustered,
    QualityTier::Exact,
];
const SHARDS: usize = 2;
const NBS_PER_SHARD: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median. Building the
/// two services takes 2–5 ms, with the first few slower than the rest,
/// so many.
const SETUPS: usize = 31;

fn graph_a() -> RoadGraph {
    generators::grid(4, 6, 0.4, true)
}

fn graph_b() -> RoadGraph {
    generators::grid(10, 15, 0.4, true)
}

/// Explicit floors: each logical deadline below selects one rung.
fn policy() -> TierPolicy {
    TierPolicy {
        exact_floor: Duration::from_secs(3),
        clustered_floor: Duration::from_secs(2),
        spanner_floor: Duration::from_secs(1),
        ..TierPolicy::default()
    }
}

fn deadline(tier: QualityTier) -> Duration {
    match tier {
        QualityTier::Exact => Duration::from_secs(3),
        QualityTier::Clustered => Duration::from_secs(2),
        QualityTier::Spanner => Duration::from_secs(1),
        QualityTier::Laplace => Duration::ZERO,
    }
}

fn config_a() -> ServiceConfig {
    ServiceConfig {
        n_shards: SHARDS,
        delta: 0.2,
        tiers: policy(),
        ..ServiceConfig::default()
    }
}

fn config_b() -> ServiceConfig {
    ServiceConfig {
        n_shards: SHARDS,
        delta: 0.2,
        radius: 0.5,
        local: Some(LocalConfig { rho: 0.4 }),
        tiers: policy(),
        ..ServiceConfig::default()
    }
}

/// One cold key: which engine, shard, ε and rung, and the location the
/// request reports from (its neighborhood in phase B).
#[derive(Clone, Copy)]
struct Op {
    local_engine: bool,
    shard: usize,
    eps: f64,
    tier: QualityTier,
    loc: Location,
    nb: u32,
}

impl Op {
    fn span_name(&self) -> &'static str {
        match (self.local_engine, self.tier) {
            (true, _) => "op.local",
            (false, QualityTier::Exact) => "op.exact",
            (false, QualityTier::Clustered) => "op.clustered",
            (false, _) => "op.spanner",
        }
    }
}

/// The two services one pass runs against.
struct Services {
    a: MechanismService,
    b: MechanismService,
}

fn build(tracer: Option<&Tracer>) -> Services {
    let open = tracer.map(|t| t.open("setup", 0, None));
    let s = Services {
        a: MechanismService::new(graph_a(), config_a()),
        b: MechanismService::new(graph_b(), config_b()),
    };
    if let (Some(t), Some(o)) = (tracer, open) {
        t.close(o);
    }
    s
}

fn ops(svc: &Services, seed: u64) -> Vec<Op> {
    let mut rng = common::rng(seed, 1);
    let ga = graph_a();
    let mut out = Vec::new();
    for &eps in &EPSILONS {
        for shard in 0..SHARDS {
            for &tier in &RUNGS {
                if tier != QualityTier::Exact && (shard != 0 || !TIER_EPSILONS.contains(&eps)) {
                    continue;
                }
                let loc = common::location_in_shard(&ga, svc.a.partition(), shard, &mut rng);
                out.push(Op {
                    local_engine: false,
                    shard,
                    eps,
                    tier,
                    loc,
                    nb: 0,
                });
            }
        }
    }
    // Phase B asks for neighborhoods of the smallest support (the map's
    // corners, k = 26): a neighborhood's solve time grows steeply with
    // its support (k = 59 takes 16–25 s at ε = 1 on 2 vCPU), so drawing
    // from every size would make the run length depend on the seed.
    let gb = graph_b();
    let mut chosen: Vec<(usize, Location, u32)> = Vec::new();
    for shard in 0..SHARDS {
        let ls = svc
            .b
            .local_shard(shard)
            .expect("phase B runs the local engine");
        let count = ls.plan().neighborhood_count() as u32;
        let smallest = (0..count)
            .map(|nb| ls.members(nb).len())
            .min()
            .expect("a neighborhood");
        let mut pool: Vec<u32> = (0..count)
            .filter(|&nb| ls.members(nb).len() == smallest)
            .collect();
        for _ in 0..NBS_PER_SHARD {
            let nb = pool.swap_remove(rng.random_range(0..pool.len()));
            let loc = loop {
                let loc = common::location_in_shard(&gb, svc.b.partition(), shard, &mut rng);
                let (_, local) = svc.b.partition().to_local(loc).expect("on-partition");
                let i = ls.disc().locate(ls.graph(), local).expect("on its shard");
                if ls.neighborhood_of(i) == nb {
                    break loc;
                }
            };
            chosen.push((shard, loc, nb));
        }
    }
    for &eps in &EPSILONS {
        for &(shard, loc, nb) in &chosen {
            out.push(Op {
                local_engine: true,
                shard,
                eps,
                tier: QualityTier::Exact,
                loc,
                nb,
            });
        }
    }
    out
}

/// What one operation returned, checked outside its timed region.
struct Done {
    latency: Duration,
    mech: Option<Arc<Mechanism>>,
    etdd: Option<f64>,
}

fn live(svc: &MechanismService) -> Vec<Arc<Mechanism>> {
    svc.live_mechanisms_keyed()
        .into_iter()
        .map(|(_, _, _, m)| m)
        .collect()
}

/// One sweep over `ops` on fresh services. Each op is timed alone; its
/// checks — served optimally at the asked rung, exactly one new
/// mechanism, which passes the privacy audit — run after the clock.
fn pass(
    svc: &mut Services,
    ops: &[Op],
    seed: u64,
    n: u64,
    tracer: Option<&Tracer>,
    report: &mut Report,
) -> Vec<Done> {
    let mut rng = common::rng(seed, 20 + n);
    let mut done = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let s = if op.local_engine {
            &mut svc.b
        } else {
            &mut svc.a
        };
        let before = live(s);
        let span = tracer.map(|t| t.open(op.span_name(), i as u64, None));
        let t0 = Instant::now();
        let out = s.obfuscate_batch_with_deadline(
            &[(WorkerId(i), op.loc, op.eps)],
            deadline(op.tier),
            &mut rng,
        );
        let latency = t0.elapsed();
        if let (Some(t), Some(o)) = (tracer, span) {
            t.close(o);
        }
        eprintln!(
            "cold_sweep op {i}/{}: {} shard {} ε={} took {:.3} s",
            ops.len(),
            op.span_name(),
            op.shard,
            op.eps,
            latency.as_secs_f64()
        );
        let served_ok = matches!(
            out.as_slice(),
            [Obfuscation { served: Served::Optimal { cached: false }, tier, .. }] if *tier == op.tier
        );
        report.check(served_ok, || {
            format!(
                "op {i} (shard {} ε={} {:?}) was not a fresh optimal serve: {out:?}",
                op.shard, op.eps, op.tier
            )
        });
        let fresh: Vec<Arc<Mechanism>> = live(s)
            .into_iter()
            .filter(|m| !before.iter().any(|b| Arc::ptr_eq(b, m)))
            .collect();
        report.check(fresh.len() == 1, || {
            format!("op {i} added {} mechanisms, not 1", fresh.len())
        });
        let canonical = s.canonical_epsilon(op.eps);
        let mech = fresh.into_iter().next();
        let mut etdd = None;
        if let Some(m) = &mech {
            let ok = if op.local_engine {
                let ls = s.local_shard(op.shard).expect("local engine");
                privacy::verify(m, &ls.audit_spec(op.nb, canonical), 1e-6)
            } else {
                let inst = s.shard_instance(op.shard);
                etdd = Some(m.quality_loss(&inst.cost));
                privacy::verify(
                    m,
                    &PrivacySpec::full(&inst.aux, canonical, f64::INFINITY),
                    1e-6,
                )
            };
            report.check(ok, || {
                format!("op {i} mechanism at ε={canonical} violates Geo-I")
            });
        }
        report.attempted += 1;
        report.failed += u64::from(!served_ok);
        done.push(Done {
            latency,
            mech,
            etdd,
        });
    }
    done
}

fn total(done: &[Done]) -> Duration {
    done.iter().map(|d| d.latency).sum()
}

pub fn run(args: &Args, tracer: &Tracer) -> Report {
    let mut report = Report::default();
    let mut setup_times = Vec::new();
    let mut svc = if args.trace {
        build(Some(tracer))
    } else {
        let mut last = None;
        for _ in 0..SETUPS {
            drop(last.take());
            let t = Instant::now();
            last = Some(build(None));
            setup_times.push(t.elapsed().as_secs_f64());
        }
        last.expect("at least one set-up")
    };
    let ops = ops(&svc, args.seed);

    let before = ObsSnap::take();
    let first = pass(
        &mut svc,
        &ops,
        args.seed,
        0,
        args.trace.then_some(tracer),
        &mut report,
    );
    let work = ObsSnap::take().since(&before);
    let mut latencies: Vec<f64> = first.iter().map(|d| d.latency.as_secs_f64()).collect();
    let mut measured = total(&first);
    let mut passes = 1;
    if !args.trace {
        // More whole passes, on fresh services, while time remains.
        while measured.as_secs_f64() < args.seconds {
            svc = build(None);
            let more = pass(&mut svc, &ops, args.seed, passes, None, &mut report);
            measured += total(&more);
            latencies.extend(more.iter().map(|d| d.latency.as_secs_f64()));
            passes += 1;
        }
    }

    // Deterministic work of the first pass.
    let exact_a: Vec<(usize, &Op)> = ops
        .iter()
        .enumerate()
        .filter(|(_, o)| !o.local_engine && o.tier == QualityTier::Exact)
        .collect();
    let mut floor_losses = 0;
    for &(i, op) in &exact_a {
        let inst = svc.a.shard_instance(op.shard);
        let floor = common::floor_etdd(&inst, svc.a.canonical_epsilon(op.eps));
        floor_losses += usize::from(first[i].etdd.is_some_and(|e| e > floor));
    }
    let etdds: Vec<f64> = first.iter().filter_map(|d| d.etdd).collect();
    let mean_etdd = etdds.iter().sum::<f64>() / etdds.len().max(1) as f64;
    for (i, d) in first.iter().enumerate() {
        if let Some(e) = d.etdd {
            report.work(format!("etdd_km.op{i}"), format!("{e:.12}"));
        }
    }
    report.work("etdd_km", format!("{mean_etdd:.12}"));
    report.work("cg.floor_losses", floor_losses);
    common::solve_work(&mut report, "", &work);
    report.work("ops_per_pass", ops.len());

    let n = latencies.len() as u64;
    report.notes.push(format!(
        "{passes} pass(es) of {} cold keys; latency_p50_us = median (mean of the middle two when even) of {} and {}",
        ops.len(),
        n,
        measure::tail_note("latency_p99_us", n, 0.99)
    ));
    report.notes.push("etdd_km averages phase A; a local neighborhood's ETDD is not readable through the public API".into());

    if args.trace {
        report.layers = layers(&svc, &ops, &first, &work, args, tracer);
    } else {
        report.e2e = vec![
            ("setup_s", median(&setup_times)),
            (
                "throughput_ops_s",
                latencies.len() as f64 / measured.as_secs_f64(),
            ),
            ("latency_p50_us", median(&latencies) * 1e6),
            ("latency_p99_us", quantile(&mut latencies, 0.99) * 1e6),
            ("etdd_km", mean_etdd),
            (
                "served_share",
                (report.attempted - report.failed) as f64 / report.attempted as f64,
            ),
        ];
    }
    report
}

/// The traced run's per-layer metrics: the pass ran with a span per
/// operation; now every key is re-solved directly through the tier and
/// local-engine entry points, and every served row is replayed.
fn layers(
    svc: &Services,
    ops: &[Op],
    traced: &[Done],
    d: &ObsSnap,
    args: &Args,
    tracer: &Tracer,
) -> Vec<(&'static str, f64)> {
    let mut l = Layers::new();
    l.service_counters(d);
    let (hits, misses) = (d.f("service.cache_hits"), d.f("service.cache_misses"));
    l.set("service.hit_ratio", hits / (hits + misses).max(1.0));
    // One span per multi-second operation: the overhead is the spans'
    // own recording cost, measured on a scratch tracer, over the pass.
    l.set(
        "bench.tracing_overhead_pct",
        ops.len() as f64 * crate::spans::ns_per_span() / total(traced).as_nanos() as f64 * 100.0,
    );
    common::rebuild_layers(tracer, &mut l, &graph_a(), SHARDS, config_a().delta);

    let cg = config_a().cg;
    let pol = policy();
    let mut tally = CgTally::default();
    let (mut etdd_cl, mut etdd_sp, mut n_cl, mut n_sp) = (0.0, 0.0, 0, 0);
    let mut max_lp_vars = 0usize;
    for (i, op) in ops.iter().enumerate() {
        let (eps, opid) = (svc.a.canonical_epsilon(op.eps), i as u64);
        if op.local_engine {
            let ls = svc.b.local_shard(op.shard).expect("local engine");
            let (solved, _) = tracer.time("local.solve", opid, None, || {
                ls.solve_neighborhood(op.nb, eps, &cg)
            });
            max_lp_vars = max_lp_vars.max(solved.expect("local re-solve succeeds").lp_vars);
        } else {
            let inst = svc.a.shard_instance(op.shard);
            match op.tier {
                QualityTier::Exact => {
                    tally.resolve(tracer, &inst, eps, f64::INFINITY, &cg, opid);
                }
                QualityTier::Clustered => {
                    let (ts, _) = tracer.time("tiers.clustered", opid, None, || {
                        inst.solve_clustered(eps, f64::INFINITY, pol.cluster_width, &cg)
                    });
                    etdd_cl += ts.expect("clustered re-solve succeeds").quality_loss;
                    n_cl += 1;
                }
                _ => {
                    let (ts, _) = tracer.time("tiers.spanner", opid, None, || {
                        inst.solve_spanner(eps, pol.spanner_stretch, &cg)
                    });
                    etdd_sp += ts.expect("spanner re-solve succeeds").quality_loss;
                    n_sp += 1;
                }
            }
        }
    }
    tally.report(tracer, &mut l);
    l.set("tiers.clustered_ms", tracer.total_ms("tiers.clustered"));
    l.set("tiers.spanner_ms", tracer.total_ms("tiers.spanner"));
    l.set("tiers.etdd_clustered_km", etdd_cl / f64::from(n_cl.max(1)));
    l.set("tiers.etdd_spanner_km", etdd_sp / f64::from(n_sp.max(1)));
    // Batch latency minus the solve time the workers themselves recorded
    // for the same keys: queueing, publishing and serving.
    l.set(
        "service.queue_wait_ms",
        (total(traced).as_nanos() as f64 - d.f("service.solve.ns")) / 1e6,
    );
    l.set("local.solve_ms", tracer.total_ms("local.solve"));
    l.set("local.max_lp_vars", max_lp_vars as f64);
    let local: Vec<Arc<LocalShard>> = (0..SHARDS)
        .map(|s| svc.b.local_shard(s).expect("local engine"))
        .collect();
    l.set(
        "local.neighborhoods",
        local
            .iter()
            .map(|ls| ls.plan().neighborhood_count())
            .sum::<usize>() as f64,
    );

    // Replay every served row through the hit path's public pieces.
    let insts: Vec<Arc<VlpInstance>> = (0..SHARDS).map(|s| svc.a.shard_instance(s)).collect();
    let mut rng = common::rng(args.seed, 3);
    let samples: Vec<HitSample<'_>> = ops
        .iter()
        .zip(traced)
        .filter_map(|(op, d)| {
            let mech = d.mech.clone()?;
            let s = if op.local_engine { &svc.b } else { &svc.a };
            let (_, local_loc) = s.partition().to_local(op.loc).expect("on-partition");
            let (graph, disc) = if op.local_engine {
                (local[op.shard].graph(), local[op.shard].disc())
            } else {
                (&insts[op.shard].graph, &insts[op.shard].disc)
            };
            let i = disc.locate(graph, local_loc).expect("on its shard");
            let (row, j) = if op.local_engine {
                let members = local[op.shard].members(op.nb);
                let row = local_index(members, i).expect("an interval is in its own neighborhood");
                (row, members[mech.sample_interval(row, &mut rng)])
            } else {
                (i, mech.sample_interval(i, &mut rng))
            };
            Some(HitSample {
                part: s.partition(),
                global: op.loc,
                graph,
                disc,
                local: local_loc,
                mech,
                row,
                j,
            })
        })
        .collect();
    let [route, locate, sample, transplant] = common::replay_hit_path(&samples, args.seed);
    l.set("service.route_ns", route);
    l.set("mech.locate_ns", locate);
    l.set("mech.sample_ns", sample);
    l.set("mech.transplant_ns", transplant);
    l.0.into_iter().collect()
}
