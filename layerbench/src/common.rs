//! Pieces the three workloads share: registry deltas, input
//! generation, closed-loop clients, and the traced re-solves and
//! replays that yield the per-layer metrics.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use roadnet::{EdgeId, Location, NodeDistances, Partition, RoadGraph};
use vlp_core::constraint_reduction::reduced_spec;
use vlp_core::{
    AuxiliaryGraph, CgDiagnostics, CgOptions, CostMatrix, Discretization, IntervalDistances,
    Mechanism, Prior, PrivacySpec, VlpInstance,
};

use crate::measure::LatencyHist;
use crate::spans::{Span, Tracer};

/// Counters and timers of the program's own `vlp-obs` registry that the
/// benchmark reads. It only reads them: the benchmark's metric names
/// never enter the registry.
const COUNTERS: &[&str] = &[
    "roadnet.dijkstra.runs",
    "roadnet.dijkstra.settled_nodes",
    "lpsolve.simplex.solves",
    "lpsolve.simplex.pivots",
    "lpsolve.simplex.refactorizations",
    "lpsolve.warm.resolves",
    "lpsolve.warm.cold_solves",
    "lpsolve.warm.phase1_skipped",
    "cg.solves",
    "cg.iterations",
    "cg.columns_added",
    "service.cache_hits",
    "service.cache_misses",
    "service.queue.enqueued",
    "service.queue.coalesced",
    "service.solve.lp_vars",
    "service.trace.charges",
    "service.trace.throttled",
    "service.trace.refusals",
];
const TIMERS: &[&str] = &["cg.master", "cg.pricing", "service.solve"];

/// A point-in-time copy of the registry values in [`COUNTERS`] and
/// [`TIMERS`] (timers as `<name>.ns` and `<name>.count`).
#[derive(Debug, Clone, Default)]
pub struct ObsSnap(BTreeMap<String, u64>);

impl ObsSnap {
    pub fn take() -> Self {
        let obs = vlp_obs::global();
        let mut m = BTreeMap::new();
        for &c in COUNTERS {
            m.insert(c.to_string(), obs.counter(c));
        }
        for &t in TIMERS {
            let stat = obs.timer(t);
            m.insert(format!("{t}.ns"), stat.map_or(0, |s| s.total_ns));
            m.insert(format!("{t}.count"), stat.map_or(0, |s| s.count));
        }
        Self(m)
    }

    /// `self − earlier`, per name.
    pub fn since(&self, earlier: &ObsSnap) -> ObsSnap {
        Self(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - earlier.0.get(k).copied().unwrap_or(0)))
                .collect(),
        )
    }

    /// `self + other`, per name.
    pub fn plus(&self, other: &ObsSnap) -> ObsSnap {
        let mut out = self.0.clone();
        for (k, v) in &other.0 {
            *out.entry(k.clone()).or_default() += v;
        }
        Self(out)
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    pub fn f(&self, name: &str) -> f64 {
        self.get(name) as f64
    }
}

pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A uniformly random on-partition location of shard `s` of `graph`.
pub fn location_in_shard(
    graph: &RoadGraph,
    part: &Partition,
    s: usize,
    rng: &mut StdRng,
) -> Location {
    loop {
        let e = EdgeId(rng.random_range(0..graph.edge_count()));
        let len = graph.edge(e).length();
        let loc = Location::new(e, len * rng.random_range(0.05..0.95));
        if matches!(part.to_local(loc), Some((shard, _)) if shard == s) {
            return loc;
        }
    }
}

/// Cumulative Zipf(`exponent`) weights over `n` ranks.
pub fn zipf_cdf(n: usize, exponent: f64) -> Vec<f64> {
    let w: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-exponent)).collect();
    let total: f64 = w.iter().sum();
    let mut acc = 0.0;
    w.iter()
        .map(|x| {
            acc += x / total;
            acc
        })
        .collect()
}

pub fn zipf_draw(cdf: &[f64], rng: &mut StdRng) -> usize {
    let u: f64 = rng.random();
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

/// Closed-loop phases of a second or more are cut into windows of this
/// length (shorter ones into two). Throughput and latency quantiles are
/// medians over the windows, so a burst of interference from other
/// tenants of a shared machine moves a few windows, not the result.
const WINDOW: Duration = Duration::from_millis(500);

/// What one closed-loop client measured: a latency histogram per
/// window since the phase start.
pub struct ClientRun {
    pub ops: u64,
    pub bad: u64,
    start: Instant,
    dur: Duration,
    window: Duration,
    windows: Vec<LatencyHist>,
    spans: Vec<Span>,
}

impl ClientRun {
    /// Whether the phase's duration has elapsed.
    pub fn expired(&self) -> bool {
        self.start.elapsed() >= self.dur
    }

    /// Records the latency `d` of an operation that started at `t0`.
    #[inline]
    pub fn record(&mut self, t0: Instant, d: Duration) {
        let w = ((t0 - self.start).as_nanos() / self.window.as_nanos()) as usize;
        while self.windows.len() <= w {
            self.windows.push(LatencyHist::new());
        }
        self.windows[w].record(d);
    }

    /// Records a `service.submit` span for the operation that just took
    /// `d`, when tracing and the operation is one in [`SPAN_EVERY`].
    /// Operation ids interleave the clients' counts.
    pub fn sample_span(&mut self, tracer: Option<&Tracer>, d: Duration, clients: u64, c: u64) {
        let Some(t) = tracer else { return };
        if self.ops.is_multiple_of(SPAN_EVERY) {
            let end = t.now_ns();
            self.spans.push(Span {
                id: t.next_id(),
                parent: None,
                name: "service.submit",
                op: self.ops * clients + c,
                start_ns: end - d.as_nanos() as u64,
                end_ns: end,
            });
        }
    }
}

/// Merged results of a closed-loop phase: the windows every client
/// covered completely, merged across clients.
pub struct Phase {
    pub ops: u64,
    pub bad: u64,
    window: Duration,
    pub windows: Vec<LatencyHist>,
}

impl Phase {
    /// Median over windows of operations per second.
    pub fn throughput(&self) -> f64 {
        let per_window: Vec<f64> = self
            .windows
            .iter()
            .map(|w| w.len() as f64 / self.window.as_secs_f64())
            .collect();
        crate::measure::median(&per_window)
    }

    /// Median over windows of the windows' nearest-rank `q`-quantile, ns.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let per_window: Vec<f64> = self.windows.iter().map(|w| w.quantile_ns(q)).collect();
        crate::measure::median(&per_window)
    }

    /// Appends another phase's windows and counts.
    pub fn absorb(&mut self, other: Phase) {
        assert_eq!(
            self.window, other.window,
            "absorbed phases share a window length"
        );
        self.ops += other.ops;
        self.bad += other.bad;
        self.windows.extend(other.windows);
    }

    /// A description of the windows and of which order statistic each
    /// latency quantile is within one window.
    pub fn note(&self) -> String {
        let n = self.windows.iter().map(LatencyHist::len).min().unwrap_or(0);
        format!(
            "medians over {} windows of {:?}; per window latency_p50_us = rank {} and {}",
            self.windows.len(),
            self.window,
            crate::measure::nearest_rank(n, 0.5),
            crate::measure::tail_note("latency_p99_us", n, 0.99)
        )
    }
}

/// Runs `clients` closed-loop client threads for `dur`. They start
/// together; each runs `body(client, run)`, which loops until
/// `run.expired()`, and the phase ends when the last returns.
pub fn closed_loop<T: Send>(
    clients: usize,
    dur: Duration,
    tracer: Option<&Tracer>,
    body: impl Fn(usize, &mut ClientRun) -> T + Sync,
) -> (Phase, Vec<T>) {
    let window = if dur >= 2 * WINDOW { WINDOW } else { dur / 2 };
    let barrier = Barrier::new(clients);
    let runs: Vec<(ClientRun, T, Duration)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (barrier, body) = (&barrier, &body);
                scope.spawn(move || {
                    barrier.wait();
                    let mut run = ClientRun {
                        ops: 0,
                        bad: 0,
                        start: Instant::now(),
                        dur,
                        window,
                        windows: Vec::new(),
                        spans: Vec::new(),
                    };
                    let extra = body(c, &mut run);
                    let elapsed = run.start.elapsed();
                    (run, extra, elapsed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let complete = runs
        .iter()
        .map(|(_, _, elapsed)| (elapsed.as_nanos() / window.as_nanos()) as usize)
        .min()
        .expect("at least one client");
    let mut phase = Phase {
        ops: 0,
        bad: 0,
        window,
        windows: (0..complete).map(|_| LatencyHist::new()).collect(),
    };
    let mut extras = Vec::with_capacity(clients);
    for (run, extra, _) in runs {
        phase.ops += run.ops;
        phase.bad += run.bad;
        for (merged, w) in phase.windows.iter_mut().zip(&run.windows) {
            merged.merge(w);
        }
        if let Some(t) = tracer {
            t.extend(run.spans);
        }
        extras.push(extra);
    }
    (phase, extras)
}

/// One traced op in every `SPAN_EVERY` on the hit path records a span;
/// recording every one would turn a sub-microsecond operation into a
/// measurement of the tracer.
pub const SPAN_EVERY: u64 = 64;

/// Per-layer metric values of a traced run, keyed by the names in
/// `BENCHMARK.json`. Every name starts at 0: a layer that does no work
/// in a workload reports 0.
pub struct Layers(pub BTreeMap<&'static str, f64>);

impl Layers {
    pub fn new() -> Self {
        Self(
            crate::PER_LAYER
                .iter()
                .map(|&(name, _, _)| (name, 0.0))
                .collect(),
        )
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(self.0.contains_key(name), "unknown per-layer metric {name}");
        self.0.insert(name, value);
    }

    /// Counters of the service's own solves: roadnet, LP engine and the
    /// miss-path queue, from a registry delta.
    pub fn service_counters(&mut self, d: &ObsSnap) {
        let pivots = d.f("lpsolve.simplex.pivots");
        let lp_ns = d.f("cg.master.ns") + d.f("cg.pricing.ns");
        self.set("lp.solves", d.f("lpsolve.simplex.solves"));
        self.set("lp.pivots", pivots);
        self.set(
            "lp.ns_per_pivot",
            if pivots > 0.0 { lp_ns / pivots } else { 0.0 },
        );
        let warm = d.f("lpsolve.warm.resolves");
        let cold = d.f("lpsolve.warm.cold_solves");
        self.set(
            "lp.warm_hit_rate",
            if warm + cold > 0.0 {
                warm / (warm + cold)
            } else {
                0.0
            },
        );
        self.set(
            "lp.refactorizations",
            d.f("lpsolve.simplex.refactorizations"),
        );
        self.set("lp.phase1_skipped", d.f("lpsolve.warm.phase1_skipped"));
        self.set("tiers.lp_vars", d.f("service.solve.lp_vars"));
        self.set("service.enqueued", d.f("service.queue.enqueued"));
        self.set("service.coalesced", d.f("service.queue.coalesced"));
        self.set("service.solves", d.f("service.solve.count"));
    }
}

/// Records the deterministic solve work of a registry delta as work
/// counts named `<prefix><counter>`.
pub fn solve_work(report: &mut crate::Report, prefix: &str, d: &ObsSnap) {
    for (name, counter) in [
        ("lp.pivots", "lpsolve.simplex.pivots"),
        ("cg.iterations", "cg.iterations"),
        ("cg.columns_added", "cg.columns_added"),
        ("service.solves", "service.solve.count"),
    ] {
        report.work(format!("{prefix}{name}"), d.get(counter));
    }
}

/// Rebuilds the dense per-shard layers of `graph` through their public
/// constructors, one span each, and records the total interval count
/// and the Dijkstra work of exactly this rebuild.
pub fn rebuild_layers(
    tracer: &Tracer,
    layers: &mut Layers,
    graph: &RoadGraph,
    n_shards: usize,
    delta: f64,
) {
    let root = tracer.open("layers.rebuild", 0, None);
    let parent = Some(root.id());
    let before = ObsSnap::take();
    let (part, _) = tracer.time("roadnet.partition", 0, parent, || {
        Partition::by_bands(graph, n_shards)
    });
    let mut k_total = 0;
    for shard in part.shards() {
        let g = shard.graph();
        let (nd, _) = tracer.time("roadnet.all_pairs", 0, parent, || {
            NodeDistances::all_pairs(g)
        });
        let (disc, _) = tracer.time("core.discretize", 0, parent, || {
            Discretization::new(g, delta)
        });
        let (aux, _) = tracer.time("core.aux_build", 0, parent, || {
            AuxiliaryGraph::build(g, &disc)
        });
        let k = disc.len();
        let (cost, _) = tracer.time("core.cost_build", 0, parent, || {
            let d = IntervalDistances::build(g, &nd, &disc);
            CostMatrix::build(&d, &Prior::uniform(k), &Prior::uniform(k))
        });
        black_box((aux, cost));
        k_total += k;
    }
    let d = ObsSnap::take().since(&before);
    tracer.close(root);
    layers.set("roadnet.partition_ms", tracer.total_ms("roadnet.partition"));
    layers.set("roadnet.all_pairs_ms", tracer.total_ms("roadnet.all_pairs"));
    layers.set("roadnet.dijkstra_runs", d.f("roadnet.dijkstra.runs"));
    layers.set(
        "roadnet.settled_nodes",
        d.f("roadnet.dijkstra.settled_nodes"),
    );
    layers.set("core.discretize_ms", tracer.total_ms("core.discretize"));
    layers.set("core.aux_build_ms", tracer.total_ms("core.aux_build"));
    layers.set("core.cost_build_ms", tracer.total_ms("core.cost_build"));
    layers.set("core.intervals_k", k_total as f64);
}

/// Whether a column-generation run ended without either certificate:
/// the Theorem 4.4 gap still open, pricing still finding columns below
/// ξ, and the iteration cap not reached — i.e. it stopped on the
/// flat-objective stall rule.
pub fn stalled(diag: &CgDiagnostics, opts: &CgOptions) -> bool {
    let Some(&zeta) = diag.min_zeta_history.last() else {
        return false;
    };
    gap_rel(diag) > opts.gap_tol.max(1e-12)
        && zeta < opts.xi
        && diag.iterations < opts.max_iterations
}

/// `(master objective − best dual bound) / |master objective|` at the
/// end of a run.
pub fn gap_rel(diag: &CgDiagnostics) -> f64 {
    let obj = diag.master_objective_history.last().copied().unwrap_or(0.0);
    (obj - diag.best_dual_bound()) / obj.abs().max(1e-9)
}

/// The ETDD of the closed-form graph-Laplace floor of `inst` at `eps`.
pub fn floor_etdd(inst: &VlpInstance, eps: f64) -> f64 {
    inst.fallback(eps).quality_loss(&inst.cost)
}

/// Tallies of the traced Exact re-solves (column generation and
/// constraint reduction) over a workload's cold keys.
#[derive(Default)]
pub struct CgTally {
    iterations: usize,
    columns: usize,
    master: Duration,
    pricing: Duration,
    wall: Duration,
    master_pivots: u64,
    pricing_pivots: u64,
    gap_rel: f64,
    stalls: usize,
    floor_losses: usize,
    constraints_reduced: usize,
    constraints_full: usize,
    keys: usize,
    etdd_exact: f64,
    etdd_laplace: f64,
}

impl CgTally {
    /// Re-solves one Exact key directly — constraint reduction, then
    /// `VlpInstance::solve` under the service's options — inside spans.
    pub fn resolve(
        &mut self,
        tracer: &Tracer,
        inst: &VlpInstance,
        eps: f64,
        radius: f64,
        cg: &CgOptions,
        op: u64,
    ) {
        let (spec, _) = tracer.time("cr.reduce", op, None, || {
            reduced_spec(&inst.aux, eps, radius)
        });
        self.constraints_reduced += spec.pair_count();
        self.constraints_full += PrivacySpec::full(&inst.aux, eps, radius).pair_count();
        let (solved, _) = tracer.time("tiers.exact", op, None, || inst.solve(eps, radius, cg));
        let solved = solved.expect("exact re-solve succeeds");
        let diag = &solved.diagnostics;
        self.iterations += diag.iterations;
        self.columns += diag.columns_added;
        self.master += diag.master_time;
        self.pricing += diag.pricing_time;
        self.wall += diag.wall_time;
        self.master_pivots += diag.master_pivots;
        self.pricing_pivots += diag.pricing_pivots;
        self.gap_rel = self.gap_rel.max(gap_rel(diag));
        self.stalls += usize::from(stalled(diag, cg));
        let floor = floor_etdd(inst, eps);
        self.floor_losses += usize::from(solved.quality_loss > floor);
        self.keys += 1;
        self.etdd_exact += solved.quality_loss;
        self.etdd_laplace += floor;
    }

    pub fn report(&self, tracer: &Tracer, layers: &mut Layers) {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        layers.set("cr.reduce_ms", tracer.total_ms("cr.reduce"));
        layers.set("cr.constraints_reduced", self.constraints_reduced as f64);
        if self.constraints_full > 0 {
            layers.set(
                "cr.reduction_ratio",
                self.constraints_reduced as f64 / self.constraints_full as f64,
            );
        }
        layers.set("cg.iterations", self.iterations as f64);
        layers.set("cg.columns_added", self.columns as f64);
        layers.set("cg.master_ms", ms(self.master));
        layers.set("cg.pricing_ms", ms(self.pricing));
        if !self.wall.is_zero() {
            layers.set(
                "cg.pricing_share",
                self.pricing.as_secs_f64() / self.wall.as_secs_f64(),
            );
        }
        layers.set("cg.master_pivots", self.master_pivots as f64);
        layers.set("cg.pricing_pivots", self.pricing_pivots as f64);
        layers.set("cg.gap_rel", self.gap_rel);
        layers.set("cg.stall_exits", self.stalls as f64);
        layers.set("cg.floor_losses", self.floor_losses as f64);
        layers.set("tiers.exact_ms", tracer.total_ms("tiers.exact"));
        if self.keys > 0 {
            layers.set("tiers.etdd_exact_km", self.etdd_exact / self.keys as f64);
            layers.set(
                "tiers.etdd_laplace_km",
                self.etdd_laplace / self.keys as f64,
            );
        }
    }
}

/// One served row replayed through the hit path's public pieces.
pub struct HitSample<'a> {
    pub part: &'a Partition,
    pub global: Location,
    pub graph: &'a RoadGraph,
    pub disc: &'a Discretization,
    pub local: Location,
    pub mech: Arc<Mechanism>,
    pub row: usize,
    /// A global interval the row samples, for the transplant replay.
    pub j: usize,
}

/// Nanoseconds per call of routing, locating, sampling and
/// transplanting, replayed over `samples` outside the service: the
/// median of several timed sweeps.
pub fn replay_hit_path(samples: &[HitSample<'_>], seed: u64) -> [f64; 4] {
    let mut rng = rng(seed, 77);
    let reps = (200_000 / samples.len().max(1)).max(1);
    let per_call = |f: &mut dyn FnMut(&HitSample<'_>)| {
        let mut sweeps: Vec<f64> = (0..7)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..reps {
                    for s in samples {
                        f(s);
                    }
                }
                t.elapsed().as_nanos() as f64 / (reps * samples.len()) as f64
            })
            .collect();
        crate::measure::quantile(&mut sweeps, 0.5)
    };
    let route = per_call(&mut |s| {
        black_box(s.part.to_local(black_box(s.global)));
    });
    let locate = per_call(&mut |s| {
        black_box(s.disc.locate(s.graph, black_box(s.local)));
    });
    let sample = per_call(&mut |s| {
        black_box(s.mech.sample_interval(black_box(s.row), &mut rng));
    });
    let transplant = per_call(&mut |s| {
        black_box(s.disc.transplant(s.graph, black_box(s.local), s.j));
    });
    [route, locate, sample, transplant]
}
