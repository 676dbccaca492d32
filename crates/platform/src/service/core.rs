//! The always-on serving core: long-lived per-shard solver workers fed
//! by bounded MPSC queues, per-shard routing tables behind one lock
//! each, a lock-striped read view that serves cache hits on the caller
//! path, admission control with explicit backpressure, and a graceful
//! draining shutdown.
//!
//! ```text
//!              ┌────────────────────────── CoreShared ──────────────┐
//!  submit ───► │ route → caller's stripe of the shard's read view   │
//!              │   hit  ── stamp LRU, sample under the stripe ► ret │
//!              │   miss ── shard table (Mutex) ── re-scan, then     │
//!              │           admission ─┬─ try_send ─► bounded queue  │
//!              │                      │              │              │
//!              │                      └─ shed ─► stale / fallback / │
//!              │                                 Rejected           │
//!              │ solver workers (N per shard) ◄──┘                  │
//!              │   solve w/ retry ladder → publish → cache/stale    │
//!              │   (republishes the view into every stripe)         │
//!              └────────────────────────────────────────────────────┘
//! ```
//!
//! Read view: each shard's table holds the shard's engine and its LRU
//! cache; every change to either ([`ShardRuntime::update`]) rebuilds an
//! immutable [`ShardView`] — the engine plus, per `(neighborhood,
//! ε-bucket)`, the best cached tier's mechanism and LRU slot — and
//! installs it into every stripe. A stripe is a cache-line-aligned
//! `Mutex<Stripe>` holding the view and the hit counters; a thread
//! uses one fixed stripe, so a hit locks a mutex no other caller
//! shares, probes one hash map, stamps the entry's recency in the
//! stripe's own row of the [`LruClock`] and samples under that guard.
//! The only shared word a hit writes is the shard's LRU tick, and not
//! even that when its row already holds the latest tick for the entry.
//!
//! Lock discipline: locks are taken in the order table → stripe(s) →
//! in-flight counter, never the other way. A thread holds at most one
//! shard's table lock at a time; a publication holds the table lock and
//! then every stripe of that shard in index order, so no hit is in
//! flight while an LRU victim is chosen and none sees the old view
//! afterwards. A view miss releases its stripe before taking the table
//! lock. The trace accountant's ledger stripes are each taken alone,
//! with no other lock held. There is no cycle and no deadlock, and
//! cache hits never enter a queue.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use rand::RngExt;
use roadnet::{Location, Partition, RoadGraph};
use vlp_core::local::local_index;
use vlp_core::{LocalShard, Mechanism, Prior, QualityTier, VlpError};
use vlp_obs::failpoint::{self, site, FaultPlan};

use super::ladder::{
    solve_key, Breaker, BreakerState, CachedSolve, LruCache, LruClock, MechKey, MissOutcome,
    SolveStats,
};
use super::trace::{Admission, TraceAccountant};
use super::{metrics, Obfuscation, Response, Served, ServiceConfig};
use crate::WorkerId;

/// Locks a mutex, recovering the data on poison: core state is kept
/// consistent under panic by construction (injected solver panics are
/// contained by the worker's unwind boundary before any lock is held).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Per-shard counters accumulated under the table lock (misses) or a
/// stripe lock (view hits) and published to the `vlp-obs` registry on
/// [`CoreShared::flush_metrics`] and [`CoreShared::tick`] — the hot
/// path never touches the global registry mutex.
#[derive(Debug, Default)]
pub(crate) struct ShardStats {
    pub(crate) requests: u64,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
    pub(crate) served_optimal: u64,
    pub(crate) served_stale: u64,
    pub(crate) served_fallback: u64,
    pub(crate) enqueued: u64,
    pub(crate) coalesced: u64,
    pub(crate) queue_full: u64,
    pub(crate) breaker_shed: u64,
    pub(crate) rejected: u64,
    pub(crate) degraded: u64,
    /// Serves per quality tier, indexed by the `QualityTier`
    /// discriminant (`Exact`, `Clustered`, `Spanner`, `Laplace`).
    pub(crate) served_tier: [u64; 4],
}

impl ShardStats {
    /// Adds `other`'s counts into `self` and zeroes `other`.
    fn absorb(&mut self, other: &mut ShardStats) {
        let o = std::mem::take(other);
        self.requests += o.requests;
        self.hits += o.hits;
        self.misses += o.misses;
        self.served_optimal += o.served_optimal;
        self.served_stale += o.served_stale;
        self.served_fallback += o.served_fallback;
        self.enqueued += o.enqueued;
        self.coalesced += o.coalesced;
        self.queue_full += o.queue_full;
        self.breaker_shed += o.breaker_shed;
        self.rejected += o.rejected;
        self.degraded += o.degraded;
        for (mine, theirs) in self.served_tier.iter_mut().zip(o.served_tier) {
            *mine += theirs;
        }
    }

    fn flush(&mut self, obs: &vlp_obs::Registry) {
        let pairs = [
            (metrics::REQUESTS, self.requests),
            (metrics::CACHE_HITS, self.hits),
            (metrics::CACHE_MISSES, self.misses),
            (metrics::OPTIMAL_SERVED, self.served_optimal),
            (metrics::STALE_SERVED, self.served_stale),
            (metrics::FALLBACK_SERVED, self.served_fallback),
            (metrics::QUEUE_ENQUEUED, self.enqueued),
            (metrics::QUEUE_COALESCED, self.coalesced),
            (metrics::QUEUE_FULL, self.queue_full),
            (metrics::BREAKER_SHED, self.breaker_shed),
            (metrics::SHED_REJECTED, self.rejected),
            (metrics::SHED_DEGRADED, self.degraded),
        ];
        for (name, value) in pairs {
            if value > 0 {
                obs.incr(name, value);
            }
        }
        for (tier, served) in QualityTier::ALL.into_iter().zip(self.served_tier) {
            if served > 0 {
                obs.incr(metrics::tier_served_metric(tier), served);
            }
        }
        *self = ShardStats::default();
    }
}

/// One shard's routing table: everything the miss path and the publish
/// path share, behind a single per-shard mutex. Cache hits read the
/// [`ShardView`] built from it instead.
#[derive(Debug)]
pub(crate) struct ShardTable {
    /// The shard's solve engine, replaced copy-on-write by a prior
    /// update.
    pub(crate) engine: Arc<LocalShard>,
    pub(crate) cache: LruCache,
    /// Ladder rung 3: mechanisms displaced from the cache, each tagged
    /// with the epoch of its demotion.
    pub(crate) stale: HashMap<MechKey, (CachedSolve, u64)>,
    pub(crate) fallbacks: HashMap<MechKey, Arc<Mechanism>>,
    pub(crate) breaker: Breaker,
    /// `(neighborhood, ε-bucket)` keys with a solve currently queued or
    /// running; duplicate misses coalesce onto it instead of enqueueing
    /// again.
    pub(crate) inflight: HashSet<MechKey>,
    /// The epoch whose half-open probe slot has been used, if any.
    probe_epoch: Option<u64>,
    /// The epoch this shard is blacked out for, if any (set by `tick`
    /// from the chaos plan).
    blackout_epoch: Option<u64>,
    /// Keys whose blackout failure was already accounted this epoch
    /// (one breaker failure per key per epoch, like the batch path).
    blackout_accounted: HashSet<MechKey>,
    /// Bumped by each prior update; solves started under an older
    /// generation are demoted to stale instead of cached as fresh.
    pub(crate) instance_gen: u64,
    pub(crate) stats: ShardStats,
}

impl ShardTable {
    fn new(engine: LocalShard, stripes: usize, config: &ServiceConfig) -> Self {
        Self {
            engine: Arc::new(engine),
            cache: LruCache::striped(config.cache_capacity, stripes),
            stale: HashMap::new(),
            fallbacks: HashMap::new(),
            breaker: Breaker::new(),
            inflight: HashSet::new(),
            probe_epoch: None,
            blackout_epoch: None,
            blackout_accounted: HashSet::new(),
            instance_gen: 0,
            stats: ShardStats::default(),
        }
    }

    /// The read view of this table: the engine plus, per
    /// `(neighborhood, ε-bucket)`, the best cached tier below `Laplace`
    /// — the entry the best-tier-first scan of the miss path would find.
    fn view(&self) -> ShardView {
        let mut slots: HashMap<(u32, u64), ViewEntry> = HashMap::new();
        for (key, &(ref entry, clock_slot)) in &self.cache.map {
            if key.tier >= QualityTier::Laplace {
                continue;
            }
            let slot = ViewEntry {
                tier: key.tier,
                mechanism: Arc::clone(&entry.mechanism),
                clock_slot,
            };
            match slots.entry((key.nb, key.bucket)) {
                Entry::Vacant(v) => {
                    v.insert(slot);
                }
                Entry::Occupied(mut best) if slot.tier < best.get().tier => {
                    best.insert(slot);
                }
                Entry::Occupied(_) => {}
            }
        }
        ShardView {
            engine: Arc::clone(&self.engine),
            clock: Arc::clone(&self.cache.clock),
            slots,
        }
    }

    /// Demotes a displaced cache entry into the bounded stale store
    /// (ladder rung 3), evicting the oldest demotion on overflow.
    pub(crate) fn demote(&mut self, capacity: usize, key: MechKey, entry: CachedSolve, epoch: u64) {
        if !self.stale.contains_key(&key) && self.stale.len() >= capacity {
            if let Some(&victim) = self
                .stale
                .iter()
                .map(|(k, &(_, demoted))| (demoted, k))
                .min()
                .map(|(_, k)| k)
            {
                self.stale.remove(&victim);
            }
        }
        self.stale.insert(key, (entry, epoch));
        vlp_obs::global().incr(metrics::STALE_DEMOTIONS, 1);
    }

    /// The fallback mechanism for `key`'s `(neighborhood, ε-bucket)`
    /// slot, built lazily on first use. Fallbacks are stored at the
    /// `Laplace` tier whatever tier the requesting key carried — one
    /// closed-form mechanism per slot, shared by every tier that sheds
    /// to it.
    pub(crate) fn fallback_entry(
        &mut self,
        engine: &LocalShard,
        key: MechKey,
        canonical: f64,
    ) -> Arc<Mechanism> {
        let key = key.at_tier(QualityTier::Laplace);
        Arc::clone(
            self.fallbacks
                .entry(key)
                .or_insert_with(|| Arc::new(engine.fallback_neighborhood(key.nb, canonical))),
        )
    }

    /// Accounts one cache-miss outcome against this shard, the single
    /// path both frontends and the open-loop blackout take: solve time,
    /// LP shape, retries and panics; breaker success or failure; and on
    /// success the cache insert, demoting any eviction and dropping the
    /// superseded stale copy. A solve that is not `current` (started
    /// under a superseded prior) is demoted to the stale store instead
    /// of cached fresh. Returns the solved entry, or `None` when the
    /// key failed, was blacked out or was shed.
    pub(crate) fn settle(
        &mut self,
        key: MechKey,
        outcome: MissOutcome,
        current: bool,
        epoch: u64,
        config: &ServiceConfig,
    ) -> Option<CachedSolve> {
        let obs = vlp_obs::global();
        let res = &config.resilience;
        if let MissOutcome::Solved(_, elapsed, retries, panics)
        | MissOutcome::Failed(elapsed, retries, panics) = &outcome
        {
            obs.record_duration(metrics::SOLVE_TIME, *elapsed);
            if *retries > 0 {
                obs.incr(metrics::RETRY_ATTEMPTS, u64::from(*retries));
            }
            if *panics > 0 {
                obs.incr(metrics::PANICS_CAUGHT, u64::from(*panics));
            }
        }
        match outcome {
            MissOutcome::Solved(solve, ..) => {
                metrics::record_solve_stats(obs, &solve.stats, config.local.is_some());
                if self.breaker.on_success() {
                    obs.incr(metrics::BREAKER_RECLOSED, 1);
                }
                if current {
                    if let Some((evicted_key, evicted)) = self.cache.insert(key, solve.clone()) {
                        obs.incr(metrics::CACHE_EVICTIONS, 1);
                        self.demote(res.stale_capacity, evicted_key, evicted, epoch);
                    }
                    // A fresh optimum supersedes any stale copy.
                    self.stale.remove(&key);
                } else {
                    // Solved under a superseded prior: privacy-equal,
                    // quality-stale — demote instead of caching fresh.
                    self.demote(res.stale_capacity, key, solve.clone(), epoch);
                }
                Some(solve)
            }
            MissOutcome::Failed(..) | MissOutcome::Blackout => {
                obs.incr(metrics::SOLVE_ERRORS, 1);
                if self.breaker.on_failure(epoch, res.breaker_threshold) {
                    obs.incr(metrics::BREAKER_OPENED, 1);
                }
                None
            }
            MissOutcome::Shed => {
                obs.incr(metrics::BREAKER_SHED, 1);
                None
            }
        }
    }
}

/// One queued cache-miss solve. `reply: Some` is batch mode — the
/// worker only reports the outcome and the batch frontend applies it
/// in deterministic key order; `reply: None` is open-loop mode — the
/// worker publishes the outcome into the shard table itself.
pub(crate) struct SolveJob {
    pub(crate) key: MechKey,
    /// The canonical (bucketed) ε to solve at.
    pub(crate) epsilon: f64,
    /// The epoch (or batch index) keying failpoint evaluation.
    pub(crate) epoch: u64,
    pub(crate) reply: Option<mpsc::Sender<((usize, MechKey), MissOutcome)>>,
}

/// Runs one solve for `key` at `key.tier` on `engine` and packages it
/// with its LP-shape stats. The intermediate tiers read their
/// LP-reduction knobs from `config.tiers`.
///
/// # Panics
///
/// Panics on a `Laplace`-tier key: the graph-Laplace mechanism is
/// closed-form and built by [`ShardTable::fallback_entry`] — it never
/// occupies a solver worker.
fn solve(
    engine: &LocalShard,
    key: MechKey,
    epsilon: f64,
    config: &ServiceConfig,
) -> Result<CachedSolve, VlpError> {
    let (cg, tiers) = (&config.cg, &config.tiers);
    let ls = match key.tier {
        QualityTier::Exact => engine.solve_neighborhood(key.nb, epsilon, cg),
        QualityTier::Clustered => {
            engine.clustered_neighborhood(key.nb, epsilon, tiers.cluster_width, cg)
        }
        QualityTier::Spanner => {
            engine.spanner_neighborhood(key.nb, epsilon, tiers.spanner_stretch, cg)
        }
        QualityTier::Laplace => {
            unreachable!("Laplace is built closed-form, never queued as a solve")
        }
    }?;
    Ok(CachedSolve {
        mechanism: Arc::new(ls.mechanism),
        quality_loss: ls.quality_loss,
        stats: SolveStats {
            support: ls.support.len() as u64,
            lp_vars: ls.lp_vars as u64,
            lp_rows: ls.lp_rows as u64,
        },
    })
}

/// Samples the report of a vehicle at shard-local `local` (interval
/// `i`) from neighborhood `nb`'s `mechanism`: the row is `i`'s position
/// in the sorted support, and the sampled column is lifted back to a
/// global interval and transplanted onto it. Returns the reported
/// interval and location.
pub(crate) fn sample_report<R: RngExt + ?Sized>(
    engine: &LocalShard,
    nb: u32,
    i: usize,
    local: Location,
    mechanism: &Mechanism,
    rng: &mut R,
) -> (usize, Location) {
    let members = engine.members(nb);
    // An interval is always ρ-covered by its assigned center, hence in
    // the ρ + r support ball.
    let row =
        local_index(members, i).expect("an interval is in its assigned neighborhood's support");
    let j = members[mechanism.sample_interval(row, rng)];
    let location = engine
        .disc()
        .transplant(engine.graph(), local, j)
        .expect("reported interval lies on the shard");
    (j, location)
}

/// One `(neighborhood, ε-bucket)` entry of a [`ShardView`]: the best
/// cached tier's mechanism and the cache entry's [`LruClock`] slot.
#[derive(Debug)]
struct ViewEntry {
    tier: QualityTier,
    mechanism: Arc<Mechanism>,
    clock_slot: usize,
}

/// An immutable snapshot of what a shard can serve as a cache hit,
/// rebuilt by every [`ShardRuntime::update`].
#[derive(Debug)]
struct ShardView {
    engine: Arc<LocalShard>,
    /// The shard's LRU recency clock ([`LruCache::clock`]).
    clock: Arc<LruClock>,
    slots: HashMap<(u32, u64), ViewEntry>,
}

/// One read stripe of a shard: the current view and the counters of
/// the hits served through it, folded into the table's on flush.
#[derive(Debug)]
struct Stripe {
    view: Arc<ShardView>,
    /// This stripe's row of the view's [`LruClock`].
    row: usize,
    stats: ShardStats,
}

/// A stripe on cache lines of its own, so two callers' stripes never
/// share a line (128 bytes covers adjacent-line prefetching).
#[derive(Debug)]
#[repr(align(128))]
struct StripeSlot(Mutex<Stripe>);

/// Read stripes per shard: twice the available parallelism, at least
/// 4 and at most 64. Threads take stripes round-robin in the order of
/// their first submit, so up to this many threads never share one.
fn stripe_count() -> usize {
    thread::available_parallelism().map_or(4, |n| (2 * n.get()).clamp(4, 64))
}

/// The calling thread's stripe index, fixed at its first submit.
fn stripe_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    STRIPE.with(|&i| i)
}

/// One region shard's runtime: its routing table (which owns the solve
/// engine), the read stripes serving its cache hits, and the sending
/// half of its bounded solve queue.
#[derive(Debug)]
pub(crate) struct ShardRuntime {
    pub(crate) table: Mutex<ShardTable>,
    stripes: Box<[StripeSlot]>,
    sender: Mutex<Option<SyncSender<SolveJob>>>,
    /// Jobs completed after shutdown began (the drain).
    drained: AtomicU64,
}

impl ShardRuntime {
    fn new(
        engine: LocalShard,
        stripes: usize,
        config: &ServiceConfig,
        sender: SyncSender<SolveJob>,
    ) -> Self {
        let table = ShardTable::new(engine, stripes, config);
        let view = Arc::new(table.view());
        Self {
            stripes: (0..stripes)
                .map(|k| {
                    StripeSlot(Mutex::new(Stripe {
                        view: Arc::clone(&view),
                        row: k + 1,
                        stats: ShardStats::default(),
                    }))
                })
                .collect(),
            table: Mutex::new(table),
            sender: Mutex::new(Some(sender)),
            drained: AtomicU64::new(0),
        }
    }

    /// A snapshot of the shard's engine (cheap: one refcount bump).
    pub(crate) fn engine(&self) -> Arc<LocalShard> {
        Arc::clone(&lock(&self.table).engine)
    }

    /// The calling thread's stripe.
    fn stripe(&self) -> MutexGuard<'_, Stripe> {
        lock(&self.stripes[stripe_index() % self.stripes.len()].0)
    }

    /// Applies `f` — any change to the cache or the engine — to the
    /// locked table `t` with every stripe held, then installs the
    /// rebuilt view into each stripe. No hit runs while `f` picks an
    /// LRU victim, and none is served the old view afterwards.
    pub(crate) fn update<T>(&self, t: &mut ShardTable, f: impl FnOnce(&mut ShardTable) -> T) -> T {
        let mut stripes: Vec<MutexGuard<'_, Stripe>> =
            self.stripes.iter().map(|slot| lock(&slot.0)).collect();
        let out = f(t);
        let view = Arc::new(t.view());
        for stripe in &mut stripes {
            stripe.view = Arc::clone(&view);
        }
        out
    }

    /// Folds every stripe's hit counters into the table's. Called with
    /// the table lock held.
    pub(crate) fn absorb_stripes(&self, t: &mut ShardTable) {
        for slot in self.stripes.iter() {
            t.stats.absorb(&mut lock(&slot.0).stats);
        }
    }

    fn sender(&self) -> Option<SyncSender<SolveJob>> {
        lock(&self.sender).clone()
    }
}

/// What a graceful [`MechanismService::shutdown`] drained: queued or
/// running solve jobs completed between the shutdown request and the
/// last worker exiting, per shard. Shards are drained and joined in
/// shard order, each queue in FIFO order, so given a quiesced set of
/// queued jobs the drain is deterministic.
///
/// [`MechanismService::shutdown`]: super::MechanismService::shutdown
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Solve jobs completed during the drain, indexed by shard.
    pub drained: Vec<u64>,
}

impl ShutdownReport {
    /// Total jobs drained across shards.
    pub fn total(&self) -> u64 {
        self.drained.iter().sum()
    }
}

/// State shared between submitters, solver workers, and the batch
/// frontend.
#[derive(Debug)]
pub(crate) struct CoreShared {
    pub(crate) partition: Partition,
    pub(crate) shards: Vec<ShardRuntime>,
    pub(crate) chaos: Arc<FaultPlan>,
    pub(crate) config: ServiceConfig,
    /// The logical clock: batch index for the batch frontend, tick
    /// count for the open-loop frontend. Chaos schedules, breaker
    /// cooldowns, and staleness ages are all keyed by it.
    pub(crate) epoch: AtomicU64,
    /// Per-vehicle trace-budget ledgers, present only when
    /// [`ServiceConfig::budget`] is `Some` — the disabled path never
    /// takes a ledger lock and is bit-identical to the unaccounted
    /// service.
    accountant: Option<TraceAccountant>,
    inflight_jobs: Mutex<u64>,
    idle: Condvar,
    shutting_down: AtomicBool,
}

impl CoreShared {
    /// The ε-bucket and canonical ε for a requested `epsilon`.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is below one bucket width.
    pub(crate) fn bucket(&self, epsilon: f64) -> (u64, f64) {
        let width = self.config.epsilon_bucket;
        assert!(
            epsilon >= width,
            "requested epsilon {epsilon} is below the bucket width {width}"
        );
        // The nudge keeps exact multiples (5.0 / 0.25) from flooring
        // into the bucket below through float error.
        let bucket = (epsilon / width + 1e-9).floor() as u64;
        (bucket, bucket as f64 * width)
    }

    fn inflight_add(&self) {
        *lock(&self.inflight_jobs) += 1;
    }

    fn inflight_undo(&self) {
        let mut n = lock(&self.inflight_jobs);
        *n -= 1;
        if *n == 0 {
            self.idle.notify_all();
        }
    }

    fn note_done(&self, s: usize) {
        if self.shutting_down.load(Ordering::Relaxed) {
            self.shards[s].drained.fetch_add(1, Ordering::Relaxed);
        }
        self.inflight_undo();
    }

    /// Blocks until no solve job is queued or running.
    pub(crate) fn quiesce(&self) {
        let mut n = lock(&self.inflight_jobs);
        while *n > 0 {
            n = self.idle.wait(n).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Serves one open-loop request on the caller path. See
    /// [`MechanismService::submit`] for the contract.
    ///
    /// [`MechanismService::submit`]: super::MechanismService::submit
    pub(crate) fn submit<R: RngExt + ?Sized>(
        &self,
        worker: WorkerId,
        loc: Location,
        epsilon: f64,
        rng: &mut R,
    ) -> Response {
        let Some((s, local)) = self.partition.to_local(loc) else {
            vlp_obs::global().incr(metrics::OFF_PARTITION, 1);
            return Response::OffPartition { worker };
        };
        // Trace accounting (enabled only): throttle the requested ε
        // against the vehicle's ledger and reserve the grant. The
        // reservation is committed on a serve and released on a
        // rejection, so the ledger equals exactly what was revealed.
        let mut reservation = None;
        let epsilon = match &self.accountant {
            None => epsilon,
            Some(acct) => {
                match acct
                    .ledger(worker)
                    .admit(worker, epsilon, self.config.epsilon_bucket)
                {
                    Admission::Granted { epsilon, throttled } => {
                        reservation = Some((epsilon, throttled));
                        epsilon
                    }
                    Admission::Refused { remaining } => {
                        return Response::BudgetExhausted {
                            worker,
                            shard: s,
                            remaining,
                        }
                    }
                }
            }
        };
        let (bucket, canonical) = self.bucket(epsilon);
        let shard = &self.shards[s];

        // The hot path: the caller's own stripe, one probe of the read
        // view, sampling under the stripe guard. No shared lock, no
        // refcount, no queue.
        let (i, nb) = {
            let mut guard = shard.stripe();
            let Stripe { view, row, stats } = &mut *guard;
            let engine = &view.engine;
            let i = engine
                .disc()
                .locate(engine.graph(), local)
                .expect("shard-local location lies on the shard");
            let nb = engine.neighborhood_of(i);
            if let Some(hit) = view.slots.get(&(nb, bucket)) {
                view.clock.touch(*row, hit.clock_slot);
                stats.requests += 1;
                stats.hits += 1;
                stats.served_optimal += 1;
                stats.served_tier[hit.tier as usize] += 1;
                let tier = hit.tier;
                let (j, location) = sample_report(engine, nb, i, local, &hit.mechanism, rng);
                drop(guard);
                if let (Some(acct), Some((_, throttled))) = (&self.accountant, reservation) {
                    acct.ledger(worker).commit(throttled);
                }
                return Response::Served(Obfuscation {
                    worker,
                    shard: s,
                    interval: j,
                    location,
                    epsilon: canonical,
                    tier,
                    served: Served::Optimal { cached: true },
                });
            }
            (i, nb)
        };

        // View miss. The stripe is released; re-scan under the table
        // lock, since a solve may have been published since.
        let epoch = self.epoch.load(Ordering::Relaxed);
        let slot = MechKey {
            nb,
            bucket,
            tier: QualityTier::Exact,
        };
        let (engine, served) = {
            let mut t = lock(&shard.table);
            t.stats.requests += 1;
            let engine = Arc::clone(&t.engine);
            // Best-tier-first hit scan: a cached clustered or spanner
            // mechanism still beats the fallback. With the default
            // (all-Exact) policy only the first probe ever exists.
            let hit_tier = QualityTier::ALL
                .into_iter()
                .take_while(|&tier| tier < QualityTier::Laplace)
                .find(|&tier| t.cache.contains(slot.at_tier(tier)));
            let served = if let Some(tier) = hit_tier {
                let hit = t
                    .cache
                    .get(slot.at_tier(tier))
                    .map(|e| Arc::clone(&e.mechanism))
                    .expect("contains() above");
                t.stats.hits += 1;
                t.stats.served_optimal += 1;
                t.stats.served_tier[tier as usize] += 1;
                Some((hit, tier, Served::Optimal { cached: true }))
            } else {
                t.stats.misses += 1;
                let key = slot.at_tier(self.config.tiers.background_tier());
                self.admit_miss(&mut t, shard, &engine, key, canonical, epoch)
            };
            (engine, served)
        };
        match served {
            None => {
                if let (Some(acct), Some((granted, _))) = (&self.accountant, reservation) {
                    // Nothing was revealed; return the reservation.
                    acct.ledger(worker).release(worker, granted);
                }
                Response::Rejected {
                    worker,
                    shard: s,
                    epsilon: canonical,
                }
            }
            Some((mechanism, tier, served)) => {
                if let (Some(acct), Some((_, throttled))) = (&self.accountant, reservation) {
                    acct.ledger(worker).commit(throttled);
                }
                let (j, location) = sample_report(&engine, nb, i, local, &mechanism, rng);
                Response::Served(Obfuscation {
                    worker,
                    shard: s,
                    interval: j,
                    location,
                    epsilon: canonical,
                    tier,
                    served,
                })
            }
        }
    }

    /// The cache-miss half of `submit`: admission control, then a
    /// degraded serve (stale → prebuilt fallback → `None` = reject).
    /// Called with the shard's table lock held.
    fn admit_miss(
        &self,
        t: &mut ShardTable,
        shard: &ShardRuntime,
        engine: &LocalShard,
        key: MechKey,
        canonical: f64,
        epoch: u64,
    ) -> Option<(Arc<Mechanism>, QualityTier, Served)> {
        // Rung 2 gate: open breakers shed without an attempt; half-open
        // breakers admit one probe solve per epoch.
        let admitted = match t.breaker.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                t.stats.breaker_shed += 1;
                false
            }
            BreakerState::HalfOpen => {
                if t.probe_epoch == Some(epoch) {
                    t.stats.breaker_shed += 1;
                    false
                } else {
                    t.probe_epoch = Some(epoch);
                    true
                }
            }
        };
        let mut solve_pending = false;
        let mut shed = !admitted;
        if admitted && t.blackout_epoch == Some(epoch) {
            // An injected blackout fails the miss without a solve
            // attempt; the breaker hears about it once per key per
            // epoch, mirroring the batch path's accounting.
            if t.blackout_accounted.insert(key) {
                t.settle(key, MissOutcome::Blackout, true, epoch, &self.config);
            }
            shed = true;
        } else if admitted {
            if t.inflight.contains(&key) {
                // A solve for this key is already queued or running.
                t.stats.coalesced += 1;
                solve_pending = true;
            } else {
                self.inflight_add();
                let job = SolveJob {
                    key,
                    epsilon: canonical,
                    epoch,
                    reply: None,
                };
                match shard.sender().map(|tx| tx.try_send(job)) {
                    Some(Ok(())) => {
                        t.inflight.insert(key);
                        t.stats.enqueued += 1;
                        solve_pending = true;
                    }
                    Some(Err(TrySendError::Full(_))) => {
                        self.inflight_undo();
                        t.stats.queue_full += 1;
                        shed = true;
                    }
                    Some(Err(TrySendError::Disconnected(_))) | None => {
                        // Shutting down: no new solves are admitted.
                        self.inflight_undo();
                        shed = true;
                    }
                }
            }
        }
        if solve_pending && !shed {
            // Warming: the optimum is on its way; hold the line with
            // the fallback floor at the same canonical ε (rung 4).
            t.stats.served_fallback += 1;
            t.stats.served_tier[QualityTier::Laplace as usize] += 1;
            return Some((
                t.fallback_entry(engine, key, canonical),
                QualityTier::Laplace,
                Served::Fallback,
            ));
        }
        // Shed: rung 3 (stale) if available, else a *prebuilt* fallback.
        // Nothing is constructed under backpressure — a cold shed key is
        // rejected outright, which is the explicit-backpressure contract.
        if let Some((entry, demoted)) = t.stale.get(&key) {
            t.stats.served_stale += 1;
            t.stats.degraded += 1;
            t.stats.served_tier[key.tier as usize] += 1;
            let age = epoch.saturating_sub(*demoted);
            return Some((
                Arc::clone(&entry.mechanism),
                key.tier,
                Served::Stale { age_batches: age },
            ));
        }
        if let Some(m) = t.fallbacks.get(&key.at_tier(QualityTier::Laplace)) {
            t.stats.served_fallback += 1;
            t.stats.degraded += 1;
            t.stats.served_tier[QualityTier::Laplace as usize] += 1;
            return Some((Arc::clone(m), QualityTier::Laplace, Served::Fallback));
        }
        t.stats.rejected += 1;
        None
    }

    /// Blocking enqueue for the batch frontend (reply mode). Returns
    /// `false` if the shard's queue is gone (shutdown).
    pub(crate) fn enqueue_batch(
        &self,
        s: usize,
        key: MechKey,
        epsilon: f64,
        epoch: u64,
        reply: mpsc::Sender<((usize, MechKey), MissOutcome)>,
    ) -> bool {
        let job = SolveJob {
            key,
            epsilon,
            epoch,
            reply: Some(reply),
        };
        self.inflight_add();
        match self.shards[s].sender().map(|tx| tx.send(job)) {
            Some(Ok(())) => true,
            _ => {
                self.inflight_undo();
                false
            }
        }
    }

    /// Advances the logical clock by one epoch: evaluates epoch-scoped
    /// chaos (evict storms, shard blackouts), ticks every breaker, and
    /// samples the per-shard health series. Returns the new epoch.
    pub(crate) fn tick(&self) -> u64 {
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        let obs = vlp_obs::global();
        let chaos_on = !self.chaos.is_empty();
        let storm = chaos_on && self.chaos.evaluate(site::SERVICE_EVICT_STORM, epoch);
        let cooldown = self.config.resilience.breaker_cooldown;
        let stale_capacity = self.config.resilience.stale_capacity;
        for (s, shard) in self.shards.iter().enumerate() {
            let mut t = lock(&shard.table);
            if chaos_on {
                if storm {
                    shard.update(&mut t, |t| {
                        for (bucket, entry) in t.cache.drain_all() {
                            t.demote(stale_capacity, bucket, entry, epoch);
                        }
                    });
                }
                if self.chaos.evaluate(&site::shard_blackout(s), epoch) {
                    t.blackout_epoch = Some(epoch);
                    t.blackout_accounted.clear();
                }
            }
            if t.breaker.tick(epoch, cooldown) {
                obs.incr(metrics::BREAKER_HALF_OPEN, 1);
            }
            obs.push(&metrics::breaker_state_series(s), t.breaker.state.as_f64());
            obs.push(&metrics::queue_depth_series(s), t.inflight.len() as f64);
            shard.absorb_stripes(&mut t);
            t.stats.flush(obs);
        }
        if let Some(acct) = &self.accountant {
            obs.push(metrics::TRACE_FILL, acct.mean_fill());
            acct.flush(obs);
        }
        epoch
    }

    /// Publishes accumulated per-shard counters — the table's and every
    /// stripe's — into the `vlp-obs` registry without advancing the
    /// epoch.
    pub(crate) fn flush_metrics(&self) {
        let obs = vlp_obs::global();
        for shard in &self.shards {
            let mut t = lock(&shard.table);
            shard.absorb_stripes(&mut t);
            t.stats.flush(obs);
        }
        if let Some(acct) = &self.accountant {
            acct.flush(obs);
        }
    }

    /// Cumulative ε charged to `worker`'s trace budget; `None` when
    /// accounting is disabled.
    pub(crate) fn budget_spent(&self, worker: WorkerId) -> Option<f64> {
        self.accountant
            .as_ref()
            .map(|a| a.ledger(worker).spent(worker))
    }

    /// The trace-budget ledger as a sorted `(vehicle, spent ε)` list;
    /// empty when accounting is disabled.
    pub(crate) fn budget_ledger(&self) -> Vec<(WorkerId, f64)> {
        self.accountant
            .as_ref()
            .map(TraceAccountant::entries)
            .unwrap_or_default()
    }

    /// Swaps shard `s`'s instance for one with the new worker prior
    /// (copy-on-write) and invalidates its cached mechanisms — they
    /// were optimal for the old prior — in one publication of the read
    /// view. Fallbacks are prior-free and stay. In-flight solves
    /// against the old instance are demoted to the stale store when
    /// they land (generation check).
    pub(crate) fn set_worker_prior(&self, s: usize, f_p: Prior) {
        let shard = &self.shards[s];
        let mut engine = (*shard.engine()).clone();
        engine.set_worker_prior(f_p);
        let engine = Arc::new(engine);
        let epoch = self.epoch.load(Ordering::Relaxed);
        let stale_capacity = self.config.resilience.stale_capacity;
        let mut t = lock(&shard.table);
        shard.update(&mut t, |t| {
            t.engine = engine;
            t.instance_gen += 1;
            let dropped = t.cache.drain_all();
            vlp_obs::global().incr(metrics::PRIOR_INVALIDATIONS, dropped.len() as u64);
            // The displaced mechanisms are optimal for the *old* prior:
            // stale in quality, identical in privacy — demote, don't
            // drop.
            for (bucket, entry) in dropped {
                t.demote(stale_capacity, bucket, entry, epoch);
            }
        });
    }

    /// Runs one solve job through the retry ladder (rung 1): up to
    /// `max_attempts` attempts with deterministic exponential backoff
    /// plus seeded jitter, each under a failpoint scope keyed by
    /// `(epoch, shard, bucket, attempt)` and an unwind boundary.
    /// Returns the outcome and the instance generation it solved under.
    fn run_solve(&self, s: usize, job: &SolveJob) -> (MissOutcome, u64) {
        let (gen, engine) = {
            let t = lock(&self.shards[s].table);
            (t.instance_gen, Arc::clone(&t.engine))
        };
        let chaos_on = !self.chaos.is_empty();
        let res = &self.config.resilience;
        let base_ns = res.backoff_base.as_nanos() as u64;
        let cap_ns = res.backoff_cap.as_nanos() as u64;
        let key = (s, job.key);
        let started = Instant::now();
        let mut retries = 0u32;
        let mut panics = 0u32;
        let mut solved: Option<CachedSolve> = None;
        for attempt in 1..=res.max_attempts {
            if attempt > 1 {
                retries += 1;
                let exp = base_ns
                    .saturating_mul(1u64 << (attempt - 2).min(20))
                    .min(cap_ns);
                let jitter = failpoint::backoff_jitter_ns(
                    self.chaos.seed(),
                    solve_key(job.epoch, key, 0),
                    attempt,
                    base_ns,
                );
                thread::sleep(Duration::from_nanos(exp + jitter));
            }
            let _scope = chaos_on.then(|| {
                failpoint::activate(Arc::clone(&self.chaos), solve_key(job.epoch, key, attempt))
            });
            let result = catch_unwind(AssertUnwindSafe(|| {
                solve(&engine, job.key, job.epsilon, &self.config)
            }));
            match result {
                Ok(Ok(sv)) => {
                    solved = Some(sv);
                    break;
                }
                Ok(Err(_)) => {}
                Err(_) => panics += 1,
            }
        }
        let outcome = match solved {
            Some(sv) => MissOutcome::Solved(sv, started.elapsed(), retries, panics),
            None => MissOutcome::Failed(started.elapsed(), retries, panics),
        };
        (outcome, gen)
    }

    /// Applies an open-loop solve outcome to the shard table
    /// ([`ShardTable::settle`]); a solve started under a superseded
    /// prior generation is demoted to stale instead of cached fresh.
    fn publish(&self, s: usize, key: MechKey, gen: u64, outcome: MissOutcome) {
        let epoch = self.epoch.load(Ordering::Relaxed);
        let shard = &self.shards[s];
        let mut t = lock(&shard.table);
        t.inflight.remove(&key);
        let current = gen == t.instance_gen;
        shard.update(&mut t, |t| {
            t.settle(key, outcome, current, epoch, &self.config);
        });
    }
}

/// The solver-worker main loop: receive, solve through the retry
/// ladder, publish (open-loop) or reply (batch), repeat until the
/// queue disconnects.
fn worker_loop(shared: Arc<CoreShared>, s: usize, rx: Arc<Mutex<Receiver<SolveJob>>>) {
    loop {
        // Workers of one shard share the receiver behind a mutex; recv
        // blocks while holding it, which is exactly the work-stealing
        // we want (any idle worker takes the next job).
        let job = match lock(&rx).recv() {
            Ok(job) => job,
            Err(_) => break,
        };
        let (outcome, gen) = shared.run_solve(s, &job);
        match &job.reply {
            Some(tx) => {
                // Batch mode: the frontend applies the outcome in
                // deterministic key order; a dropped receiver means the
                // batch gave up waiting, which cannot happen (it drains
                // exactly the jobs it enqueued).
                let _ = tx.send(((s, job.key), outcome));
            }
            None => shared.publish(s, job.key, gen, outcome),
        }
        shared.note_done(s);
    }
}

/// The owning handle of the serving core: shared state plus the worker
/// threads. Dropping it shuts the core down gracefully.
#[derive(Debug)]
pub(crate) struct ServingCore {
    pub(crate) shared: Arc<CoreShared>,
    workers: Vec<JoinHandle<()>>,
}

impl ServingCore {
    pub(crate) fn new(graph: RoadGraph, config: ServiceConfig) -> Self {
        assert!(config.n_shards > 0, "need at least one shard");
        assert!(config.delta > 0.0, "delta must be positive");
        assert!(config.epsilon_bucket > 0.0, "bucket width must be positive");
        assert!(config.cache_capacity > 0, "cache capacity must be positive");
        assert!(config.queue_capacity > 0, "queue capacity must be positive");
        assert!(config.solver_threads > 0, "need at least one solver thread");
        assert!(
            config.resilience.max_attempts > 0,
            "need at least one solve attempt"
        );
        assert!(
            config.resilience.breaker_threshold > 0,
            "breaker threshold must be positive"
        );
        assert!(
            config.resilience.stale_capacity > 0,
            "stale capacity must be positive"
        );
        assert!(
            config.tiers.cluster_width >= 0.0 && config.tiers.cluster_width.is_finite(),
            "cluster width must be finite and non-negative"
        );
        assert!(
            config.tiers.spanner_stretch >= 1.0 && config.tiers.spanner_stretch.is_finite(),
            "spanner stretch must be finite and at least 1"
        );
        if let Some(budget) = &config.budget {
            budget.validate(config.epsilon_bucket);
        }
        if let Some(local) = &config.local {
            assert!(local.rho > 0.0, "assignment radius rho must be positive");
            assert!(
                local.rho.is_infinite() || config.radius.is_finite(),
                "locally-relevant mode with a finite rho requires a finite \
                 protection radius (the support of a neighborhood is its \
                 rho + radius ball)"
            );
        }
        let partition = Partition::by_bands(&graph, config.n_shards);
        let chaos = Arc::new(config.chaos.clone());
        let mut receivers = Vec::new();
        let mut neighborhoods = 0u64;
        let stripes = stripe_count();
        let shards: Vec<ShardRuntime> = partition
            .shards()
            .iter()
            .map(|s| {
                let (tx, rx) = mpsc::sync_channel(config.queue_capacity);
                receivers.push(Arc::new(Mutex::new(rx)));
                // Full-shard mode is the ρ = ∞ plan: one neighborhood
                // spanning the shard, served by its dense instance.
                let rho = config.local.map_or(f64::INFINITY, |local| local.rho);
                let engine =
                    LocalShard::uniform(s.graph().clone(), config.delta, rho, config.radius);
                neighborhoods += engine.plan().neighborhood_count() as u64;
                ShardRuntime::new(engine, stripes, &config, tx)
            })
            .collect();
        if config.local.is_some() {
            vlp_obs::global().incr(metrics::LOCAL_NEIGHBORHOODS, neighborhoods);
        }
        let accountant = config.budget.map(TraceAccountant::new);
        let shared = Arc::new(CoreShared {
            partition,
            shards,
            chaos,
            config,
            epoch: AtomicU64::new(0),
            accountant,
            inflight_jobs: Mutex::new(0),
            idle: Condvar::new(),
            shutting_down: AtomicBool::new(false),
        });
        let mut workers = Vec::new();
        for (s, rx) in receivers.into_iter().enumerate() {
            for w in 0..shared.config.solver_threads {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&rx);
                let handle = thread::Builder::new()
                    .name(format!("vlp-solve-{s}.{w}"))
                    .spawn(move || worker_loop(shared, s, rx))
                    .expect("spawn solver worker");
                workers.push(handle);
            }
        }
        Self { shared, workers }
    }

    /// Graceful shutdown: stops admitting solves, drops the queue
    /// senders in shard order, and joins every worker — each drains
    /// its queue FIFO before exiting. Idempotent.
    pub(crate) fn shutdown(&mut self) -> ShutdownReport {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        for shard in &self.shared.shards {
            lock(&shard.sender).take();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        let drained: Vec<u64> = self
            .shared
            .shards
            .iter()
            .map(|shard| shard.drained.swap(0, Ordering::Relaxed))
            .collect();
        let total: u64 = drained.iter().sum();
        if total > 0 {
            vlp_obs::global().incr(metrics::QUEUE_DRAINED, total);
        }
        ShutdownReport { drained }
    }
}

impl Drop for ServingCore {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}
