//! Contract tests for the striped cache-hit path of the serving core.
//! Every hit is served from the calling thread's read stripe, so these
//! tests check what the stripes must never change: a displaced
//! mechanism is never served after the operation that displaced it
//! returns, flushed counters lose no hit, and the order of hits across
//! threads decides the LRU victim. Interleavings are forced with
//! barriers, never with sleeps.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::thread;

use platform::service::metrics;
use platform::{MechanismService, Response, Served, ServiceConfig, ServiceHandle, WorkerId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use roadnet::{generators, Location};
use vlp_bench::scenarios::shard_locations;
use vlp_core::{Prior, QualityTier};
use vlp_obs::failpoint::{site, FaultMode, FaultPlan};

/// The telemetry registry is process-global; tests in this file take
/// this lock so that counter deltas see only their own service.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

/// A two-shard service and two request locations per shard.
fn service(cache_capacity: usize, chaos: FaultPlan) -> (MechanismService, Vec<Vec<Location>>) {
    let graph = generators::grid(3, 4, 0.4, true);
    let edges = graph.edge_count();
    let svc = MechanismService::new(
        graph,
        ServiceConfig {
            n_shards: 2,
            delta: 0.2,
            cache_capacity,
            chaos,
            ..ServiceConfig::default()
        },
    );
    let locs = shard_locations(&svc, edges, 2);
    assert!(locs.iter().all(|l| l.len() == 2), "two locations per shard");
    (svc, locs)
}

fn served(r: &Response) -> Served {
    match r {
        Response::Served(o) => o.served,
        other => panic!("request was not served: {other:?}"),
    }
}

fn is_hit(r: &Response) -> bool {
    served(r) == Served::Optimal { cached: true }
}

/// Solves `(loc's shard, eps)` through a cold submit and waits for it
/// to land in the cache.
fn warm(h: &ServiceHandle, loc: Location, eps: f64) {
    let mut rng = StdRng::seed_from_u64(0);
    assert_eq!(
        served(&h.submit(WorkerId(0), loc, eps, &mut rng)),
        Served::Fallback,
        "a cold key serves the fallback"
    );
    h.quiesce();
}

/// A second thread is served `eps` at `loc` as a cache hit, then waits
/// while `displace` runs on this thread. Returns that thread's first
/// response after `displace` returned.
fn first_submit_after(
    svc: &mut MechanismService,
    loc: Location,
    eps: f64,
    displace: impl FnOnce(&mut MechanismService),
) -> Response {
    let handle = svc.handle();
    let barrier = Arc::new(Barrier::new(2));
    let reader = {
        let barrier = Arc::clone(&barrier);
        thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(1);
            let before = handle.submit(WorkerId(1), loc, eps, &mut rng);
            assert!(is_hit(&before), "the warm key hits: {before:?}");
            barrier.wait(); // the hit is done
            barrier.wait(); // the displacement is done
            handle.submit(WorkerId(1), loc, eps, &mut rng)
        })
    };
    barrier.wait();
    displace(svc);
    barrier.wait();
    reader.join().expect("reader thread")
}

#[test]
fn prior_update_is_never_served_the_displaced_mechanism() {
    let _serial = serial();
    let (mut svc, locs) = service(64, FaultPlan::default());
    warm(&svc.handle(), locs[0][0], 5.0);
    let k = svc.shard_instance(0).len();
    let after = first_submit_after(&mut svc, locs[0][0], 5.0, |svc| {
        svc.set_worker_prior(0, Prior::uniform(k));
    });
    assert_eq!(served(&after), Served::Fallback, "{after:?}");
}

#[test]
fn evict_storm_is_never_served_the_displaced_mechanism() {
    let _serial = serial();
    // The open-loop tick to epoch 1 purges every cache.
    let storm = FaultPlan::new(3).with(
        site::SERVICE_EVICT_STORM,
        FaultMode::Window { from: 1, to: 2 },
    );
    let (mut svc, locs) = service(64, storm);
    warm(&svc.handle(), locs[0][0], 5.0);
    let after = first_submit_after(&mut svc, locs[0][0], 5.0, |svc| {
        assert_eq!(svc.tick(), 1);
        assert_eq!(svc.cached_mechanisms(), 0, "the storm purged the cache");
    });
    assert_eq!(served(&after), Served::Fallback, "{after:?}");
}

#[test]
fn capacity_eviction_is_never_served_the_displaced_mechanism() {
    let _serial = serial();
    let (mut svc, locs) = service(2, FaultPlan::default());
    let loc = locs[0][0];
    warm(&svc.handle(), loc, 5.0);
    warm(&svc.handle(), loc, 10.0);
    let after = first_submit_after(&mut svc, loc, 5.0, |svc| {
        // The reader's hit made ε = 5 the most recent; a hit on ε = 10
        // makes it the least recent, and the ε = 20 insert evicts it.
        let mut rng = StdRng::seed_from_u64(2);
        assert!(is_hit(&svc.submit(WorkerId(2), loc, 10.0, &mut rng)));
        warm(&svc.handle(), loc, 20.0);
        assert!(svc.cached_mechanism(0, 5.0).is_none(), "ε = 5 was evicted");
        assert!(svc.stale_mechanism(0, 5.0).is_some(), "and demoted");
    });
    assert_eq!(served(&after), Served::Fallback, "{after:?}");
}

#[test]
fn concurrent_hits_are_all_counted_exactly() {
    const THREADS: usize = 6;
    const HITS: usize = 2_000;
    let _serial = serial();
    let (svc, locs) = service(64, FaultPlan::default());
    let keys: Vec<(Location, f64)> = locs
        .iter()
        .flat_map(|shard| [(shard[0], 5.0), (shard[1], 10.0)])
        .collect();
    let handle = svc.handle();
    for &(loc, eps) in &keys {
        warm(&handle, loc, eps);
    }
    let obs = vlp_obs::global();
    let names = [
        metrics::REQUESTS,
        metrics::CACHE_HITS,
        metrics::CACHE_MISSES,
        metrics::OPTIMAL_SERVED,
        metrics::tier_served_metric(QualityTier::Exact),
        metrics::tier_served_metric(QualityTier::Laplace),
    ];
    handle.flush_metrics();
    let before: Vec<u64> = names.iter().map(|n| obs.counter(n)).collect();

    // Hitting threads race each other and a thread that keeps folding
    // the stripes' counters into the registry.
    let start = Barrier::new(THREADS + 1);
    let done = AtomicUsize::new(0);
    thread::scope(|scope| {
        for t in 0..THREADS {
            let (handle, keys, start, done) = (handle.clone(), &keys, &start, &done);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(10 + t as u64);
                start.wait();
                for i in 0..HITS {
                    let (loc, eps) = keys[(i + t) % keys.len()];
                    let r = handle.submit(WorkerId(t), loc, eps, &mut rng);
                    assert!(is_hit(&r), "thread {t} op {i}: {r:?}");
                }
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        let (handle, start, done) = (handle.clone(), &start, &done);
        scope.spawn(move || {
            start.wait();
            while done.load(Ordering::SeqCst) < THREADS {
                handle.flush_metrics();
                thread::yield_now();
            }
        });
    });
    handle.flush_metrics();
    let delta: Vec<u64> = names
        .iter()
        .zip(&before)
        .map(|(n, b)| obs.counter(n) - b)
        .collect();
    let all = (THREADS * HITS) as u64;
    assert_eq!(delta, vec![all, all, 0, all, all, 0], "{names:?}");
}

/// Thread A hits `first`, then thread B hits `second`, then an insert
/// into the full two-entry cache evicts the least recently used entry.
/// Returns the evicted ε.
fn victim_after_hits(first: f64, second: f64) -> f64 {
    let (svc, locs) = service(2, FaultPlan::default());
    let loc = locs[0][0];
    let handle = svc.handle();
    warm(&handle, loc, 5.0);
    warm(&handle, loc, 10.0);
    let order = Barrier::new(2);
    thread::scope(|scope| {
        for (eps, leads) in [(first, true), (second, false)] {
            let (handle, order) = (handle.clone(), &order);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(3);
                if !leads {
                    order.wait();
                }
                assert!(is_hit(&handle.submit(WorkerId(3), loc, eps, &mut rng)));
                if leads {
                    order.wait();
                }
            });
        }
    });
    warm(&handle, loc, 20.0);
    let evicted: Vec<f64> = [5.0, 10.0]
        .into_iter()
        .filter(|&eps| svc.cached_mechanism(0, eps).is_none())
        .collect();
    assert_eq!(evicted.len(), 1, "exactly one entry evicted: {evicted:?}");
    assert!(svc.cached_mechanism(0, 20.0).is_some());
    evicted[0]
}

#[test]
fn order_of_hits_across_threads_decides_the_lru_victim() {
    let _serial = serial();
    assert_eq!(victim_after_hits(5.0, 10.0), 5.0);
    assert_eq!(victim_after_hits(10.0, 5.0), 10.0);
}
