//! `inproc_churn`: two caller threads in a closed loop on
//! `ShardedNvMemcached::set`/`get`, no sockets.
//!
//! Half the calls are sets and keys are scrambled-zipfian (θ = 0.99) over
//! a million keys, against a cache filled to its 250k-item capacity: hot
//! keys are written and read back while their links are still pending,
//! sets evict, and evicted and replaced nodes go through epoch
//! reclamation. The persistence path does all the work; the server none.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use bench::hist::Histogram;
use nvalloc::AptStats;
use nvmemcached::sharded::ShardedNvMemcached;
use pmem::{LatencyModel, Mode, PmemPool, PoolBuilder};
use workload::{KeyDist, KeySampler, Xorshift};

use crate::common::{self, p_us, Windowed, SHARDS};
use crate::gen::{key_of_value, value_of};
use crate::ladder::{self, LadderInput, Op};
use crate::report::{median, peak_rss_mb, Metrics, Outcome, Tally};
use crate::trace::Tracer;

#[derive(Debug, Clone)]
pub struct ChurnCfg {
    pub keys: u64,
    pub capacity: usize,
    pub threads: usize,
    pub light: Duration,
    pub busy: Duration,
    pub setups: usize,
    /// Restarts after each part: at least this many, for at least this
    /// long.
    pub restarts: (usize, Duration),
    pub ladder_ops: usize,
}

impl ChurnCfg {
    pub fn standard(seconds: u64) -> ChurnCfg {
        let s = seconds as f64;
        ChurnCfg {
            keys: 1_000_000,
            capacity: 250_000,
            threads: 2,
            light: Duration::from_secs_f64(0.3 * s),
            busy: Duration::from_secs_f64(0.7 * s),
            setups: common::SETUPS,
            restarts: (3, Duration::from_secs_f64(0.035 * s)),
            ladder_ops: 40_000,
        }
    }
}

const POOL_BYTES: usize = 64 << 20;

/// Parts of a run: each runs a share of the light and busy phases and
/// restarts its image.
const PARTS: usize = 6;
const BUCKETS: usize = 4096;

/// The per-call limit behind `max_rps_at_slo`. A get takes under 1 µs and
/// a set about 3 µs; sets that evict, refill an allocation buffer or wait
/// on reclamation miss it (about 13 % of them), so the figure moves with
/// the tail and not only with the mean.
const CALL_LIMIT: Duration = Duration::from_micros(5);

/// One draw of thread `t`'s stream: the zipfian key distribution
/// restricted to the keys `t` owns, half sets.
fn draw(
    sampler: &KeySampler,
    rng: &mut Xorshift,
    t: usize,
    threads: usize,
    clock: u64,
) -> (u64, bool) {
    loop {
        let k = sampler.sample(rng, clock);
        if (k % threads as u64) as usize == t {
            return (k, rng.bounded(2) == 0);
        }
    }
}

fn thread_rng(seed: u64, t: usize) -> Xorshift {
    Xorshift::for_thread(seed, t)
}

struct Rig {
    pools: Vec<Arc<PmemPool>>,
    cache: ShardedNvMemcached,
    /// The last value written per key (index = key).
    expect: Arc<Vec<AtomicU64>>,
}

/// Pools and a cache filled to capacity with every grow finished.
fn setup(cfg: &ChurnCfg) -> Rig {
    let pools: Vec<_> = (0..SHARDS)
        .map(|_| {
            PoolBuilder::new(POOL_BYTES)
                .mode(Mode::Perf)
                .latency(LatencyModel::new(common::NVRAM_NS))
                .build()
        })
        .collect();
    let cache =
        ShardedNvMemcached::create(&pools, BUCKETS, cfg.capacity, true).expect("fresh pools");
    let expect: Arc<Vec<AtomicU64>> = Arc::new((0..=cfg.keys).map(|_| AtomicU64::new(0)).collect());
    std::thread::scope(|s| {
        for t in 0..cfg.threads {
            let (cache, expect) = (&cache, &expect);
            s.spawn(move || {
                let mut ctx = cache.register();
                let fill = cfg.capacity as u64;
                for k in (1..=fill).filter(|k| (k % cfg.threads as u64) as usize == t) {
                    let v = value_of(k, 1);
                    cache.set(&mut ctx, k, v).expect("the pools hold the fill");
                    expect[k as usize].store(v, Ordering::Relaxed);
                }
            });
        }
    });
    let mut ctx = cache.register();
    while cache.resize_in_flight() {
        cache.finish_resize(&mut ctx).expect("room to finish growing");
    }
    drop(ctx);
    cache.reset_shard_requests();
    Rig { pools, cache, expect }
}

/// Judges a `get` answer against the last value written.
fn check(expect: &[AtomicU64], k: u64, got: Option<u64>) -> Result<(), &'static str> {
    match got {
        // Sets evict, so a miss is a legal answer.
        None => Ok(()),
        Some(v) if key_of_value(v) != k => Err("wrong_key"),
        Some(v) if v != expect[k as usize].load(Ordering::Relaxed) => Err("stale_value"),
        Some(_) => Ok(()),
    }
}

#[derive(Default)]
struct Worker {
    get: Histogram,
    set: Histogram,
    tally: Tally,
    ops: u64,
    gets: u64,
    hits: u64,
    alloc: AptStats,
    elapsed: Duration,
}

fn busy_phase(
    cfg: &ChurnCfg,
    cache: &ShardedNvMemcached,
    expect: &[AtomicU64],
    sampler: &KeySampler,
    seed: u64,
    span: Duration,
) -> Vec<Worker> {
    let start = Barrier::new(cfg.threads);
    std::thread::scope(|s| {
        let hs: Vec<_> = (0..cfg.threads)
            .map(|t| {
                let start = &start;
                s.spawn(move || {
                    let mut rng = thread_rng(seed, t);
                    let mut ctx = cache.register();
                    for i in 0..SHARDS {
                        ctx.shard_ctx(i).reset_stats();
                    }
                    let mut w = Worker::default();
                    start.wait();
                    let t0 = Instant::now();
                    let deadline = t0 + span;
                    loop {
                        if w.ops % 64 == 0 && Instant::now() >= deadline {
                            break;
                        }
                        let (k, is_set) = draw(sampler, &mut rng, t, cfg.threads, w.ops);
                        w.ops += 1;
                        if is_set {
                            let v = value_of(k, expect[k as usize].load(Ordering::Relaxed) + 1);
                            let c = Instant::now();
                            let r = cache.set(&mut ctx, k, v);
                            w.set.record(c.elapsed().as_nanos() as u64);
                            match r {
                                Ok(()) => {
                                    expect[k as usize].store(v, Ordering::Relaxed);
                                    w.tally.ok();
                                }
                                Err(_) => w.tally.fail("out_of_memory"),
                            }
                        } else {
                            let c = Instant::now();
                            let got = cache.get(&mut ctx, k);
                            w.get.record(c.elapsed().as_nanos() as u64);
                            w.gets += 1;
                            w.hits += u64::from(got.is_some());
                            match check(expect, k, got) {
                                Ok(()) => w.tally.ok(),
                                Err(r) => w.tally.fail(r),
                            }
                        }
                    }
                    w.elapsed = t0.elapsed();
                    for i in 0..SHARDS {
                        ladder::add_apt(&mut w.alloc, &ctx.shard_ctx(i).apt_stats());
                    }
                    w
                })
            })
            .collect();
        hs.into_iter().map(|h| h.join().expect("caller thread")).collect()
    })
}

pub fn run(cfg: &ChurnCfg, seed: u64, traced: bool) -> Outcome {
    let run_start = Instant::now();
    let mut setup_s = Vec::new();
    let mut rig = None;
    for _ in 0..cfg.setups.max(1) {
        drop(rig.take());
        let t = Instant::now();
        rig = Some(setup(cfg));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let Rig { pools, cache, expect } = rig.expect("at least one set-up");
    let sampler = KeySampler::new(KeyDist::ZIPF_SCRAMBLED_99, cfg.keys);
    let mut tr = Tracer::new(run_start, traced, 1);
    let mut off = Tracer::new(run_start, false, 0);
    let mut tally = Tally::default();

    let mut rng = Xorshift::new(seed ^ 0x11947);
    let key = |r: &mut Xorshift| sampler.sample(r, 0);
    let (mut light, mut light_untraced) = (None, None);

    // The run goes in parts: a share of the light phase, a share of the
    // busy phase, then restarts of the image the cache has at that point,
    // so that light samples and restarts spread over the run. The served
    // cache idles while its image is restarted, then resumes from its own
    // bytes: a recovered cache comes back without its link cache, so the
    // run never goes on serving from one.
    let (mut get, mut set) = (Histogram::new(), Histogram::new());
    let mut alloc = AptStats::default();
    let (mut ops, mut gets, mut hits) = (0, 0, 0);
    let mut elapsed = Duration::ZERO;
    let mut flush = pmem::FlushStats::default();
    let mut restarts = Vec::new();
    let (mut rss_mb, mut leaks_after, mut shard_ms) = (f64::NAN, 0, (f64::NAN, f64::NAN));
    for part in 0..PARTS {
        let span = cfg.light / PARTS as u32;
        let judge = |k, v| check(&expect, k, v);
        let mut lctx = cache.register();
        let l = common::light_gets(&cache, &mut lctx, &mut rng, span, key, judge, &mut tr);
        common::Light::absorb(&mut light, l);
        if traced {
            let l = common::light_gets(&cache, &mut lctx, &mut rng, span, key, judge, &mut off);
            common::Light::absorb(&mut light_untraced, l);
        }
        drop(lctx);

        let flush0 = cache.flush_stats();
        let span = cfg.busy / PARTS as u32;
        let workers =
            busy_phase(cfg, &cache, &expect, &sampler, seed.wrapping_add(part as u64), span);
        let mut part_elapsed = Duration::ZERO;
        for w in &workers {
            get.merge(&w.get);
            set.merge(&w.set);
            tally.merge(&w.tally);
            ladder::add_apt(&mut alloc, &w.alloc);
            ops += w.ops;
            gets += w.gets;
            hits += w.hits;
            part_elapsed = part_elapsed.max(w.elapsed);
        }
        elapsed += part_elapsed;
        flush.merge(cache.flush_stats().diff(flush0));

        cache.quiesce();
        if part == 0 {
            // Before any image copy, which is the benchmark's memory.
            rss_mb = peak_rss_mb();
        }
        let images = common::save_images(&pools);
        let reimage = |i: usize| {
            // SAFETY: no thread uses the served cache until its own image
            // is back, and each recovered cache is dropped before the next
            // call.
            unsafe { images[i].restore(&pools[i]) }
        };
        let (recovered, rs) = common::restarts(&pools, cfg.capacity, 1, cfg.restarts, || {
            (0..SHARDS).for_each(reimage)
        });
        restarts.extend(rs);

        // Every key holds its last value or was evicted.
        let mut ctx = recovered.register();
        for k in 1..=cfg.keys {
            match check(&expect, k, recovered.get(&mut ctx, k)) {
                Ok(()) => tally.ok(),
                Err(_) => tally.fail("lost_after_restart"),
            }
        }
        drop(ctx);
        let last_traced = traced && part + 1 == PARTS;
        if last_traced {
            leaks_after = common::leaks(&recovered);
        }
        drop(recovered);
        if last_traced {
            shard_ms = common::shard_recoveries(&pools, cfg.capacity, reimage);
        }
        (0..SHARDS).for_each(reimage);
    }
    let recovery_s = median(&restarts.iter().map(|r| r.recovery_s).collect::<Vec<_>>());
    let requests = cache.shard_requests();
    let items = cache.len();
    let heap_per_item = common::heap_bytes_per_item(&cache);
    drop(cache);
    drop(pools);
    let light = light.expect("at least one part");
    tally.merge(&light.tally);
    if let Some(l) = &light_untraced {
        tally.merge(&l.tally);
    }
    gets += light.gets;
    hits += light.hits;

    let mut m = Metrics::default();
    if !traced {
        m.put("setup_s", median(&setup_s), "s");
        m.put("peak_rss_mb", rss_mb, "MiB");
        m.put("light_get_p50_us", light.get_win.median_p_us(50.0), "us");
        m.put("get_p50_us", p_us(&get, 50.0), "us");
        m.put("set_p50_us", p_us(&set, 50.0), "us");
        m.put("max_rps_at_slo", common::goodput(&[&get, &set], elapsed, CALL_LIMIT), "req/s");
        m.put("ops_per_s", ops as f64 / elapsed.as_secs_f64(), "ops/s");
        m.put("recovery_s", recovery_s, "s");
        return Outcome { tally, metrics: m, spans: Vec::new() };
    }

    let mut lrng: Vec<Xorshift> = (0..cfg.threads).map(|t| thread_rng(seed, t)).collect();
    let lad_in = LadderInput {
        mode: Mode::Perf,
        nvram_ns: common::NVRAM_NS,
        link_cache: true,
        shards: SHARDS,
        pool_bytes: POOL_BYTES,
        n_buckets: BUCKETS,
        capacity: cfg.capacity,
        fill: (1..=cfg.capacity as u64).map(|k| (k, value_of(k, 1))).collect(),
        ops: (0..cfg.ladder_ops)
            .map(|i| {
                let t = i % cfg.threads;
                let (k, is_set) =
                    draw(&sampler, &mut lrng[t], t, cfg.threads, (i / cfg.threads) as u64);
                if is_set {
                    Op::Set(k, value_of(k, 2))
                } else {
                    Op::Get(k)
                }
            })
            .collect(),
    };
    let lad = ladder::run(&lad_in, run_start);
    ladder::print_self_times(&lad.rung_ns);

    // No generator paces an in-process caller.
    m.put("gen.late_p50_us", 0.0, "us");
    m.put("gen.late_p99_us", 0.0, "us");
    m.put("gen.backlog_max", 0.0, "requests");
    let sharded_get = lad.metrics.get("sharded.get_ns").unwrap_or(f64::NAN);
    m.put("wire.residual_us", light.get_win.median_p_us(50.0) - sharded_get / 1000.0, "us");
    m.put("server.bytes_read_per_req", 0.0, "B/req");
    m.put("server.bytes_written_per_req", 0.0, "B/req");
    m.put("server.accepts", 0.0, "conns");
    m.put("server.cpu_us_per_req", 0.0, "us/req");
    m.put("sharded.imbalance", common::imbalance(&requests), "ratio");
    m.put("cache.get_hit_ratio", ladder::ratio(hits, gets), "ratio");
    m.put("cache.items", items as f64, "items");
    common::pmem_metrics(flush, ops, &mut m);
    ladder::alloc_metrics(&alloc, ops, &mut m);
    m.put("alloc.heap_bytes_per_item", heap_per_item, "B/item");
    common::recovery_metrics(&restarts[0], leaks_after, shard_ms, &mut m);
    m.extend(lad.metrics);
    let mut spans = tr.spans;
    spans.extend(lad.spans);
    common::tail_metrics([&light.get_win, &Windowed::whole(get), &Windowed::whole(set)], &mut m);
    let untraced = light_untraced.expect("traced runs repeat the light phase");
    m.put(
        "trace.overhead_pct",
        100.0 * (light.get_win.median_p_us(50.0) / untraced.get_win.median_p_us(50.0) - 1.0),
        "%",
    );
    Outcome { tally, metrics: m, spans }
}
