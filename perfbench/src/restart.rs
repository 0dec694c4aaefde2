//! `restart`: crash a filled `CrashSim` cache with no quiesce, recover
//! it, and time the downtime.
//!
//! One thread fills a million items over two shards, then runs 200k more
//! sets and deletes so that retired nodes and active allocator pages
//! exist. The durable image is cut at that instant, as a power failure
//! would leave it, and `ShardedNvMemcached::recover` runs on it until the
//! first `get` is served. The recovered contents are checked against the
//! crash oracle in cache-relaxed upsert mode, and no node may leak.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::hist::Histogram;
use crashtest::oracle::{self, OracleConfig};
use crashtest::TraceOp;
use nvalloc::AptStats;
use nvmemcached::sharded::ShardedNvMemcached;
use pmem::{LatencyModel, Mode, PmemPool, PoolBuilder};
use workload::{KeyDist, KeySampler, Xorshift};

use crate::common::{self, p_us, Windowed, SHARDS};
use crate::gen::value_of;
use crate::ladder::{self, LadderInput, Op};
use crate::report::{median, peak_rss_mb, Metrics, Outcome, Tally};
use crate::trace::Tracer;

#[derive(Debug, Clone)]
pub struct RestartCfg {
    pub fill: u64,
    pub churn: usize,
    /// Churn keys are drawn from `1..=fill + fresh`.
    pub fresh: u64,
    pub light: Duration,
    /// Crash-restart cycles run until this much time has passed (and at
    /// least `min_cycles`).
    pub budget: Duration,
    pub min_cycles: usize,
    pub pool_bytes: usize,
    pub ladder_ops: usize,
}

impl RestartCfg {
    pub fn standard(seconds: u64) -> RestartCfg {
        let s = seconds as f64;
        RestartCfg {
            fill: 1_000_000,
            churn: 200_000,
            fresh: 200_000,
            light: Duration::from_secs_f64(0.2 * s),
            budget: Duration::from_secs_f64(0.8 * s),
            min_cycles: common::SETUPS,
            pool_bytes: 96 << 20,
            ladder_ops: 40_000,
        }
    }

    fn capacity(&self) -> usize {
        // Never evict: the oracle owes every acknowledged write.
        2 * (self.fill + self.fresh) as usize
    }
}

const BUCKETS: usize = 4096;

/// The per-call limit behind `max_rps_at_slo`. A `CrashSim` set takes
/// about 6 µs and a delete about 5 µs; about 14 % of sets and 7 % of
/// deletes take longer than this.
const CALL_LIMIT: Duration = Duration::from_micros(10);

/// The restart cache runs without the link cache. With it, a crash after
/// the churn loses keys whose upsert (remove, then a deferred insert
/// link) was acknowledged, and leaves unreachable nodes behind: the
/// cache never installs the allocator's trim hook that flushes cached
/// links before an active page is trimmed.
const LINK_CACHE: bool = false;

/// Recoveries from each crash image; `recovery_s` is the median over
/// every recovery of the run.
const RESTARTS_PER_CRASH: (usize, Duration) = (8, Duration::ZERO);

/// Keys read back, timed, after each recovery.
const AUDIT_GETS: usize = 100_000;

fn pools(cfg: &RestartCfg) -> Vec<Arc<PmemPool>> {
    (0..SHARDS)
        .map(|_| {
            PoolBuilder::new(cfg.pool_bytes)
                .mode(Mode::CrashSim)
                .latency(LatencyModel::new(common::NVRAM_NS))
                .build()
        })
        .collect()
}

/// The churn after the fill: 70 % sets, 30 % deletes, uniform keys.
fn churn_ops(cfg: &RestartCfg, rng: &mut Xorshift) -> Vec<Op> {
    let mut ver = BTreeMap::new();
    (0..cfg.churn)
        .map(|_| {
            let k = rng.key(cfg.fill + cfg.fresh);
            if rng.bounded(10) < 7 {
                let v = ver.entry(k).or_insert(1u64);
                *v += 1;
                Op::Set(k, value_of(k, *v))
            } else {
                Op::Delete(k)
            }
        })
        .collect()
}

/// Checks a recovered cache's contents against the crash oracle, with
/// every operation of `trace` completed before the crash. Relaxed exactly
/// when a link cache may hold acknowledged links.
pub fn oracle_violations(seed: u64, trace: &[TraceOp], snapshot: &BTreeMap<u64, u64>) -> u64 {
    let spans: Vec<u64> = (0..=trace.len() as u64).collect();
    let mode = OracleConfig { upsert: true, relaxed: LINK_CACHE };
    let violations = oracle::validate(seed, trace, &spans, trace.len() as u64, snapshot, mode);
    if let Some(v) = violations.first() {
        eprintln!("restart oracle: {} violations, first: {v}", violations.len());
    }
    violations.len() as u64
}

/// One crash-restart cycle's measurements.
struct Cycle {
    setup_s: f64,
    /// Peak resident memory before the crash image is copied.
    rss_mb: f64,
    set: Histogram,
    delete: Histogram,
    get: Histogram,
    churn_ops: u64,
    churn_elapsed: Duration,
    alloc: AptStats,
    restarts: Vec<common::Restart>,
    leaks_after: u64,
    shard_ms: (f64, f64),
    heap_per_item: f64,
    items: usize,
    imbalance: f64,
    flush: pmem::FlushStats,
}

fn cycle(
    cfg: &RestartCfg,
    seed: u64,
    traced: bool,
    tally: &mut Tally,
) -> (Cycle, ShardedNvMemcached, Vec<Arc<PmemPool>>, Vec<TraceOp>) {
    let t_setup = Instant::now();
    let pools = pools(cfg);
    let cache = ShardedNvMemcached::create(&pools, BUCKETS, cfg.capacity(), LINK_CACHE)
        .expect("fresh pools");
    let mut ctx = cache.register();
    let mut trace: Vec<TraceOp> = Vec::with_capacity(cfg.fill as usize + cfg.churn);
    for k in 1..=cfg.fill {
        let v = value_of(k, 1);
        match cache.set(&mut ctx, k, v) {
            Ok(()) => {
                tally.ok();
                trace.push(TraceOp::Insert(k, v));
            }
            Err(_) => tally.fail("out_of_memory"),
        }
    }
    cache.reset_shard_requests();
    for i in 0..SHARDS {
        ctx.shard_ctx(i).reset_stats();
    }
    let flush0 = cache.flush_stats();
    let ops = churn_ops(cfg, &mut Xorshift::new(seed));
    let (mut set, mut delete) = (Histogram::new(), Histogram::new());
    let t_churn = Instant::now();
    for &op in &ops {
        let c = Instant::now();
        match op {
            Op::Set(k, v) => {
                let r = cache.set(&mut ctx, k, v);
                set.record(c.elapsed().as_nanos() as u64);
                match r {
                    Ok(()) => {
                        tally.ok();
                        trace.push(TraceOp::Insert(k, v));
                    }
                    Err(_) => tally.fail("out_of_memory"),
                }
            }
            Op::Delete(k) => {
                cache.delete(&mut ctx, k);
                delete.record(c.elapsed().as_nanos() as u64);
                tally.ok();
                trace.push(TraceOp::Remove(k));
            }
            Op::Get(_) => unreachable!("the churn only writes"),
        }
    }
    let churn_elapsed = t_churn.elapsed();
    let setup_s = t_setup.elapsed().as_secs_f64();
    let mut alloc = AptStats::default();
    for i in 0..SHARDS {
        ladder::add_apt(&mut alloc, &ctx.shard_ctx(i).apt_stats());
    }
    let heap_per_item = common::heap_bytes_per_item(&cache);
    let items = cache.len();
    let rss_mb = peak_rss_mb();

    // The crash: cut the durable image with the worker still live and
    // nothing quiesced, then reboot every pool from it.
    let images: Vec<Vec<u64>> =
        pools.iter().map(|p| p.capture_crash_image().expect("crash-sim pool")).collect();
    drop(ctx);
    let imbalance = common::imbalance(&cache.shard_requests());
    let flush = cache.flush_stats().diff(flush0);
    drop(cache);
    let reimage = |i: usize| {
        // SAFETY: every context and cache over the pools has been
        // dropped, so nothing else touches them.
        unsafe { pools[i].crash_to_image(&images[i]) }.expect("crash-sim pool");
    };
    (0..SHARDS).for_each(reimage);
    let (recovered, restarts) =
        common::restarts(&pools, cfg.capacity(), 1, RESTARTS_PER_CRASH, || {
            (0..SHARDS).for_each(reimage)
        });

    let snapshot: BTreeMap<u64, u64> = recovered.snapshot().into_iter().collect();
    tally.fail_audit("oracle_violation", oracle_violations(seed, &trace, &snapshot));
    let leaks_after = common::leaks(&recovered);
    tally.fail_audit("leaked_node", leaks_after);

    // Keys read back through the recovered cache, each get timed.
    let mut get = Histogram::new();
    let mut rctx = recovered.register();
    let mut krng = Xorshift::new(seed ^ 0xa0d1);
    for _ in 0..AUDIT_GETS {
        let k = krng.key(cfg.fill + cfg.fresh);
        let c = Instant::now();
        let v = recovered.get(&mut rctx, k);
        get.record(c.elapsed().as_nanos() as u64);
        if v == snapshot.get(&k).copied() {
            tally.ok();
        } else {
            tally.fail("get_disagrees_with_snapshot");
        }
    }
    drop(rctx);

    let (recovered, shard_ms) = if traced {
        // Each shard recovered alone from the same crash image.
        drop(recovered);
        let ms = common::shard_recoveries(&pools, cfg.capacity(), reimage);
        (0..SHARDS).for_each(reimage);
        (common::restart(&pools, cfg.capacity(), 1).0, ms)
    } else {
        (recovered, (f64::NAN, f64::NAN))
    };
    let c = Cycle {
        setup_s,
        rss_mb,
        set,
        delete,
        get,
        churn_ops: ops.len() as u64,
        churn_elapsed,
        alloc,
        restarts,
        leaks_after,
        shard_ms,
        heap_per_item,
        items,
        imbalance,
        flush,
    };
    (c, recovered, pools, trace)
}

/// One crash and recovery: the operations acknowledged before the crash
/// and the recovered contents.
#[cfg(test)]
pub fn crash_and_recover(cfg: &RestartCfg, seed: u64) -> (Vec<TraceOp>, Vec<(u64, u64)>) {
    let (_, cache, _pools, trace) = cycle(cfg, seed, false, &mut Tally::default());
    (trace, cache.snapshot())
}

pub fn run(cfg: &RestartCfg, seed: u64, traced: bool) -> Outcome {
    let run_start = Instant::now();
    let mut tally = Tally::default();
    let mut tr = Tracer::new(run_start, traced, 1);
    let mut off = Tracer::new(run_start, false, 0);
    let sampler = KeySampler::new(KeyDist::ZIPF_SCRAMBLED_99, cfg.fill + cfg.fresh);
    let key = |r: &mut Xorshift| sampler.sample(r, 0);
    let mut rng = Xorshift::new(seed ^ 0x5157);
    let part = cfg.light / cfg.min_cycles.max(1) as u32;
    let mut cycles: Vec<Cycle> = Vec::new();
    let (mut light, mut light_untraced) = (None, None);
    while cycles.len() < cfg.min_cycles || run_start.elapsed() < cfg.budget {
        let seed_i = seed.wrapping_add(cycles.len() as u64 * 0x9E37);
        let (c, cache, pools, _) = cycle(cfg, seed_i, traced, &mut tally);
        cycles.push(c);

        // One caller on the recovered cache, zipfian keys: the warm
        // counterpart of the uniform cold reads after the recovery. Each
        // cycle runs its share of the light phase.
        let snapshot: BTreeMap<u64, u64> = cache.snapshot().into_iter().collect();
        let judge = |k: u64, v: Option<u64>| {
            if v == snapshot.get(&k).copied() {
                Ok(())
            } else {
                Err("get_disagrees_with_snapshot")
            }
        };
        let mut ctx = cache.register();
        let l = common::light_gets(&cache, &mut ctx, &mut rng, part, key, judge, &mut tr);
        common::Light::absorb(&mut light, l);
        if traced {
            let l = common::light_gets(&cache, &mut ctx, &mut rng, part, key, judge, &mut off);
            common::Light::absorb(&mut light_untraced, l);
        }
        drop(ctx);
        drop((cache, pools));
    }
    let light = light.expect("at least one cycle");
    tally.merge(&light.tally);
    if let Some(l) = &light_untraced {
        tally.merge(&l.tally);
    }

    let (mut get, mut set, mut delete) = (Histogram::new(), Histogram::new(), Histogram::new());
    let (mut churn_ops, mut churn_elapsed) = (0, Duration::ZERO);
    for c in &cycles {
        get.merge(&c.get);
        set.merge(&c.set);
        delete.merge(&c.delete);
        churn_ops += c.churn_ops;
        churn_elapsed += c.churn_elapsed;
    }
    let med = |f: &dyn Fn(&Cycle) -> f64| median(&cycles.iter().map(f).collect::<Vec<_>>());
    println!("# cycles {}", cycles.len());
    let mut m = Metrics::default();
    if !traced {
        m.put("setup_s", med(&|c| c.setup_s), "s");
        // The first cycle's: later ones start with the crash images of
        // earlier ones counted.
        m.put("peak_rss_mb", cycles[0].rss_mb, "MiB");
        m.put("light_get_p50_us", light.get_win.median_p_us(50.0), "us");
        m.put("get_p50_us", p_us(&get, 50.0), "us");
        m.put("set_p50_us", p_us(&set, 50.0), "us");
        let goodput = common::goodput(&[&set, &delete], churn_elapsed, CALL_LIMIT);
        m.put("max_rps_at_slo", goodput, "req/s");
        m.put("ops_per_s", churn_ops as f64 / churn_elapsed.as_secs_f64(), "ops/s");
        let all: Vec<f64> =
            cycles.iter().flat_map(|c| c.restarts.iter().map(|r| r.recovery_s)).collect();
        m.put("recovery_s", median(&all), "s");
        return Outcome { tally, metrics: m, spans: Vec::new() };
    }

    let first = &cycles[0];
    let lad_in = LadderInput {
        mode: Mode::CrashSim,
        nvram_ns: common::NVRAM_NS,
        link_cache: LINK_CACHE,
        shards: SHARDS,
        pool_bytes: cfg.pool_bytes,
        n_buckets: BUCKETS,
        capacity: cfg.capacity(),
        fill: (1..=cfg.fill).map(|k| (k, value_of(k, 1))).collect(),
        ops: churn_ops_for_ladder(cfg, seed).into_iter().take(cfg.ladder_ops).collect(),
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
    m.put("sharded.imbalance", first.imbalance, "ratio");
    m.put("cache.get_hit_ratio", ladder::ratio(light.hits, light.gets), "ratio");
    m.put("cache.items", first.items as f64, "items");
    common::pmem_metrics(first.flush, first.churn_ops, &mut m);
    ladder::alloc_metrics(&first.alloc, first.churn_ops, &mut m);
    m.put("alloc.heap_bytes_per_item", first.heap_per_item, "B/item");
    common::recovery_metrics(&first.restarts[0], first.leaks_after, first.shard_ms, &mut m);
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

/// The first cycle's churn, each write followed by a read of its key.
fn churn_ops_for_ladder(cfg: &RestartCfg, seed: u64) -> Vec<Op> {
    churn_ops(cfg, &mut Xorshift::new(seed))
        .into_iter()
        .flat_map(|op| match op {
            Op::Set(k, _) | Op::Delete(k) => [op, Op::Get(k)],
            Op::Get(_) => [op, op],
        })
        .collect()
}
