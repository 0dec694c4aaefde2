//! `wire_mix`: an open loop over loopback TCP into `server::Server`.
//!
//! One generator thread drives two connections with Poisson arrivals at
//! a light rate, a busy rate and a fixed ladder of rates, using the
//! paper's memtier 1:4 set:get mix over uniformly drawn keys that were
//! all filled before timing. The server and the kernel do nearly all the
//! work here; the storage layers do little.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::hist::Histogram;
use nvmemcached::sharded::ShardedNvMemcached;
use pmem::{FlushStats, LatencyModel, Mode, PmemPool, PoolBuilder};
use server::Server;
use workload::Xorshift;

use crate::common::{self, p_us, SHARDS, SLO, TAIL_WINDOW};
use crate::gen::{value_of, Gen, PhaseResult, Planned};
use crate::ladder::{self, LadderInput, Op};
use crate::pace;
use crate::report::{median, peak_rss_mb, Metrics, Outcome, Tally};
use crate::trace::Tracer;

#[derive(Debug, Clone)]
pub struct WireCfg {
    pub keys: u64,
    pub conns: usize,
    pub light_rps: f64,
    pub busy_rps: f64,
    pub ladder: Vec<f64>,
    pub light: Duration,
    pub busy: Duration,
    pub step: Duration,
    pub setups: usize,
    /// Restarts of the final image: at least this many, for at least this
    /// long.
    pub restarts: (usize, Duration),
    pub ladder_ops: usize,
}

impl WireCfg {
    /// The benchmark's sizing for a run of `seconds`.
    pub fn standard(seconds: u64) -> WireCfg {
        let s = seconds as f64;
        // 10k to 80k req/s in 22 equal ratio steps of about 10 %.
        let ladder: Vec<f64> = (0..=22).map(|i| 10_000.0 * 8f64.powf(i as f64 / 22.0)).collect();
        WireCfg {
            keys: 10_000,
            conns: 2,
            light_rps: 2_000.0,
            busy_rps: 20_000.0,
            light: Duration::from_secs_f64(0.3 * s),
            busy: Duration::from_secs_f64(0.3 * s),
            step: Duration::from_secs_f64((0.4 * s / ladder.len() as f64).max(0.1)),
            ladder,
            setups: 5,
            restarts: (3, Duration::from_secs_f64(0.1 * s)),
            ladder_ops: 40_000,
        }
    }
}

const POOL_BYTES: usize = 8 << 20;
const BUCKETS: usize = 1024;

fn new_pools() -> Vec<Arc<PmemPool>> {
    (0..SHARDS)
        .map(|_| {
            PoolBuilder::new(POOL_BYTES)
                .mode(Mode::Perf)
                .latency(LatencyModel::new(common::NVRAM_NS))
                .build()
        })
        .collect()
}

/// The cache behind a running server, and the generator's connections.
struct Serving {
    cache: Arc<ShardedNvMemcached>,
    server: Server,
    /// The server's worker threads.
    workers: Vec<u64>,
    gen: Gen,
    flush0: FlushStats,
}

/// What a server counted over its life, and the cache it served.
struct Stopped {
    cache: ShardedNvMemcached,
    /// The generator's record of the last value sent per key.
    expect: Vec<u64>,
    accepts: u64,
    shard_requests: Vec<u64>,
    flush: FlushStats,
}

impl Serving {
    fn start(cache: ShardedNvMemcached, conns: usize, expect: Vec<u64>) -> Serving {
        cache.reset_shard_requests();
        let flush0 = cache.flush_stats();
        let cache = Arc::new(cache);
        let before = common::thread_ids();
        let server = Server::start_local(Arc::clone(&cache)).expect("server starts");
        let workers = common::thread_ids().into_iter().filter(|t| !before.contains(t)).collect();
        let gen = Gen::connect(server.local_addr(), conns, expect).expect("generator connects");
        Serving { cache, server, workers, gen, flush0 }
    }

    /// Disconnects and shuts the server down, which quiesces the cache.
    fn stop(self) -> Stopped {
        let Serving { cache, server, mut gen, flush0, .. } = self;
        let expect = std::mem::take(&mut gen.expect);
        drop(gen);
        let accepts = server.stats().accepts();
        drop(cache);
        let cache = server.shutdown();
        let shard_requests = cache.shard_requests();
        let flush = cache.flush_stats().diff(flush0);
        let cache = Arc::try_unwrap(cache).map_err(|_| ()).expect("the server released the cache");
        Stopped { cache, expect, accepts, shard_requests, flush }
    }
}

/// Pools, a filled cache with every grow finished, the server, and the
/// generator's connections.
fn setup(cfg: &WireCfg) -> (Vec<Arc<PmemPool>>, Serving) {
    let pools = new_pools();
    let cache =
        ShardedNvMemcached::create(&pools, BUCKETS, capacity(cfg), true).expect("fresh pools");
    let mut ctx = cache.register();
    let mut expect = vec![0u64; cfg.keys as usize + 1];
    for k in 1..=cfg.keys {
        let v = value_of(k, 1);
        cache.set(&mut ctx, k, v).expect("the pools hold the fill");
        expect[k as usize] = v;
    }
    while cache.resize_in_flight() {
        cache.finish_resize(&mut ctx).expect("room to finish growing");
    }
    drop(ctx);
    (pools, Serving::start(cache, cfg.conns, expect))
}

/// No key is ever evicted: a missing key is a failure.
fn capacity(cfg: &WireCfg) -> usize {
    2 * cfg.keys as usize
}

/// One request of the mix for `key`: 1 set : 4 gets.
fn request(rng: &mut Xorshift, ver: &mut [u32], key: u64) -> Op {
    if rng.bounded(5) == 0 {
        ver[key as usize] += 1;
        Op::Set(key, value_of(key, u64::from(ver[key as usize])))
    } else {
        Op::Get(key)
    }
}

/// Draws one phase: Poisson arrivals, uniform keys, each key sent on the
/// connection that owns it.
fn plan(
    cfg: &WireCfg,
    rng: &mut Xorshift,
    ver: &mut [u32],
    rate: f64,
    span: Duration,
) -> Vec<Planned> {
    pace::poisson(rng, rate, span)
        .into_iter()
        .map(|due| {
            let key = rng.key(cfg.keys);
            let req = request(rng, ver, key);
            Planned { due, conn: (key % cfg.conns as u64) as usize, req }
        })
        .collect()
}

const DRAIN: Duration = Duration::from_millis(300);

/// Parts the light and busy phases are split into.
const PARTS: usize = 4;

/// The busy rate's tail window: about 4,000 gets and 1,000 sets.
const BUSY_WINDOW: Duration = Duration::from_millis(250);

pub fn run(cfg: &WireCfg, seed: u64, traced: bool) -> Outcome {
    let run_start = Instant::now();
    let mut setup_s = Vec::new();
    let mut rig: Option<(Vec<Arc<PmemPool>>, Serving)> = None;
    for _ in 0..cfg.setups.max(1) {
        if let Some((_, old)) = rig.take() {
            old.stop();
        }
        let t = Instant::now();
        rig = Some(setup(cfg));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (pools, mut serving) = rig.expect("at least one set-up");
    let mut rng = Xorshift::new(seed);
    let mut ver = vec![1u32; cfg.keys as usize + 1];
    let mut tr = Tracer::new(run_start, traced, 1);
    let mut off = Tracer::new(run_start, false, 0);
    let mut tally = Tally::default();
    let per_req = |s: &Serving| (s.server.stats().bytes_read(), s.server.stats().bytes_written());

    // One server serves every phase: light, busy, the rate ladder. Only
    // then is it shut down and restarted. The light and busy phases
    // alternate in parts, so that each spreads over the run.
    let (rd0, wr0) = per_req(&serving);
    let cpu = |s: &Serving| s.workers.iter().map(|&t| common::cpu_s(&[t])).collect::<Vec<_>>();
    let cpu0 = cpu(&serving);
    let (mut light, mut busy, mut busy_plan) = (None, None, Vec::new());
    for _ in 0..PARTS {
        let p = plan(cfg, &mut rng, &mut ver, cfg.light_rps, cfg.light / PARTS as u32);
        PhaseResult::absorb(&mut light, serving.gen.run(&p, DRAIN, TAIL_WINDOW, &mut tr));
        let p = plan(cfg, &mut rng, &mut ver, cfg.busy_rps, cfg.busy / PARTS as u32);
        PhaseResult::absorb(&mut busy, serving.gen.run(&p, DRAIN, BUSY_WINDOW, &mut tr));
        busy_plan = p;
    }
    let (light, busy) = (light.expect("at least one part"), busy.expect("at least one part"));
    let (rd1, wr1) = per_req(&serving);
    // CPU time each server worker ran; the busiest shows whether both
    // connections landed on it.
    let worker_cpu_s: Vec<f64> = cpu(&serving).iter().zip(&cpu0).map(|(b, a)| b - a).collect();
    let server_cpu_s: f64 = worker_cpu_s.iter().sum();
    let timed_reqs = light.completed + busy.completed;
    tally.merge(&light.tally);
    tally.merge(&busy.tally);

    // The rate ladder, every step run; a failed step is run once more so
    // that one host stall does not decide it.
    let mut best = [(cfg.light_rps, &light), (cfg.busy_rps, &busy)]
        .iter()
        .filter(|(r, p)| p.meets(*r, SLO))
        .map(|(_, p)| p.achieved_rps())
        .fold(0.0, f64::max);
    let mut ladder_reqs = 0;
    for &rate in &cfg.ladder {
        for _attempt in 0..2 {
            let p = plan(cfg, &mut rng, &mut ver, rate, cfg.step);
            let step = serving.gen.run(&p, DRAIN, cfg.step, &mut off);
            tally.merge(&step.tally);
            ladder_reqs += step.completed;
            println!(
                "# step {rate:.0} req/s: achieved {:.0}, get p50 {:.1} p90 {:.1} p99 {:.1} us, backlog at end {}, late p99 {:.1} us",
                step.achieved_rps(),
                p_us(&step.get, 50.0),
                p_us(&step.get, 90.0),
                p_us(&step.get, 99.0),
                step.backlog_at_end,
                p_us(&step.late, 99.0)
            );
            if step.meets(rate, SLO) {
                best = best.max(step.achieved_rps());
                break;
            }
        }
    }

    // Traced runs repeat the light phase untraced to price the tracing.
    let light_untraced = traced.then(|| {
        let p = plan(cfg, &mut rng, &mut ver, cfg.light_rps, cfg.light);
        let r = serving.gen.run(&p, DRAIN, TAIL_WINDOW, &mut off);
        tally.merge(&r.tally);
        r
    });

    let cache_items = serving.cache.len();
    let heap_per_item = common::heap_bytes_per_item(&serving.cache);
    let stopped = serving.stop();
    // Before any image copy, which is the benchmark's memory.
    let rss_mb = peak_rss_mb();
    drop(stopped.cache);
    let images = common::save_images(&pools);
    let reimage = |i: usize| {
        // SAFETY: the cache over pool `i` has been dropped before every
        // call.
        unsafe { images[i].restore(&pools[i]) }
    };
    let (recovered, restarts) =
        common::restarts(&pools, capacity(cfg), 1, cfg.restarts, || (0..SHARDS).for_each(reimage));
    let recovery_s = median(&restarts.iter().map(|r| r.recovery_s).collect::<Vec<_>>());

    // Every acknowledged write survives the restarts.
    let mut ctx = recovered.register();
    for k in 1..=cfg.keys {
        match recovered.get(&mut ctx, k) {
            Some(v) if v == stopped.expect[k as usize] => tally.ok(),
            _ => tally.fail("lost_after_restart"),
        }
    }
    drop(ctx);

    let mut m = Metrics::default();
    if !traced {
        m.put("setup_s", median(&setup_s), "s");
        m.put("peak_rss_mb", rss_mb, "MiB");
        m.put("light_get_p50_us", light.get_win.median_p_us(50.0), "us");
        m.put("get_p50_us", busy.get_win.median_p_us(50.0), "us");
        m.put("set_p50_us", busy.set_win.median_p_us(50.0), "us");
        m.put("max_rps_at_slo", best, "req/s");
        m.put("ops_per_s", busy.achieved_rps(), "ops/s");
        m.put("recovery_s", recovery_s, "s");
        print_phase("light", cfg.light_rps, &light);
        print_phase("busy", cfg.busy_rps, &busy);
        println!("# server worker CPU-s over the light and busy phases: {worker_cpu_s:.3?}");
        println!("# ladder requests {ladder_reqs}, restarts {}", restarts.len());
        return Outcome { tally, metrics: m, spans: Vec::new() };
    }

    let lad_in = LadderInput {
        mode: Mode::Perf,
        nvram_ns: common::NVRAM_NS,
        link_cache: true,
        shards: SHARDS,
        pool_bytes: POOL_BYTES,
        n_buckets: BUCKETS,
        capacity: capacity(cfg),
        fill: (1..=cfg.keys).map(|k| (k, value_of(k, 1))).collect(),
        ops: busy_plan.iter().cycle().take(cfg.ladder_ops).map(|p| p.req).collect(),
    };
    let leaks_after = common::leaks(&recovered);
    drop(recovered);
    let shard_ms = common::shard_recoveries(&pools, capacity(cfg), reimage);
    let lad = ladder::run(&lad_in, run_start);
    ladder::print_self_times(&lad.rung_ns);

    let mut gen_late = Histogram::new();
    gen_late.merge(&light.late);
    gen_late.merge(&busy.late);
    m.put("gen.late_p50_us", p_us(&gen_late, 50.0), "us");
    m.put("gen.late_p99_us", p_us(&gen_late, 99.0), "us");
    m.put("gen.backlog_max", light.backlog_max.max(busy.backlog_max) as f64, "requests");
    let session_get = lad.metrics.get("session.get_ns").unwrap_or(f64::NAN);
    m.put("wire.residual_us", light.get_win.median_p_us(50.0) - session_get / 1000.0, "us");
    let per_req = |b: u64| b as f64 / timed_reqs.max(1) as f64;
    m.put("server.bytes_read_per_req", per_req(rd1 - rd0), "B/req");
    m.put("server.bytes_written_per_req", per_req(wr1 - wr0), "B/req");
    m.put("server.accepts", stopped.accepts as f64, "conns");
    m.put("server.cpu_us_per_req", server_cpu_s * 1e6 / timed_reqs.max(1) as f64, "us/req");
    m.put("sharded.imbalance", common::imbalance(&stopped.shard_requests), "ratio");
    m.put(
        "cache.get_hit_ratio",
        ladder::ratio(light.hits + busy.hits, light.gets + busy.gets),
        "ratio",
    );
    m.put("cache.items", cache_items as f64, "items");
    let untraced_reqs = light_untraced.as_ref().map_or(0, |l| l.completed);
    let served = timed_reqs + ladder_reqs + untraced_reqs;
    common::pmem_metrics(stopped.flush, served, &mut m);
    ladder::alloc_metrics(&lad.alloc, lad_in.ops.len() as u64, &mut m);
    m.put("alloc.heap_bytes_per_item", heap_per_item, "B/item");
    common::recovery_metrics(&restarts[0], leaks_after, shard_ms, &mut m);
    m.extend(lad.metrics);
    let mut spans = tr.spans;
    spans.extend(lad.spans);
    common::tail_metrics([&light.get_win, &busy.get_win, &busy.set_win], &mut m);
    let untraced = light_untraced.expect("traced runs repeat the light phase");
    m.put(
        "trace.overhead_pct",
        100.0 * (light.get_win.median_p_us(50.0) / untraced.get_win.median_p_us(50.0) - 1.0),
        "%",
    );
    Outcome { tally, metrics: m, spans }
}

fn print_phase(name: &str, rate: f64, p: &PhaseResult) {
    println!(
        "# {name}: offered {rate:.0} req/s, achieved {:.0}, gets {} sets {}, late p50 {:.1} us p99 {:.1} us, backlog max {}",
        p.achieved_rps(),
        p.get.count(),
        p.set.count(),
        p_us(&p.late, 50.0),
        p_us(&p.late, 99.0),
        p.backlog_max
    );
}
