//! Pieces every workload shares: latency metrics, the single in-process
//! caller, and the timed restarts that end every run.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::hist::Histogram;
use nvalloc::RecoveryReport;
use nvmemcached::sharded::{ShardedCtx, ShardedNvMemcached};
use nvmemcached::NvMemcached;
use pmem::PmemPool;
use workload::Xorshift;

use crate::report::{Metrics, Tally};
use crate::trace::Tracer;

/// The latency limit behind `max_rps_at_slo` on the wire.
pub const SLO: Duration = Duration::from_millis(1);

/// The paper's NVRAM write latency (§6.1).
pub const NVRAM_NS: u64 = 125;

/// Shards, hence server workers; fixed, not derived from the core count.
pub const SHARDS: usize = 2;

/// The window a tail percentile is taken over: at 2,000 req/s about 400
/// gets, so p90 has 40 samples beyond it.
pub const TAIL_WINDOW: Duration = Duration::from_millis(250);

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

pub fn us(ns: f64) -> f64 {
    ns / 1000.0
}

pub fn p_us(h: &Histogram, p: f64) -> f64 {
    if h.count() == 0 {
        f64::NAN
    } else {
        us(h.percentile_interp(p))
    }
}

/// Latencies grouped into fixed windows of scheduled time. A tail
/// percentile is taken per window and summarised by the median window,
/// so one host stall moves one window's figure instead of the run's.
#[derive(Debug)]
pub struct Windowed {
    window_ns: u64,
    pub hists: Vec<Histogram>,
}

impl Windowed {
    pub fn new(window: Duration) -> Windowed {
        Windowed { window_ns: window.as_nanos().max(1) as u64, hists: Vec::new() }
    }

    pub fn record(&mut self, at_ns: u64, v: u64) {
        let i = (at_ns / self.window_ns) as usize;
        if self.hists.len() <= i {
            self.hists.resize_with(i + 1, Histogram::new);
        }
        self.hists[i].record(v);
    }

    /// One window holding every sample of `h`.
    pub fn whole(h: Histogram) -> Windowed {
        Windowed { window_ns: u64::MAX, hists: vec![h] }
    }

    /// The median over windows of each window's `p`th percentile, in µs.
    /// Only windows with at least ten samples beyond the percentile
    /// count (all windows, if none has that many).
    pub fn median_p_us(&self, p: f64) -> f64 {
        let need = (10.0 / (1.0 - p / 100.0)).ceil() as u64;
        let full: Vec<&Histogram> = self.hists.iter().filter(|h| h.count() >= need).collect();
        let use_: Vec<&Histogram> = if full.is_empty() {
            self.hists.iter().filter(|h| h.count() > 0).collect()
        } else {
            full
        };
        crate::report::median(&use_.iter().map(|h| p_us(h, p)).collect::<Vec<_>>())
    }
}

/// The p90 and p99 of the light gets, the gets and the sets.
pub fn tail_metrics([light, get, set]: [&Windowed; 3], m: &mut Metrics) {
    m.put("tail.light_get_p90_us", light.median_p_us(90.0), "us");
    m.put("tail.light_get_p99_us", light.median_p_us(99.0), "us");
    m.put("tail.get_p90_us", get.median_p_us(90.0), "us");
    m.put("tail.get_p99_us", get.median_p_us(99.0), "us");
    m.put("tail.set_p90_us", set.median_p_us(90.0), "us");
    m.put("tail.set_p99_us", set.median_p_us(99.0), "us");
}

/// In-process calls completed within `limit` per second of `elapsed`.
pub fn goodput(hists: &[&Histogram], elapsed: Duration, limit: Duration) -> f64 {
    let slo = limit.as_nanos() as u64;
    let within: u64 = hists
        .iter()
        .map(|h| {
            h.nonzero_buckets().filter(|&(_, hi, _)| hi <= slo).map(|(_, _, c)| c).sum::<u64>()
        })
        .sum();
    within as f64 / elapsed.as_secs_f64()
}

/// Results of the single-caller `get` phase.
#[derive(Debug)]
pub struct Light {
    pub get: Histogram,
    pub get_win: Windowed,
    pub tally: Tally,
    pub gets: u64,
    pub hits: u64,
}

impl Light {
    /// Adds `part` to the phase gathered so far in `acc`.
    pub fn absorb(acc: &mut Option<Light>, part: Light) {
        let Some(a) = acc else {
            *acc = Some(part);
            return;
        };
        a.get.merge(&part.get);
        a.get_win.hists.extend(part.get_win.hists);
        a.tally.merge(&part.tally);
        a.gets += part.gets;
        a.hits += part.hits;
    }
}

/// One caller issuing `get`s back to back for `span`: the cache's
/// latency with no other caller contending. `check` judges every answer.
pub fn light_gets(
    cache: &ShardedNvMemcached,
    ctx: &mut ShardedCtx,
    rng: &mut Xorshift,
    span: Duration,
    mut key: impl FnMut(&mut Xorshift) -> u64,
    check: impl Fn(u64, Option<u64>) -> Result<(), &'static str>,
    tr: &mut Tracer,
) -> Light {
    let mut out = Light {
        get: Histogram::new(),
        get_win: Windowed::new(TAIL_WINDOW),
        tally: Tally::default(),
        gets: 0,
        hits: 0,
    };
    let t0 = Instant::now();
    let end = span.as_nanos() as u64;
    loop {
        let k = key(rng);
        let start = t0.elapsed().as_nanos() as u64;
        if start >= end {
            return out;
        }
        let v = cache.get(ctx, k);
        let done = t0.elapsed().as_nanos() as u64;
        out.get.record(done - start);
        out.get_win.record(start, done - start);
        tr.record("inproc.get", start, done, 0, out.gets);
        out.gets += 1;
        out.hits += u64::from(v.is_some());
        match check(k, v) {
            Ok(()) => out.tally.ok(),
            Err(r) => out.tally.fail(r),
        }
    }
}

/// The timed restart: recover the pools, then serve one `get`.
pub struct Restart {
    pub recovery_s: f64,
    pub first_get_us: f64,
    pub validate_ms: f64,
    pub report: RecoveryReport,
}

pub fn restart(
    pools: &[Arc<PmemPool>],
    capacity: usize,
    probe: u64,
) -> (ShardedNvMemcached, Restart) {
    let t = Instant::now();
    let valid = ShardedNvMemcached::validate_geometry(pools);
    let validate_ms = t.elapsed().as_secs_f64() * 1e3;
    valid.expect("the pools hold one sharded cache");
    let t0 = Instant::now();
    let (cache, report) = ShardedNvMemcached::recover(pools, capacity).expect("recoverable pools");
    let mut ctx = cache.register();
    let t1 = Instant::now();
    std::hint::black_box(cache.get(&mut ctx, probe));
    let recovery_s = t0.elapsed().as_secs_f64();
    let first_get_us = t1.elapsed().as_secs_f64() * 1e6;
    drop(ctx);
    (cache, Restart { recovery_s, first_get_us, validate_ms, report })
}

/// Restarts the pools from the same image at least `n` times and for at
/// least `span`: `reimage` puts the image back before every restart after
/// the first. Returns the last recovered cache and every restart's
/// figures.
///
/// Callers restart images of the cache they serve and never go on
/// serving from a recovered cache: `recover` brings a cache back without
/// its link cache, and the image such a cache leaves scans less than half
/// the allocator pages, so mixing the two made recovery times bimodal.
pub fn restarts(
    pools: &[Arc<PmemPool>],
    capacity: usize,
    probe: u64,
    (n, span): (usize, Duration),
    mut reimage: impl FnMut(),
) -> (ShardedNvMemcached, Vec<Restart>) {
    let t0 = Instant::now();
    let mut figures = Vec::with_capacity(n);
    let mut cache = None;
    while figures.len() < n.max(1) || t0.elapsed() < span {
        if let Some(c) = cache.take() {
            drop(c);
            reimage();
        }
        let (c, r) = restart(pools, capacity, probe);
        figures.push(r);
        cache = Some(c);
    }
    (cache.expect("at least one restart"), figures)
}

/// A byte copy of a `Mode::Perf` pool, so that one cleanly shut down
/// image can be restarted more than once.
pub struct Image(Vec<u8>);

impl Image {
    /// # Safety
    ///
    /// Nothing may write the pool while it is copied.
    pub unsafe fn save(pool: &PmemPool) -> Image {
        let mut bytes = vec![0u8; pool.len()];
        // SAFETY: the pool's memory is `len()` bytes from `start()`, and
        // the caller guarantees nobody writes it meanwhile.
        unsafe {
            std::ptr::copy_nonoverlapping(
                pool.as_mut_ptr(pool.start()),
                bytes.as_mut_ptr(),
                pool.len(),
            )
        };
        Image(bytes)
    }

    /// # Safety
    ///
    /// Nothing may access the pool while it is written. A cache over the
    /// pool that is still alive may be used again only once the pool
    /// holds the image saved while that cache was idle.
    pub unsafe fn restore(&self, pool: &PmemPool) {
        assert_eq!(self.0.len(), pool.len(), "image of another pool");
        // SAFETY: same extent as `save`; the caller guarantees that
        // nothing accesses the pool meanwhile.
        unsafe {
            std::ptr::copy_nonoverlapping(
                self.0.as_ptr(),
                pool.as_mut_ptr(pool.start()),
                pool.len(),
            )
        };
    }
}

/// Saves every pool (see [`Image::save`]; nothing may use the pools
/// meanwhile).
pub fn save_images(pools: &[Arc<PmemPool>]) -> Vec<Image> {
    // SAFETY: the callers save only pools whose caches are idle or
    // dropped.
    pools.iter().map(|p| unsafe { Image::save(p) }).collect()
}

/// Nodes allocated but unreachable, over every shard (quiescent).
pub fn leaks(cache: &ShardedNvMemcached) -> u64 {
    cache.shards().iter().map(|s| s.domain().count_unreachable(|a| s.contains_node_at(a))).sum()
}

/// Heap bytes in use per cached item.
pub fn heap_bytes_per_item(cache: &ShardedNvMemcached) -> f64 {
    let bytes: usize = cache
        .shards()
        .iter()
        .map(|s| s.domain().heap().bump() - s.domain().pool().heap_start())
        .sum();
    bytes as f64 / cache.len().max(1) as f64
}

/// The ids of this process's threads.
pub fn thread_ids() -> Vec<u64> {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok()).collect())
        .unwrap_or_default()
}

/// CPU time the threads `tids` have run so far, in seconds (the first
/// field of `/proc/self/task/<tid>/schedstat`, in ns).
pub fn cpu_s(tids: &[u64]) -> f64 {
    let ns: u64 = tids
        .iter()
        .filter_map(|t| {
            let s = std::fs::read_to_string(format!("/proc/self/task/{t}/schedstat")).ok()?;
            s.split_whitespace().next()?.parse::<u64>().ok()
        })
        .sum();
    ns as f64 / 1e9
}

/// Max over mean of per-shard request tallies.
pub fn imbalance(r: &[u64]) -> f64 {
    let max = r.iter().copied().max().unwrap_or(0) as f64;
    let mean = r.iter().sum::<u64>() as f64 / r.len().max(1) as f64;
    if mean == 0.0 {
        f64::NAN
    } else {
        max / mean
    }
}

/// Each shard recovered alone, in ms: `(max, sum)`. `reimage` puts pool
/// `i` back to the image to recover from.
pub fn shard_recoveries(
    pools: &[Arc<PmemPool>],
    capacity: usize,
    mut reimage: impl FnMut(usize),
) -> (f64, f64) {
    let per = capacity.div_ceil(pools.len());
    let mut max: f64 = 0.0;
    let mut sum = 0.0;
    for (i, p) in pools.iter().enumerate() {
        reimage(i);
        let t = Instant::now();
        let (shard, _) = NvMemcached::recover(Arc::clone(p), per);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        drop(shard);
        max = max.max(ms);
        sum += ms;
    }
    (max, sum)
}

/// The recovery metrics of the traced run.
pub fn recovery_metrics(r: &Restart, leaks_after: u64, shard_ms: (f64, f64), m: &mut Metrics) {
    m.put("recover.pages_scanned", r.report.pages_scanned as f64, "pages");
    m.put("recover.slots_scanned", r.report.slots_scanned as f64, "slots");
    m.put("recover.leaks_freed", r.report.leaks_freed as f64, "nodes");
    m.put("recover.full_scan", f64::from(u8::from(r.report.used_full_scan)), "bool");
    m.put("recover.validate_ms", r.validate_ms, "ms");
    m.put("recover.shard_ms_max", shard_ms.0, "ms");
    m.put("recover.shard_ms_sum", shard_ms.1, "ms");
    m.put("recover.first_get_us", r.first_get_us, "us");
    m.put("recover.leaks_after", leaks_after as f64, "nodes");
}

/// Durable-write counters per operation over a phase.
pub fn pmem_metrics(d: pmem::FlushStats, ops: u64, m: &mut Metrics) {
    let per = |n: u64| n as f64 / ops.max(1) as f64;
    m.put("pmem.fences_per_op", per(d.fences), "1/op");
    m.put("pmem.sync_batches_per_op", per(d.sync_batches), "1/op");
    m.put("pmem.clwbs_per_op", per(d.clwbs), "1/op");
}
