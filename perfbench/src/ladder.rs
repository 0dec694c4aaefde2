//! The per-layer ladder: the workload's own operation stream replayed
//! through one public entry point per layer, each call inside a span.
//!
//! Rungs, top to bottom: `Parser::feed` + `next_command`, `Session::input`,
//! `ShardedNvMemcached`, one `NvMemcached` shard, a `logfree::HashTable`
//! (with its own `LinkCache` when the workload runs one), and
//! `Flusher::clwb` + `fence` on one line.
//! A layer's self time is its rung minus the rung below it.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use linkcache::LinkCache;
use logfree::{HashTable, LinkOps};
use nvalloc::{AptStats, NvDomain};
use nvmemcached::sharded::ShardedNvMemcached;
use pmem::{LatencyModel, Mode, PmemPool, PoolBuilder};
use server::{Parser, Session};

use crate::report::Metrics;
use crate::trace::{mean_by_name, Span, Tracer};

/// One operation of a workload's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Get(u64),
    Set(u64, u64),
    Delete(u64),
}

impl Op {
    pub fn encode(self, out: &mut Vec<u8>) {
        use std::io::Write;
        let _ = match self {
            Op::Get(k) => write!(out, "get {k}\r\n"),
            Op::Set(k, v) => {
                let data = v.to_string();
                write!(out, "set {k} 0 0 {}\r\n{data}\r\n", data.len())
            }
            Op::Delete(k) => write!(out, "delete {k}\r\n"),
        };
    }
}

/// The cache configuration a workload serves with, and the inputs it
/// replays.
pub struct LadderInput {
    pub mode: Mode,
    pub nvram_ns: u64,
    /// Whether the caches and the hash rung run with a link cache.
    pub link_cache: bool,
    pub shards: usize,
    pub pool_bytes: usize,
    pub n_buckets: usize,
    pub capacity: usize,
    /// Key/value pairs the workload fills before timing.
    pub fill: Vec<(u64, u64)>,
    /// A prefix of the workload's timed operation stream.
    pub ops: Vec<Op>,
}

/// What the ladder measured, besides its spans.
pub struct LadderResult {
    pub metrics: Metrics,
    /// Allocator counters of the sharded rung's context.
    pub alloc: AptStats,
    /// Mean ns per call of each rung span name.
    pub rung_ns: BTreeMap<&'static str, (f64, u64)>,
    pub spans: Vec<Span>,
}

fn pool(inp: &LadderInput) -> Arc<PmemPool> {
    PoolBuilder::new(inp.pool_bytes).mode(inp.mode).latency(LatencyModel::new(inp.nvram_ns)).build()
}

/// Times `f` over `ops` as children of one rung span.
fn rung<F: FnMut(Op) -> &'static str>(
    tr: &mut Tracer,
    parent: u64,
    name: &'static str,
    ops: &[Op],
    mut f: F,
) {
    let id = tr.reserve();
    let start = tr.now();
    for (i, &op) in ops.iter().enumerate() {
        let s = tr.now();
        let call = f(op);
        let e = tr.now();
        tr.record(call, s, e, id, i as u64);
    }
    let end = tr.now();
    tr.record_as(id, name, start, end, parent, 0);
}

/// Runs every rung; spans are timed from `t0`, the run's start.
pub fn run(inp: &LadderInput, t0: Instant) -> LadderResult {
    let mut tracer = Tracer::new(t0, true, 2);
    let tr = &mut tracer;
    let ladder = tr.reserve();
    let t_start = tr.now();
    let mut m = Metrics::default();
    let mut wire: Vec<Vec<u8>> = Vec::with_capacity(inp.ops.len());
    for op in &inp.ops {
        let mut b = Vec::with_capacity(48);
        op.encode(&mut b);
        wire.push(b);
    }

    // Protocol: parse one request's bytes.
    {
        let mut p = Parser::new();
        let mut i = 0;
        rung(tr, ladder, "rung.protocol", &inp.ops, |_| {
            p.feed(&wire[i]);
            i += 1;
            while let Ok(Some(cmd)) = p.next_command() {
                std::hint::black_box(cmd);
            }
            "protocol.parse"
        });
    }

    // Session, sharded cache and one shard share one filled cache.
    let pools: Vec<_> = (0..inp.shards).map(|_| pool(inp)).collect();
    let cache = ShardedNvMemcached::create(&pools, inp.n_buckets, inp.capacity, inp.link_cache)
        .expect("ladder pools hold the fill");
    let mut ctx = cache.register();
    for &(k, v) in &inp.fill {
        let _ = cache.set(&mut ctx, k, v);
    }
    let _ = cache.finish_resize(&mut ctx);
    {
        let mut session = Session::new(&cache);
        let mut i = 0;
        rung(tr, ladder, "rung.session", &inp.ops, |op| {
            session.input(&wire[i], &mut ctx);
            i += 1;
            session.clear_output();
            match op {
                Op::Get(_) => "session.get",
                Op::Set(..) => "session.set",
                Op::Delete(_) => "session.delete",
            }
        });
    }
    for s in 0..inp.shards {
        ctx.shard_ctx(s).reset_stats();
    }
    rung(tr, ladder, "rung.sharded", &inp.ops, |op| match op {
        Op::Get(k) => {
            std::hint::black_box(cache.get(&mut ctx, k));
            "sharded.get"
        }
        Op::Set(k, v) => {
            let _ = cache.set(&mut ctx, k, v);
            "sharded.set"
        }
        Op::Delete(k) => {
            cache.delete(&mut ctx, k);
            "sharded.delete"
        }
    });
    let mut alloc = AptStats::default();
    for s in 0..inp.shards {
        let a = ctx.shard_ctx(s).apt_stats();
        add_apt(&mut alloc, &a);
    }
    let shards = cache.shards();
    let buckets: usize = shards.iter().map(|s| s.capacity_hint()).sum();
    rung(tr, ladder, "rung.shard", &inp.ops, |op| match op {
        Op::Get(k) => {
            let s = cache.shard_of(k);
            std::hint::black_box(shards[s].get(ctx.shard_ctx(s), k));
            "shard.get"
        }
        Op::Set(k, v) => {
            let s = cache.shard_of(k);
            let _ = shards[s].set(ctx.shard_ctx(s), k, v);
            "shard.set"
        }
        Op::Delete(k) => {
            let s = cache.shard_of(k);
            shards[s].delete(ctx.shard_ctx(s), k);
            "shard.delete"
        }
    });
    drop(shards);
    drop(ctx);
    drop(cache);

    // The durable hash table, with its own link cache when the workload
    // has one, as many buckets as the shards had between them, fed the
    // same stream.
    let hp = pool(inp);
    let domain = NvDomain::create(Arc::clone(&hp));
    let lc = inp
        .link_cache
        .then(|| Arc::new(LinkCache::with_default_size(Arc::clone(&hp), logfree::marked::DIRTY)));
    let table = HashTable::create(
        &domain,
        nvmemcached::NVMC_ROOT,
        buckets,
        LinkOps::new(Arc::clone(&hp), lc.clone()),
    )
    .expect("ladder pool holds the table");
    let mut hctx = domain.register();
    for &(k, v) in &inp.fill {
        let _ = table.insert(&mut hctx, k, v);
    }
    let lc_stats = || lc.as_ref().map(|lc| lc.stats()).unwrap_or_default();
    let lc0 = lc_stats();
    let hash_rung = tr.reserve();
    let h_start = tr.now();
    let mut hash_ops = 0u64;
    for (i, &op) in inp.ops.iter().enumerate() {
        let req = i as u64;
        let s = tr.now();
        match op {
            Op::Get(k) => {
                std::hint::black_box(table.get(&mut hctx, k));
                tr.record("hash.lookup", s, tr.now(), hash_rung, req);
                hash_ops += 1;
            }
            Op::Set(k, v) => {
                // Upsert as the cache does it: insert, else remove and
                // insert again.
                let upsert = tr.reserve();
                loop {
                    let c = tr.now();
                    let inserted = table.insert(&mut hctx, k, v).unwrap_or(true);
                    tr.record("hash.insert", c, tr.now(), upsert, req);
                    hash_ops += 1;
                    if inserted {
                        break;
                    }
                    let c = tr.now();
                    table.remove(&mut hctx, k);
                    tr.record("hash.remove", c, tr.now(), upsert, req);
                    hash_ops += 1;
                }
                tr.record_as(upsert, "hash.upsert", s, tr.now(), hash_rung, req);
            }
            Op::Delete(k) => {
                table.remove(&mut hctx, k);
                tr.record("hash.remove", s, tr.now(), hash_rung, req);
                hash_ops += 1;
            }
        }
    }
    tr.record_as(hash_rung, "rung.hash", h_start, tr.now(), ladder, 0);
    let lc1 = lc_stats();
    drop(hctx);
    drop(table);

    // pmem: one line written back and fenced, as a sync operation does.
    let mut flusher = hp.flusher();
    let base = hp.heap_start();
    rung(tr, ladder, "rung.pmem", &inp.ops, |_| {
        flusher.clwb(base);
        flusher.fence();
        "pmem.persist"
    });
    tr.record_as(ladder, "ladder", t_start, tr.now(), 0, 0);

    let rung_ns = mean_by_name(&tracer.spans);
    let ns = |name: &str| rung_ns.get(name).map_or(f64::NAN, |&(v, _)| v);
    m.put("protocol.parse_ns", ns("protocol.parse"), "ns");
    m.put("session.get_ns", ns("session.get"), "ns");
    m.put("session.set_ns", ns("session.set"), "ns");
    m.put("sharded.get_ns", ns("sharded.get"), "ns");
    m.put("sharded.set_ns", ns("sharded.set"), "ns");
    m.put("shard.get_ns", ns("shard.get"), "ns");
    m.put("shard.set_ns", ns("shard.set"), "ns");
    m.put("hash.insert_ns", ns("hash.insert"), "ns");
    m.put("hash.lookup_ns", ns("hash.lookup"), "ns");
    m.put("hash.remove_ns", ns("hash.remove"), "ns");
    m.put("hash.upsert_ns", ns("hash.upsert"), "ns");
    m.put("pmem.persist_ns", ns("pmem.persist"), "ns");
    let adds = lc1.adds - lc0.adds;
    let fallbacks = lc1.fallbacks - lc0.fallbacks;
    let flushes = lc1.flushes - lc0.flushes;
    let links = lc1.links_flushed - lc0.links_flushed;
    m.put("linkcache.fallback_ratio", ratio(fallbacks, adds + fallbacks), "ratio");
    m.put("linkcache.links_per_flush", ratio(links, flushes), "links");
    m.put("linkcache.flushes_per_op", ratio(flushes, hash_ops), "1/op");
    m.put("trace.span_ns", crate::trace::span_cost_ns(), "ns");
    LadderResult { metrics: m, alloc, rung_ns, spans: tracer.spans }
}

pub fn add_apt(total: &mut AptStats, a: &AptStats) {
    total.alloc_hits += a.alloc_hits;
    total.alloc_misses += a.alloc_misses;
    total.unlink_hits += a.unlink_hits;
    total.unlink_misses += a.unlink_misses;
    total.tlab_hits += a.tlab_hits;
    total.tlab_misses += a.tlab_misses;
    total.tlab_refills += a.tlab_refills;
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The allocator metrics from summed context counters over `ops` calls.
pub fn alloc_metrics(a: &AptStats, ops: u64, m: &mut Metrics) {
    m.put("alloc.tlab_hit_ratio", ratio(a.tlab_hits, a.tlab_hits + a.tlab_misses), "ratio");
    m.put("alloc.tlab_refills_per_kop", ratio(a.tlab_refills * 1000, ops), "1/kop");
    let apt = a.alloc_hits + a.alloc_misses + a.unlink_hits + a.unlink_misses;
    m.put("alloc.apt_miss_ratio", ratio(a.alloc_misses + a.unlink_misses, apt), "ratio");
}

/// Self time per layer: each rung's mean call minus the rung below it.
pub fn self_times(rung_ns: &BTreeMap<&'static str, (f64, u64)>) -> Vec<(String, f64, f64)> {
    let ns = |name: &str| rung_ns.get(name).map_or(f64::NAN, |&(v, _)| v);
    // (layer, its entry point, the entry point it calls below).
    let chain = [
        ("server::session (get)", "session.get", "sharded.get"),
        ("server::session (set)", "session.set", "sharded.set"),
        ("server::protocol (parse)", "protocol.parse", ""),
        ("nvmemcached routing (get)", "sharded.get", "shard.get"),
        ("nvmemcached routing (set)", "sharded.set", "shard.set"),
        ("nvmemcached shard (get)", "shard.get", "hash.lookup"),
        ("nvmemcached shard (set)", "shard.set", "hash.upsert"),
        ("logfree hash (lookup)", "hash.lookup", ""),
        ("logfree hash (upsert)", "hash.upsert", ""),
        ("pmem clwb+fence", "pmem.persist", ""),
    ];
    chain
        .iter()
        .map(|&(layer, top, below)| {
            let t = ns(top);
            let b = if below.is_empty() { 0.0 } else { ns(below) };
            (layer.to_string(), t, t - b)
        })
        .collect()
}

/// Spans and the self-time table, printed to stdout.
pub fn print_self_times(rung_ns: &BTreeMap<&'static str, (f64, u64)>) {
    println!("# self time per layer (rung mean minus the rung below, ns per call)");
    for (layer, rung, own) in self_times(rung_ns) {
        println!("#   {layer:<36} rung {rung:>9.1} ns   self {own:>9.1} ns");
    }
}
