//! Tier-1 smoke of cache recovery end to end: a crashed two-shard cache
//! whose chains are longer than one node comes back whole, exact and
//! leak-free from its single recovery walk, and a gracefully shut down
//! server leaves an image with nothing for recovery to free. The crash
//! point matrix lives in `cargo test -p crashtest`.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use crashtest::oracle::{validate, OracleConfig};
use crashtest::TraceOp;
use nvmemcached::ShardedNvMemcached;
use pmem::{LatencyModel, Mode, PmemPool, PoolBuilder};
use server::Server;

fn pools() -> Vec<Arc<PmemPool>> {
    (0..2)
        .map(|_| {
            PoolBuilder::new(16 << 20).mode(Mode::CrashSim).latency(LatencyModel::ZERO).build()
        })
        .collect()
}

/// Every pool's durable image.
fn cut(pools: &[Arc<PmemPool>]) -> Vec<Vec<u64>> {
    pools.iter().map(|p| p.capture_crash_image().expect("crash-sim pool")).collect()
}

/// Reboots every pool from its image. Nothing may use the pools.
fn reboot(pools: &[Arc<PmemPool>], images: &[Vec<u64>]) {
    for (pool, image) in pools.iter().zip(images) {
        // SAFETY: the callers have dropped every cache and context over
        // the pools.
        unsafe { pool.crash_to_image(image) }.expect("crash-sim pool");
    }
}

fn leaks(cache: &ShardedNvMemcached) -> u64 {
    cache.shards().iter().map(|s| s.domain().count_unreachable(|a| s.contains_node_at(a))).sum()
}

#[test]
fn crashed_cache_recovers_exact_and_leak_free() {
    const KEYS: u64 = 24_000;
    let pools = pools();
    // 64 buckets per shard: the fill auto-grows each shard several
    // times, so chains run a few nodes deep and a grow may be in flight.
    let cache = Arc::new(ShardedNvMemcached::create(&pools, 64, 1 << 30, false).expect("pools"));
    let mut ctx = cache.register();
    let mut trace = Vec::new();
    for k in 1..=KEYS {
        cache.set(&mut ctx, k, k).expect("pool sized");
        trace.push(TraceOp::Insert(k, k));
    }
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..6_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = 1 + x % KEYS;
        if i % 3 == 0 {
            cache.delete(&mut ctx, k);
            trace.push(TraceOp::Remove(k));
        } else {
            cache.set(&mut ctx, k, k + i).expect("pool sized");
            trace.push(TraceOp::Insert(k, k + i));
        }
    }
    // Cut with the worker's context live and nothing quiesced.
    let images = cut(&pools);
    drop(ctx);
    drop(cache);
    reboot(&pools, &images);

    let (cache, report) = ShardedNvMemcached::recover(&pools, 1 << 30).expect("recoverable");
    assert!(!report.used_full_scan);
    let snapshot: BTreeMap<u64, u64> = cache.snapshot().into_iter().collect();
    let spans: Vec<u64> = (0..=trace.len() as u64).collect();
    let cfg = OracleConfig { upsert: true, relaxed: false };
    let violations = validate(1, &trace, &spans, trace.len() as u64, &snapshot, cfg);
    assert!(violations.is_empty(), "{} violations, first: {}", violations.len(), violations[0]);
    assert_eq!(cache.len(), snapshot.len(), "recovered item count is exact");
    assert_eq!(leaks(&cache), 0, "nothing allocated-but-unreachable after recovery");
    // Fresh sets reuse the slots recovery freed: had it freed a live
    // node, a recovered key would now read back wrong.
    let mut ctx = cache.register();
    for k in KEYS + 1..=KEYS + 4_000 {
        cache.set(&mut ctx, k, k).expect("pool sized");
    }
    for (&k, &v) in &snapshot {
        assert_eq!(cache.get(&mut ctx, k), Some(v), "recovered key {k}");
    }
}

#[test]
fn graceful_shutdown_leaves_nothing_to_free() {
    let pools = pools();
    let cache = Arc::new(ShardedNvMemcached::create(&pools, 64, 10_000, true).expect("pools"));
    let server = Server::start_local(cache).expect("bind loopback");
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut w = stream;
    let mut burst = Vec::new();
    for k in 1..=200u64 {
        burst.extend_from_slice(format!("set {} 0 0 1 noreply\r\n7\r\n", k % 120 + 1).as_bytes());
    }
    for k in 1..=40u64 {
        burst.extend_from_slice(format!("delete {k} noreply\r\n").as_bytes());
    }
    burst.extend_from_slice(b"get 41\r\nquit\r\n");
    w.write_all(&burst).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line, "VALUE 41 0 1\r\n");
    reader.read_to_end(&mut Vec::new()).expect("server closes after quit");

    let cache = server.shutdown();
    cache.quiesce();
    let images = cut(&pools);
    drop(cache);
    reboot(&pools, &images);
    let (cache, report) = ShardedNvMemcached::recover(&pools, 10_000).expect("recoverable");
    assert_eq!(report.leaks_freed, 0, "a graceful shutdown freed its retirements");
    assert_eq!(cache.len(), 80);
}
