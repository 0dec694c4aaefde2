//! The cache's contexts flush the link cache before every APT trim
//! (§5.4). Without that hook, a trim can drop the entry of a page whose
//! fresh node is linked only through a cached (not yet durable) link; a
//! crash then leaves the node allocated, unreachable and outside the
//! recovery scan set.

use std::sync::Arc;

use nvalloc::APT_TRIM_THRESHOLD;
use nvmemcached::NvMemcached;
use pmem::{Mode, PoolBuilder};

#[test]
fn churn_past_the_trim_threshold_then_crash_leaks_nothing() {
    let pool = PoolBuilder::new(32 << 20).mode(Mode::CrashSim).build();
    let mc = NvMemcached::create(Arc::clone(&pool), 1024, 60_000, true).unwrap();
    let mut ctx = mc.register();
    // Sets past capacity evict, so allocations and unlinks sweep far more
    // pages than the APT keeps before it trims.
    for k in 1..=120_000u64 {
        mc.set(&mut ctx, k, k * 3).unwrap();
    }
    let s = ctx.apt_stats();
    assert!(
        (s.alloc_misses + s.unlink_misses) as usize > 2 * APT_TRIM_THRESHOLD,
        "churn must touch enough pages to trim: {s:?}"
    );
    // Cut without quiescing: cached links are still pending.
    let image = pool.capture_crash_image().unwrap();
    drop(ctx);
    drop(mc);
    // SAFETY: no threads are running.
    unsafe { pool.crash_to_image(&image).unwrap() };
    let (mc, _report) = NvMemcached::recover(Arc::clone(&pool), 60_000);
    let leaked = mc.domain().count_unreachable(|addr| mc.contains_node_at(addr));
    assert_eq!(leaked, 0, "allocated-but-unreachable nodes after recovery");
}
