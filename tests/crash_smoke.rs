//! Tier-1 smoke of the crash-point harness: deletes on a freshly
//! recovered NV-Memcached image, crashed at every persist-relevant event.
//! Recovery clears every active-page-table row, so this is where an
//! allocator ordering regression (a node's page marked active only after
//! its removal is durable) leaves a leak behind. The full matrix lives in
//! `cargo test -p crashtest`.

use crashtest::{run_recovered_remove_points, seed_from_env, MemcachedTarget};

#[test]
fn deletes_on_a_recovered_cache_leak_nothing_at_any_crash_point() {
    let report = run_recovered_remove_points::<MemcachedTarget>(seed_from_env());
    assert!(report.points_tested > 1, "the deletes produced no crash points");
    report.assert_clean();
}
