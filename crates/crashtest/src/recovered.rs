//! Crash-point enumeration of removals on a **freshly recovered** image.
//!
//! Recovery clears every active-page-table row (§5.5), so the first
//! removals after a restart touch pages that no row covers. A removal
//! becomes durable at its deletion mark (or at a helper's physical
//! unlink), and from then on recovery drops the node from the structure.
//! If the node's page is not durably active by that point, a crash leaves
//! the node allocated, unreachable and outside the leak scan. On a fresh
//! (never crashed) image the page is usually still active from the
//! node's own allocation, which is why the ordinary traces miss this.
//!
//! The driver fills a target, crashes and recovers it, then crashes the
//! recovered target at every persist-relevant event of a few removals
//! and audits each recovery: the oracle over fill + removals, the
//! target's structural check, and zero allocated-but-unreachable slots.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use pmem::{CrashEvent, CrashPlan, Mode, PmemPool, PoolBuilder};

use crate::driver::CrashReport;
use crate::oracle::{validate, OracleConfig, Violation};
use crate::target::CrashTarget;
use crate::trace::{xorshift, TraceOp};

/// Keys `1..=RECOVERED_FILL` are inserted before the restart.
pub const RECOVERED_FILL: u64 = 24;
/// Removals enumerated on the recovered image.
pub const RECOVERED_REMOVES: usize = 4;

/// The fill inserts followed by the removals (distinct filled keys, drawn
/// from `seed`).
fn script(seed: u64) -> (Vec<TraceOp>, usize) {
    let mut ops: Vec<TraceOp> =
        (1..=RECOVERED_FILL).map(|k| TraceOp::Insert(k, k * 7 + 1)).collect();
    let fill = ops.len();
    let mut x = seed | 1;
    let mut victims: Vec<u64> = Vec::new();
    while victims.len() < RECOVERED_REMOVES {
        let k = 1 + xorshift(&mut x) % RECOVERED_FILL;
        if !victims.contains(&k) {
            victims.push(k);
        }
    }
    ops.extend(victims.into_iter().map(TraceOp::Remove));
    (ops, fill)
}

fn new_pool() -> Arc<PmemPool> {
    PoolBuilder::new(2 << 20).mode(Mode::CrashSim).build()
}

/// Fills a fresh target on `pool`, crashes it after the fill completes
/// and recovers it — the state every run starts its removals from.
fn recovered_target<T: CrashTarget>(pool: &Arc<PmemPool>, seed: u64, fill: &[TraceOp]) -> T {
    logfree::skiplist::reset_height_rng(seed);
    {
        let target = T::create(pool, false);
        let mut ctx = target.register();
        for &op in fill {
            target.apply(&mut ctx, op);
        }
    }
    // SAFETY: the fill ran on this thread and has finished.
    unsafe { pool.simulate_crash().expect("crash-sim pool") };
    T::recover(pool).0
}

/// Runs the removals on a recovered target under `plan`, returning the
/// span table of the whole script (every fill op completed before event
/// 0, so its boundaries are all 0).
fn run_removals<T: CrashTarget>(
    pool: &Arc<PmemPool>,
    plan: &Arc<CrashPlan>,
    seed: u64,
    ops: &[TraceOp],
    fill: usize,
) -> Vec<u64> {
    let target = recovered_target::<T>(pool, seed, &ops[..fill]);
    pool.install_crash_plan(Arc::clone(plan));
    let mut ctx = target.register();
    let mut spans = vec![0; fill];
    spans.push(plan.events());
    for &op in &ops[fill..] {
        target.apply(&mut ctx, op);
        spans.push(plan.events());
    }
    pool.clear_crash_plan();
    spans
}

/// Crashes the removals at event `k`, recovers and audits.
fn recovered_crash_at<T: CrashTarget>(
    seed: u64,
    ops: &[TraceOp],
    fill: usize,
    spans: &[u64],
    k: u64,
) -> Vec<Violation> {
    let violation = |detail: String| Violation {
        seed,
        crash_point: k,
        key: 0,
        got: None,
        allowed: vec![],
        detail,
    };
    let pool = new_pool();
    let image: Arc<Mutex<Option<Vec<u64>>>> = Arc::new(Mutex::new(None));
    let plan = CrashPlan::fire_at(k, {
        let pool = Arc::clone(&pool);
        let image = Arc::clone(&image);
        Box::new(move || {
            *image.lock().expect("image cell poisoned") =
                Some(pool.capture_crash_image().expect("crash-sim pool"));
        })
    });
    if run_removals::<T>(&pool, &plan, seed, ops, fill) != spans {
        return vec![violation("nondeterministic replay of the recovered-image removals".into())];
    }
    let img = image
        .lock()
        .expect("image cell poisoned")
        .take()
        .unwrap_or_else(|| pool.capture_crash_image().expect("crash-sim pool"));
    // SAFETY: the removals ran on this thread and have finished.
    unsafe { pool.crash_to_image(&img).expect("crash-sim pool") };

    let (target, _report) = T::recover(&pool);
    let recovered: BTreeMap<u64, u64> = target.snapshot().into_iter().collect();
    let cfg = OracleConfig { upsert: T::UPSERT, relaxed: false };
    let mut violations = validate(seed, ops, spans, k, &recovered, cfg);
    let leaked = target.domain().count_unreachable(|addr| target.reachable(addr));
    if leaked != 0 {
        violations.push(violation(format!(
            "{leaked} allocated-but-unreachable slot(s) after recovering a removal \
             on a recovered image"
        )));
    }
    if let Some(detail) = target.post_recovery_check() {
        violations.push(violation(detail));
    }
    violations
}

/// Enumerates every crash point of [`RECOVERED_REMOVES`] removals on a
/// recovered `T` (plus the post-completion point), exhaustively.
pub fn run_recovered_remove_points<T: CrashTarget>(seed: u64) -> CrashReport {
    let (ops, fill) = script(seed);
    let count_plan = CrashPlan::count_only();
    let spans = run_removals::<T>(&new_pool(), &count_plan, seed, &ops, fill);
    let total = count_plan.events();
    let violations: Vec<Violation> =
        (0..=total).flat_map(|k| recovered_crash_at::<T>(seed, &ops, fill, &spans, k)).collect();
    CrashReport {
        target: T::NAME,
        seed,
        total_events: total,
        event_kinds: (
            count_plan.kind_count(CrashEvent::Clwb),
            count_plan.kind_count(CrashEvent::Fence),
            count_plan.kind_count(CrashEvent::LinkPublish),
            count_plan.kind_count(CrashEvent::TlabLease),
            count_plan.kind_count(CrashEvent::ResizeState),
            count_plan.kind_count(CrashEvent::ReshardState),
        ),
        points_tested: total as usize + 1,
        violations,
    }
}
