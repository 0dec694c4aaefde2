//! Durable lock-free linked list — Harris's algorithm (DISC 2001) with the
//! paper's link-and-persist durability rules (§3).
//!
//! The list is sorted by key and models a set of `(u64 key, u64 value)`
//! pairs. Its anchor is a single persistent link word (for the standalone
//! [`LinkedList`], a root-directory slot; for the hash table, a bucket
//! word), so the same core — the free functions in this module — backs
//! both structures.
//!
//! # Node layout (one 64-byte slot)
//!
//! ```text
//! +0   key    u64   (immutable after init; recovery reads it, §5.5)
//! +8   value  u64
//! +16  next   u64   address | DELETED | DIRTY marks
//! ```
//!
//! # Durability rules implemented (§3, "Correctness")
//!
//! 1. An update's changes are durable before it returns: every
//!    state-changing CAS goes through [`LinkOps::link_cas`]
//!    (link-and-persist or link cache).
//! 2. Operations make the edges they depend on durable before
//!    deciding/modifying: dirty links encountered at decision points are
//!    helped via [`LinkOps::ensure_durable`], and a dirty link can never
//!    be overwritten because CASes expect the *clean* word.
//! 3. With a link cache, every operation scans its own key — and updates
//!    also their predecessor's key — **before** making changes, so all
//!    prior cached updates it depends on become durable first (§4.2).

use std::collections::HashSet;
use std::sync::atomic::Ordering;

use nvalloc::{NvDomain, OutOfMemory, ThreadCtx};
use pmem::Flusher;

use crate::marked::{addr_of, bare, clean, is_deleted, is_dirty, is_tagged, DELETED};
use crate::ops::{CasOutcome, LinkOps};

/// Byte offset of the key field.
pub const KEY_OFF: usize = 0;
/// Byte offset of the value field.
pub const VAL_OFF: usize = 8;
/// Byte offset of the next-link field.
pub const NEXT_OFF: usize = 16;
/// Bytes a list node occupies (rounded to a 64 B slot by the allocator).
pub const NODE_SIZE: usize = 24;

/// Smallest key a caller may use (0 is reserved as "no predecessor").
pub const MIN_KEY: u64 = 1;
/// Largest key a caller may use.
pub const MAX_KEY: u64 = u64::MAX - 1;

#[inline]
pub(crate) fn key_at(ops: &LinkOps, node: usize) -> u64 {
    ops.pool().atomic_u64(node + KEY_OFF).load(Ordering::Acquire)
}

#[inline]
pub(crate) fn value_at(ops: &LinkOps, node: usize) -> u64 {
    ops.pool().atomic_u64(node + VAL_OFF).load(Ordering::Acquire)
}

#[inline]
pub(crate) fn next_addr(node: usize) -> usize {
    node + NEXT_OFF
}

/// Outcome of a core insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Inserted {
    /// The key was linked in.
    Yes,
    /// The key already existed; nothing changed.
    Exists,
    /// The chain's anchor carries the migrated sentinel ([`crate::marked::TAG`]):
    /// this bucket has been drained into a new bucket array. The caller
    /// must re-read the table geometry and re-route.
    Migrated,
}

/// Outcome of a core remove.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Removed {
    /// The key was removed; carries its value.
    Yes(u64),
    /// The key was absent.
    No,
    /// The anchor carries the migrated sentinel, or the target node is
    /// claimed by a bucket migrator (its `next` word is tagged): the
    /// caller must re-read the table geometry and re-route.
    Migrated,
}

/// Outcome of a core lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lookup {
    /// The key is present; carries its value.
    Found(u64),
    /// The key is absent from this chain.
    Absent,
    /// The anchor carries the migrated sentinel; re-route.
    Migrated,
}

/// Outcome of the parse phase: the link to CAS and the candidate node.
pub(crate) struct Found {
    /// Address of the link word whose value is `curr` (or 0).
    pub pred_link: usize,
    /// Key of the predecessor node (None when `pred_link` is the anchor).
    pub pred_key: Option<u64>,
    /// First node with key >= target, or 0.
    pub curr: usize,
    /// `curr`'s key (valid when `curr != 0`).
    pub curr_key: u64,
    /// The anchor carried the migrated sentinel; the other fields are
    /// meaningless and the caller must re-route.
    pub migrated: bool,
}

/// Harris search with durable cleanup: finds the first node with
/// key >= `key`, physically unlinking logically deleted nodes on the way
/// (each unlink is itself a durable link update; the unlinker marks the
/// node's page active before it and retires the node after it). On
/// return, the adjacent edges are durable (§3 rule 2).
pub(crate) fn search(ops: &LinkOps, ctx: &mut ThreadCtx, head_link: usize, key: u64) -> Found {
    'retry: loop {
        let hw = ops.load(head_link);
        if is_tagged(hw) {
            // The chain's anchor carries the migrated sentinel: the bucket
            // was drained into a new array. Help persist the sentinel and
            // bail out — the caller re-routes.
            ops.ensure_durable(head_link, hw, &mut ctx.flusher);
            return Found {
                pred_link: head_link,
                pred_key: None,
                curr: 0,
                curr_key: 0,
                migrated: true,
            };
        }
        let mut pred_link = head_link;
        let mut pred_key: Option<u64> = None;
        let mut curr = addr_of(hw);
        loop {
            if curr == 0 {
                finalize(ops, ctx, pred_link, 0);
                return Found { pred_link, pred_key, curr: 0, curr_key: 0, migrated: false };
            }
            let next_w = ops.load(next_addr(curr));
            if is_deleted(next_w) {
                // curr is logically deleted: complete the removal. The
                // deletion mark we act on must be durable first, and so
                // must the link we are about to modify.
                let next_w = ops.ensure_durable(next_addr(curr), next_w, &mut ctx.flusher);
                let observed = ops.load(pred_link);
                let observed = ops.ensure_durable(pred_link, observed, &mut ctx.flusher);
                if bare(observed) != curr as u64 || is_deleted(observed) {
                    continue 'retry;
                }
                // The unlink may be the one that makes the removal
                // durable: cover the node's page first (§5.5).
                ctx.prepare_unlink(curr);
                match ops.link_cas(
                    key_at(ops, curr),
                    pred_link,
                    curr as u64,
                    bare(next_w),
                    &mut ctx.flusher,
                ) {
                    CasOutcome::Ok => {
                        ctx.retire(curr);
                        curr = addr_of(next_w);
                        continue;
                    }
                    CasOutcome::Retry => continue 'retry,
                }
            }
            let ck = key_at(ops, curr);
            if ck >= key {
                finalize(ops, ctx, pred_link, curr);
                return Found { pred_link, pred_key, curr, curr_key: ck, migrated: false };
            }
            pred_link = next_addr(curr);
            pred_key = Some(ck);
            curr = addr_of(next_w);
        }
    }
}

/// Makes the edges adjacent to the parse result durable (§3 rule 2).
fn finalize(ops: &LinkOps, ctx: &mut ThreadCtx, pred_link: usize, curr: usize) {
    if !ops.durable() {
        return;
    }
    let w = ops.load(pred_link);
    ops.ensure_durable(pred_link, w, &mut ctx.flusher);
    if curr != 0 {
        let w = ops.load(next_addr(curr));
        ops.ensure_durable(next_addr(curr), w, &mut ctx.flusher);
    }
}

/// Core insert into the list anchored at `head_link`.
pub(crate) fn insert(
    ops: &LinkOps,
    ctx: &mut ThreadCtx,
    head_link: usize,
    key: u64,
    value: u64,
) -> Result<Inserted, OutOfMemory> {
    insert_guarded(ops, ctx, head_link, key, value, |_| true)
}

/// [`insert`] with a validity guard run after the presence decision and
/// before the node is linked. The hash table passes a geometry re-check:
/// an absence observed in a chain is only actionable while that chain is
/// still where the key routes (a concurrent resize may have moved the key
/// to another array after the search walked past its gap). A `false`
/// guard aborts with [`Inserted::Migrated`] without allocating.
pub(crate) fn insert_guarded(
    ops: &LinkOps,
    ctx: &mut ThreadCtx,
    head_link: usize,
    key: u64,
    value: u64,
    mut guard: impl FnMut(&mut Flusher) -> bool,
) -> Result<Inserted, OutOfMemory> {
    debug_assert!((MIN_KEY..=MAX_KEY).contains(&key), "key out of range");
    loop {
        let f = search(ops, ctx, head_link, key);
        if f.migrated {
            return Ok(Inserted::Migrated);
        }
        // Durable-dependency scans (§4.2): the decision depends on the
        // state around `key` and the link being modified belongs to the
        // predecessor. Done before our own update so it stays cached.
        ops.scan(key, &mut ctx.flusher);
        if f.curr != 0 && f.curr_key == key {
            return Ok(Inserted::Exists);
        }
        if let Some(pk) = f.pred_key {
            ops.scan(pk, &mut ctx.flusher);
        }
        if !guard(&mut ctx.flusher) {
            return Ok(Inserted::Migrated);
        }
        let node = ctx.alloc(NODE_SIZE)?;
        let pool = ops.pool();
        pool.atomic_u64(node + KEY_OFF).store(key, Ordering::Relaxed);
        pool.atomic_u64(node + VAL_OFF).store(value, Ordering::Relaxed);
        pool.atomic_u64(node + NEXT_OFF).store(f.curr as u64, Ordering::Release);
        ops.persist_node(node, NODE_SIZE, &mut ctx.flusher);
        // Node contents and allocator metadata must be durable before the
        // node becomes reachable (§5.5).
        ops.pre_link_fence(&mut ctx.flusher);
        match ops.link_cas(key, f.pred_link, f.curr as u64, node as u64, &mut ctx.flusher) {
            CasOutcome::Ok => return Ok(Inserted::Yes),
            CasOutcome::Retry => ctx.dealloc_unlinked(node),
        }
    }
}

/// Core remove.
pub(crate) fn remove(ops: &LinkOps, ctx: &mut ThreadCtx, head_link: usize, key: u64) -> Removed {
    loop {
        let f = search(ops, ctx, head_link, key);
        if f.migrated {
            return Removed::Migrated;
        }
        ops.scan(key, &mut ctx.flusher);
        if f.curr == 0 || f.curr_key != key {
            return Removed::No;
        }
        if let Some(pk) = f.pred_key {
            ops.scan(pk, &mut ctx.flusher);
        }
        let next_w = ops.load(next_addr(f.curr));
        let next_w = ops.ensure_durable(next_addr(f.curr), next_w, &mut ctx.flusher);
        if is_deleted(next_w) {
            // Racing remover won; let the next search clean up, then the
            // key will be gone.
            continue;
        }
        if is_tagged(next_w) {
            // The node is claimed by a bucket migrator: its copy to the
            // destination array may already exist, so deleting it here
            // would resurrect the key. Re-route through the table.
            return Removed::Migrated;
        }
        // Logical deletion: the linearization point, made durable by
        // link-and-persist / the link cache. Once the mark is durable,
        // recovery drops the node, so its page is covered first (§5.5).
        ctx.prepare_unlink(f.curr);
        match ops.link_cas(key, next_addr(f.curr), next_w, next_w | DELETED, &mut ctx.flusher) {
            CasOutcome::Retry => continue,
            CasOutcome::Ok => {
                let val = value_at(ops, f.curr);
                // Physical unlink; on failure a search (ours or anyone's)
                // completes it — the successful unlinker retires.
                match ops.link_cas(key, f.pred_link, f.curr as u64, bare(next_w), &mut ctx.flusher)
                {
                    CasOutcome::Ok => ctx.retire(f.curr),
                    CasOutcome::Retry => {
                        let _ = search(ops, ctx, head_link, key);
                    }
                }
                return Removed::Yes(val);
            }
        }
    }
}

/// Core read-only lookup. Does not unlink, but helps persist the edges it
/// depends on and performs the link-cache scan before returning (§4.2).
pub(crate) fn get(ops: &LinkOps, ctx: &mut ThreadCtx, head_link: usize, key: u64) -> Lookup {
    let hw = ops.load(head_link);
    if is_tagged(hw) {
        ops.ensure_durable(head_link, hw, &mut ctx.flusher);
        ops.scan(key, &mut ctx.flusher);
        return Lookup::Migrated;
    }
    let mut prev_link = head_link;
    let mut curr = addr_of(hw);
    let mut result = Lookup::Absent;
    while curr != 0 {
        let w = ops.load(next_addr(curr));
        let ck = key_at(ops, curr);
        if ck > key {
            break;
        }
        if ck == key {
            if !is_deleted(w) {
                // Present: its adjacent edges must be durable before we
                // report it (§3 rule 2).
                if ops.durable() {
                    let pw = ops.load(prev_link);
                    ops.ensure_durable(prev_link, pw, &mut ctx.flusher);
                    ops.ensure_durable(next_addr(curr), w, &mut ctx.flusher);
                }
                result = Lookup::Found(value_at(ops, curr));
                break;
            }
            // Marked ghost: the absence we report relies on the deletion
            // mark — make it durable (§3: "durably unreachable").
            ops.ensure_durable(next_addr(curr), w, &mut ctx.flusher);
        }
        prev_link = next_addr(curr);
        curr = addr_of(w);
    }
    ops.scan(key, &mut ctx.flusher);
    result
}

/// Post-crash repair of one chain, one node per [`Self::step`]: clears
/// leftover dirty marks and completes the unlink of logically deleted
/// nodes (their slots are then reclaimed by the leak scan). Repairs are
/// only written back; the caller fences once it is done with every
/// chain it repairs. [`recover_chain`] runs one cursor to the end; the
/// hash table's recovery walk steps several in lockstep.
pub(crate) struct RepairCursor {
    pred_link: usize,
    /// The node the next step repairs (0 = chain done).
    curr: usize,
}

impl RepairCursor {
    /// A cursor with no chain left to repair.
    pub(crate) const DONE: Self = Self { pred_link: 0, curr: 0 };

    /// Starts on the chain anchored at `head_link`, cleaning the anchor
    /// itself. `repairs` accumulates `(dirty_cleared, unlinked)`.
    pub(crate) fn start(
        ops: &LinkOps,
        head_link: usize,
        flusher: &mut Flusher,
        repairs: &mut (u64, u64),
    ) -> Self {
        let mut hw = ops.load(head_link);
        if is_dirty(hw) {
            hw = clean(hw);
            ops.pool().atomic_u64(head_link).store(hw, Ordering::Release);
            flusher.clwb(head_link);
            repairs.0 += 1;
        }
        Self { pred_link: head_link, curr: addr_of(hw) }
    }

    /// The node the next step visits, or 0 once the chain is done.
    #[inline]
    pub(crate) fn curr(&self) -> usize {
        self.curr
    }

    /// Repairs the node under the cursor and moves past it. Returns the
    /// node's `(addr, key)` when it is live (not deleted).
    #[inline]
    pub(crate) fn step(
        &mut self,
        ops: &LinkOps,
        flusher: &mut Flusher,
        repairs: &mut (u64, u64),
    ) -> Option<(usize, u64)> {
        let pool = ops.pool();
        let curr = self.curr;
        let mut w = ops.load(next_addr(curr));
        if is_dirty(w) {
            w = clean(w);
            pool.atomic_u64(next_addr(curr)).store(w, Ordering::Release);
            flusher.clwb(next_addr(curr));
            repairs.0 += 1;
        }
        self.curr = addr_of(w);
        if is_deleted(w) {
            // Complete the durable deletion: bypass the node.
            pool.atomic_u64(self.pred_link).store(bare(w), Ordering::Release);
            flusher.clwb(self.pred_link);
            repairs.1 += 1;
            return None;
        }
        self.pred_link = next_addr(curr);
        Some((curr, key_at(ops, curr)))
    }
}

/// Quiescent post-crash fixup of the list anchored at `head_link` (see
/// [`RepairCursor`]), made durable by one fence. Returns
/// `(dirty_cleared, unlinked)`.
pub(crate) fn recover_chain(ops: &LinkOps, head_link: usize, flusher: &mut Flusher) -> (u64, u64) {
    let mut repairs = (0, 0);
    let mut cursor = RepairCursor::start(ops, head_link, flusher, &mut repairs);
    while cursor.curr() != 0 {
        cursor.step(ops, flusher, &mut repairs);
    }
    flusher.fence();
    repairs
}

/// Collects the addresses of all reachable, live nodes (quiescent). Used
/// as the §5.5 "second approach" recovery oracle for linear structures.
pub(crate) fn reachable_chain(ops: &LinkOps, head_link: usize, out: &mut HashSet<usize>) {
    let mut curr = addr_of(ops.load(head_link));
    while curr != 0 {
        let w = ops.load(next_addr(curr));
        if !is_deleted(w) {
            out.insert(curr);
        }
        curr = addr_of(w);
    }
}

/// Quiescent snapshot of live `(key, value)` pairs, in key order.
pub(crate) fn snapshot_chain(ops: &LinkOps, head_link: usize, out: &mut Vec<(u64, u64)>) {
    let mut curr = addr_of(ops.load(head_link));
    while curr != 0 {
        let w = ops.load(next_addr(curr));
        if !is_deleted(w) {
            out.push((key_at(ops, curr), value_at(ops, curr)));
        }
        curr = addr_of(w);
    }
}

/// The standalone durable linked list. Anchored in a root-directory slot
/// so it can be re-attached after a crash.
pub struct LinkedList {
    ops: LinkOps,
    head_link: usize,
}

impl LinkedList {
    /// Creates an empty list whose anchor is root slot `root_idx`.
    pub fn create(domain: &NvDomain, root_idx: usize, ops: LinkOps) -> Self {
        let pool = domain.pool();
        let mut flusher = pool.flusher();
        let head_link = pool.start() + root_idx * 8;
        pool.atomic_u64(head_link).store(0, Ordering::Release);
        flusher.persist(head_link, 8);
        Self { ops, head_link }
    }

    /// Re-attaches to the list anchored at root slot `root_idx` after a
    /// crash. Run [`Self::recover`] before serving operations.
    pub fn attach(domain: &NvDomain, root_idx: usize, ops: LinkOps) -> Self {
        let head_link = domain.pool().start() + root_idx * 8;
        Self { ops, head_link }
    }

    /// The persistence engine (for tests and instrumentation).
    pub fn ops(&self) -> &LinkOps {
        &self.ops
    }

    /// Inserts `key -> value`; returns `Ok(false)` if the key existed.
    pub fn insert(&self, ctx: &mut ThreadCtx, key: u64, value: u64) -> Result<bool, OutOfMemory> {
        ctx.begin_op();
        let r = insert(&self.ops, ctx, self.head_link, key, value);
        ctx.end_op();
        match r? {
            Inserted::Yes => Ok(true),
            Inserted::Exists => Ok(false),
            Inserted::Migrated => unreachable!("a standalone list anchor is never migrated"),
        }
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&self, ctx: &mut ThreadCtx, key: u64) -> Option<u64> {
        ctx.begin_op();
        let r = remove(&self.ops, ctx, self.head_link, key);
        ctx.end_op();
        match r {
            Removed::Yes(v) => Some(v),
            Removed::No => None,
            Removed::Migrated => unreachable!("a standalone list anchor is never migrated"),
        }
    }

    /// Looks up `key`.
    pub fn get(&self, ctx: &mut ThreadCtx, key: u64) -> Option<u64> {
        ctx.begin_op();
        let r = get(&self.ops, ctx, self.head_link, key);
        ctx.end_op();
        match r {
            Lookup::Found(v) => Some(v),
            Lookup::Absent => None,
            Lookup::Migrated => unreachable!("a standalone list anchor is never migrated"),
        }
    }

    /// Whether `key` is present.
    pub fn contains(&self, ctx: &mut ThreadCtx, key: u64) -> bool {
        self.get(ctx, key).is_some()
    }

    /// Quiescent post-crash fixup; returns `(dirty_cleared, unlinked)`.
    pub fn recover(&self, flusher: &mut Flusher) -> (u64, u64) {
        recover_chain(&self.ops, self.head_link, flusher)
    }

    /// §5.5 first-approach oracle: is the node at exactly `addr` linked
    /// (and live) in the list? Key search plus address identity, like the
    /// other structures' oracles.
    pub fn contains_node_at(&self, addr: usize) -> bool {
        let key = key_at(&self.ops, addr);
        let mut curr = addr_of(self.ops.load(self.head_link));
        while curr != 0 {
            let w = self.ops.load(next_addr(curr));
            if curr == addr {
                return !is_deleted(w);
            }
            if key_at(&self.ops, curr) > key {
                return false;
            }
            curr = addr_of(w);
        }
        false
    }

    /// Reachability set for [`NvDomain::recover_leaks`] (§5.5 second
    /// approach: one traversal, then set membership per allocated slot).
    pub fn collect_reachable(&self) -> HashSet<usize> {
        let mut set = HashSet::new();
        reachable_chain(&self.ops, self.head_link, &mut set);
        set
    }

    /// Quiescent snapshot of live pairs in key order (test support).
    pub fn snapshot(&self) -> Vec<(u64, u64)> {
        let mut v = Vec::new();
        snapshot_chain(&self.ops, self.head_link, &mut v);
        v
    }

    /// Quiescent bulk load of strictly ascending `(key, value)` pairs
    /// into an empty list; one fence at the end makes everything durable.
    /// Used to pre-fill large experiment instances in O(n).
    pub fn bulk_load_sorted(
        &self,
        ctx: &mut ThreadCtx,
        items: &[(u64, u64)],
    ) -> Result<(), OutOfMemory> {
        debug_assert!(items.windows(2).all(|w| w[0].0 < w[1].0), "items must be sorted");
        debug_assert_eq!(self.ops.load(self.head_link), 0, "bulk load requires empty list");
        let pool = self.ops.pool();
        ctx.begin_op();
        let mut prev_link = self.head_link;
        for &(key, value) in items {
            let node = ctx.alloc(NODE_SIZE)?;
            pool.atomic_u64(node + KEY_OFF).store(key, Ordering::Relaxed);
            pool.atomic_u64(node + VAL_OFF).store(value, Ordering::Relaxed);
            pool.atomic_u64(node + NEXT_OFF).store(0, Ordering::Release);
            pool.atomic_u64(prev_link).store(node as u64, Ordering::Release);
            ctx.flusher.clwb_range(node, NODE_SIZE);
            ctx.flusher.clwb(prev_link);
            prev_link = node + NEXT_OFF;
        }
        ctx.flusher.fence();
        ctx.end_op();
        Ok(())
    }
}

// SAFETY: all shared state lives in the pool and is accessed atomically;
// the struct itself only holds an address and the (Sync) engine.
unsafe impl Send for LinkedList {}
// SAFETY: see above.
unsafe impl Sync for LinkedList {}
