//! Durable **thread-local allocation buffers** (TLABs).
//!
//! The paper's allocation-locality argument (§5.1) says a thread should
//! almost always be allocating from memory it already owns. The base
//! allocator gets part of the way there with per-thread current pages,
//! but every allocation still probes the shared page bitmap and the
//! active-page-table index. A TLAB removes both from the hot path: the
//! thread *leases* a page — every slot the page has free at refill time —
//! and then privately pops slots off the leased free mask, one bit-scan
//! and one bitmap `fetch_or` per allocation, with no APT lookup.
//!
//! # What a refill hands out
//!
//! A page goes back on the heap's reusable list only while at least
//! [`crate::heap::relist_at`] of its slots (a quarter of the page) are
//! free, so a refill leases a quarter of a page or more (short of a
//! racing duplicate listing, or an exhausted pool). A page that was full
//! when its owner dropped it *floats* — on no list — until frees bring it
//! back to the threshold; the free that observes that transition relists
//! it. A floating page therefore holds at most `relist_at - 1` idle
//! slots, and once the pool is exhausted the heap adopts floating pages
//! directly rather than report out-of-memory.
//!
//! # Durability
//!
//! A lease is published **once**, durably, before the first slot of the
//! page is marked allocated: the per-thread, per-class *lease word* lives
//! in the tail of the thread's APT row (see [`crate::apt`]) and records
//! the page (plus the span of leased slot indices, informational only).
//! The word is published under the same fence as the page's APT entry.
//! Recovery unions the lease pages into the active-page scan set and scans
//! each one whole, so a crash mid-lease costs at most one extra page scan
//! per thread per class — a *bounded* leak scan, never a heap walk. The
//! word is written only at refill and retire, never on the per-allocation
//! path.
//!
//! # Lifecycle
//!
//! * **Refill** (`ThreadCtx::refill_tlab`): park the previous lease,
//!   acquire a page, take its free mask, durably publish the lease word,
//!   then pop slots privately. Each pop claims its slot with
//!   [`crate::heap::PageHeader::try_set`], which arbitrates against a
//!   racing duplicate lease of the same page.
//! * **Park/retire**: on `seal_generation`, thread drop and mode switches
//!   the lease is dropped; its page is relisted if it still has at least
//!   `relist_at` free slots and floats otherwise, and the lease word is
//!   lazily cleared (a stale lease word is safe — it only widens the
//!   recovery scan).
//!
//! Both transitions emit a [`pmem::CrashEvent::TlabLease`] crash point
//! so the crashtest matrix enumerates them.

/// Volatile state of one size class's lease.
///
/// `page == 0` means "no lease". `free` holds the page's slots that were
/// free when the lease was taken and have not been handed out yet; slots
/// are only marked in the page bitmap as they are handed out, so the rest
/// stays visibly free to the rest of the heap.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tlab {
    /// Leased page address (0 = no active lease).
    pub page: usize,
    /// Leased slots not handed out yet (bit i = slot i).
    pub free: u64,
}

impl Tlab {
    /// No active lease.
    pub const EMPTY: Tlab = Tlab { page: 0, free: 0 };

    /// Whether the lease has slots left to hand out.
    #[inline]
    pub fn has_room(&self) -> bool {
        self.page != 0 && self.free != 0
    }

    /// Takes the lowest leased slot off the lease.
    #[inline]
    pub fn pop(&mut self) -> Option<usize> {
        if !self.has_room() {
            return None;
        }
        let slot = self.free.trailing_zeros() as usize;
        self.free &= self.free - 1;
        Some(slot)
    }

    /// The durable word recording this lease: its page and the span from
    /// the lowest to one past the highest leased slot.
    pub fn word(&self) -> u64 {
        debug_assert!(self.has_room(), "only a fresh lease is published");
        let start = self.free.trailing_zeros() as usize;
        let end = 64 - self.free.leading_zeros() as usize;
        encode_lease(self.page, start, end)
    }
}

/// Packs a lease into its durable word: the page address (4 KiB aligned,
/// so its low 12 bits are zero) carries `start` and `end` in those free
/// bits (6 bits each — slot indices never exceed 62). A zero word means
/// "no lease".
#[inline]
pub fn encode_lease(page: usize, start: usize, end: usize) -> u64 {
    debug_assert_eq!(page & 0xFFF, 0, "page must be 4 KiB aligned");
    debug_assert!(page != 0 && start <= 63 && end <= 63 && start <= end);
    page as u64 | ((start as u64) << 6) | end as u64
}

/// The leased page recorded in a lease word (0 when no lease).
#[inline]
pub fn lease_page(word: u64) -> usize {
    (word & !0xFFF) as usize
}

/// The first leased slot index recorded in a lease word.
#[inline]
pub fn lease_start(word: u64) -> usize {
    ((word >> 6) & 0x3F) as usize
}

/// One past the last leased slot index recorded in a lease word.
#[inline]
pub fn lease_end(word: u64) -> usize {
    (word & 0x3F) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_word_round_trips() {
        for &(page, start, end) in
            &[(0x10_000usize, 0usize, 63usize), (0x7F_F000, 5, 5), (0x123_4000, 17, 62)]
        {
            let w = encode_lease(page, start, end);
            assert_eq!(lease_page(w), page);
            assert_eq!(lease_start(w), start);
            assert_eq!(lease_end(w), end);
        }
    }

    #[test]
    fn zero_word_means_no_lease() {
        assert_eq!(lease_page(0), 0);
        assert!(!Tlab::EMPTY.has_room());
    }

    #[test]
    fn pop_hands_out_non_contiguous_slots_lowest_first() {
        let mut t = Tlab { page: 0x10_000, free: (1 << 3) | (1 << 9) | (1 << 40) };
        let w = t.word();
        assert_eq!((lease_page(w), lease_start(w), lease_end(w)), (0x10_000, 3, 41));
        assert_eq!(t.pop(), Some(3));
        assert_eq!(t.pop(), Some(9));
        assert!(t.has_room());
        assert_eq!(t.pop(), Some(40));
        assert!(!t.has_room());
        assert_eq!(t.pop(), None);
    }
}
