//! The page map: virtual page → NUMA domain binding plus page-protection
//! bits.
//!
//! Two paper mechanisms live here:
//!
//! * **Placement** — pages are bound lazily: on the first touch, the owning
//!   region's [`PlacementPolicy`] decides the domain, falling back to the
//!   toucher's domain for `FirstTouch` (the Linux default, §2).
//! * **Protection** — the profiler's first-touch pinpointing (§6) revokes
//!   access to the pages of a freshly allocated variable; the first access to
//!   each protected page raises a synchronous fault that the execution engine
//!   delivers to the profiler, which attributes it and restores access.
//!
//! The map is organized as a sorted list of *regions* (one per allocation),
//! each holding per-page atomic state. The list sits behind a lock and a
//! version counter that every `register_region`/`remove_region` bumps.
//! Each simulated thread keeps a [`RegionView`]: its own copy of the list
//! (sharing the regions, and so their per-page atomics) plus the version
//! it was copied at. The per-access fast path [`PageMap::touch`] is one
//! acquire load of the version, a binary search of the thread's own copy,
//! and plain atomic loads of the page's protection and binding bytes —
//! no lock, and no read-modify-write unless the page is trapping or not
//! yet bound.

use crate::ids::{pages_spanned, DomainId, PageNum, PAGE_SHIFT, PAGE_SIZE};
use crate::policy::PlacementPolicy;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// Sentinel for "page not yet bound to any domain".
const UNBOUND: u8 = u8::MAX;

/// Per-page protection state (see [`PageMap::protect_extent`]).
const PROT_NONE: u8 = 0;
const PROT_TRAP: u8 = 1;

/// What a page-access resolution reported.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PageQuery {
    /// Domain now backing the page.
    pub domain: DomainId,
    /// True if this access performed the binding (i.e. it was the page's
    /// first touch since allocation).
    pub bound_now: bool,
    /// Raised fault, if the page was protected. The engine must deliver this
    /// to the monitor before completing the access.
    pub fault: Option<FaultKind>,
}

/// Kind of synchronous fault raised by an access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// Access hit a protected page (the simulated SIGSEGV of §6). The page
    /// has already been unprotected; the faulting access then proceeds.
    FirstTouchTrap,
}

struct Region {
    start: u64,
    bytes: u64,
    policy: PlacementPolicy,
    /// Domain per page, `UNBOUND` until first touch.
    domains: Vec<AtomicU8>,
    /// Protection flag per page.
    prot: Vec<AtomicU8>,
}

impl Region {
    fn pages(&self) -> u64 {
        pages_spanned(self.start, self.bytes)
    }

    fn end(&self) -> u64 {
        self.start + self.bytes
    }

    fn page_index(&self, addr: u64) -> usize {
        ((addr >> PAGE_SHIFT) - (self.start >> PAGE_SHIFT)) as usize
    }
}

/// Concurrent page map for one machine.
pub struct PageMap {
    num_domains: usize,
    regions: RwLock<Vec<Arc<Region>>>,
    /// Bumped under the write lock by every change to `regions`; starts
    /// at 1 so a fresh [`RegionView`] (version 0) copies on first use.
    version: AtomicU64,
}

/// One thread's private copy of a [`PageMap`]'s region list, refreshed
/// only when the map's version moves. The regions themselves are shared,
/// so page bindings and protection stay global. A view belongs to the
/// one map it is passed to.
#[derive(Default)]
pub struct RegionView {
    regions: Vec<Arc<Region>>,
    version: u64,
}

impl PageMap {
    pub fn new(num_domains: usize) -> Self {
        assert!(num_domains >= 1 && num_domains < UNBOUND as usize);
        PageMap {
            num_domains,
            regions: RwLock::new(Vec::new()),
            version: AtomicU64::new(1),
        }
    }

    pub fn num_domains(&self) -> usize {
        self.num_domains
    }

    /// Register an allocation region `[start, start+bytes)` with a placement
    /// policy. Regions must not overlap.
    ///
    /// # Panics
    /// Panics on overlap with an existing region or zero-size region.
    pub fn register_region(&self, start: u64, bytes: u64, policy: PlacementPolicy) {
        assert!(bytes > 0, "empty region");
        if let PlacementPolicy::Bind(d) = &policy {
            assert!(d.index() < self.num_domains, "bind domain out of range");
        }
        let pages = pages_spanned(start, bytes) as usize;
        let region = Arc::new(Region {
            start,
            bytes,
            policy,
            domains: (0..pages).map(|_| AtomicU8::new(UNBOUND)).collect(),
            prot: (0..pages).map(|_| AtomicU8::new(PROT_NONE)).collect(),
        });
        let mut regions = self.regions.write();
        let pos = regions.partition_point(|r| r.start < start);
        if pos > 0 {
            let prev = &regions[pos - 1];
            assert!(prev.end() <= start, "region overlaps predecessor");
        }
        if pos < regions.len() {
            let next = &regions[pos];
            assert!(region.end() <= next.start, "region overlaps successor");
        }
        regions.insert(pos, region);
        self.version.fetch_add(1, Ordering::Release);
    }

    /// Remove the region starting at `start` (e.g. on `free`). Returns true
    /// if a region was removed.
    pub fn remove_region(&self, start: u64) -> bool {
        let mut regions = self.regions.write();
        if let Ok(idx) = regions.binary_search_by_key(&start, |r| r.start) {
            regions.remove(idx);
            self.version.fetch_add(1, Ordering::Release);
            true
        } else {
            false
        }
    }

    /// Resolve an access to `addr` by a thread running in `toucher`'s
    /// domain: binds the page if this is its first touch and reports any
    /// protection fault (clearing the protection so the access can retry).
    /// `view` is the calling thread's copy of the region list; it is
    /// refreshed first if a region was registered or removed since it was
    /// taken.
    ///
    /// # Panics
    /// Panics if `addr` does not fall in any registered region ("wild"
    /// accesses are workload bugs).
    pub fn touch(&self, view: &mut RegionView, addr: u64, toucher: DomainId) -> PageQuery {
        if view.version != self.version.load(Ordering::Acquire) {
            // Copy and version read under one read lock: writers bump the
            // version while they hold the write lock, so the pair agrees.
            let regions = self.regions.read();
            view.version = self.version.load(Ordering::Relaxed);
            view.regions.clone_from(&regions);
        }
        let r = Self::find(&view.regions, addr)
            .unwrap_or_else(|| panic!("access to unmapped address {addr:#x}"));
        let idx = r.page_index(addr);

        // Protection check first: the fault conceptually precedes the access.
        // The CAS only runs on a page that still looks protected; on any
        // other page it would fail and change nothing.
        let prot = &r.prot[idx];
        let fault = (prot.load(Ordering::Relaxed) == PROT_TRAP
            && prot
                .compare_exchange(PROT_TRAP, PROT_NONE, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok())
        .then_some(FaultKind::FirstTouchTrap);

        let cell = &r.domains[idx];
        let current = cell.load(Ordering::Acquire);
        if current != UNBOUND {
            return PageQuery {
                domain: DomainId(current),
                bound_now: false,
                fault,
            };
        }
        let target = r
            .policy
            .domain_for_page(idx as u64, r.pages())
            .unwrap_or(toucher);
        debug_assert!(target.index() < self.num_domains);
        match cell.compare_exchange(UNBOUND, target.0, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => PageQuery {
                domain: target,
                bound_now: true,
                fault,
            },
            // Another thread bound it first; its choice wins (as on Linux).
            Err(won) => PageQuery {
                domain: DomainId(won),
                bound_now: false,
                fault,
            },
        }
    }

    /// The domain backing `addr`, or `None` if unmapped or not yet touched.
    /// This is the `move_pages` query the profiler issues per sample.
    pub fn domain_of_addr(&self, addr: u64) -> Option<DomainId> {
        let regions = self.regions.read();
        let r = Self::find(&regions, addr)?;
        let d = r.domains[r.page_index(addr)].load(Ordering::Acquire);
        (d != UNBOUND).then_some(DomainId(d))
    }

    /// Protect the pages of the variable extent `[start, start+bytes)` for
    /// first-touch trapping. Following §6, only pages *fully contained* in
    /// the extent ("between the first and last page boundaries within the
    /// variable's extent") are protected, so accesses to neighbouring
    /// variables sharing a boundary page never fault spuriously.
    ///
    /// Returns the number of pages protected.
    pub fn protect_extent(&self, start: u64, bytes: u64) -> u64 {
        let first_full = start.div_ceil(PAGE_SIZE);
        let end_full = (start + bytes) >> PAGE_SHIFT; // exclusive page number
        if end_full <= first_full {
            return 0;
        }
        let regions = self.regions.read();
        let mut protected = 0;
        for pn in first_full..end_full {
            let addr = PageNum(pn).base_addr();
            if let Some(r) = Self::find(&regions, addr) {
                r.prot[r.page_index(addr)].store(PROT_TRAP, Ordering::Release);
                protected += 1;
            }
        }
        protected
    }

    /// Clear protection on every page of `[start, start+bytes)`.
    pub fn unprotect_extent(&self, start: u64, bytes: u64) {
        let regions = self.regions.read();
        let first = start >> PAGE_SHIFT;
        let last = (start + bytes.max(1) - 1) >> PAGE_SHIFT;
        for pn in first..=last {
            let addr = PageNum(pn).base_addr().max(start);
            if let Some(r) = Self::find(&regions, addr) {
                r.prot[r.page_index(addr)].store(PROT_NONE, Ordering::Release);
            }
        }
    }

    /// Is the page holding `addr` currently protected?
    pub fn is_protected(&self, addr: u64) -> bool {
        let regions = self.regions.read();
        Self::find(&regions, addr)
            .map(|r| r.prot[r.page_index(addr)].load(Ordering::Acquire) == PROT_TRAP)
            .unwrap_or(false)
    }

    /// Pages of region `start` bound to each domain (index = domain id).
    /// Useful for verifying distributions in tests and reports.
    pub fn binding_histogram(&self, start: u64) -> Option<Vec<u64>> {
        let regions = self.regions.read();
        let idx = regions.binary_search_by_key(&start, |r| r.start).ok()?;
        let r = &regions[idx];
        let mut hist = vec![0u64; self.num_domains];
        for cell in &r.domains {
            let d = cell.load(Ordering::Acquire);
            if d != UNBOUND {
                hist[d as usize] += 1;
            }
        }
        Some(hist)
    }

    /// Total number of registered regions (diagnostics / footprint).
    pub fn region_count(&self) -> usize {
        self.regions.read().len()
    }

    /// Approximate resident bytes of the map itself (for the paper's <40 MB
    /// footprint check).
    pub fn footprint_bytes(&self) -> usize {
        let regions = self.regions.read();
        regions
            .iter()
            .map(|r| std::mem::size_of::<Region>() + r.domains.len() * 2)
            .sum()
    }

    fn find(regions: &[Arc<Region>], addr: u64) -> Option<&Region> {
        let pos = regions.partition_point(|r| r.start <= addr);
        if pos == 0 {
            return None;
        }
        let r = &regions[pos - 1];
        (addr < r.end()).then_some(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> PageMap {
        PageMap::new(8)
    }

    const BASE: u64 = 0x10_0000;

    #[test]
    fn first_touch_binds_to_toucher() {
        let m = map();
        let mut v = RegionView::default();
        m.register_region(BASE, 4 * PAGE_SIZE, PlacementPolicy::FirstTouch);
        let q = m.touch(&mut v, BASE + 10, DomainId(3));
        assert_eq!(q.domain, DomainId(3));
        assert!(q.bound_now);
        // Second touch from elsewhere does not rebind.
        let q2 = m.touch(&mut v, BASE + 20, DomainId(5));
        assert_eq!(q2.domain, DomainId(3));
        assert!(!q2.bound_now);
        assert_eq!(m.domain_of_addr(BASE), Some(DomainId(3)));
    }

    #[test]
    fn untouched_page_has_no_domain() {
        let m = map();
        m.register_region(BASE, 4 * PAGE_SIZE, PlacementPolicy::FirstTouch);
        assert_eq!(m.domain_of_addr(BASE + 2 * PAGE_SIZE), None);
    }

    #[test]
    fn interleave_ignores_toucher() {
        let m = map();
        let mut v = RegionView::default();
        m.register_region(BASE, 4 * PAGE_SIZE, PlacementPolicy::interleave_all(4));
        for p in 0..4u64 {
            let q = m.touch(&mut v, BASE + p * PAGE_SIZE, DomainId(7));
            assert_eq!(q.domain, DomainId((p % 4) as u8));
        }
    }

    #[test]
    fn blockwise_distribution_binds_blocks() {
        let m = map();
        let mut v = RegionView::default();
        m.register_region(BASE, 8 * PAGE_SIZE, PlacementPolicy::blockwise_all(4));
        for p in 0..8u64 {
            m.touch(&mut v, BASE + p * PAGE_SIZE, DomainId(0));
        }
        let hist = m.binding_histogram(BASE).unwrap();
        assert_eq!(hist, vec![2, 2, 2, 2, 0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "unmapped")]
    fn wild_access_panics() {
        map().touch(&mut RegionView::default(), 0xdead_0000, DomainId(0));
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_regions_rejected() {
        let m = map();
        m.register_region(BASE, 4 * PAGE_SIZE, PlacementPolicy::FirstTouch);
        m.register_region(BASE + PAGE_SIZE, PAGE_SIZE, PlacementPolicy::FirstTouch);
    }

    #[test]
    fn adjacent_regions_allowed() {
        let m = map();
        let mut v = RegionView::default();
        m.register_region(BASE, 4 * PAGE_SIZE, PlacementPolicy::FirstTouch);
        m.register_region(
            BASE + 4 * PAGE_SIZE,
            PAGE_SIZE,
            PlacementPolicy::Bind(DomainId(1)),
        );
        let q = m.touch(&mut v, BASE + 4 * PAGE_SIZE, DomainId(0));
        assert_eq!(q.domain, DomainId(1));
    }

    #[test]
    fn remove_region_unmaps() {
        let m = map();
        m.register_region(BASE, PAGE_SIZE, PlacementPolicy::FirstTouch);
        assert!(m.remove_region(BASE));
        assert!(!m.remove_region(BASE));
        assert_eq!(m.domain_of_addr(BASE), None);
    }

    #[test]
    fn region_registered_after_view_was_taken_is_visible() {
        let m = map();
        let mut v = RegionView::default();
        m.register_region(BASE, PAGE_SIZE, PlacementPolicy::FirstTouch);
        m.touch(&mut v, BASE, DomainId(0));
        m.register_region(
            BASE + 4 * PAGE_SIZE,
            PAGE_SIZE,
            PlacementPolicy::Bind(DomainId(2)),
        );
        let q = m.touch(&mut v, BASE + 4 * PAGE_SIZE, DomainId(0));
        assert_eq!(q.domain, DomainId(2));
        assert!(q.bound_now);
    }

    #[test]
    #[should_panic(expected = "access to unmapped address")]
    fn removed_region_is_unmapped_for_an_existing_view() {
        let m = map();
        let mut v = RegionView::default();
        m.register_region(BASE, PAGE_SIZE, PlacementPolicy::FirstTouch);
        m.touch(&mut v, BASE, DomainId(0));
        m.remove_region(BASE);
        m.touch(&mut v, BASE, DomainId(0));
    }

    #[test]
    fn protection_faults_once_per_page() {
        let m = map();
        let mut v = RegionView::default();
        m.register_region(BASE, 4 * PAGE_SIZE, PlacementPolicy::FirstTouch);
        assert_eq!(m.protect_extent(BASE, 4 * PAGE_SIZE), 4);
        assert!(m.is_protected(BASE));
        let q = m.touch(&mut v, BASE + 100, DomainId(0));
        assert_eq!(q.fault, Some(FaultKind::FirstTouchTrap));
        // Fault already consumed; subsequent touches of the same page are clean.
        let q2 = m.touch(&mut v, BASE + 200, DomainId(0));
        assert_eq!(q2.fault, None);
        // Other pages still protected.
        let q3 = m.touch(&mut v, BASE + PAGE_SIZE, DomainId(0));
        assert_eq!(q3.fault, Some(FaultKind::FirstTouchTrap));
    }

    #[test]
    fn protect_extent_skips_partial_boundary_pages() {
        let m = map();
        m.register_region(BASE, 4 * PAGE_SIZE, PlacementPolicy::FirstTouch);
        // Extent starts mid-page and ends mid-page: only the two fully
        // contained pages are protected (§6).
        let protected = m.protect_extent(BASE + 100, 3 * PAGE_SIZE);
        assert_eq!(protected, 2);
        assert!(!m.is_protected(BASE + 100));
        assert!(m.is_protected(BASE + PAGE_SIZE));
        assert!(m.is_protected(BASE + 2 * PAGE_SIZE));
        assert!(!m.is_protected(BASE + 3 * PAGE_SIZE + 100));
    }

    #[test]
    fn protect_extent_smaller_than_page_protects_nothing() {
        let m = map();
        m.register_region(BASE, 4 * PAGE_SIZE, PlacementPolicy::FirstTouch);
        assert_eq!(m.protect_extent(BASE + 8, 64), 0);
    }

    #[test]
    fn unprotect_extent_clears_flags() {
        let m = map();
        m.register_region(BASE, 4 * PAGE_SIZE, PlacementPolicy::FirstTouch);
        m.protect_extent(BASE, 4 * PAGE_SIZE);
        m.unprotect_extent(BASE, 4 * PAGE_SIZE);
        for p in 0..4u64 {
            assert!(!m.is_protected(BASE + p * PAGE_SIZE));
        }
    }

    #[test]
    fn concurrent_first_touch_single_winner() {
        use std::sync::Arc;
        let m = Arc::new(map());
        m.register_region(BASE, PAGE_SIZE, PlacementPolicy::FirstTouch);
        let mut handles = Vec::new();
        for t in 0..8u8 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                m.touch(&mut RegionView::default(), BASE, DomainId(t))
            }));
        }
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let winners = results.iter().filter(|q| q.bound_now).count();
        assert_eq!(winners, 1, "exactly one thread performs the binding");
        let domain = results[0].domain;
        assert!(results.iter().all(|q| q.domain == domain));
    }

    #[test]
    fn footprint_scales_with_pages() {
        let m = map();
        m.register_region(BASE, 1024 * PAGE_SIZE, PlacementPolicy::FirstTouch);
        assert!(m.footprint_bytes() >= 2048);
        assert!(m.footprint_bytes() < 64 * 1024);
    }
}
