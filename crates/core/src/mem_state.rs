//! The kernel's memory-side state, exposed to policies as
//! [`MemView`](pagesim_policy::MemView).

use pagesim_mem::{
    AddressSpace, AsId, LineIdx, PageArena, PageInfo, PageKey, PhysMem, RegionIdx, Vpn,
    WORDS_PER_REGION,
};
use pagesim_policy::MemView;
use pagesim_swap::SwapSlot;

use crate::benchcounters::{Counter, Timer};

/// Address spaces, page tables, frame pool, and swap-cache bookkeeping.
#[derive(Debug)]
pub struct MemState {
    pub(crate) spaces: Vec<AddressSpace>,
    pub(crate) arena: PageArena,
    pub(crate) phys: PhysMem,
    /// Valid swap-slot backing for resident pages (swap-cache analog):
    /// a clean page with backing can be evicted without a write.
    pub(crate) backing: Vec<Option<SwapSlot>>,
    /// Whether the page has ever been evicted — a later fault is a
    /// *refault* (drives MG-LRU's tier accounting; the kernel's shadow
    /// entries play this role).
    pub(crate) evicted_before: Vec<bool>,
}

impl MemState {
    pub(crate) fn new(spaces: Vec<AddressSpace>, arena: PageArena, phys: PhysMem) -> Self {
        let pages = arena.len();
        MemState {
            spaces,
            arena,
            phys,
            backing: vec![None; pages],
            evicted_before: vec![false; pages],
        }
    }

    pub(crate) fn space(&self, id: AsId) -> &AddressSpace {
        &self.spaces[id.0 as usize]
    }

    pub(crate) fn space_mut(&mut self, id: AsId) -> &mut AddressSpace {
        &mut self.spaces[id.0 as usize]
    }

    pub(crate) fn locate(&self, key: PageKey) -> (AsId, Vpn) {
        let info = self.arena.info(key);
        (info.as_id, info.vpn)
    }

    /// Total resident pages across spaces (diagnostics).
    #[cfg(any(test, feature = "sanitize"))]
    pub(crate) fn resident_pages(&self) -> u32 {
        self.spaces.iter().map(AddressSpace::resident_pages).sum()
    }
}

impl MemView for MemState {
    fn total_pages(&self) -> u32 {
        self.arena.len() as u32
    }

    fn page_info(&self, key: PageKey) -> PageInfo {
        self.arena.info(key)
    }

    fn is_resident(&self, key: PageKey) -> bool {
        let (s, vpn) = self.locate(key);
        self.space(s).pte(vpn).present()
    }

    fn is_dirty(&self, key: PageKey) -> bool {
        let (s, vpn) = self.locate(key);
        self.space(s).pte(vpn).dirty()
    }

    fn rmap_test_clear_accessed(&mut self, key: PageKey) -> bool {
        let (s, vpn) = self.locate(key);
        self.space_mut(s).test_and_clear_accessed(vpn)
    }

    fn scan_region(
        &mut self,
        space: AsId,
        region: RegionIdx,
        words: &mut [u64; WORDS_PER_REGION],
    ) -> u32 {
        let mut t = Timer::start(Counter::AgingScan);
        let examined = self.space_mut(space).scan_region(region, words);
        t.set_units(examined as u64);
        examined
    }

    fn scan_line_mask(&mut self, space: AsId, line: LineIdx) -> (u8, u32) {
        let mut t = Timer::start(Counter::EvictScan);
        let (mask, examined) = self.space_mut(space).scan_line_mask(line);
        t.set_units(examined as u64);
        (mask, examined)
    }

    fn key_at(&self, space: AsId, vpn: Vpn) -> PageKey {
        self.space(space).key_of(vpn)
    }

    fn space_count(&self) -> u16 {
        self.spaces.len() as u16
    }

    fn region_count(&self, space: AsId) -> u32 {
        self.space(space).regions()
    }

    fn region_present_count(&self, space: AsId, region: RegionIdx) -> u32 {
        self.space(space).region_present_count(region)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagesim_mem::Watermarks;

    fn state() -> MemState {
        let mut arena = PageArena::new();
        let s0 = AddressSpace::new(AsId(0), 100, &mut arena);
        let s1 = AddressSpace::new(AsId(1), 50, &mut arena);
        let phys = PhysMem::new(64, Watermarks::for_capacity(64));
        MemState::new(vec![s0, s1], arena, phys)
    }

    #[test]
    fn keys_span_spaces() {
        let m = state();
        assert_eq!(m.total_pages(), 150);
        assert_eq!(m.locate(120), (AsId(1), 20));
        assert_eq!(m.key_at(AsId(1), 20), 120);
        assert_eq!(m.space_count(), 2);
    }

    #[test]
    fn scan_masks_map_to_global_keys_via_key_at() {
        let mut m = state();
        let frame = m.phys.allocate(101).unwrap();
        m.space_mut(AsId(1)).map(1, frame);
        m.space_mut(AsId(1)).mark_accessed(1, false);
        let (mask, examined) = m.scan_line_mask(AsId(1), 0);
        assert_eq!((mask, examined), (1 << 1, 8));
        assert_eq!(m.key_at(AsId(1), 1), 101);
        assert!(!m.space(AsId(1)).pte(1).accessed(), "scan clears the bit");
        // region scan on the other space: vpn 1 of space 1 is untouched
        m.space_mut(AsId(1)).mark_accessed(1, false);
        let mut words = [0u64; WORDS_PER_REGION];
        let examined = m.scan_region(AsId(0), 0, &mut words);
        assert_eq!(examined, 100);
        assert_eq!(words, [0u64; WORDS_PER_REGION]);
        let examined = m.scan_region(AsId(1), 0, &mut words);
        assert_eq!(examined, 50);
        assert_eq!(words[0], 1 << 1);
    }

    #[test]
    fn rmap_probe_roundtrip() {
        let mut m = state();
        let frame = m.phys.allocate(5).unwrap();
        m.space_mut(AsId(0)).map(5, frame);
        assert!(m.is_resident(5));
        assert!(!m.rmap_test_clear_accessed(5));
        m.space_mut(AsId(0)).mark_accessed(5, true);
        assert!(m.is_dirty(5));
        assert!(m.rmap_test_clear_accessed(5));
        assert!(!m.rmap_test_clear_accessed(5));
        assert_eq!(m.resident_pages(), 1);
    }
}
