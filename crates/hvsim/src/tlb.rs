//! Per-vCPU software TLB: a cache of guest-virtual → guest-physical
//! translations with architecturally faithful invalidation.
//!
//! Every mediated guest memory access walks the guest page tables
//! ([`crate::paging::walk`]) and consults EPT ([`crate::ept`]). Both are pure
//! functions of guest state, so their results can be cached exactly like a
//! hardware TLB caches translations — provided the cache is invalidated
//! whenever the underlying structures change. The simulator enforces the
//! same three invalidation rules real x86 hardware and hypervisors do:
//!
//! 1. **CR3 load** — an address-space switch flushes the whole TLB (the
//!    simulator does not model global pages or PCIDs), mirroring the
//!    hardware flush a `mov cr3` performs.
//! 2. **Page-table edit** — x86 requires `invlpg` after an edit, but a
//!    monitor cannot trust the guest to be well behaved, so the simulator is
//!    *stricter* than hardware: guest memory tracks the frames that hold
//!    paging structures ([`crate::mem::GuestMemory::track_paging_frame`]) and
//!    any store to one of them invalidates the translations that walked
//!    through it. A malicious guest therefore cannot desynchronise the TLB
//!    from its page tables, which keeps cached translation transparent to
//!    HyperTap's invariant checks.
//! 3. **EPT permission edit** — the hypervisor bumps an EPT generation
//!    counter on every [`crate::ept::Ept::set_perm`]; cached permissions are
//!    refreshed when the generation moves (the analogue of `INVEPT`).
//!
//! The cache is a fixed-size direct-mapped array keyed on `(CR3, virtual
//! page number)`, so behaviour is deterministic and memory use is bounded.
//! A full flush is O(1): it bumps the TLB's epoch, and an entry only hits
//! while its epoch is the current one. The slots are cleared for real only
//! when the epoch counter wraps.
//!
//! Crucially, translation charges **no simulated time** — the cost model
//! charges accesses after translation — so enabling or disabling the TLB
//! cannot change any event stream or simulated clock; only host wall-clock
//! time differs.

use crate::ept::{Ept, EptPerm};
use crate::mem::{Gfn, Gpa, GuestMemory, Gva, PAGE_SIZE};
use crate::paging::{self, PageFault};
use crate::snap::{SnapError, SnapReader, SnapWriter};

/// Number of direct-mapped TLB slots per vCPU (a power of two).
pub const TLB_SLOTS: usize = 1024;

#[derive(Debug, Clone, Copy)]
struct TlbEntry {
    /// Address space the translation belongs to.
    cr3: Gpa,
    /// Virtual page number (GVA / page size).
    vpn: u64,
    /// Base of the guest-physical frame the page maps to.
    frame: Gpa,
    /// Frame holding the page-directory entry the walk read.
    pd_gfn: Gfn,
    /// Frame holding the page-table entry the walk read.
    pt_gfn: Gfn,
    /// `mem.paging_gen()` when the entry was filled: both dependency frames
    /// were last written at or before this generation.
    fill_gen: u64,
    /// `mem.paging_gen()` when the entry was last validated. When this
    /// equals the current generation no page table anywhere has changed and
    /// the per-frame checks can be skipped.
    snap_gen: u64,
    /// Cached EPT permission of `frame`.
    perm: EptPerm,
    /// `ept.generation()` when `perm` was cached.
    ept_gen: u64,
    /// The TLB's flush epoch when the entry was filled; the entry is dead
    /// once a flush has moved the epoch on. Sits in the padding after
    /// `perm`, so the entry costs no extra bytes.
    epoch: u32,
}

// A wider epoch would grow every slot by 8 bytes.
const _: () = assert!(std::mem::size_of::<Option<TlbEntry>>() == 72);

/// Hit/miss counters for one TLB (or an aggregate over several).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that fell back to a page-table walk (including faults).
    pub misses: u64,
    /// Successful walks whose result was cached.
    pub fills: u64,
    /// Full flushes (CR3 loads).
    pub flushes: u64,
}

impl TlbStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the cache (0 when there were none).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }

    /// Accumulates another stats block into this one.
    pub fn merge(&mut self, other: &TlbStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.fills += other.fills;
        self.flushes += other.flushes;
    }
}

/// A per-vCPU software TLB. See the module documentation for the
/// invalidation rules.
#[derive(Debug, Clone)]
pub struct Tlb {
    entries: Vec<Option<TlbEntry>>,
    /// Entries filled under an older epoch are flushed.
    epoch: u32,
    stats: TlbStats,
}

impl Default for Tlb {
    fn default() -> Self {
        Tlb::new()
    }
}

impl Tlb {
    /// An empty TLB.
    pub fn new() -> Self {
        Tlb { entries: vec![None; TLB_SLOTS], epoch: 0, stats: TlbStats::default() }
    }

    /// Drops every cached translation (a CR3 load) by starting a new epoch.
    pub fn flush(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Entries from the epoch that just came round again would be
            // live once more: clear them for real.
            self.clear();
        }
        self.stats.flushes += 1;
    }

    fn clear(&mut self) {
        for e in &mut self.entries {
            *e = None;
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Serializes the cached translations and counters. Restoring the full
    /// entry array (not just flushing) keeps hit/miss statistics bit-exact
    /// across a snapshot/restore cycle. Only live entries are written, so
    /// the bytes are those of a TLB that cleared every slot on each flush;
    /// the epoch itself is not saved.
    pub fn save(&self, w: &mut SnapWriter) {
        w.varint(self.stats.hits);
        w.varint(self.stats.misses);
        w.varint(self.stats.fills);
        w.varint(self.stats.flushes);
        let live = || {
            self.entries
                .iter()
                .enumerate()
                .filter_map(|(i, e)| e.as_ref().filter(|e| e.epoch == self.epoch).map(|e| (i, e)))
        };
        w.varint(live().count() as u64);
        for (i, e) in live() {
            w.varint(i as u64);
            w.varint(e.cr3.value());
            w.varint(e.vpn);
            w.varint(e.frame.value());
            w.varint(e.pd_gfn.value());
            w.varint(e.pt_gfn.value());
            w.varint(e.fill_gen);
            w.varint(e.snap_gen);
            w.byte(e.perm.to_bits());
            w.varint(e.ept_gen);
        }
    }

    /// Restores state saved by [`Tlb::save`].
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] if the bytes are truncated or malformed.
    pub fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.stats = TlbStats {
            hits: r.varint()?,
            misses: r.varint()?,
            fills: r.varint()?,
            flushes: r.varint()?,
        };
        self.clear();
        let n = r.count(TLB_SLOTS, "tlb entry count")?;
        for _ in 0..n {
            let off = r.offset();
            let idx = r.varint()? as usize;
            if idx >= TLB_SLOTS {
                return Err(SnapError::BadValue { offset: off, what: "tlb slot" });
            }
            let cr3 = Gpa::new(r.varint()?);
            let vpn = r.varint()?;
            let frame = Gpa::new(r.varint()?);
            let pd_gfn = Gfn::new(r.varint()?);
            let pt_gfn = Gfn::new(r.varint()?);
            let fill_gen = r.varint()?;
            let snap_gen = r.varint()?;
            let off = r.offset();
            let perm = EptPerm::from_bits(r.byte()?)
                .ok_or(SnapError::BadValue { offset: off, what: "tlb permission" })?;
            let ept_gen = r.varint()?;
            self.entries[idx] = Some(TlbEntry {
                cr3,
                vpn,
                frame,
                pd_gfn,
                pt_gfn,
                fill_gen,
                snap_gen,
                perm,
                ept_gen,
                epoch: self.epoch,
            });
        }
        Ok(())
    }

    /// Translates `gva` under `cr3`, consulting the cache first. Returns the
    /// guest-physical address and the (current) EPT permission of its frame.
    ///
    /// Needs `&mut GuestMemory` only to mark paging-structure frames as
    /// tracked on the fill path; guest-visible memory contents are never
    /// modified.
    ///
    /// # Errors
    ///
    /// Returns the same [`PageFault`] a raw [`paging::walk`] would.
    #[inline]
    pub fn translate(
        &mut self,
        mem: &mut GuestMemory,
        ept: &Ept,
        cr3: Gpa,
        gva: Gva,
    ) -> Result<(Gpa, EptPerm), PageFault> {
        let vpn = gva.value() / PAGE_SIZE;
        let idx = (vpn as usize) & (TLB_SLOTS - 1);
        let paging_gen = mem.paging_gen();
        if let Some(e) = &mut self.entries[idx] {
            if e.epoch == self.epoch && e.cr3 == cr3 && e.vpn == vpn {
                // Valid if no page table anywhere changed since the last
                // validation, or (slow check) if neither structure this
                // entry walked through was written since the fill.
                let paging_ok = e.snap_gen == paging_gen
                    || (mem.frame_write_gen(e.pd_gfn) <= e.fill_gen
                        && mem.frame_write_gen(e.pt_gfn) <= e.fill_gen);
                if paging_ok {
                    e.snap_gen = paging_gen;
                    if e.ept_gen != ept.generation() {
                        e.perm = ept.perm(e.frame.gfn());
                        e.ept_gen = ept.generation();
                    }
                    self.stats.hits += 1;
                    return Ok((e.frame.offset(gva.page_offset()), e.perm));
                }
            }
        }
        self.stats.misses += 1;
        let t = paging::walk_traced(mem, cr3, gva)?;
        mem.track_paging_frame(t.pd_gfn);
        mem.track_paging_frame(t.pt_gfn);
        let frame = t.gpa.gfn().base();
        let perm = ept.perm(frame.gfn());
        let fill_gen = mem.paging_gen();
        self.entries[idx] = Some(TlbEntry {
            cr3,
            vpn,
            frame,
            pd_gfn: t.pd_gfn,
            pt_gfn: t.pt_gfn,
            fill_gen,
            snap_gen: fill_gen,
            perm,
            ept_gen: ept.generation(),
            epoch: self.epoch,
        });
        self.stats.fills += 1;
        Ok((t.gpa, perm))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paging::{AddressSpaceBuilder, FrameAllocator};

    fn setup() -> (GuestMemory, Ept, FrameAllocator, AddressSpaceBuilder) {
        let mut mem = GuestMemory::new(64 << 20);
        let mut falloc = FrameAllocator::new(Gfn::new(16), Gfn::new((64 << 20) / PAGE_SIZE));
        let asb = AddressSpaceBuilder::new(&mut mem, &mut falloc);
        (mem, Ept::new(), falloc, asb)
    }

    #[test]
    fn repeat_access_hits() {
        let (mut mem, ept, mut falloc, mut asb) = setup();
        let frame = falloc.alloc(&mut mem);
        asb.map(&mut mem, &mut falloc, Gva::new(0x40_0000), frame);
        let mut tlb = Tlb::new();
        let cr3 = asb.pdba();
        let (a, _) = tlb.translate(&mut mem, &ept, cr3, Gva::new(0x40_0010)).unwrap();
        let (b, _) = tlb.translate(&mut mem, &ept, cr3, Gva::new(0x40_0020)).unwrap();
        assert_eq!(a, frame.base().offset(0x10));
        assert_eq!(b, frame.base().offset(0x20));
        assert_eq!(tlb.stats().hits, 1);
        assert_eq!(tlb.stats().misses, 1);
    }

    #[test]
    fn flush_empties_the_cache() {
        let (mut mem, ept, mut falloc, mut asb) = setup();
        let frame = falloc.alloc(&mut mem);
        asb.map(&mut mem, &mut falloc, Gva::new(0x40_0000), frame);
        let mut tlb = Tlb::new();
        let cr3 = asb.pdba();
        tlb.translate(&mut mem, &ept, cr3, Gva::new(0x40_0000)).unwrap();
        tlb.flush();
        tlb.translate(&mut mem, &ept, cr3, Gva::new(0x40_0000)).unwrap();
        assert_eq!(tlb.stats().hits, 0);
        assert_eq!(tlb.stats().misses, 2);
        assert_eq!(tlb.stats().flushes, 1);
    }

    #[test]
    fn epoch_wrap_leaves_no_stale_entry() {
        let (mut mem, ept, mut falloc, mut asb) = setup();
        let frame = falloc.alloc(&mut mem);
        let gva = Gva::new(0x40_0000);
        asb.map(&mut mem, &mut falloc, gva, frame);
        let cr3 = asb.pdba();
        let mut tlb = Tlb::new();
        tlb.translate(&mut mem, &ept, cr3, gva).unwrap();
        assert_eq!(tlb.epoch, 0);
        // As if 2^32 - 1 flushes had happened: the next one wraps the epoch
        // back to the one the entry was filled under.
        tlb.epoch = u32::MAX;
        tlb.flush();
        assert_eq!(tlb.epoch, 0);
        assert!(tlb.entries.iter().all(Option::is_none), "a wrap must clear every slot");
        tlb.translate(&mut mem, &ept, cr3, gva).unwrap();
        assert_eq!(tlb.stats().hits, 0, "a pre-wrap entry must not hit");
        assert_eq!(tlb.stats().misses, 2);
        // Entries filled after the wrap hit as usual.
        tlb.translate(&mut mem, &ept, cr3, gva).unwrap();
        assert_eq!(tlb.stats().hits, 1);
    }

    #[test]
    fn page_table_edit_invalidates() {
        let (mut mem, ept, mut falloc, mut asb) = setup();
        let f1 = falloc.alloc(&mut mem);
        let f2 = falloc.alloc(&mut mem);
        let gva = Gva::new(0x40_0000);
        asb.map(&mut mem, &mut falloc, gva, f1);
        let mut tlb = Tlb::new();
        let cr3 = asb.pdba();
        let (a, _) = tlb.translate(&mut mem, &ept, cr3, gva).unwrap();
        assert_eq!(a.gfn(), f1);
        // Remap the page: a guest store into the (tracked) page table.
        asb.map(&mut mem, &mut falloc, gva, f2);
        let (b, _) = tlb.translate(&mut mem, &ept, cr3, gva).unwrap();
        assert_eq!(b.gfn(), f2, "stale translation must not survive a PTE edit");
        assert_eq!(tlb.stats().misses, 2);
    }

    #[test]
    fn unrelated_writes_do_not_invalidate() {
        let (mut mem, ept, mut falloc, mut asb) = setup();
        let frame = falloc.alloc(&mut mem);
        asb.map(&mut mem, &mut falloc, Gva::new(0x40_0000), frame);
        let mut tlb = Tlb::new();
        let cr3 = asb.pdba();
        tlb.translate(&mut mem, &ept, cr3, Gva::new(0x40_0000)).unwrap();
        // Ordinary data writes — even to the mapped frame itself.
        mem.write_u64(frame.base(), 0xdead);
        tlb.translate(&mut mem, &ept, cr3, Gva::new(0x40_0000)).unwrap();
        assert_eq!(tlb.stats().hits, 1);
    }

    #[test]
    fn sibling_page_table_edit_revalidates_without_walk() {
        let (mut mem, ept, mut falloc, mut asb) = setup();
        let f1 = falloc.alloc(&mut mem);
        asb.map(&mut mem, &mut falloc, Gva::new(0x40_0000), f1);
        let mut tlb = Tlb::new();
        let cr3 = asb.pdba();
        tlb.translate(&mut mem, &ept, cr3, Gva::new(0x40_0000)).unwrap();
        // Map a page under a *different* directory entry: allocates a new
        // page table and writes an unrelated PDE slot (same PD frame, so the
        // global generation moves and the slow revalidation path runs).
        let f2 = falloc.alloc(&mut mem);
        asb.map(&mut mem, &mut falloc, Gva::new(0x80_0000), f2);
        // The PD frame itself was written, so the first entry is (correctly,
        // conservatively) invalidated at frame granularity.
        let (a, _) = tlb.translate(&mut mem, &ept, cr3, Gva::new(0x40_0000)).unwrap();
        assert_eq!(a.gfn(), f1);
        // But a pure data write elsewhere triggers only the fast path.
        mem.write_u64(Gpa::new(0x1000), 1);
        tlb.translate(&mut mem, &ept, cr3, Gva::new(0x40_0000)).unwrap();
        assert_eq!(tlb.stats().hits, 1);
    }

    #[test]
    fn ept_edit_refreshes_cached_permission() {
        let (mut mem, mut ept, mut falloc, mut asb) = setup();
        let frame = falloc.alloc(&mut mem);
        let gva = Gva::new(0x40_0000);
        asb.map(&mut mem, &mut falloc, gva, frame);
        let mut tlb = Tlb::new();
        let cr3 = asb.pdba();
        let (_, p0) = tlb.translate(&mut mem, &ept, cr3, gva).unwrap();
        assert!(p0.allows(crate::ept::AccessKind::Write));
        ept.set_perm(frame, EptPerm::RX);
        let (_, p1) = tlb.translate(&mut mem, &ept, cr3, gva).unwrap();
        assert!(!p1.allows(crate::ept::AccessKind::Write), "cached perm must track EPT edits");
        assert_eq!(tlb.stats().hits, 1, "permission refresh is not a TLB miss");
        ept.set_perm(frame, EptPerm::RWX);
        let (_, p2) = tlb.translate(&mut mem, &ept, cr3, gva).unwrap();
        assert!(p2.allows(crate::ept::AccessKind::Write));
    }

    #[test]
    fn cr3_conflict_misses() {
        let (mut mem, ept, mut falloc, mut asb) = setup();
        let mut asb2 = AddressSpaceBuilder::new(&mut mem, &mut falloc);
        let f1 = falloc.alloc(&mut mem);
        let f2 = falloc.alloc(&mut mem);
        let gva = Gva::new(0x40_0000);
        asb.map(&mut mem, &mut falloc, gva, f1);
        asb2.map(&mut mem, &mut falloc, gva, f2);
        let mut tlb = Tlb::new();
        let (a, _) = tlb.translate(&mut mem, &ept, asb.pdba(), gva).unwrap();
        let (b, _) = tlb.translate(&mut mem, &ept, asb2.pdba(), gva).unwrap();
        assert_eq!(a.gfn(), f1);
        assert_eq!(b.gfn(), f2, "same VPN under another CR3 is a different translation");
        assert_eq!(tlb.stats().hits, 0);
    }

    #[test]
    fn faults_are_not_cached() {
        let (mut mem, ept, mut falloc, mut asb) = setup();
        let gva = Gva::new(0x40_0000);
        let mut tlb = Tlb::new();
        let cr3 = asb.pdba();
        assert!(tlb.translate(&mut mem, &ept, cr3, gva).is_err());
        // Now map it; the next lookup must see the new mapping.
        let frame = falloc.alloc(&mut mem);
        asb.map(&mut mem, &mut falloc, gva, frame);
        let (a, _) = tlb.translate(&mut mem, &ept, cr3, gva).unwrap();
        assert_eq!(a.gfn(), frame);
        assert_eq!(tlb.stats().fills, 1);
    }

    #[test]
    fn freed_page_table_frame_invalidates_dependents() {
        let (mut mem, ept, mut falloc, mut asb) = setup();
        let frame = falloc.alloc(&mut mem);
        let gva = Gva::new(0x40_0000);
        asb.map(&mut mem, &mut falloc, gva, frame);
        let mut tlb = Tlb::new();
        let cr3 = asb.pdba();
        tlb.translate(&mut mem, &ept, cr3, gva).unwrap();
        // The kernel tears the address space down; the PT frame is zeroed.
        let pde = mem.read_u64(cr3.offset(0x40_0000 >> 21 << 3));
        let pt_gfn = Gpa::new(pde & !(PAGE_SIZE - 1)).gfn();
        mem.zero_frame(pt_gfn);
        assert!(
            tlb.translate(&mut mem, &ept, cr3, gva).is_err(),
            "translation through a freed page table must fault, not hit"
        );
    }
}
