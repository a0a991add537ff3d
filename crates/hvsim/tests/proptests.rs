//! Property-based tests for the simulator's core data structures: guest
//! memory, guest paging and EPT permissions, each checked against a simple
//! reference model.

use hypertap_hvsim::ept::{AccessKind, Ept, EptPerm};
use hypertap_hvsim::mem::{Gfn, Gpa, GuestMemory, Gva, PAGE_SIZE};
use hypertap_hvsim::paging::{self, AddressSpaceBuilder, FrameAllocator};
use hypertap_hvsim::snap::{SnapReader, SnapWriter};
use hypertap_hvsim::tlb::{Tlb, TlbStats, TLB_SLOTS};
use proptest::prelude::*;
use std::collections::HashMap;

const MEM_SIZE: u64 = 32 << 20;

/// One slot of [`RefTlb`]: the fields [`Tlb::save`] writes, in its order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RefEntry {
    cr3: Gpa,
    vpn: u64,
    frame: Gpa,
    pd_gfn: Gfn,
    pt_gfn: Gfn,
    fill_gen: u64,
    snap_gen: u64,
    perm: EptPerm,
    ept_gen: u64,
}

/// A reference TLB with the same direct-mapped slots and invalidation
/// rules as [`Tlb`], except that a flush eagerly clears every slot.
struct RefTlb {
    entries: Vec<Option<RefEntry>>,
    stats: TlbStats,
}

impl RefTlb {
    fn new() -> Self {
        RefTlb { entries: vec![None; TLB_SLOTS], stats: TlbStats::default() }
    }

    fn flush(&mut self) {
        self.entries.iter_mut().for_each(|e| *e = None);
        self.stats.flushes += 1;
    }

    fn translate(
        &mut self,
        mem: &mut GuestMemory,
        ept: &Ept,
        cr3: Gpa,
        gva: Gva,
    ) -> Result<(Gpa, EptPerm), paging::PageFault> {
        let vpn = gva.value() / PAGE_SIZE;
        let idx = (vpn as usize) % TLB_SLOTS;
        let paging_gen = mem.paging_gen();
        if let Some(e) = &mut self.entries[idx] {
            let paging_ok = e.snap_gen == paging_gen
                || (mem.frame_write_gen(e.pd_gfn) <= e.fill_gen
                    && mem.frame_write_gen(e.pt_gfn) <= e.fill_gen);
            if e.cr3 == cr3 && e.vpn == vpn && paging_ok {
                e.snap_gen = paging_gen;
                if e.ept_gen != ept.generation() {
                    e.perm = ept.perm(e.frame.gfn());
                    e.ept_gen = ept.generation();
                }
                self.stats.hits += 1;
                return Ok((e.frame.offset(gva.page_offset()), e.perm));
            }
        }
        self.stats.misses += 1;
        let t = paging::walk_traced(mem, cr3, gva)?;
        mem.track_paging_frame(t.pd_gfn);
        mem.track_paging_frame(t.pt_gfn);
        let frame = t.gpa.gfn().base();
        let perm = ept.perm(frame.gfn());
        let fill_gen = mem.paging_gen();
        self.entries[idx] = Some(RefEntry {
            cr3,
            vpn,
            frame,
            pd_gfn: t.pd_gfn,
            pt_gfn: t.pt_gfn,
            fill_gen,
            snap_gen: fill_gen,
            perm,
            ept_gen: ept.generation(),
        });
        self.stats.fills += 1;
        Ok((t.gpa, perm))
    }

    fn save(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        for v in [self.stats.hits, self.stats.misses, self.stats.fills, self.stats.flushes] {
            w.varint(v);
        }
        w.varint(self.entries.iter().flatten().count() as u64);
        for (i, e) in self.entries.iter().enumerate() {
            let Some(e) = e else { continue };
            w.varint(i as u64);
            for v in [e.cr3.value(), e.vpn, e.frame.value(), e.pd_gfn.value(), e.pt_gfn.value()] {
                w.varint(v);
            }
            w.varint(e.fill_gen);
            w.varint(e.snap_gen);
            w.byte(e.perm.to_bits());
            w.varint(e.ept_gen);
        }
        w.into_bytes()
    }

    fn load(bytes: &[u8]) -> Self {
        let mut r = SnapReader::new(bytes);
        let mut v = || r.varint().unwrap();
        let stats = TlbStats { hits: v(), misses: v(), fills: v(), flushes: v() };
        let mut tlb = RefTlb { stats, ..RefTlb::new() };
        for _ in 0..r.varint().unwrap() {
            let idx = r.varint().unwrap() as usize;
            let mut v = || r.varint().unwrap();
            let (cr3, vpn, frame, pd_gfn, pt_gfn) =
                (Gpa::new(v()), v(), Gpa::new(v()), Gfn::new(v()), Gfn::new(v()));
            let (fill_gen, snap_gen) = (v(), v());
            let perm = EptPerm::from_bits(r.byte().unwrap()).unwrap();
            let ept_gen = r.varint().unwrap();
            tlb.entries[idx] = Some(RefEntry {
                cr3,
                vpn,
                frame,
                pd_gfn,
                pt_gfn,
                fill_gen,
                snap_gen,
                perm,
                ept_gen,
            });
        }
        tlb
    }
}

proptest! {
    /// Guest memory behaves like a flat byte array: reads return the last
    /// bytes written, across arbitrary (possibly page-crossing) ranges.
    #[test]
    fn memory_matches_flat_model(
        writes in prop::collection::vec(
            (0u64..MEM_SIZE - 64, prop::collection::vec(any::<u8>(), 1..64)),
            1..40
        ),
        probe in 0u64..MEM_SIZE - 64,
    ) {
        let mut mem = GuestMemory::new(MEM_SIZE);
        let mut model = HashMap::<u64, u8>::new();
        for (addr, bytes) in &writes {
            mem.write(Gpa::new(*addr), bytes);
            for (i, b) in bytes.iter().enumerate() {
                model.insert(addr + i as u64, *b);
            }
        }
        let mut buf = [0u8; 64];
        mem.read(Gpa::new(probe), &mut buf);
        for (i, got) in buf.iter().enumerate() {
            let expect = model.get(&(probe + i as u64)).copied().unwrap_or(0);
            prop_assert_eq!(*got, expect, "byte at {:#x}", probe + i as u64);
        }
    }

    /// u64 accessors agree with byte-level little-endian writes.
    #[test]
    fn memory_u64_is_little_endian(addr in 0u64..MEM_SIZE - 8, value: u64) {
        let mut mem = GuestMemory::new(MEM_SIZE);
        mem.write_u64(Gpa::new(addr), value);
        let mut bytes = [0u8; 8];
        mem.read(Gpa::new(addr), &mut bytes);
        prop_assert_eq!(u64::from_le_bytes(bytes), value);
        prop_assert_eq!(mem.read_u64(Gpa::new(addr)), value);
    }

    /// The page walker agrees with a model map over arbitrary mapping
    /// sequences, and unmapped pages fault.
    #[test]
    fn paging_matches_model(
        pages in prop::collection::vec(0u64..512, 1..30),
        probes in prop::collection::vec((0u64..512, 0u64..PAGE_SIZE), 1..20),
    ) {
        let mut mem = GuestMemory::new(MEM_SIZE);
        let mut falloc = FrameAllocator::new(Gfn::new(16), Gfn::new(MEM_SIZE / PAGE_SIZE));
        let mut asb = AddressSpaceBuilder::new(&mut mem, &mut falloc);
        let mut model = HashMap::<u64, Gfn>::new();
        for page in &pages {
            let gva = Gva::new(page * PAGE_SIZE);
            let frame = falloc.alloc(&mut mem);
            asb.map(&mut mem, &mut falloc, gva, frame);
            model.insert(*page, frame);
        }
        for (page, offset) in &probes {
            let gva = Gva::new(page * PAGE_SIZE + offset);
            match (paging::walk(&mem, asb.pdba(), gva), model.get(page)) {
                (Ok(gpa), Some(frame)) => {
                    prop_assert_eq!(gpa, frame.base().offset(*offset));
                }
                (Err(_), None) => {}
                (got, want) => prop_assert!(false, "walk {gva}: {got:?} vs model {want:?}"),
            }
        }
    }

    /// EPT permission checks agree with the stored permission for every
    /// access kind, and restoring RWX always clears the override.
    #[test]
    fn ept_matches_model(
        ops in prop::collection::vec((0u64..256, 0u8..4), 1..50),
        probes in prop::collection::vec(0u64..256, 1..20),
    ) {
        let mut ept = Ept::new();
        let mut model = HashMap::<u64, EptPerm>::new();
        for (gfn, p) in &ops {
            let perm = match p {
                0 => EptPerm::RWX,
                1 => EptPerm::RX,
                2 => EptPerm::RW,
                _ => EptPerm::NONE,
            };
            ept.set_perm(Gfn::new(*gfn), perm);
            if perm == EptPerm::RWX {
                model.remove(gfn);
            } else {
                model.insert(*gfn, perm);
            }
        }
        prop_assert_eq!(ept.restricted_frames(), model.len());
        for gfn in &probes {
            let perm = model.get(gfn).copied().unwrap_or(EptPerm::RWX);
            for kind in [AccessKind::Read, AccessKind::Write, AccessKind::Execute] {
                let allowed = ept.check(Gfn::new(*gfn).base(), None, kind).is_ok();
                prop_assert_eq!(allowed, perm.allows(kind), "gfn {} {}", gfn, kind);
            }
        }
    }

    /// The software TLB is coherent: under random interleavings of mapped
    /// and unmapped accesses, CR3 switches, page-table edits (maps and raw
    /// PTE clears), EPT permission flips and save→load cycles, a TLB-cached
    /// translation always returns exactly what a fresh TLB-less walk (plus a
    /// fresh EPT lookup) returns. Page-table edits deliberately do NOT flush
    /// the TLB: the tracked-frame generations must catch them on their own.
    ///
    /// Alongside runs [`RefTlb`], which clears every slot on a flush: the
    /// epoch-flushing TLB must match it in results, counters and save bytes.
    #[test]
    fn tlb_coherence(
        ops in prop::collection::vec((0u8..6, 0u64..64, 0u64..PAGE_SIZE), 1..200),
    ) {
        let mut mem = GuestMemory::new(MEM_SIZE);
        let mut ept = Ept::new();
        let mut falloc = FrameAllocator::new(Gfn::new(16), Gfn::new(MEM_SIZE / PAGE_SIZE));
        let spaces = [
            AddressSpaceBuilder::new(&mut mem, &mut falloc).pdba(),
            AddressSpaceBuilder::new(&mut mem, &mut falloc).pdba(),
        ];
        let mut current = 0usize;
        let mut tlb = Tlb::new();
        let mut reference_tlb = RefTlb::new();
        let mut mapped_frames: Vec<Gfn> = Vec::new();
        // Every third offset aliases the page onto the same direct-mapped
        // slot as a page one TLB-size further on.
        let page_of = |a: u64, b: u64| if b.is_multiple_of(3) { a + TLB_SLOTS as u64 } else { a };
        for (kind, a, b) in &ops {
            let cr3 = spaces[current];
            match kind {
                // An access: the TLB must agree with the reference walk.
                0 => {
                    let gva = Gva::new(page_of(*a, *b) * PAGE_SIZE + b);
                    let cached = tlb.translate(&mut mem, &ept, cr3, gva);
                    let eager = reference_tlb.translate(&mut mem, &ept, cr3, gva);
                    let reference = paging::walk(&mem, cr3, gva)
                        .map(|gpa| (gpa, ept.perm(gpa.gfn())));
                    prop_assert_eq!(cached, reference, "divergence at {} (space {})", gva, current);
                    prop_assert_eq!(eager, reference, "reference TLB at {}", gva);
                    prop_assert_eq!(tlb.stats(), reference_tlb.stats);
                }
                // A CR3 switch: architectural full flush.
                1 => {
                    current = (a % 2) as usize;
                    tlb.flush();
                    reference_tlb.flush();
                }
                // Map a page to a fresh frame (a page-table edit; no flush).
                2 => {
                    let frame = falloc.alloc(&mut mem);
                    AddressSpaceBuilder::from_pdba(cr3)
                        .map(&mut mem, &mut falloc, Gva::new(page_of(*a, *b) * PAGE_SIZE), frame);
                    mapped_frames.push(frame);
                }
                // Clear a PTE in place (an unmap the guest performs by raw
                // store, bypassing any builder API; no flush).
                3 => {
                    let gva = Gva::new(page_of(*a, *b) * PAGE_SIZE);
                    let pde = mem.read_u64(cr3.offset((gva.value() >> 21) * 8));
                    if pde & 1 != 0 {
                        let pt_base = Gpa::new(pde & !(PAGE_SIZE - 1));
                        let slot = ((gva.value() >> 12) & 511) * 8;
                        mem.write_u64(pt_base.offset(slot), 0);
                    }
                }
                // Flip an EPT permission on a mapped frame.
                4 => {
                    if let Some(&frame) = mapped_frames.get((*a as usize) % mapped_frames.len().max(1)) {
                        let perm = match b % 4 {
                            0 => EptPerm::RWX,
                            1 => EptPerm::RX,
                            2 => EptPerm::RW,
                            _ => EptPerm::NONE,
                        };
                        ept.set_perm(frame, perm);
                    }
                }
                // Snapshot both TLBs and carry on from restored copies.
                _ => {
                    let mut w = SnapWriter::new();
                    tlb.save(&mut w);
                    let bytes = w.into_bytes();
                    prop_assert_eq!(&bytes, &reference_tlb.save(), "save bytes");
                    tlb = Tlb::new();
                    let mut r = SnapReader::new(&bytes);
                    tlb.load(&mut r).expect("own save bytes load");
                    prop_assert!(r.is_done());
                    reference_tlb = RefTlb::load(&bytes);
                }
            }
        }
        // Final sweep: every page in both spaces agrees with the reference.
        for (si, &cr3) in spaces.iter().enumerate() {
            for page in 0..64u64 {
                let gva = Gva::new(page * PAGE_SIZE);
                let cached = tlb.translate(&mut mem, &ept, cr3, gva);
                let eager = reference_tlb.translate(&mut mem, &ept, cr3, gva);
                let reference = paging::walk(&mem, cr3, gva)
                    .map(|gpa| (gpa, ept.perm(gpa.gfn())));
                prop_assert_eq!(cached, reference, "final sweep {} (space {})", gva, si);
                prop_assert_eq!(eager, reference, "reference TLB final sweep {}", gva);
            }
        }
        prop_assert_eq!(tlb.stats(), reference_tlb.stats);
        let mut w = SnapWriter::new();
        tlb.save(&mut w);
        prop_assert_eq!(w.into_bytes(), reference_tlb.save(), "final save bytes");
    }

    /// Frame allocation never hands out the same live frame twice, and
    /// freed frames come back zeroed.
    #[test]
    fn allocator_uniqueness(frees in prop::collection::vec(any::<bool>(), 1..60)) {
        let mut mem = GuestMemory::new(MEM_SIZE);
        let mut falloc = FrameAllocator::new(Gfn::new(16), Gfn::new(MEM_SIZE / PAGE_SIZE));
        let mut live = Vec::new();
        for free in frees {
            if free && !live.is_empty() {
                let f = live.swap_remove(0);
                mem.write_u64(f, 0xdead);
                falloc.free(&mut mem, f.gfn());
            } else {
                let f = falloc.alloc(&mut mem).base();
                prop_assert_eq!(mem.read_u64(f), 0, "fresh frames are zeroed");
                prop_assert!(!live.contains(&f), "double allocation of {f}");
                live.push(f);
            }
        }
    }
}
