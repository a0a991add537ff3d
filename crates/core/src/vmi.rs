//! Traditional Virtual Machine Introspection — the **untrusted** view.
//!
//! Classic VMI tools (VMWatcher, XenAccess) reconstruct guest state by
//! decoding the guest kernel's own data structures from memory — here, by
//! walking the in-memory task list. The paper's point (and the reason
//! HyperTap does *not* root its monitoring here) is that this view is only
//! as trustworthy as the guest kernel's data: a DKOM rootkit that unlinks a
//! `task_struct` makes the process invisible to every list walk, ours
//! included. This module exists (a) to implement the H-Ninja baseline and
//! (b) to provide the "other view" that HRKD cross-validates its trusted
//! counts against.

use crate::profile::{OsProfile, TaskState, TaskView};
use hypertap_hvsim::mem::{Gpa, GuestMemory, Gva, PAGE_SIZE};
use hypertap_hvsim::paging::{self, PageFault};
use std::fmt;

/// Introspection failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmiError {
    /// A guest-virtual address failed to translate.
    PageFault(PageFault),
    /// The list walk exceeded the node budget (cycle or corruption).
    ListTooLong {
        /// The budget that was exceeded.
        max: usize,
    },
}

impl fmt::Display for VmiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmiError::PageFault(pf) => write!(f, "introspection read failed: {pf}"),
            VmiError::ListTooLong { max } => {
                write!(f, "task list longer than {max} nodes (cycle or corruption)")
            }
        }
    }
}

impl std::error::Error for VmiError {}

impl From<PageFault> for VmiError {
    fn from(pf: PageFault) -> Self {
        VmiError::PageFault(pf)
    }
}

/// Reads a `u64` at a guest-virtual address under the given page directory.
///
/// # Errors
///
/// Returns [`VmiError::PageFault`] if the address does not translate.
pub fn read_u64(mem: &GuestMemory, cr3: Gpa, gva: Gva) -> Result<u64, VmiError> {
    let gpa = paging::walk(mem, cr3, gva)?;
    Ok(mem.read_u64(gpa))
}

/// Reads `len` bytes at a guest-virtual address (page-crossing handled).
///
/// # Errors
///
/// Returns [`VmiError::PageFault`] if any page of the range does not
/// translate.
pub fn read_bytes(mem: &GuestMemory, cr3: Gpa, gva: Gva, len: u64) -> Result<Vec<u8>, VmiError> {
    let mut out = vec![0u8; len as usize];
    let mut done = 0u64;
    while done < len {
        let addr = gva.offset(done);
        let gpa = paging::walk(mem, cr3, addr)?;
        let chunk = u64::min(len - done, PAGE_SIZE - addr.page_offset());
        mem.read(gpa, &mut out[done as usize..(done + chunk) as usize]);
        done += chunk;
    }
    Ok(out)
}

/// Longest `comm` the single-walk decode reads into its stack buffer;
/// longer names take the per-field path.
const COMM_BUF: usize = 64;

/// Decodes the `task_struct` at `gva` into a [`TaskView`].
///
/// When every decoded field and `comm` lie in one page and that page
/// translates, the page is walked once and each field is read at its offset
/// from it. Otherwise each field is walked and read on its own, so a struct
/// that crosses a page or faults yields the same view or the same error.
///
/// # Errors
///
/// Returns [`VmiError::PageFault`] if the structure is unmapped.
pub fn read_task(
    mem: &GuestMemory,
    cr3: Gpa,
    profile: &OsProfile,
    gva: Gva,
) -> Result<TaskView, VmiError> {
    match read_task_in_page(mem, cr3, profile, gva) {
        Some(task) => Ok(task),
        None => read_task_per_field(mem, cr3, profile, gva),
    }
}

/// The single-walk decode of [`read_task`]; `None` when the fields span
/// pages, `comm` is too long for the stack buffer, or the page faults.
fn read_task_in_page(
    mem: &GuestMemory,
    cr3: Gpa,
    profile: &OsProfile,
    gva: Gva,
) -> Option<TaskView> {
    let comm_len = usize::try_from(profile.ts_comm_len).ok().filter(|&n| n <= COMM_BUF)?;
    let words = [
        profile.ts_pid,
        profile.ts_state,
        profile.ts_uid,
        profile.ts_euid,
        profile.ts_parent,
        profile.ts_pdba,
        profile.ts_kstack,
    ];
    let lo = words.iter().fold(profile.ts_comm, |lo, &off| lo.min(off));
    let hi = words.iter().fold(profile.ts_comm + profile.ts_comm_len, |hi, &off| hi.max(off + 8));
    let first = gva.offset(lo);
    if first.page_offset() + (hi - lo) > PAGE_SIZE {
        return None;
    }
    let page = paging::walk(mem, cr3, first).ok()?;
    let at = |off: u64| page.offset(off - lo);
    let f = |off: u64| mem.read_u64(at(off));
    let mut comm = [0u8; COMM_BUF];
    mem.read(at(profile.ts_comm), &mut comm[..comm_len]);
    Some(TaskView {
        gva,
        pid: f(profile.ts_pid),
        state: TaskState::from_raw(f(profile.ts_state)),
        uid: f(profile.ts_uid),
        euid: f(profile.ts_euid),
        parent: Gva::new(f(profile.ts_parent)),
        pdba: f(profile.ts_pdba),
        kstack: f(profile.ts_kstack),
        comm: comm_name(&comm[..comm_len]),
    })
}

/// The per-field decode of [`read_task`]: one walk per field.
fn read_task_per_field(
    mem: &GuestMemory,
    cr3: Gpa,
    profile: &OsProfile,
    gva: Gva,
) -> Result<TaskView, VmiError> {
    let f = |off: u64| read_u64(mem, cr3, gva.offset(off));
    let comm_raw = read_bytes(mem, cr3, gva.offset(profile.ts_comm), profile.ts_comm_len)?;
    Ok(TaskView {
        gva,
        pid: f(profile.ts_pid)?,
        state: TaskState::from_raw(f(profile.ts_state)?),
        uid: f(profile.ts_uid)?,
        euid: f(profile.ts_euid)?,
        parent: Gva::new(f(profile.ts_parent)?),
        pdba: f(profile.ts_pdba)?,
        kstack: f(profile.ts_kstack)?,
        comm: comm_name(&comm_raw),
    })
}

/// A `comm` field as text: the bytes up to the first NUL.
fn comm_name(raw: &[u8]) -> String {
    let end = raw.iter().position(|&b| b == 0).unwrap_or(raw.len());
    String::from_utf8_lossy(&raw[..end]).into_owned()
}

/// Walks the guest's task list, decoding every linked `task_struct`.
///
/// This is exactly what a DKOM rootkit defeats: an unlinked task simply does
/// not appear in the returned vector.
///
/// # Errors
///
/// Returns [`VmiError::PageFault`] on unmapped structures, or
/// [`VmiError::ListTooLong`] if more than `max` nodes are chained (a cycle
/// defence).
pub fn list_tasks(
    mem: &GuestMemory,
    cr3: Gpa,
    profile: &OsProfile,
    max: usize,
) -> Result<Vec<TaskView>, VmiError> {
    let mut out = Vec::new();
    let mut node = Gva::new(read_u64(mem, cr3, profile.task_list_head)?);
    while node.value() != 0 {
        if out.len() >= max {
            return Err(VmiError::ListTooLong { max });
        }
        let task = read_task(mem, cr3, profile, node)?;
        let next_gva = Gva::new(read_u64(mem, cr3, node.offset(profile.ts_next))?);
        out.push(task);
        node = next_gva;
    }
    Ok(out)
}

/// Resolves the parent [`TaskView`] of a task (if it has one).
///
/// # Errors
///
/// Returns [`VmiError::PageFault`] if the parent structure is unmapped.
pub fn parent_of(
    mem: &GuestMemory,
    cr3: Gpa,
    profile: &OsProfile,
    task: &TaskView,
) -> Result<Option<TaskView>, VmiError> {
    if task.parent.value() == 0 {
        return Ok(None);
    }
    read_task(mem, cr3, profile, task.parent).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypertap_hvsim::mem::Gfn;
    use hypertap_hvsim::paging::{AddressSpaceBuilder, FrameAllocator};

    /// Builds a small kernel image in guest memory: a task list of three
    /// tasks plus the head slot, all mapped at fixed kernel GVAs.
    fn build_world() -> (GuestMemory, Gpa, OsProfile, Vec<Gva>) {
        let mut mem = GuestMemory::new(32 << 20);
        let mut falloc = FrameAllocator::new(Gfn::new(16), Gfn::new((32 << 20) / PAGE_SIZE));
        let mut asb = AddressSpaceBuilder::new(&mut mem, &mut falloc);
        let base = Gva::new(0x3000_0000);
        asb.map_fresh_range(&mut mem, &mut falloc, base, 4);
        let cr3 = asb.pdba();

        let profile = OsProfile {
            task_list_head: base,
            ts_pid: 0,
            ts_state: 8,
            ts_uid: 16,
            ts_euid: 24,
            ts_parent: 32,
            ts_next: 40,
            ts_prev: 48,
            ts_pdba: 56,
            ts_kstack: 64,
            ts_comm: 72,
            ts_comm_len: 16,
            ts_size: 88,
            ti_task: 0,
            kernel_stack_size: 8192,
        };

        let write = |mem: &mut GuestMemory, gva: Gva, v: u64| {
            let gpa = paging::walk(mem, cr3, gva).unwrap();
            mem.write_u64(gpa, v);
        };
        let write_bytes = |mem: &mut GuestMemory, gva: Gva, b: &[u8]| {
            let gpa = paging::walk(mem, cr3, gva).unwrap();
            mem.write(gpa, b);
        };

        // Three tasks at base+0x100, +0x200, +0x300; head at `base`.
        let t: Vec<Gva> = (1..=3).map(|i| base.offset(i * 0x100)).collect();
        write(&mut mem, base, t[0].value());
        for (i, &task) in t.iter().enumerate() {
            write(&mut mem, task.offset(profile.ts_pid), (i as u64) + 1);
            write(&mut mem, task.offset(profile.ts_state), 0);
            write(&mut mem, task.offset(profile.ts_uid), 1000 + i as u64);
            write(&mut mem, task.offset(profile.ts_euid), 1000 + i as u64);
            let parent = if i == 0 { 0 } else { t[i - 1].value() };
            write(&mut mem, task.offset(profile.ts_parent), parent);
            let next = if i + 1 < t.len() { t[i + 1].value() } else { 0 };
            write(&mut mem, task.offset(profile.ts_next), next);
            let prev = if i == 0 { 0 } else { t[i - 1].value() };
            write(&mut mem, task.offset(profile.ts_prev), prev);
            write(&mut mem, task.offset(profile.ts_pdba), 0x1000 * (i as u64 + 1));
            write(&mut mem, task.offset(profile.ts_kstack), 0x8000 * (i as u64 + 1));
            let mut comm = [0u8; 16];
            let name = format!("task{}", i + 1);
            comm[..name.len()].copy_from_slice(name.as_bytes());
            write_bytes(&mut mem, task.offset(profile.ts_comm), &comm);
        }
        (mem, cr3, profile, t)
    }

    #[test]
    fn walks_the_full_list() {
        let (mem, cr3, profile, _) = build_world();
        let tasks = list_tasks(&mem, cr3, &profile, 100).unwrap();
        assert_eq!(tasks.len(), 3);
        assert_eq!(tasks[0].pid, 1);
        assert_eq!(tasks[2].comm, "task3");
        assert_eq!(tasks[1].uid, 1001);
    }

    #[test]
    fn dkom_unlink_hides_a_task_from_vmi() {
        let (mut mem, cr3, profile, t) = build_world();
        // Unlink task 2: task1.next = task3; task3.prev = task1.
        let w = |mem: &mut GuestMemory, gva: Gva, v: u64| {
            let gpa = paging::walk(mem, cr3, gva).unwrap();
            mem.write_u64(gpa, v);
        };
        w(&mut mem, t[0].offset(profile.ts_next), t[2].value());
        w(&mut mem, t[2].offset(profile.ts_prev), t[0].value());
        let tasks = list_tasks(&mem, cr3, &profile, 100).unwrap();
        assert_eq!(tasks.len(), 2, "the unlinked task vanished from the VMI view");
        assert!(tasks.iter().all(|task| task.pid != 2));
    }

    #[test]
    fn cycle_detection_budget() {
        let (mut mem, cr3, profile, t) = build_world();
        // Make task3 point back at task1: an (attacker-made) cycle.
        let gpa = paging::walk(&mem, cr3, t[2].offset(profile.ts_next)).unwrap();
        mem.write_u64(gpa, t[0].value());
        assert_eq!(list_tasks(&mem, cr3, &profile, 10), Err(VmiError::ListTooLong { max: 10 }));
    }

    #[test]
    fn parent_resolution() {
        let (mem, cr3, profile, _) = build_world();
        let tasks = list_tasks(&mem, cr3, &profile, 100).unwrap();
        assert!(parent_of(&mem, cr3, &profile, &tasks[0]).unwrap().is_none());
        let p = parent_of(&mem, cr3, &profile, &tasks[1]).unwrap().unwrap();
        assert_eq!(p.pid, 1);
    }

    #[test]
    fn unmapped_head_is_a_page_fault() {
        let (mem, cr3, mut profile, _) = build_world();
        profile.task_list_head = Gva::new(0x0900_0000);
        assert!(matches!(list_tasks(&mem, cr3, &profile, 10), Err(VmiError::PageFault(_))));
    }

    #[test]
    fn read_bytes_crosses_pages() {
        let (mut mem, cr3, _profile, _) = build_world();
        let gva = Gva::new(0x3000_0000 + PAGE_SIZE - 4);
        let gpa1 = paging::walk(&mem, cr3, gva).unwrap();
        mem.write(gpa1, &[1, 2, 3, 4]);
        let gpa2 = paging::walk(&mem, cr3, gva.offset(4)).unwrap();
        mem.write(gpa2, &[5, 6, 7, 8]);
        let got = read_bytes(&mem, cr3, gva, 8).unwrap();
        assert_eq!(got, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    /// Fills every decoded field of a `task_struct` at `gva`, distinct per
    /// field, writing byte by byte so the struct may straddle pages.
    fn write_task(mem: &mut GuestMemory, cr3: Gpa, profile: &OsProfile, gva: Gva, seed: u64) {
        let mut put = |off: u64, bytes: &[u8]| {
            for (i, b) in bytes.iter().enumerate() {
                let gpa = paging::walk(mem, cr3, gva.offset(off + i as u64)).unwrap();
                mem.write(gpa, &[*b]);
            }
        };
        for (k, off) in [
            profile.ts_pid,
            profile.ts_state,
            profile.ts_uid,
            profile.ts_euid,
            profile.ts_parent,
            profile.ts_pdba,
            profile.ts_kstack,
        ]
        .into_iter()
        .enumerate()
        {
            put(off, &(seed * 100 + k as u64).to_le_bytes());
        }
        put(profile.ts_comm, b"straddler\0\0\0\0\0\0\0");
    }

    #[test]
    fn in_page_task_decodes_like_the_per_field_walk() {
        let (mem, cr3, profile, t) = build_world();
        // The same bytes seen through a layout whose first field is not at
        // offset 0.
        let shifted = OsProfile {
            ts_pid: profile.ts_pid + 8,
            ts_state: profile.ts_state + 8,
            ts_uid: profile.ts_uid + 8,
            ts_euid: profile.ts_euid + 8,
            ts_parent: profile.ts_parent + 8,
            ts_pdba: profile.ts_pdba + 8,
            ts_kstack: profile.ts_kstack + 8,
            ts_comm: profile.ts_comm + 8,
            ..profile.clone()
        };
        for &task in &t {
            for (profile, gva) in [(&profile, task), (&shifted, Gva::new(task.value() - 8))] {
                let fast = read_task_in_page(&mem, cr3, profile, gva).expect("single-walk path");
                assert_eq!(Ok(fast.clone()), read_task_per_field(&mem, cr3, profile, gva));
                assert_eq!(Ok(fast), read_task(&mem, cr3, profile, gva));
            }
        }
    }

    #[test]
    fn page_straddling_task_decodes_like_the_per_field_walk() {
        let (mut mem, cr3, profile, _) = build_world();
        // Split the 88-byte struct across pages 1 and 2 at several points.
        for back in [1, 8, 40, 72, 80, 87] {
            let task = Gva::new(0x3000_0000 + 2 * PAGE_SIZE - back);
            write_task(&mut mem, cr3, &profile, task, back);
            assert!(read_task_in_page(&mem, cr3, &profile, task).is_none());
            let per_field = read_task_per_field(&mem, cr3, &profile, task).unwrap();
            assert_eq!(per_field.pid, back * 100);
            assert_eq!(per_field.kstack, back * 100 + 6);
            assert_eq!(per_field.comm, "straddler");
            assert_eq!(read_task(&mem, cr3, &profile, task), Ok(per_field));
        }
    }

    #[test]
    fn unmapped_task_fails_like_the_per_field_walk() {
        let (mem, cr3, profile, _) = build_world();
        // Wholly unmapped, and straddling off the end of the mapped range
        // (the first fields translate, the tail faults).
        for task in [Gva::new(0x0900_0000), Gva::new(0x3000_0000 + 4 * PAGE_SIZE - 40)] {
            let per_field = read_task_per_field(&mem, cr3, &profile, task);
            assert!(matches!(per_field, Err(VmiError::PageFault(_))), "{per_field:?}");
            assert_eq!(read_task(&mem, cr3, &profile, task), per_field);
        }
    }

    #[test]
    fn listed_tasks_equal_the_per_field_decode() {
        let (mem, cr3, profile, _) = build_world();
        let tasks = list_tasks(&mem, cr3, &profile, 100).unwrap();
        for task in &tasks {
            assert_eq!(Ok(task.clone()), read_task_per_field(&mem, cr3, &profile, task.gva));
        }
    }
}
