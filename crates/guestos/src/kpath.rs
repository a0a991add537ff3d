//! Kernel execution paths: the scripted bodies of system calls.
//!
//! Each syscall executes a **path** — a sequence of [`PathStep`]s mixing
//! compute, device I/O, and lock-site acquisitions/releases from the
//! catalogue in [`crate::klocks`]. Paths are what the fault injector
//! corrupts and what generates the kernel's VM-exit footprint, so their
//! composition (which subsystems, how much I/O) determines both the hang
//! dynamics of Fig. 4/5 and the overhead mix of Fig. 7.

use crate::klocks::{LockId, LockSite, LockTable, SITE_COUNT, SUBSYSTEMS};
use crate::syscalls::Sysno;
use hypertap_hvsim::snap::{SnapError, SnapReader, SnapWriter};

/// One step of a kernel path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathStep {
    /// Acquire the lock of catalogue site `idx` (spin if contended).
    Lock(usize),
    /// Release the lock of catalogue site `idx`.
    Unlock(usize),
    /// Burn kernel compute time (nanoseconds).
    Work(u64),
    /// Perform disk I/O of the given byte count (port I/O to the disk
    /// device, one port access per 512-byte sector).
    DiskIo {
        /// Bytes transferred.
        bytes: u64,
        /// Write (true) or read.
        write: bool,
    },
    /// Perform NIC I/O of the given byte count.
    NicIo {
        /// Bytes transferred.
        bytes: u64,
        /// Send (true) or receive.
        write: bool,
    },
}

/// The in-flight kernel execution of one task.
#[derive(Debug)]
pub struct KernelExec {
    /// The syscall being serviced (None for kernel-thread bodies).
    pub syscall: Option<(Sysno, [u64; 5])>,
    /// The path.
    pub steps: Vec<PathStep>,
    /// Program counter into `steps`.
    pub pc: usize,
    /// Site indices whose locks this execution believes it holds.
    pub held: Vec<usize>,
    /// Extra raw locks injected by a wrong-ordering fault (acquired before
    /// the site lock, released at path end).
    pub extra_locks: Vec<crate::klocks::LockId>,
    /// Return value accumulated for the syscall.
    pub ret: u64,
    /// Progress within a multi-sector I/O step.
    pub io_progress: u64,
    /// Partner lock a wrong-ordering fault told us to grab first.
    pub spin_partner: Option<crate::klocks::LockId>,
    /// Whether the syscall's semantics have been applied (guards against
    /// re-applying when a blocked syscall resumes).
    pub applied: bool,
}

impl PathStep {
    pub(crate) fn save(&self, w: &mut SnapWriter) {
        match self {
            PathStep::Lock(i) => {
                w.byte(0);
                w.varint(*i as u64);
            }
            PathStep::Unlock(i) => {
                w.byte(1);
                w.varint(*i as u64);
            }
            PathStep::Work(ns) => {
                w.byte(2);
                w.varint(*ns);
            }
            PathStep::DiskIo { bytes, write } => {
                w.byte(3);
                w.varint(*bytes);
                w.boolean(*write);
            }
            PathStep::NicIo { bytes, write } => {
                w.byte(4);
                w.varint(*bytes);
                w.boolean(*write);
            }
        }
    }

    pub(crate) fn load(r: &mut SnapReader<'_>) -> Result<PathStep, SnapError> {
        let start = r.offset();
        Ok(match r.byte()? {
            0 => PathStep::Lock(r.varint()? as usize),
            1 => PathStep::Unlock(r.varint()? as usize),
            2 => PathStep::Work(r.varint()?),
            3 => PathStep::DiskIo { bytes: r.varint()?, write: r.boolean()? },
            4 => PathStep::NicIo { bytes: r.varint()?, write: r.boolean()? },
            tag => return Err(SnapError::BadTag { offset: start, tag }),
        })
    }
}

impl KernelExec {
    /// A fresh execution of the given path.
    pub fn new(syscall: Option<(Sysno, [u64; 5])>, steps: Vec<PathStep>) -> Self {
        KernelExec {
            syscall,
            steps,
            pc: 0,
            held: Vec::new(),
            extra_locks: Vec::new(),
            ret: 0,
            io_progress: 0,
            spin_partner: None,
            applied: false,
        }
    }

    /// Starts a new execution in this one's buffers: `steps`, `held` and
    /// `extra_locks` are cleared but keep their capacity, so a kernel that
    /// recycles finished executions enters syscalls without allocating.
    /// Fill `steps` with [`syscall_path`] or [`kthread_path`].
    pub fn reuse(mut self, syscall: Option<(Sysno, [u64; 5])>) -> KernelExec {
        self.steps.clear();
        self.held.clear();
        self.extra_locks.clear();
        KernelExec {
            steps: self.steps,
            held: self.held,
            extra_locks: self.extra_locks,
            ..KernelExec::new(syscall, Vec::new())
        }
    }

    /// Whether every step has run.
    pub fn finished(&self) -> bool {
        self.pc >= self.steps.len()
    }

    /// Serializes the in-flight execution (including the materialized path,
    /// which may have been mutated by fault injection).
    pub(crate) fn save(&self, w: &mut SnapWriter) {
        match &self.syscall {
            Some((sysno, args)) => {
                w.boolean(true);
                w.varint(sysno.raw());
                for a in args {
                    w.varint(*a);
                }
            }
            None => w.boolean(false),
        }
        w.varint(self.steps.len() as u64);
        for s in &self.steps {
            s.save(w);
        }
        w.varint(self.pc as u64);
        w.varint(self.held.len() as u64);
        for h in &self.held {
            w.varint(*h as u64);
        }
        w.varint(self.extra_locks.len() as u64);
        for l in &self.extra_locks {
            w.varint(l.0 as u64);
        }
        w.varint(self.ret);
        w.varint(self.io_progress);
        w.opt_varint(self.spin_partner.map(|l| l.0 as u64));
        w.boolean(self.applied);
    }

    /// Restores an execution saved by [`KernelExec::save`].
    pub(crate) fn load(r: &mut SnapReader<'_>) -> Result<KernelExec, SnapError> {
        let syscall = if r.boolean()? {
            let start = r.offset();
            let sysno = Sysno::from_raw(r.varint()?)
                .ok_or(SnapError::BadValue { offset: start, what: "syscall number" })?;
            let mut args = [0u64; 5];
            for a in &mut args {
                *a = r.varint()?;
            }
            Some((sysno, args))
        } else {
            None
        };
        let n = r.count(1 << 20, "kernel path length")?;
        let mut steps = Vec::with_capacity(n);
        for _ in 0..n {
            steps.push(PathStep::load(r)?);
        }
        let pc = r.varint()? as usize;
        let n = r.count(1 << 16, "held locks")?;
        let mut held = Vec::with_capacity(n);
        for _ in 0..n {
            held.push(r.varint()? as usize);
        }
        let n = r.count(1 << 16, "extra locks")?;
        let mut extra_locks = Vec::with_capacity(n);
        for _ in 0..n {
            extra_locks.push(LockId(r.varint()? as u32));
        }
        let ret = r.varint()?;
        let io_progress = r.varint()?;
        let spin_partner = r.opt_varint()?.map(|v| LockId(v as u32));
        let applied = r.boolean()?;
        Ok(KernelExec {
            syscall,
            steps,
            pc,
            held,
            extra_locks,
            ret,
            io_progress,
            spin_partner,
            applied,
        })
    }
}

/// Picks the `variant`-th catalogue site belonging to `subsystem`.
/// Deterministic; variants rotate over that subsystem's ~47 sites so a long
/// workload run exercises many distinct fault-injection points.
pub fn site_for(subsystem: &str, variant: u64) -> usize {
    let sub_idx = SUBSYSTEMS.iter().position(|s| *s == subsystem).expect("known subsystem");
    let per_sub = SITE_COUNT / SUBSYSTEMS.len() + 1;
    let k = (variant as usize) % per_sub;
    let idx = k * SUBSYSTEMS.len() + sub_idx;
    if idx < SITE_COUNT {
        idx
    } else {
        sub_idx // wrap to the subsystem's first site
    }
}

/// Appends `inner` steps wrapped in an acquire/release pair of the chosen
/// site.
fn locked(steps: &mut Vec<PathStep>, site: usize, inner: &[PathStep]) {
    steps.push(PathStep::Lock(site));
    steps.extend_from_slice(inner);
    steps.push(PathStep::Unlock(site));
}

/// Appends the kernel path for a system call to `steps`.
///
/// `variant` rotates the lock sites used (modelling different code paths
/// through the same subsystem); `base_ns` is the kernel's base syscall cost.
/// The caller owns the buffer, so a kernel that reuses one builds paths
/// without allocating.
pub fn syscall_path(
    sysno: Sysno,
    args: [u64; 5],
    variant: u64,
    base_ns: u64,
    steps: &mut Vec<PathStep>,
) {
    use PathStep::*;
    steps.push(Work(base_ns));
    match sysno {
        Sysno::Read | Sysno::Write => {
            let bytes = args[1].clamp(1, 1 << 20);
            let write = sysno == Sysno::Write;
            if args[2] == 1 {
                // Pipe I/O: in-memory, no filesystem or disk involvement.
                locked(steps, site_for("pipe", variant), &[Work(350)]);
            } else {
                // Buffer copy through the page cache: ~40 ns per byte.
                let copy_ns = bytes.saturating_mul(40);
                locked(steps, site_for("vfs", variant), &[Work(400)]);
                // The ext3 section nests two locks in canonical order (the
                // journal lock inside the inode lock) — the ordering a
                // wrong-order fault inverts into an ABBA deadlock.
                let e = site_for("ext3", variant);
                let e_inner = nested_partner_site(e);
                steps.push(Lock(e));
                steps.push(Work(300));
                steps.push(Lock(e_inner));
                steps.push(Work(300));
                steps.push(Work(copy_ns));
                steps.push(Unlock(e_inner));
                steps.push(Unlock(e));
                locked(steps, site_for("block", variant), &[DiskIo { bytes, write }, Work(200)]);
            }
        }
        Sysno::Open => {
            locked(steps, site_for("vfs", variant), &[Work(700)]);
            locked(steps, site_for("ext3", variant), &[Work(500)]);
        }
        Sysno::Close => {
            locked(steps, site_for("vfs", variant), &[Work(300)]);
        }
        Sysno::Lseek => {
            locked(steps, site_for("vfs", variant), &[Work(200)]);
        }
        Sysno::Spawn => {
            // fork + exec: task allocation, address-space setup, image load.
            // The scheduler section nests its runqueue pair canonically.
            let sc = site_for("sched", variant);
            let sc_inner = nested_partner_site(sc);
            steps.push(Lock(sc));
            steps.push(Work(20_000));
            steps.push(Lock(sc_inner));
            steps.push(Work(20_000));
            steps.push(Unlock(sc_inner));
            steps.push(Unlock(sc));
            locked(steps, site_for("mm", variant), &[Work(120_000)]);
        }
        Sysno::Exit => {
            locked(steps, site_for("sched", variant), &[Work(25_000)]);
            locked(steps, site_for("mm", variant), &[Work(15_000)]);
        }
        Sysno::Waitpid | Sysno::Kill => {
            locked(steps, site_for("sched", variant), &[Work(500)]);
        }
        Sysno::ListProcs | Sysno::ReadProcStat => {
            // The walk itself is charged separately (it reads guest memory);
            // the lock protects the task list.
            locked(steps, site_for("sched", variant), &[Work(300)]);
        }
        Sysno::Pipe => {
            locked(steps, site_for("pipe", variant), &[Work(400)]);
        }
        Sysno::NetRecv | Sysno::NetSend => {
            let bytes = args[0].clamp(1, 1 << 20);
            let write = sysno == Sysno::NetSend;
            locked(steps, site_for("net", variant), &[NicIo { bytes, write }, Work(300)]);
        }
        Sysno::UserLock | Sysno::UserUnlock => {
            locked(steps, site_for("sched", variant), &[Work(200)]);
        }
        Sysno::Setuid | Sysno::VulnEscalate => {
            steps.push(Work(400));
        }
        Sysno::InstallModule => {
            locked(steps, site_for("char", variant), &[Work(3_000)]);
        }
        Sysno::ConsolePutc => {
            locked(steps, site_for("char", variant), &[Work(100)]);
        }
        Sysno::Getpid | Sysno::Getuid | Sysno::Geteuid | Sysno::Nanosleep | Sysno::Reboot => {
            // Lock-free fast paths.
        }
    }
}

/// Appends the body of one kernel-daemon work burst (flush-style
/// housekeeping: a little locking, a little I/O) to `steps`.
pub fn kthread_path(variant: u64, steps: &mut Vec<PathStep>) {
    use PathStep::*;
    steps.push(Work(2_000));
    locked(steps, site_for("mm", variant), &[Work(1_000)]);
    if variant.is_multiple_of(4) {
        // Dirty-page writeback goes through the filesystem and block
        // layers (as pdflush does) — which is how a leaked ext3/block lock
        // eventually wedges the daemon's vCPU too, escalating a partial
        // hang into a full one. The VFS entry layer is bypassed (writeback
        // starts below it), so leaked VFS locks leave daemons unharmed.
        locked(steps, site_for("ext3", variant), &[Work(800)]);
        locked(steps, site_for("block", variant), &[DiskIo { bytes: 4096, write: true }]);
    }
}

/// The inner site canonically nested *inside* `site`'s critical section
/// (same subsystem, next lock).
pub fn nested_partner_site(site: usize) -> usize {
    (site + SUBSYSTEMS.len()) % SITE_COUNT
}

/// The partner lock a wrong-ordering fault grabs *before* the site lock —
/// the same lock that correct paths acquire nested *inside* it
/// ([`nested_partner_site`]), so the inverted order is a genuine ABBA with
/// any concurrent correct execution.
pub fn wrong_order_partner(table: &LockTable, site: &LockSite) -> crate::klocks::LockId {
    let partner = table.site(nested_partner_site(site.id as usize));
    if partner.lock != site.lock {
        partner.lock
    } else {
        // Degenerate wrap: pick the subsystem's other lock.
        table.site((site.id as usize + 2 * SUBSYSTEMS.len()) % SITE_COUNT).lock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::klocks::LockTable;

    #[test]
    fn site_for_stays_in_subsystem() {
        let t = LockTable::new();
        for v in 0..100 {
            for sub in SUBSYSTEMS {
                let idx = site_for(sub, v);
                assert_eq!(t.site(idx).subsystem, sub, "variant {v} sub {sub}");
            }
        }
    }

    #[test]
    fn variants_cover_many_sites() {
        let mut seen = std::collections::HashSet::new();
        for v in 0..60 {
            seen.insert(site_for("ext3", v));
        }
        assert!(seen.len() > 40, "only {} distinct ext3 sites", seen.len());
    }

    #[test]
    fn paths_are_lock_balanced() {
        let mut steps = Vec::new();
        for sysno in [
            Sysno::Read,
            Sysno::Write,
            Sysno::Open,
            Sysno::Close,
            Sysno::Spawn,
            Sysno::Exit,
            Sysno::ListProcs,
            Sysno::NetRecv,
            Sysno::InstallModule,
        ] {
            for v in 0..20 {
                // One buffer for every path, as the kernel reuses them.
                steps.clear();
                syscall_path(sysno, [4096; 5], v, 800, &mut steps);
                let mut held = Vec::new();
                for s in &steps {
                    match s {
                        PathStep::Lock(i) => held.push(*i),
                        PathStep::Unlock(i) => {
                            assert_eq!(held.pop(), Some(*i), "{sysno} v{v}: unbalanced");
                        }
                        _ => {}
                    }
                }
                assert!(held.is_empty(), "{sysno} v{v}: leaked {held:?}");
            }
        }
    }

    #[test]
    fn io_paths_move_bytes() {
        let mut steps = Vec::new();
        syscall_path(Sysno::Write, [3, 8192, 0, 0, 0], 0, 800, &mut steps);
        assert!(steps.iter().any(|s| matches!(s, PathStep::DiskIo { bytes: 8192, write: true })));
        steps.clear();
        syscall_path(Sysno::NetRecv, [1500, 0, 0, 0, 0], 0, 800, &mut steps);
        assert!(steps.iter().any(|s| matches!(s, PathStep::NicIo { bytes: 1500, write: false })));
    }

    #[test]
    fn fast_paths_are_lock_free() {
        for sysno in [Sysno::Getpid, Sysno::Getuid, Sysno::Geteuid] {
            let mut steps = Vec::new();
            syscall_path(sysno, [0; 5], 0, 800, &mut steps);
            assert!(steps.iter().all(|s| matches!(s, PathStep::Work(_))));
        }
    }

    #[test]
    fn wrong_order_partner_differs() {
        let t = LockTable::new();
        for idx in [0usize, 5, 100, 250, 373] {
            let site = t.site(idx);
            let partner = wrong_order_partner(&t, site);
            assert_ne!(partner, site.lock, "site {idx}");
        }
    }

    #[test]
    fn exec_finishes() {
        let mut e = KernelExec::new(None, vec![PathStep::Work(1)]);
        assert!(!e.finished());
        e.pc = 1;
        assert!(e.finished());
    }

    #[test]
    fn reuse_starts_clean_and_keeps_capacity() {
        let mut e = KernelExec::new(None, Vec::new());
        syscall_path(Sysno::Write, [3, 8192, 0, 0, 0], 7, 800, &mut e.steps);
        e.pc = 3;
        e.held.push(1);
        e.extra_locks.push(LockId(2));
        e.ret = 9;
        e.io_progress = 4;
        e.spin_partner = Some(LockId(5));
        e.applied = true;
        let caps = (e.steps.capacity(), e.held.capacity(), e.extra_locks.capacity());
        let args = [0; 5];
        let r = e.reuse(Some((Sysno::Getpid, args)));
        assert_eq!(r.syscall, Some((Sysno::Getpid, args)));
        assert!(r.steps.is_empty() && r.held.is_empty() && r.extra_locks.is_empty());
        assert_eq!((r.steps.capacity(), r.held.capacity(), r.extra_locks.capacity()), caps);
        assert_eq!((r.pc, r.ret, r.io_progress, r.spin_partner, r.applied), (0, 0, 0, None, false));
    }
}
