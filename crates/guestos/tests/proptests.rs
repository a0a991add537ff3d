//! Property-based tests for the guest kernel's invariant-bearing pieces:
//! the lock table, the syscall path builder, and the `/proc` stat packing.

use hypertap_guestos::kernel::{pack_proc_stat, ProcStat};
use hypertap_guestos::klocks::{LockId, LockTable};
use hypertap_guestos::kpath::{self, KernelExec, PathStep};
use hypertap_guestos::syscalls::Sysno;
use hypertap_guestos::task::Pid;
use proptest::prelude::*;
use std::collections::HashMap;

fn sysno_strategy() -> impl Strategy<Value = Sysno> {
    prop::sample::select(vec![
        Sysno::Read,
        Sysno::Write,
        Sysno::Open,
        Sysno::Close,
        Sysno::Lseek,
        Sysno::Spawn,
        Sysno::Exit,
        Sysno::Waitpid,
        Sysno::Kill,
        Sysno::ListProcs,
        Sysno::Pipe,
        Sysno::NetRecv,
        Sysno::NetSend,
        Sysno::UserLock,
        Sysno::InstallModule,
        Sysno::ConsolePutc,
        Sysno::Getpid,
        Sysno::Nanosleep,
    ])
}

proptest! {
    /// Every syscall path balances its lock and unlock steps in LIFO order
    /// (no leaks, no unlock-before-lock), for arbitrary variants and args.
    #[test]
    fn syscall_paths_are_lock_balanced(
        sysno in sysno_strategy(),
        variant in 0u64..1000,
        arg0 in 0u64..100_000,
        arg1 in 0u64..100_000,
    ) {
        let args = [arg0, arg1, 0, 0, 0];
        let mut steps = Vec::new();
        kpath::syscall_path(sysno, args, variant, 800, &mut steps);
        let mut held: Vec<usize> = Vec::new();
        for s in &steps {
            match s {
                PathStep::Lock(i) => held.push(*i),
                PathStep::Unlock(i) => {
                    prop_assert_eq!(held.pop(), Some(*i), "{} v{}", sysno, variant);
                }
                _ => {}
            }
        }
        prop_assert!(held.is_empty(), "{} v{} leaked {:?}", sysno, variant, held);
        // A recycled execution whose buffer held another path builds the
        // same path.
        let mut used = KernelExec::new(None, Vec::new());
        kpath::kthread_path(variant, &mut used.steps);
        let mut reused = used.reuse(Some((sysno, args)));
        kpath::syscall_path(sysno, args, variant, 800, &mut reused.steps);
        prop_assert_eq!(reused.steps, steps);
    }

    /// Kernel-thread paths are also balanced.
    #[test]
    fn kthread_paths_are_lock_balanced(variant in 0u64..1000) {
        let mut steps = Vec::new();
        kpath::kthread_path(variant, &mut steps);
        let mut held: Vec<usize> = Vec::new();
        for s in &steps {
            match s {
                PathStep::Lock(i) => held.push(*i),
                PathStep::Unlock(i) => prop_assert_eq!(held.pop(), Some(*i)),
                _ => {}
            }
        }
        prop_assert!(held.is_empty());
    }

    /// With a correct acquire/release discipline (no foreign releases), the
    /// lock table matches a reference model: at most one owner, acquisition
    /// succeeds iff free.
    #[test]
    fn lock_table_matches_model(
        ops in prop::collection::vec((0u32..12, 1u64..5, any::<bool>()), 1..200),
    ) {
        let mut table = LockTable::new();
        let mut model: HashMap<u32, u64> = HashMap::new();
        for (lock, pid, acquire) in ops {
            let l = LockId(lock);
            let p = Pid(pid);
            if acquire {
                let expect = !model.contains_key(&lock);
                prop_assert_eq!(table.try_acquire(l, p), expect);
                if expect {
                    model.insert(lock, pid);
                }
            } else if model.get(&lock) == Some(&pid) {
                // Only legitimate releases in this property.
                prop_assert!(table.release(l, p));
                model.remove(&lock);
            }
            prop_assert_eq!(table.owner(l).map(|o| o.0), model.get(&lock).copied());
        }
    }

    /// `pack_proc_stat`/`ProcStat::unpack` round-trip within field widths,
    /// and never collide with the "no such pid" marker.
    #[test]
    fn proc_stat_round_trip(
        euid in 0u64..0xFFFF,
        parent_uid in 0u64..0xFFFF,
        state in 0u64..3,
        rip in 0u64..0xF_FFFF,
    ) {
        let raw = pack_proc_stat(euid, parent_uid, state, rip);
        prop_assert_ne!(raw, u64::MAX);
        let stat = ProcStat::unpack(raw).expect("not the missing marker");
        prop_assert_eq!(stat.euid, euid);
        prop_assert_eq!(stat.parent_uid, parent_uid);
        prop_assert_eq!(stat.state, state);
        prop_assert_eq!(stat.rip_off, rip);
    }

    /// Site selection always lands inside the requested subsystem.
    #[test]
    fn site_for_respects_subsystem(variant in 0u64..10_000) {
        let table = LockTable::new();
        for sub in hypertap_guestos::klocks::SUBSYSTEMS {
            let idx = kpath::site_for(sub, variant);
            prop_assert_eq!(table.site(idx).subsystem, sub);
        }
    }
}
