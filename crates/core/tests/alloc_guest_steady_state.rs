//! Steady-state allocation audit of a real guest under full monitoring.
//!
//! A booted `guestos::Kernel` runs two tasks looping over open/write/close
//! and getpid behind `Kvm` with all seven interception engines and the
//! GOSHD, HRKD and counting auditors. Once warmed up, servicing a syscall
//! must not allocate: the kernel builds each syscall path into recycled
//! buffers, CR3 loads flush the TLB without touching the heap, and the
//! forwarder→EM→auditor path reuses its buffers (see `alloc_steady_state`).
//!
//! Lives in `tests/` so the counting `#[global_allocator]` is scoped to
//! this one integration-test binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use hypertap_core::prelude::*;
use hypertap_guestos::program::{FnProgram, UserOp, UserView};
use hypertap_guestos::syscalls::Sysno;
use hypertap_hvsim::clock::Duration;
use hypertap_monitors::goshd::GoshdConfig;
use hypertap_monitors::harness::TapVm;

/// Counts heap allocations while `ARMED`; delegates to the system
/// allocator either way.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn guest_syscall_path_is_allocation_free_in_steady_state() {
    // One vCPU, so the two workers time-share it and every switch loads CR3.
    let mut vm = TapVm::builder()
        .vcpus(1)
        .goshd(GoshdConfig { threshold: Duration::from_secs(2) })
        .hrkd()
        .build();
    vm.machine.hypervisor_mut().em.register(Box::new(CountingAuditor::new()));
    let worker = vm.kernel.register_program(
        "worker",
        Box::new(|| {
            let mut op = 0u64;
            let mut fd = 0;
            Box::new(FnProgram(move |v: &UserView<'_>| {
                op += 1;
                match op % 8 {
                    1 => UserOp::sys(Sysno::Open, &[3]),
                    2 => {
                        fd = v.last_ret;
                        UserOp::sys(Sysno::Write, &[fd, 512])
                    }
                    3 | 4 => UserOp::sys(Sysno::Write, &[fd, 512]),
                    5 => UserOp::sys(Sysno::Close, &[fd]),
                    6 | 7 => UserOp::sys(Sysno::Getpid, &[]),
                    // User time, so timer ticks can preempt the task.
                    _ => UserOp::Compute(50_000),
                }
            }))
        }),
    );
    let init = vm.kernel.register_program(
        "init",
        Box::new(move || {
            let mut spawned = 0;
            Box::new(FnProgram(move |_v: &UserView<'_>| {
                spawned += 1;
                if spawned <= 2 {
                    UserOp::sys(Sysno::Spawn, &[worker.0, 1000])
                } else {
                    UserOp::sys(Sysno::Nanosleep, &[3_600_000_000_000])
                }
            }))
        }),
    );
    vm.kernel.set_init_program(init);

    // Warm up: boot, spawn both workers and grow every reused buffer (path
    // buffers, event buffer, flight ring) to its working size.
    vm.run_for(Duration::from_millis(300));
    // The guest's fd table is append-only (a closed fd is never handed out
    // again), so it doubles now and then as the workers open files. That is
    // guest state, not the syscall path: start the audited window once both
    // tables have room for every open the window makes.
    let fd_room = |vm: &TapVm| {
        let workers = vm.kernel.tasks().iter().filter(|t| t.comm == "worker");
        workers.map(|t| t.fds.capacity() - t.fds.len()).min().unwrap_or(0)
    };
    for _ in 0..200 {
        if fd_room(&vm) >= 400 {
            break;
        }
        vm.run_for(Duration::from_millis(5));
    }
    assert!(fd_room(&vm) >= 400, "the workers' fd tables never made room");

    let syscalls_before = vm.kernel.stats().syscalls;
    let cr3_loads_before = vm.machine.vm().stats().count_by_name("CR_ACCESS");
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    vm.run_for(Duration::from_millis(50));
    ARMED.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);

    let syscalls = vm.kernel.stats().syscalls - syscalls_before;
    let cr3_loads = vm.machine.vm().stats().count_by_name("CR_ACCESS") - cr3_loads_before;
    assert!(syscalls >= 1000, "only {syscalls} syscalls in the audited window");
    assert!(cr3_loads > 0, "the audited window must include address-space switches");
    assert_eq!(allocs, 0, "{allocs} allocations over {syscalls} syscalls in steady state");
}
