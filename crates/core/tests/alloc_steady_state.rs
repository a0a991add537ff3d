//! Steady-state allocation audit of the exit hot path.
//!
//! The forwarder→EM→auditor path must not allocate once warmed up: the
//! per-exit event buffer and the EM's findings buffer are both reused
//! across exits.
//!
//! Lives in `tests/` so the counting `#[global_allocator]` is scoped to
//! this one integration-test binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use hypertap_core::prelude::*;
use hypertap_hvsim::cpu::{CpuCtx, StepOutcome};
use hypertap_hvsim::machine::{GuestProgram, Machine, VmConfig};
use hypertap_hvsim::mem::Gpa;

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

/// Two engines' worth of traffic per step: a context switch and a port
/// write — the same workload the forwarder's unit tests use.
struct Chatty;
impl GuestProgram for Chatty {
    fn step(&mut self, cpu: &mut CpuCtx<'_>) -> StepOutcome {
        cpu.write_cr3(Gpa::new(0x3000));
        cpu.pio_out(0x3f8, 0x41);
        StepOutcome::Continue
    }
}

#[test]
fn exit_path_is_allocation_free_in_steady_state() {
    let mut m = Machine::new(VmConfig::new(1, 1 << 20), Kvm::new());
    let (vm, kvm) = m.parts_mut();
    kvm.install(vm, Box::new(ProcessSwitchEngine::new()));
    kvm.install(vm, Box::new(IoEngine::new()));
    kvm.em.register(Box::new(CountingAuditor::new()));

    // Warm up: first exits grow the per-exit event buffer to its working size and
    // fill the flight recorder's fixed ring.
    m.run_steps(&mut Chatty, 300);

    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    m.run_steps(&mut Chatty, 200);
    ARMED.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);

    // The workload really ran through the whole path.
    assert!(m.hypervisor().forwarded_events() >= 1000);
    assert_eq!(allocs, 0, "exit path allocated {allocs} times in steady state");
}
