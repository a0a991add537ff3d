//! Routing exits by Table I reason changes nothing an engine decodes.
//!
//! `Kvm` shows each exit only to the engines whose Table I rows name its
//! reason. The reference hypervisor here is the dispatch loop that routing
//! replaced: it offers every exit to every engine, in install order. Both
//! drive the same booted `guestos` kernel under all seven engines, with
//! CR3 switches, thread switches, `SYSENTER` or `INT 0x80` syscalls, disk
//! port I/O, timer interrupts, MMIO and fine-grained watches. Every exit
//! must decode to the same events, and every engine must end in the same
//! state.

use std::cell::RefCell;
use std::rc::Rc;

use hypertap_core::em::EventTap;
use hypertap_core::event::{Event, EventKind, SyscallGate};
use hypertap_core::intercept::{
    FastSyscallEngine, FineGrainedEngine, IntSyscallEngine, InterceptEngine, IoEngine,
    ProcessSwitchEngine, ThreadSwitchEngine, TssIntegrityEngine,
};
use hypertap_core::kvm::Kvm;
use hypertap_guestos::kernel::{Kernel, KernelConfig, SyscallGateKind};
use hypertap_guestos::layout;
use hypertap_guestos::program::{FnProgram, UserOp, UserView};
use hypertap_guestos::syscalls::Sysno;
use hypertap_hvsim::clock::SimTime;
use hypertap_hvsim::cpu::{CpuCtx, StepOutcome};
use hypertap_hvsim::device::LatchDevice;
use hypertap_hvsim::ept::EptPerm;
use hypertap_hvsim::exit::{ExitAction, VmExit};
use hypertap_hvsim::machine::{GuestProgram, Hypervisor, Machine, VmConfig, VmState};
use hypertap_hvsim::mem::{Gva, PAGE_SIZE};
use hypertap_hvsim::paging;
use hypertap_hvsim::vcpu::VcpuId;

fn engines() -> Vec<Box<dyn InterceptEngine>> {
    vec![
        Box::new(ProcessSwitchEngine::new()),
        Box::new(ThreadSwitchEngine::new()),
        Box::new(TssIntegrityEngine::new()),
        Box::new(IntSyscallEngine::new()),
        Box::new(FastSyscallEngine::new()),
        Box::new(IoEngine::with_apic_events()),
        Box::new(FineGrainedEngine::new()),
    ]
}

/// A hypervisor that installs the seven engines and can hand out its
/// fine-grained engine and every engine's snapshot blob.
trait Monitor: Hypervisor {
    fn install(&mut self, vm: &mut VmState);
    /// Per exit, the events it decoded.
    fn exits(&self) -> &[Vec<EventKind>];
    fn fine(&mut self) -> &mut FineGrainedEngine;
    fn blobs(&mut self) -> Vec<Vec<u8>>;
}

/// The reference: every installed engine inspects every exit.
#[derive(Default)]
struct Broadcast {
    engines: Vec<Box<dyn InterceptEngine>>,
    exits: Vec<Vec<EventKind>>,
}

impl Hypervisor for Broadcast {
    fn handle_exit(&mut self, vm: &mut VmState, exit: &VmExit) -> ExitAction {
        let mut kinds = Vec::new();
        let mut action = ExitAction::Resume;
        for e in &mut self.engines {
            if e.on_exit(vm, exit, &mut |k| kinds.push(k)) == ExitAction::Suppress {
                action = ExitAction::Suppress;
            }
        }
        self.exits.push(kinds);
        action
    }
}

impl Monitor for Broadcast {
    fn install(&mut self, vm: &mut VmState) {
        self.engines = engines();
        for e in &mut self.engines {
            e.enable(vm);
        }
        vm.controls_mut().set_cr3_load_exiting(true);
    }
    fn exits(&self) -> &[Vec<EventKind>] {
        &self.exits
    }
    fn fine(&mut self) -> &mut FineGrainedEngine {
        self.engines[6].as_any_mut().downcast_mut().unwrap()
    }
    fn blobs(&mut self) -> Vec<Vec<u8>> {
        self.engines.iter().map(|e| e.snapshot_state()).collect()
    }
}

/// Passes each forwarded event's kind to the test.
struct Tap(Rc<RefCell<Vec<EventKind>>>);

impl EventTap for Tap {
    fn on_event(&mut self, event: &Event) {
        self.0.borrow_mut().push(event.kind);
    }
}

/// `Kvm`, with the events each exit forwarded collected per exit.
#[derive(Default)]
struct Routed {
    kvm: Kvm,
    forwarded: Rc<RefCell<Vec<EventKind>>>,
    exits: Vec<Vec<EventKind>>,
}

impl Hypervisor for Routed {
    fn handle_exit(&mut self, vm: &mut VmState, exit: &VmExit) -> ExitAction {
        let action = self.kvm.handle_exit(vm, exit);
        self.exits.push(std::mem::take(&mut *self.forwarded.borrow_mut()));
        action
    }
}

impl Monitor for Routed {
    fn install(&mut self, vm: &mut VmState) {
        for e in engines() {
            self.kvm.install(vm, e);
        }
        self.kvm.em.attach_tap(Box::new(Tap(self.forwarded.clone())));
    }
    fn exits(&self) -> &[Vec<EventKind>] {
        &self.exits
    }
    fn fine(&mut self) -> &mut FineGrainedEngine {
        let e = self.kvm.engine_mut("fine-grained").unwrap();
        e.as_any_mut().downcast_mut().unwrap()
    }
    fn blobs(&mut self) -> Vec<Vec<u8>> {
        let names = self.kvm.engine_names();
        names.iter().map(|n| self.kvm.engine_mut(n).unwrap().snapshot_state()).collect()
    }
}

/// A kernel page the guest maps but never uses; it becomes an MMIO window.
const MMIO_GVA: Gva = Gva::new(layout::KERNEL_END.value() - PAGE_SIZE);

/// The guest kernel, plus an MMIO write and read on vCPU 0 every 64th step.
struct WithMmio<'a> {
    kernel: &'a mut Kernel,
    steps: u64,
}

impl GuestProgram for WithMmio<'_> {
    fn step(&mut self, cpu: &mut CpuCtx<'_>) -> StepOutcome {
        self.steps += 1;
        if self.steps.is_multiple_of(64) && cpu.vcpu_id() == VcpuId(0) && self.kernel.is_booted() {
            cpu.write_u64_gva(MMIO_GVA, self.steps).unwrap();
            cpu.read_u64_gva(MMIO_GVA).unwrap();
        }
        self.kernel.step(cpu)
    }
}

/// Init spawns short-lived workers one after another; each opens, writes,
/// closes and asks for its pid a few times, then exits.
fn kernel(gate: SyscallGateKind) -> Kernel {
    let mut kernel = Kernel::new(KernelConfig::new(2).with_gate(gate));
    let worker = kernel.register_program(
        "worker",
        Box::new(|| {
            let (mut op, mut fd) = (0u64, 0);
            Box::new(FnProgram(move |v: &UserView<'_>| {
                op += 1;
                match op {
                    24.. => UserOp::Exit(0),
                    _ => match op % 6 {
                        1 => UserOp::sys(Sysno::Open, &[3]),
                        2 => {
                            fd = v.last_ret;
                            UserOp::sys(Sysno::Write, &[fd, 512])
                        }
                        3 => UserOp::sys(Sysno::Close, &[fd]),
                        4 => UserOp::sys(Sysno::Getpid, &[]),
                        _ => UserOp::Compute(20_000),
                    },
                }
            }))
        }),
    );
    let init = kernel.register_program(
        "init",
        Box::new(move || {
            let mut spawn = true;
            Box::new(FnProgram(move |_v: &UserView<'_>| {
                spawn = !spawn;
                if spawn {
                    UserOp::sys(Sysno::Waitpid, &[])
                } else {
                    UserOp::sys(Sysno::Spawn, &[worker.0, 1000])
                }
            }))
        }),
    );
    kernel.set_init_program(init);
    kernel
}

/// Boots the guest, maps the MMIO window and watches two kernel frames,
/// then runs it.
fn run<H: Monitor + Default>(gate: SyscallGateKind) -> Machine<H> {
    let mut m = Machine::new(VmConfig::new(2, 512 << 20), H::default());
    let (vm, hv) = m.parts_mut();
    hv.install(vm);
    let mut kernel = kernel(gate);
    m.run_until(&mut WithMmio { kernel: &mut kernel, steps: 0 }, SimTime::from_millis(20));
    assert!(kernel.is_booted());
    let (vm, hv) = m.parts_mut();
    let frame = |gva| paging::walk(&vm.mem, kernel.kernel_pd(), gva).unwrap();
    let (mmio, tasks, heap) =
        (frame(MMIO_GVA), frame(layout::TASK_LIST_HEAD), frame(layout::KERNEL_HEAP));
    let latch = vm.io.register(Box::<LatchDevice>::default());
    vm.io.map_mmio(mmio.value()..mmio.value() + PAGE_SIZE, latch);
    hv.fine().watch_frame(vm, tasks.gfn(), EptPerm::RX);
    hv.fine().watch_frame(vm, heap.gfn(), EptPerm::RX);
    m.run_until(&mut WithMmio { kernel: &mut kernel, steps: 0 }, SimTime::from_millis(300));
    m
}

fn routed_equals_broadcast(gate: SyscallGateKind, want_gate: SyscallGate) {
    let mut broadcast = run::<Broadcast>(gate);
    let mut routed = run::<Routed>(gate);
    let (broadcast, routed) = (broadcast.hypervisor_mut(), routed.hypervisor_mut());
    assert_eq!(broadcast.blobs(), routed.blobs(), "engine snapshot state");
    let (b, r) = (broadcast.exits(), routed.exits());
    assert_eq!(b.len(), r.len(), "exit count");
    for (i, (b, r)) in b.iter().zip(r).enumerate() {
        assert_eq!(b, r, "exit #{i}");
    }

    // The workload reaches every engine.
    let seen = |f: fn(&EventKind) -> bool| r.iter().flatten().filter(|k| f(k)).count();
    assert!(seen(|k| matches!(k, EventKind::ProcessSwitch { .. })) > 0);
    assert!(seen(|k| matches!(k, EventKind::ThreadSwitch { .. })) > 0);
    assert!(seen(|k| matches!(k, EventKind::IoPort { .. })) > 0);
    assert!(seen(|k| matches!(k, EventKind::HardwareInterrupt { .. })) > 0);
    assert!(seen(|k| matches!(k, EventKind::MmioAccess { .. })) > 0);
    assert!(seen(|k| matches!(k, EventKind::MemoryAccess { .. })) > 0);
    let syscalls: Vec<_> = r
        .iter()
        .flatten()
        .filter_map(|k| match k {
            EventKind::Syscall { gate, .. } => Some(*gate),
            _ => None,
        })
        .collect();
    assert!(syscalls.len() > 100, "only {} syscalls", syscalls.len());
    assert!(syscalls.iter().all(|g| *g == want_gate), "{want_gate:?}");
}

#[test]
fn routed_equals_broadcast_with_sysenter() {
    routed_equals_broadcast(SyscallGateKind::Sysenter, SyscallGate::Sysenter);
}

#[test]
fn routed_equals_broadcast_with_int80() {
    routed_equals_broadcast(SyscallGateKind::Int80, SyscallGate::Interrupt(0x80));
}
