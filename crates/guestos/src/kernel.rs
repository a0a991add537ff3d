//! The simulated guest kernel.
//!
//! A multiprocessor, preemptible-or-not, Linux-shaped kernel that runs as a
//! [`GuestProgram`] on the HAV simulator. Everything the monitoring stack
//! relies on is performed through the architectural interface:
//!
//! * context switches write `TSS.RSP0` and (for address-space changes) CR3;
//! * system calls enter through `SYSENTER` or `INT 0x80`;
//! * device I/O uses port instructions; request arrival uses external
//!   interrupts; the scheduler tick is a local-APIC timer interrupt;
//! * all kernel data structures that describe processes are serialized into
//!   guest memory (see [`crate::layout`]), where VMI reads them and rootkits
//!   corrupt them.
//!
//! The kernel also carries the fault-injection surface for the hang
//! experiments: its syscall bodies execute lock-site paths
//! ([`crate::kpath`]) whose discipline an injected [`FaultHook`] corrupts.

use crate::devices::{
    ConsoleDevice, DiskDevice, NicDevice, CONSOLE_PORT, DISK_PORT_DATA, NIC_IRQ_VECTOR,
    NIC_PORT_DATA, SECTOR_SIZE,
};
use crate::fault::{FaultActivation, FaultHook, FaultType, NoFaults};
use crate::klocks::{LockId, LockTable};
use crate::kpath::{self, KernelExec, PathStep};
use crate::layout::{self, task_struct as ts, thread_info as ti};
use crate::module::{HideMechanism, ModuleSpec};
use crate::program::{ProgId, ProgramFactory, UserOp, UserProgram, UserView};
use crate::syscalls::Sysno;
use crate::task::{ExecContext, Pid, ProcEntry, RunState, Task, UserEvent};
use hypertap_hvsim::clock::{Duration, SimTime};
use hypertap_hvsim::cpu::{CpuCtx, StepOutcome, TSS_RSP0_OFFSET};
use hypertap_hvsim::device::DeviceId;
use hypertap_hvsim::machine::GuestProgram;
use hypertap_hvsim::mem::{Gfn, Gpa, Gva, PAGE_SIZE};
use hypertap_hvsim::paging::{AddressSpaceBuilder, FrameAllocator};
use hypertap_hvsim::snap::{SnapError, SnapReader, SnapWriter};
use hypertap_hvsim::vcpu::{Gpr, Msr, VcpuId};
use std::collections::{HashSet, VecDeque};

/// Timer interrupt vector (the scheduler tick).
pub const TIMER_VECTOR: u8 = 0x20;

/// Most finished kernel executions kept for reuse. Bounds the host memory
/// the spares hold; more than this many tasks rarely leave the kernel
/// between two syscall entries.
const MAX_SPARE_EXECS: usize = 8;

/// Which architectural gate system calls use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyscallGateKind {
    /// `SYSENTER` fast calls (the default on the modelled era's Linux).
    Sysenter,
    /// Legacy `INT 0x80` software interrupts.
    Int80,
}

/// Kernel build/runtime configuration.
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// Number of vCPUs (must match the machine's).
    pub vcpus: usize,
    /// Kernel preemption (CONFIG_PREEMPT): whether kernel-mode execution
    /// outside critical sections can be preempted by the tick.
    pub preemptible: bool,
    /// Scheduler tick period.
    pub tick: Duration,
    /// Time-slice length in ticks.
    pub slice_ticks: u32,
    /// System-call gate.
    pub gate: SyscallGateKind,
    /// Period of the per-vCPU housekeeping daemons.
    pub daemon_period: Duration,
    /// Base kernel cost of any syscall (ns).
    pub syscall_base_ns: u64,
    /// Spin-wait burst per scheduler step (ns).
    pub spin_chunk_ns: u64,
    /// Maximum user compute executed per step (ns).
    pub compute_chunk_ns: u64,
    /// Per-process cost of a `/proc` walk entry (ns) — open+read+parse of
    /// one `/proc/PID` tree.
    pub proc_entry_ns: u64,
}

impl KernelConfig {
    /// A 2-vCPU non-preemptible build (the paper's default guest).
    pub fn new(vcpus: usize) -> Self {
        KernelConfig {
            vcpus,
            preemptible: false,
            tick: Duration::from_millis(1),
            slice_ticks: 8,
            gate: SyscallGateKind::Sysenter,
            daemon_period: Duration::from_millis(250),
            syscall_base_ns: 2_000,
            spin_chunk_ns: 20_000,
            compute_chunk_ns: 200_000,
            proc_entry_ns: 20_000,
        }
    }

    /// Builder-style preemption toggle.
    pub fn with_preemption(mut self, on: bool) -> Self {
        self.preemptible = on;
        self
    }

    /// Builder-style gate selection.
    pub fn with_gate(mut self, gate: SyscallGateKind) -> Self {
        self.gate = gate;
        self
    }
}

/// Aggregate kernel statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Number of context switches performed (dispatches of a new task).
    pub context_switches: u64,
    /// Number of system calls serviced.
    pub syscalls: u64,
    /// Number of processes spawned.
    pub spawns: u64,
    /// Number of process exits.
    pub exits: u64,
    /// Timer ticks handled.
    pub ticks: u64,
    /// Times a vCPU went idle.
    pub idle_halts: u64,
}

/// Packs the `/proc/PID/stat` side-channel view into a u64.
pub fn pack_proc_stat(euid: u64, parent_uid: u64, state: u64, rip_off: u64) -> u64 {
    (euid & 0xFFFF)
        | ((parent_uid & 0xFFFF) << 16)
        | ((state & 0xF) << 32)
        | ((rip_off & 0xFFFFF) << 36)
}

/// The decoded `/proc/PID/stat` view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcStat {
    /// Effective uid.
    pub euid: u64,
    /// Parent's real uid.
    pub parent_uid: u64,
    /// Guest state encoding (0 running, 1 sleeping, 2 zombie).
    pub state: u64,
    /// Low bits of the user instruction pointer.
    pub rip_off: u64,
}

impl ProcStat {
    /// Decodes a packed stat value; `None` for the "no such pid" marker.
    pub fn unpack(raw: u64) -> Option<ProcStat> {
        if raw == u64::MAX {
            return None;
        }
        Some(ProcStat {
            euid: raw & 0xFFFF,
            parent_uid: (raw >> 16) & 0xFFFF,
            state: (raw >> 32) & 0xF,
            rip_off: (raw >> 36) & 0xFFFFF,
        })
    }
}

struct Registered {
    name: String,
    factory: ProgramFactory,
}

#[derive(Debug, Default)]
struct UserLockState {
    owner: Option<Pid>,
    waiters: VecDeque<usize>,
}

/// The kernel.
pub struct Kernel {
    cfg: KernelConfig,
    booted: bool,
    vcpu_online: Vec<bool>,
    shutdown: bool,

    falloc: Option<FrameAllocator>,
    kernel_pd: Gpa,
    ts_free: Vec<Gva>,
    ts_next: Gva,
    kstack_free: Vec<Gva>,
    kstack_next: Gva,

    tasks: Vec<Task>,
    next_pid: u64,
    current: Vec<Option<usize>>,
    runqueue: VecDeque<usize>,

    locks: LockTable,
    fault_hook: Box<dyn FaultHook>,
    /// Host-side record of every fault activation with its simulated
    /// timestamp. Deliberately NOT serialized: snapshots keep only the
    /// activation count (via [`FaultHook::activations`]), and campaign
    /// drivers read this log live for detection-latency accounting.
    fault_activations: Vec<FaultActivation>,
    leaked_locks: Vec<LockId>,
    path_counter: u64,
    /// Finished kernel executions whose buffers the next syscall or daemon
    /// burst reuses (see [`KernelExec::reuse`]). Host-side only: never
    /// serialized, and it holds no guest-visible state.
    spare_execs: Vec<KernelExec>,

    programs: Vec<Registered>,
    init_program: Option<ProgId>,
    modules: Vec<ModuleSpec>,
    pid_filters: HashSet<u64>,
    user_locks: Vec<UserLockState>,

    disk: Option<DeviceId>,
    nic: Option<DeviceId>,
    console: Option<DeviceId>,

    stats: KernelStats,
    last_dispatch: Vec<SimTime>,
    mm_graveyard: Vec<Gpa>,
    /// The reference form of a `Compute` op, for tests only: the op step
    /// charges nothing and the first chunk waits for the next step.
    #[cfg(test)]
    two_step_compute: bool,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("booted", &self.booted)
            .field("tasks", &self.tasks.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Kernel {
    /// Creates an unbooted kernel; boot happens on the first guest step.
    pub fn new(cfg: KernelConfig) -> Self {
        let vcpus = cfg.vcpus;
        Kernel {
            cfg,
            booted: false,
            vcpu_online: vec![false; vcpus],
            shutdown: false,
            falloc: None,
            kernel_pd: Gpa::NULL,
            ts_free: Vec::new(),
            ts_next: layout::KERNEL_HEAP,
            kstack_free: Vec::new(),
            kstack_next: Gva::new(layout::KERNEL_HEAP.value() + (8 << 20)),
            tasks: Vec::new(),
            next_pid: 1,
            current: vec![None; vcpus],
            runqueue: VecDeque::new(),
            locks: LockTable::new(),
            fault_hook: Box::new(NoFaults),
            fault_activations: Vec::new(),
            leaked_locks: Vec::new(),
            path_counter: 0,
            spare_execs: Vec::new(),
            programs: Vec::new(),
            init_program: None,
            modules: Vec::new(),
            pid_filters: HashSet::new(),
            user_locks: Vec::new(),
            disk: None,
            nic: None,
            console: None,
            stats: KernelStats::default(),
            last_dispatch: vec![SimTime::ZERO; vcpus],
            mm_graveyard: Vec::new(),
            #[cfg(test)]
            two_step_compute: false,
        }
    }

    // ----- host-side configuration (before the run) -------------------------

    /// Registers a user program; `spawn` refers to it by the returned id.
    pub fn register_program(&mut self, name: impl Into<String>, factory: ProgramFactory) -> ProgId {
        self.programs.push(Registered { name: name.into(), factory });
        ProgId(self.programs.len() as u64 - 1)
    }

    /// Chooses the program `init` (pid 1) runs.
    pub fn set_init_program(&mut self, prog: ProgId) {
        self.init_program = Some(prog);
    }

    /// Registers a loadable module (rootkit); `install_module` refers to it
    /// by the returned index.
    pub fn register_module(&mut self, spec: ModuleSpec) -> u64 {
        self.modules.push(spec);
        self.modules.len() as u64 - 1
    }

    /// Installs the fault-injection hook.
    pub fn set_fault_hook(&mut self, hook: Box<dyn FaultHook>) {
        self.fault_hook = hook;
    }

    /// Read access to the fault hook (activation counting).
    pub fn fault_hook(&self) -> &dyn FaultHook {
        self.fault_hook.as_ref()
    }

    /// Every fault activation observed so far, with simulated timestamps —
    /// the injection-time side of detection-latency accounting. Host-side
    /// observation only; not part of snapshot state.
    pub fn fault_activation_log(&self) -> &[FaultActivation] {
        &self.fault_activations
    }

    // ----- host-side inspection ----------------------------------------------

    /// Whether boot completed.
    pub fn is_booted(&self) -> bool {
        self.booted
    }

    /// The configuration.
    pub fn config(&self) -> &KernelConfig {
        &self.cfg
    }

    /// Kernel statistics.
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }

    /// The kernel page directory (every process shares its kernel range).
    pub fn kernel_pd(&self) -> Gpa {
        self.kernel_pd
    }

    /// All task slots (including dead ones).
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Looks up a live task by pid.
    pub fn task_by_pid(&self, pid: Pid) -> Option<&Task> {
        self.tasks.iter().find(|t| t.pid == pid && !matches!(t.state, RunState::Dead))
    }

    /// Pids of all live (non-dead, non-zombie) tasks.
    pub fn alive_pids(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .tasks
            .iter()
            .filter(|t| !matches!(t.state, RunState::Dead | RunState::Zombie))
            .map(|t| t.pid.0)
            .collect();
        v.sort_unstable();
        v
    }

    /// Drains the mailbox of a task (by pid, dead or alive).
    pub fn drain_mailbox(&mut self, pid: Pid) -> Vec<UserEvent> {
        self.tasks
            .iter_mut()
            .filter(|t| t.pid == pid)
            .flat_map(|t| std::mem::take(&mut t.mailbox))
            .collect()
    }

    /// Drains every task's mailbox, tagged by pid.
    pub fn drain_all_mailboxes(&mut self) -> Vec<(u64, UserEvent)> {
        let mut out = Vec::new();
        for t in &mut self.tasks {
            for e in std::mem::take(&mut t.mailbox) {
                out.push((t.pid.0, e));
            }
        }
        out
    }

    /// The pids currently filtered out of process enumeration by a
    /// syscall-hijacking rootkit.
    pub fn hidden_pid_filters(&self) -> &HashSet<u64> {
        &self.pid_filters
    }

    /// Simulated time of the most recent dispatch on each vCPU.
    pub fn last_dispatch(&self) -> &[SimTime] {
        &self.last_dispatch
    }

    /// The NIC's device id (available after boot) — used by load generators
    /// to enqueue inbound requests.
    pub fn nic_device_id(&self) -> Option<DeviceId> {
        self.nic
    }

    /// The disk's device id (available after boot).
    pub fn disk_device_id(&self) -> Option<DeviceId> {
        self.disk
    }

    // ----- boot ---------------------------------------------------------------

    fn boot(&mut self, cpu: &mut CpuCtx<'_>) {
        let mem_size = cpu.vm().mem.size();
        assert!(
            mem_size >= layout::KERNEL_SIZE + (64 << 20),
            "guest needs at least 128 MiB (64 MiB kernel region + user memory); got {mem_size}"
        );
        let mut falloc = FrameAllocator::new(Gfn::new(16), Gfn::new(mem_size / PAGE_SIZE));

        // Kernel page directory with the whole kernel region eagerly mapped,
        // so its page tables (and hence PDE sharing) never change again.
        let vm = cpu.vm_mut();
        let mut kpd = AddressSpaceBuilder::new(&mut vm.mem, &mut falloc);
        kpd.map_fresh_range(
            &mut vm.mem,
            &mut falloc,
            layout::KERNEL_BASE,
            layout::KERNEL_SIZE / PAGE_SIZE,
        );
        self.kernel_pd = kpd.pdba();

        // Devices.
        self.register_devices(&mut vm.io);
        self.falloc = Some(falloc);

        // Bring up vCPU 0's architectural state: TR first, then the first
        // CR3 load (which arms HyperTap's engines), then the syscall MSRs.
        self.bring_up_vcpu(cpu);

        // A distinctive marker in kernel text (also the known-GVA probe target).
        cpu.write_u64_gva(layout::KERNEL_TEXT, 0x4855_4E54_4552_4B21).expect("kernel text mapped");
        // Empty task list.
        cpu.write_u64_gva(layout::TASK_LIST_HEAD, 0).expect("head slot mapped");

        // init (pid 1, root) — created first so it gets pid 1, as on Linux.
        let init_prog: Box<dyn UserProgram> = match self.init_program {
            Some(p) => (self.programs[p.0 as usize].factory)(),
            None => Self::fallback_init_program(),
        };
        let slot = self.create_user_task(cpu, "init", 0, None, init_prog, self.init_program);
        self.runqueue.push_back(slot);

        // Kernel housekeeping daemons, one per vCPU.
        for v in 0..self.cfg.vcpus {
            let slot = self.create_kthread(cpu, &format!("kflushd/{v}"), VcpuId(v));
            // Stagger their wake-ups.
            self.tasks[slot].state =
                RunState::Sleeping(cpu.now() + Duration::from_millis(50 + 37 * v as u64));
        }

        self.booted = true;
    }

    /// Registers the disk, NIC and console on the I/O bus, in the fixed
    /// boot order. Shared by boot and snapshot restore (a restored VM gets
    /// a fresh bus, and device state only loads once the same topology is
    /// back in place).
    fn register_devices(&mut self, io: &mut hypertap_hvsim::device::IoBus) {
        let disk = io.register(Box::<DiskDevice>::default());
        io.map_pio(0x1f0..0x1f8, disk);
        let nic = io.register(Box::<NicDevice>::default());
        io.map_pio(0x300..0x308, nic);
        let console = io.register(Box::<ConsoleDevice>::default());
        io.map_pio(CONSOLE_PORT..CONSOLE_PORT + 1, console);
        self.disk = Some(disk);
        self.nic = Some(nic);
        self.console = Some(console);
    }

    /// Per-vCPU architectural bring-up (TR, CR3, MSRs, timer).
    fn bring_up_vcpu(&mut self, cpu: &mut CpuCtx<'_>) {
        let v = cpu.vcpu_id();
        cpu.load_task_register(layout::tss_gva(v.0));
        cpu.write_cr3(self.kernel_pd);
        cpu.wrmsr(Msr::SysenterEip, layout::SYSENTER_ENTRY.value());
        cpu.wrmsr(Msr::SysenterEsp, 0);
        cpu.program_apic_timer(self.cfg.tick);
        self.vcpu_online[v.0] = true;
    }

    // ----- allocation helpers ---------------------------------------------------

    fn alloc_ts(&mut self) -> Gva {
        if let Some(g) = self.ts_free.pop() {
            return g;
        }
        let g = self.ts_next;
        self.ts_next = self.ts_next.offset(ts::SIZE);
        g
    }

    fn alloc_kstack(&mut self) -> Gva {
        if let Some(g) = self.kstack_free.pop() {
            return g;
        }
        let g = self.kstack_next;
        self.kstack_next = self.kstack_next.offset(layout::KERNEL_STACK_SIZE);
        g
    }

    fn w(&self, cpu: &mut CpuCtx<'_>, gva: Gva, val: u64) {
        cpu.write_u64_gva(gva, val).expect("kernel address mapped");
    }

    fn r(&self, cpu: &mut CpuCtx<'_>, gva: Gva) -> u64 {
        cpu.read_u64_gva(gva).expect("kernel address mapped")
    }

    /// Serializes a task's `task_struct` into guest memory and links it at
    /// the head of the in-guest task list.
    fn write_and_link_ts(&mut self, cpu: &mut CpuCtx<'_>, slot: usize) {
        let (gva, pid, state, uid, euid, parent_gva, pdba, kstack, comm) = {
            let t = &self.tasks[slot];
            let parent_gva =
                t.ppid.and_then(|p| self.task_by_pid(p)).map(|p| p.ts_gva.value()).unwrap_or(0);
            (
                t.ts_gva,
                t.pid.0,
                t.state.guest_encoding(),
                t.uid,
                t.euid,
                parent_gva,
                t.pdba.map(|p| p.value()).unwrap_or(0),
                t.kstack_top.value(),
                t.comm.clone(),
            )
        };
        self.w(cpu, gva.offset(ts::PID), pid);
        self.w(cpu, gva.offset(ts::STATE), state);
        self.w(cpu, gva.offset(ts::UID), uid);
        self.w(cpu, gva.offset(ts::EUID), euid);
        self.w(cpu, gva.offset(ts::PARENT), parent_gva);
        self.w(cpu, gva.offset(ts::PDBA), pdba);
        self.w(cpu, gva.offset(ts::KSTACK), kstack);
        let mut comm_buf = [0u8; ts::COMM_LEN as usize];
        let n = comm.len().min(ts::COMM_LEN as usize - 1);
        comm_buf[..n].copy_from_slice(&comm.as_bytes()[..n]);
        cpu.write_gva(gva.offset(ts::COMM), &comm_buf).expect("kernel address mapped");
        // Link at head.
        let old_first = self.r(cpu, layout::TASK_LIST_HEAD);
        self.w(cpu, gva.offset(ts::NEXT), old_first);
        self.w(cpu, gva.offset(ts::PREV), 0);
        if old_first != 0 {
            self.w(cpu, Gva::new(old_first).offset(ts::PREV), gva.value());
        }
        self.w(cpu, layout::TASK_LIST_HEAD, gva.value());
    }

    /// Unlinks a `task_struct` from the in-guest list (idempotent: searches
    /// the list, as a rootkit may already have unlinked it).
    fn guest_unlink_ts(&mut self, cpu: &mut CpuCtx<'_>, target: Gva) {
        let mut node = self.r(cpu, layout::TASK_LIST_HEAD);
        let mut hops = 0;
        while node != 0 && hops < 8192 {
            if node == target.value() {
                let next = self.r(cpu, target.offset(ts::NEXT));
                let prev = self.r(cpu, target.offset(ts::PREV));
                if prev == 0 {
                    self.w(cpu, layout::TASK_LIST_HEAD, next);
                } else {
                    self.w(cpu, Gva::new(prev).offset(ts::NEXT), next);
                }
                if next != 0 {
                    self.w(cpu, Gva::new(next).offset(ts::PREV), prev);
                }
                return;
            }
            node = self.r(cpu, Gva::new(node).offset(ts::NEXT));
            hops += 1;
        }
    }

    #[allow(clippy::too_many_arguments)] // internal constructor shared by user tasks and kthreads
    fn new_task_common(
        &mut self,
        cpu: &mut CpuCtx<'_>,
        comm: &str,
        uid: u64,
        ppid: Option<Pid>,
        pdba: Option<Gpa>,
        program: Option<Box<dyn UserProgram>>,
        prog_id: Option<ProgId>,
        kthread_period: Option<Duration>,
        affinity: Option<VcpuId>,
        user_frames: Vec<Gfn>,
    ) -> usize {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        let ts_gva = self.alloc_ts();
        let kstack_base = self.alloc_kstack();
        let kstack_top = kstack_base.offset(layout::KERNEL_STACK_SIZE);
        // thread_info at the stack base points back at the task_struct.
        self.w(cpu, kstack_base.offset(ti::TASK), ts_gva.value());

        let task = Task {
            pid,
            ts_gva,
            comm: comm.to_owned(),
            uid,
            euid: uid,
            ppid,
            state: RunState::Ready,
            pdba,
            kstack_top,
            program,
            prog_id,
            kthread_period,
            exec: ExecContext::User,
            pending_compute: 0,
            last_ret: 0,
            preempt_count: 0,
            saved_if: None,
            affinity,
            slice_left: self.cfg.slice_ticks,
            user_rip: layout::USER_TEXT,
            mailbox: Vec::new(),
            user_frames,
            fds: Vec::new(),
            proc_snapshot: Vec::new(),
            spawned_at: cpu.now(),
            kill_pending: false,
            op_counter: 0,
            user_stack: layout::USER_STACK_TOP,
            pending_child_exits: Vec::new(),
            children_alive: 0,
        };
        self.tasks.push(task);
        let slot = self.tasks.len() - 1;
        if let Some(pp) = ppid {
            if let Some(parent) = self.tasks.iter_mut().find(|t| t.pid == pp) {
                parent.children_alive += 1;
            }
        }
        self.write_and_link_ts(cpu, slot);
        self.stats.spawns += 1;
        slot
    }

    fn create_user_task(
        &mut self,
        cpu: &mut CpuCtx<'_>,
        comm: &str,
        uid: u64,
        ppid: Option<Pid>,
        program: Box<dyn UserProgram>,
        prog_id: Option<ProgId>,
    ) -> usize {
        // Build the process image: fresh page directory sharing the kernel
        // region, one text page, four stack pages.
        let mut falloc = self.falloc.take().expect("booted");
        let vm = cpu.vm_mut();
        let mut asb = AddressSpaceBuilder::new(&mut vm.mem, &mut falloc);
        asb.share_range_from(&mut vm.mem, self.kernel_pd, layout::KERNEL_BASE, layout::KERNEL_END);
        let mut frames = asb.map_fresh_range(&mut vm.mem, &mut falloc, layout::USER_TEXT, 1);
        frames.extend(asb.map_fresh_range(
            &mut vm.mem,
            &mut falloc,
            Gva::new(layout::USER_STACK_TOP.value() - 4 * PAGE_SIZE),
            4,
        ));
        let pdba = asb.pdba();
        self.falloc = Some(falloc);
        self.new_task_common(
            cpu,
            comm,
            uid,
            ppid,
            Some(pdba),
            Some(program),
            prog_id,
            None,
            None,
            frames,
        )
    }

    fn create_kthread(&mut self, cpu: &mut CpuCtx<'_>, comm: &str, affinity: VcpuId) -> usize {
        self.new_task_common(
            cpu,
            comm,
            0,
            None,
            None,
            None,
            None,
            Some(self.cfg.daemon_period),
            Some(affinity),
            Vec::new(),
        )
    }

    /// The program `init` runs when none was registered (must be
    /// deterministic: snapshot restore rebuilds it from here).
    fn fallback_init_program() -> Box<dyn UserProgram> {
        Box::new(crate::program::ScriptProgram::new(
            vec![UserOp::sys(Sysno::Nanosleep, &[3_600_000_000_000])],
            0,
        ))
    }

    // ----- snapshot --------------------------------------------------------------

    /// Serializes the kernel's host-side state. Recipe state — the config,
    /// the program/module registries, the lock-site catalogue, the fault
    /// hook's identity — is not captured; the restore target must be built
    /// from the same recipe.
    ///
    /// # Errors
    ///
    /// Fails with [`SnapError::Unsupported`] when a live task runs a
    /// program that cannot serialize itself (closure-backed [`FnProgram`]s).
    ///
    /// [`FnProgram`]: crate::program::FnProgram
    pub fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.boolean(self.booted);
        w.varint(self.vcpu_online.len() as u64);
        for b in &self.vcpu_online {
            w.boolean(*b);
        }
        w.boolean(self.shutdown);
        match &self.falloc {
            Some(f) => {
                w.boolean(true);
                f.save(w);
            }
            None => w.boolean(false),
        }
        w.varint(self.kernel_pd.value());
        w.varint(self.ts_free.len() as u64);
        for g in &self.ts_free {
            w.varint(g.value());
        }
        w.varint(self.ts_next.value());
        w.varint(self.kstack_free.len() as u64);
        for g in &self.kstack_free {
            w.varint(g.value());
        }
        w.varint(self.kstack_next.value());
        w.varint(self.tasks.len() as u64);
        for t in &self.tasks {
            Self::save_task(t, w)?;
        }
        w.varint(self.next_pid);
        w.varint(self.current.len() as u64);
        for c in &self.current {
            w.opt_varint(c.map(|s| s as u64));
        }
        w.varint(self.runqueue.len() as u64);
        for s in &self.runqueue {
            w.varint(*s as u64);
        }
        self.locks.save(w);
        w.varint(self.fault_hook.activations());
        w.varint(self.leaked_locks.len() as u64);
        for l in &self.leaked_locks {
            w.varint(l.0 as u64);
        }
        w.varint(self.path_counter);
        let mut filters: Vec<u64> = self.pid_filters.iter().copied().collect();
        filters.sort_unstable();
        w.varint(filters.len() as u64);
        for p in filters {
            w.varint(p);
        }
        w.varint(self.user_locks.len() as u64);
        for ul in &self.user_locks {
            w.opt_varint(ul.owner.map(|p| p.0));
            w.varint(ul.waiters.len() as u64);
            for s in &ul.waiters {
                w.varint(*s as u64);
            }
        }
        w.varint(self.stats.context_switches);
        w.varint(self.stats.syscalls);
        w.varint(self.stats.spawns);
        w.varint(self.stats.exits);
        w.varint(self.stats.ticks);
        w.varint(self.stats.idle_halts);
        w.varint(self.last_dispatch.len() as u64);
        for t in &self.last_dispatch {
            w.varint(t.as_nanos());
        }
        w.varint(self.mm_graveyard.len() as u64);
        for g in &self.mm_graveyard {
            w.varint(g.value());
        }
        Ok(())
    }

    /// Restores kernel state saved by [`Kernel::save_state`] into a freshly
    /// built kernel (same config, same registered programs and modules, same
    /// fault hook). Re-registers the boot device topology on `io` when the
    /// snapshot was taken after boot, so the caller can subsequently load
    /// the devices' own state into the bus.
    ///
    /// # Errors
    ///
    /// Returns a structured [`SnapError`] on malformed input; the kernel may
    /// be partially overwritten and must be discarded on error.
    pub fn restore_state(
        &mut self,
        r: &mut SnapReader<'_>,
        io: &mut hypertap_hvsim::device::IoBus,
    ) -> Result<(), SnapError> {
        self.booted = r.boolean()?;
        if self.booted {
            self.register_devices(io);
        }
        let n = r.count(1 << 10, "vcpu count")?;
        if n != self.cfg.vcpus {
            return Err(SnapError::BadValue { offset: r.offset(), what: "vcpu count" });
        }
        self.vcpu_online.clear();
        for _ in 0..n {
            self.vcpu_online.push(r.boolean()?);
        }
        self.shutdown = r.boolean()?;
        self.falloc = if r.boolean()? { Some(FrameAllocator::load(r)?) } else { None };
        self.kernel_pd = Gpa::new(r.varint()?);
        let n = r.count(1 << 24, "free task_struct slots")?;
        self.ts_free = Vec::with_capacity(n);
        for _ in 0..n {
            self.ts_free.push(Gva::new(r.varint()?));
        }
        self.ts_next = Gva::new(r.varint()?);
        let n = r.count(1 << 24, "free kernel stacks")?;
        self.kstack_free = Vec::with_capacity(n);
        for _ in 0..n {
            self.kstack_free.push(Gva::new(r.varint()?));
        }
        self.kstack_next = Gva::new(r.varint()?);
        let n = r.count(1 << 20, "task count")?;
        self.tasks = Vec::with_capacity(n);
        for _ in 0..n {
            let t = self.load_task(r)?;
            self.tasks.push(t);
        }
        self.next_pid = r.varint()?;
        let n = r.count(1 << 10, "current slots")?;
        if n != self.cfg.vcpus {
            return Err(SnapError::BadValue { offset: r.offset(), what: "current slot count" });
        }
        self.current.clear();
        for _ in 0..n {
            self.current.push(r.opt_varint()?.map(|s| s as usize));
        }
        let n = r.count(1 << 20, "runqueue length")?;
        self.runqueue.clear();
        for _ in 0..n {
            self.runqueue.push_back(r.varint()? as usize);
        }
        self.locks.load(r)?;
        let activations = r.varint()?;
        self.fault_hook.restore_activations(activations);
        let n = r.count(1 << 16, "leaked locks")?;
        self.leaked_locks = Vec::with_capacity(n);
        for _ in 0..n {
            self.leaked_locks.push(LockId(r.varint()? as u32));
        }
        self.path_counter = r.varint()?;
        let n = r.count(1 << 20, "pid filters")?;
        self.pid_filters = HashSet::with_capacity(n);
        for _ in 0..n {
            self.pid_filters.insert(r.varint()?);
        }
        let n = r.count(1 << 16, "user locks")?;
        self.user_locks = Vec::with_capacity(n);
        for _ in 0..n {
            let owner = r.opt_varint()?.map(Pid);
            let wn = r.count(1 << 20, "user lock waiters")?;
            let mut waiters = VecDeque::with_capacity(wn);
            for _ in 0..wn {
                waiters.push_back(r.varint()? as usize);
            }
            self.user_locks.push(UserLockState { owner, waiters });
        }
        self.stats.context_switches = r.varint()?;
        self.stats.syscalls = r.varint()?;
        self.stats.spawns = r.varint()?;
        self.stats.exits = r.varint()?;
        self.stats.ticks = r.varint()?;
        self.stats.idle_halts = r.varint()?;
        let n = r.count(1 << 10, "dispatch timestamps")?;
        if n != self.cfg.vcpus {
            return Err(SnapError::BadValue { offset: r.offset(), what: "dispatch count" });
        }
        self.last_dispatch.clear();
        for _ in 0..n {
            self.last_dispatch.push(SimTime::from_nanos(r.varint()?));
        }
        let n = r.count(1 << 20, "mm graveyard")?;
        self.mm_graveyard = Vec::with_capacity(n);
        for _ in 0..n {
            self.mm_graveyard.push(Gpa::new(r.varint()?));
        }
        Ok(())
    }

    fn save_task(t: &Task, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.varint(t.pid.0);
        w.varint(t.ts_gva.value());
        w.string(&t.comm);
        w.varint(t.uid);
        w.varint(t.euid);
        w.opt_varint(t.ppid.map(|p| p.0));
        t.state.save(w);
        w.opt_varint(t.pdba.map(|p| p.value()));
        w.varint(t.kstack_top.value());
        match &t.program {
            Some(p) => {
                let state = p.save_state().ok_or_else(|| SnapError::Unsupported {
                    what: format!("program of task '{}' ({}) cannot be snapshotted", t.comm, t.pid),
                })?;
                w.boolean(true);
                w.opt_varint(t.prog_id.map(|p| p.0));
                w.bytes(&state);
            }
            None => w.boolean(false),
        }
        w.opt_varint(t.kthread_period.map(|d| d.as_nanos()));
        match &t.exec {
            ExecContext::User => w.byte(0),
            ExecContext::Kernel(e) => {
                w.byte(1);
                e.save(w);
            }
        }
        w.varint(t.pending_compute);
        w.varint(t.last_ret);
        w.varint(t.preempt_count as u64);
        w.byte(match t.saved_if {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        });
        w.opt_varint(t.affinity.map(|v| v.0 as u64));
        w.varint(t.slice_left as u64);
        w.varint(t.user_rip.value());
        w.varint(t.mailbox.len() as u64);
        for e in &t.mailbox {
            w.varint(e.time.as_nanos());
            w.string(&e.tag);
            w.string(&e.detail);
        }
        w.varint(t.user_frames.len() as u64);
        for g in &t.user_frames {
            w.varint(g.value());
        }
        w.varint(t.fds.len() as u64);
        for fd in &t.fds {
            match fd {
                Some((file, off)) => {
                    w.boolean(true);
                    w.varint(*file as u64);
                    w.varint(*off);
                }
                None => w.boolean(false),
            }
        }
        w.varint(t.proc_snapshot.len() as u64);
        for p in &t.proc_snapshot {
            w.varint(p.pid);
            w.varint(p.uid);
            w.varint(p.euid);
            w.varint(p.ppid);
            w.varint(p.parent_uid);
            w.string(&p.comm);
        }
        w.varint(t.spawned_at.as_nanos());
        w.boolean(t.kill_pending);
        w.varint(t.op_counter);
        w.varint(t.user_stack.value());
        w.varint(t.pending_child_exits.len() as u64);
        for p in &t.pending_child_exits {
            w.varint(*p);
        }
        w.varint(t.children_alive as u64);
        Ok(())
    }

    fn load_task(&mut self, r: &mut SnapReader<'_>) -> Result<Task, SnapError> {
        let pid = Pid(r.varint()?);
        let ts_gva = Gva::new(r.varint()?);
        let comm = r.string()?.to_owned();
        let uid = r.varint()?;
        let euid = r.varint()?;
        let ppid = r.opt_varint()?.map(Pid);
        let state = RunState::load(r)?;
        let pdba = r.opt_varint()?.map(Gpa::new);
        let kstack_top = Gva::new(r.varint()?);
        let (program, prog_id) = if r.boolean()? {
            let prog_id = r.opt_varint()?.map(ProgId);
            let state = r.bytes()?.to_vec();
            let mut program: Box<dyn UserProgram> = match prog_id {
                Some(p) => {
                    let reg = self.programs.get_mut(p.0 as usize).ok_or_else(|| {
                        SnapError::Unsupported {
                            what: format!("task '{comm}' references unregistered program {}", p.0),
                        }
                    })?;
                    (reg.factory)()
                }
                // `None` with a program present is the fallback init.
                None => Self::fallback_init_program(),
            };
            program.load_state(&state).map_err(|e| SnapError::Unsupported {
                what: format!("restoring program of task '{comm}': {e}"),
            })?;
            (Some(program), prog_id)
        } else {
            (None, None)
        };
        let kthread_period = r.opt_varint()?.map(Duration::from_nanos);
        let start = r.offset();
        let exec = match r.byte()? {
            0 => ExecContext::User,
            1 => ExecContext::Kernel(KernelExec::load(r)?),
            tag => return Err(SnapError::BadTag { offset: start, tag }),
        };
        let pending_compute = r.varint()?;
        let last_ret = r.varint()?;
        let preempt_count = r.varint()? as u32;
        let start = r.offset();
        let saved_if = match r.byte()? {
            0 => None,
            1 => Some(false),
            2 => Some(true),
            tag => return Err(SnapError::BadTag { offset: start, tag }),
        };
        let affinity = r.opt_varint()?.map(|v| VcpuId(v as usize));
        let slice_left = r.varint()? as u32;
        let user_rip = Gva::new(r.varint()?);
        let n = r.count(1 << 20, "mailbox length")?;
        let mut mailbox = Vec::with_capacity(n);
        for _ in 0..n {
            let time = SimTime::from_nanos(r.varint()?);
            let tag = r.string()?.to_owned();
            let detail = r.string()?.to_owned();
            mailbox.push(UserEvent { time, tag, detail });
        }
        let n = r.count(1 << 24, "user frames")?;
        let mut user_frames = Vec::with_capacity(n);
        for _ in 0..n {
            user_frames.push(Gfn::new(r.varint()?));
        }
        let n = r.count(1 << 16, "fd table size")?;
        let mut fds = Vec::with_capacity(n);
        for _ in 0..n {
            fds.push(if r.boolean()? {
                let file = r.varint()? as u32;
                let off = r.varint()?;
                Some((file, off))
            } else {
                None
            });
        }
        let n = r.count(1 << 20, "proc snapshot")?;
        let mut proc_snapshot = Vec::with_capacity(n);
        for _ in 0..n {
            proc_snapshot.push(ProcEntry {
                pid: r.varint()?,
                uid: r.varint()?,
                euid: r.varint()?,
                ppid: r.varint()?,
                parent_uid: r.varint()?,
                comm: r.string()?.to_owned(),
            });
        }
        let spawned_at = SimTime::from_nanos(r.varint()?);
        let kill_pending = r.boolean()?;
        let op_counter = r.varint()?;
        let user_stack = Gva::new(r.varint()?);
        let n = r.count(1 << 20, "pending child exits")?;
        let mut pending_child_exits = Vec::with_capacity(n);
        for _ in 0..n {
            pending_child_exits.push(r.varint()?);
        }
        let children_alive = r.varint()? as u32;
        Ok(Task {
            pid,
            ts_gva,
            comm,
            uid,
            euid,
            ppid,
            state,
            pdba,
            kstack_top,
            program,
            prog_id,
            kthread_period,
            exec,
            pending_compute,
            last_ret,
            preempt_count,
            saved_if,
            affinity,
            slice_left,
            user_rip,
            mailbox,
            user_frames,
            fds,
            proc_snapshot,
            spawned_at,
            kill_pending,
            op_counter,
            user_stack,
            pending_child_exits,
            children_alive,
        })
    }

    // ----- scheduler -------------------------------------------------------------

    fn pick_next(&mut self, v: VcpuId) -> Option<usize> {
        let pos = self.runqueue.iter().position(|&slot| match self.tasks[slot].affinity {
            Some(a) => a == v,
            None => true,
        })?;
        self.runqueue.remove(pos)
    }

    /// Performs the architectural context switch to `slot` on the current
    /// vCPU: `TSS.RSP0` write (thread identity), `SYSENTER_ESP` update, and
    /// a CR3 load when the address space changes. Kernel threads keep the
    /// previous address space (the paper's footnote 3).
    fn dispatch(&mut self, cpu: &mut CpuCtx<'_>, slot: usize) {
        let v = cpu.vcpu_id();
        let kstack_top = self.tasks[slot].kstack_top;
        let tss = layout::tss_gva(v.0);
        cpu.write_u64_gva(tss.offset(TSS_RSP0_OFFSET), kstack_top.value()).expect("TSS mapped");
        cpu.wrmsr(Msr::SysenterEsp, kstack_top.value());
        if let Some(pdba) = self.tasks[slot].pdba {
            if cpu.cr3() != pdba {
                cpu.write_cr3(pdba);
            }
        }
        self.current[v.0] = Some(slot);
        self.tasks[slot].slice_left = self.cfg.slice_ticks;
        self.stats.context_switches += 1;
        self.reap_mm_graveyard(cpu);
        self.last_dispatch[v.0] = cpu.now();
        cpu.advance(Duration::from_nanos(1_200)); // direct switch cost
    }

    /// Destroys parked page directories once no vCPU references them.
    fn reap_mm_graveyard(&mut self, cpu: &mut CpuCtx<'_>) {
        if self.mm_graveyard.is_empty() {
            return;
        }
        let mut falloc = self.falloc.take().expect("booted");
        let kernel_pd = self.kernel_pd;
        let vm = cpu.vm_mut();
        let mut keep = Vec::new();
        for pdba in std::mem::take(&mut self.mm_graveyard) {
            let in_use = (0..vm.vcpu_count()).any(|v| vm.vcpu(VcpuId(v)).cr3() == pdba);
            if in_use {
                keep.push(pdba);
            } else {
                AddressSpaceBuilder::from_pdba(pdba).destroy(
                    &mut vm.mem,
                    &mut falloc,
                    Some(kernel_pd),
                );
            }
        }
        self.mm_graveyard = keep;
        self.falloc = Some(falloc);
    }

    fn can_preempt(&self, slot: usize) -> bool {
        let t = &self.tasks[slot];
        if t.preempt_count > 0 {
            return false;
        }
        match (&t.exec, t.state) {
            (_, RunState::Spinning(site_idx)) => {
                self.cfg.preemptible && !self.locks.site(site_idx).nonpreempt
            }
            (ExecContext::User, _) => true,
            (ExecContext::Kernel(_), _) => self.cfg.preemptible,
        }
    }

    fn handle_irq(&mut self, cpu: &mut CpuCtx<'_>, vector: u8) {
        match vector {
            TIMER_VECTOR => self.on_tick(cpu),
            NIC_IRQ_VECTOR => {
                // Wake every task blocked on network I/O.
                for slot in 0..self.tasks.len() {
                    if matches!(self.tasks[slot].state, RunState::WaitingIo) {
                        self.tasks[slot].state = RunState::Ready;
                        if let ExecContext::Kernel(exec) = &mut self.tasks[slot].exec {
                            exec.pc = 0;
                            exec.io_progress = 0;
                            exec.applied = false;
                        }
                        self.runqueue.push_back(slot);
                    }
                }
            }
            _ => {}
        }
        cpu.apic_eoi();
    }

    fn on_tick(&mut self, cpu: &mut CpuCtx<'_>) {
        let v = cpu.vcpu_id();
        let now = cpu.now();
        self.stats.ticks += 1;
        // Wake sleepers (including kernel daemons).
        for slot in 0..self.tasks.len() {
            if let RunState::Sleeping(due) = self.tasks[slot].state {
                if due <= now {
                    self.wake_sleeper(slot, now);
                }
            }
        }
        // Slice accounting + preemption.
        if let Some(slot) = self.current[v.0] {
            let t = &mut self.tasks[slot];
            t.slice_left = t.slice_left.saturating_sub(1);
            let expired = t.slice_left == 0;
            let someone_waiting = !self.runqueue.is_empty();
            if expired && someone_waiting && self.can_preempt(slot) {
                self.tasks[slot].slice_left = self.cfg.slice_ticks;
                self.runqueue.push_back(slot);
                self.current[v.0] = None;
            }
        }
    }

    fn wake_sleeper(&mut self, slot: usize, now: SimTime) {
        let is_kthread = self.tasks[slot].kthread_period.is_some();
        self.tasks[slot].state = RunState::Ready;
        if is_kthread {
            // Give the daemon its periodic body.
            self.start_kernel_exec(slot, None);
        } else if matches!(self.tasks[slot].exec, ExecContext::Kernel(_)) {
            // A syscall (e.g. nanosleep) completed its wait; it will finish
            // its return-to-user on next dispatch.
        }
        let _ = now;
        self.runqueue.push_back(slot);
    }

    // ----- the main step ------------------------------------------------------------

    fn run_current(&mut self, cpu: &mut CpuCtx<'_>) -> StepOutcome {
        let v = cpu.vcpu_id();
        let slot = match self.current[v.0] {
            Some(slot) => {
                // Dead or blocked tasks vacate the CPU.
                if !matches!(self.tasks[slot].state, RunState::Ready | RunState::Spinning(_)) {
                    self.current[v.0] = None;
                    return StepOutcome::Continue;
                }
                slot
            }
            None => match self.pick_next(v) {
                Some(slot) => {
                    self.dispatch(cpu, slot);
                    return StepOutcome::Continue;
                }
                None => {
                    self.stats.idle_halts += 1;
                    cpu.hlt();
                    return StepOutcome::Continue;
                }
            },
        };

        if let RunState::Spinning(site_idx) = self.tasks[slot].state {
            self.spin_step(cpu, slot, site_idx);
            return StepOutcome::Continue;
        }

        match &self.tasks[slot].exec {
            ExecContext::Kernel(_) => self.kernel_step(cpu, slot),
            ExecContext::User => self.user_step(cpu, slot),
        }
    }

    fn user_step(&mut self, cpu: &mut CpuCtx<'_>, slot: usize) -> StepOutcome {
        if self.tasks[slot].kill_pending {
            self.do_exit(cpu, slot, u64::MAX);
            return StepOutcome::Continue;
        }
        if self.tasks[slot].pending_compute > 0 {
            let chunk = self.tasks[slot].pending_compute.min(self.cfg.compute_chunk_ns);
            cpu.compute(chunk);
            self.tasks[slot].pending_compute -= chunk;
            return StepOutcome::Continue;
        }
        // Ask the program for its next operation.
        let mut prog = match self.tasks[slot].program.take() {
            Some(p) => p,
            None => {
                // Kernel thread between bursts: it sleeps in wake_sleeper.
                self.tasks[slot].state = RunState::Sleeping(
                    cpu.now()
                        + self.tasks[slot].kthread_period.unwrap_or(Duration::from_secs(3600)),
                );
                self.current[cpu.vcpu_id().0] = None;
                return StepOutcome::Continue;
            }
        };
        let op = {
            let t = &self.tasks[slot];
            let view = UserView {
                last_ret: t.last_ret,
                now: cpu.now(),
                pid: t.pid.0,
                uid: t.uid,
                euid: t.euid,
                procs: &t.proc_snapshot,
            };
            prog.next_op(&view)
        };
        self.tasks[slot].program = Some(prog);
        self.tasks[slot].op_counter += 1;
        let rip = layout::USER_TEXT.offset((self.tasks[slot].op_counter % 256) * 16);
        self.tasks[slot].user_rip = rip;
        cpu.set_rip(rip);

        match op {
            UserOp::Compute(n) => {
                // Asking for the op charges no time, so the first chunk
                // folds into this step (DESIGN.md, "Hot path & caching").
                #[cfg(test)]
                if self.two_step_compute {
                    self.tasks[slot].pending_compute = n;
                    return StepOutcome::Continue;
                }
                let chunk = n.min(self.cfg.compute_chunk_ns);
                cpu.compute(chunk);
                self.tasks[slot].pending_compute = n - chunk;
            }
            UserOp::Emit(tag, detail) => {
                cpu.compute(200);
                let now = cpu.now();
                self.tasks[slot].mailbox.push(UserEvent { time: now, tag, detail });
            }
            UserOp::Syscall(nr, args) => {
                self.enter_syscall(cpu, slot, nr, args);
            }
            UserOp::Exit(code) => {
                self.do_exit(cpu, slot, code);
            }
        }
        StepOutcome::Continue
    }

    fn enter_syscall(&mut self, cpu: &mut CpuCtx<'_>, slot: usize, nr: Sysno, args: [u64; 5]) {
        self.stats.syscalls += 1;
        cpu.set_gpr(Gpr::Rax, nr.raw());
        cpu.set_gpr(Gpr::Rbx, args[0]);
        cpu.set_gpr(Gpr::Rcx, args[1]);
        cpu.set_gpr(Gpr::Rdx, args[2]);
        cpu.set_gpr(Gpr::Rsi, args[3]);
        cpu.set_gpr(Gpr::Rdi, args[4]);
        let entered = match self.cfg.gate {
            SyscallGateKind::Sysenter => cpu.sysenter().is_ok(),
            SyscallGateKind::Int80 => cpu.int_n(0x80).is_ok(),
        };
        if !entered {
            // Gate misconfigured — treat as a crashed process.
            self.do_exit(cpu, slot, u64::MAX);
            return;
        }
        self.start_kernel_exec(slot, Some((nr, args)));
    }

    /// Puts `slot` into a new kernel execution: the path of `syscall`, or a
    /// daemon burst for `None`. Reuses a spare execution's buffers.
    fn start_kernel_exec(&mut self, slot: usize, syscall: Option<(Sysno, [u64; 5])>) {
        self.path_counter += 1;
        let mut exec = match self.spare_execs.pop() {
            Some(spare) => spare.reuse(syscall),
            None => KernelExec::new(syscall, Vec::new()),
        };
        match syscall {
            Some((nr, args)) => kpath::syscall_path(
                nr,
                args,
                self.path_counter,
                self.cfg.syscall_base_ns,
                &mut exec.steps,
            ),
            None => kpath::kthread_path(self.path_counter, &mut exec.steps),
        }
        self.set_exec(slot, ExecContext::Kernel(exec));
    }

    /// Replaces `slot`'s execution context, keeping a finished kernel
    /// execution's buffers for reuse.
    fn set_exec(&mut self, slot: usize, exec: ExecContext) {
        let old = std::mem::replace(&mut self.tasks[slot].exec, exec);
        if let ExecContext::Kernel(e) = old {
            if self.spare_execs.len() < MAX_SPARE_EXECS {
                self.spare_execs.push(e);
            }
        }
    }

    fn kernel_step(&mut self, cpu: &mut CpuCtx<'_>, slot: usize) -> StepOutcome {
        let finished = match &self.tasks[slot].exec {
            ExecContext::Kernel(e) => e.finished(),
            ExecContext::User => unreachable!("kernel_step on user context"),
        };
        if finished {
            self.finish_kernel(cpu, slot);
            return StepOutcome::Continue;
        }
        let step = match &self.tasks[slot].exec {
            ExecContext::Kernel(e) => e.steps[e.pc],
            ExecContext::User => unreachable!(),
        };
        match step {
            PathStep::Work(ns) => {
                cpu.compute(ns);
                self.advance_pc(slot);
            }
            PathStep::DiskIo { bytes, write } => {
                let sectors = bytes.div_ceil(SECTOR_SIZE).max(1);
                let mut burst = 0;
                loop {
                    let progress = match &self.tasks[slot].exec {
                        ExecContext::Kernel(e) => e.io_progress,
                        ExecContext::User => unreachable!(),
                    };
                    if progress >= sectors || burst >= 8 {
                        break;
                    }
                    if write {
                        cpu.pio_out(DISK_PORT_DATA, SECTOR_SIZE);
                    } else {
                        let _ = cpu.pio_in(DISK_PORT_DATA);
                    }
                    if let ExecContext::Kernel(e) = &mut self.tasks[slot].exec {
                        e.io_progress += 1;
                    }
                    burst += 1;
                }
                let progress = match &self.tasks[slot].exec {
                    ExecContext::Kernel(e) => e.io_progress,
                    ExecContext::User => unreachable!(),
                };
                if progress >= sectors {
                    if let ExecContext::Kernel(e) = &mut self.tasks[slot].exec {
                        e.io_progress = 0;
                    }
                    self.advance_pc(slot);
                }
            }
            PathStep::NicIo { bytes, write } => {
                if write {
                    cpu.pio_out(NIC_PORT_DATA, bytes);
                } else {
                    let got = cpu.pio_in(NIC_PORT_DATA);
                    if let ExecContext::Kernel(e) = &mut self.tasks[slot].exec {
                        e.ret = got;
                    }
                }
                self.advance_pc(slot);
            }
            PathStep::Lock(site_idx) => {
                self.lock_step(cpu, slot, site_idx);
            }
            PathStep::Unlock(site_idx) => {
                self.unlock_step(cpu, slot, site_idx);
            }
        }
        StepOutcome::Continue
    }

    fn advance_pc(&mut self, slot: usize) {
        if let ExecContext::Kernel(e) = &mut self.tasks[slot].exec {
            e.pc += 1;
        }
    }

    fn lock_step(&mut self, cpu: &mut CpuCtx<'_>, slot: usize, site_idx: usize) {
        let pid = self.tasks[slot].pid;
        let site = self.locks.site(site_idx).clone();
        let fault = self.fault_hook.check(site.id, true);
        if let Some(f) = fault {
            self.fault_activations.push(FaultActivation {
                site: site.id,
                fault: f,
                acquire: true,
                time_ns: cpu.now().as_nanos(),
            });
        }
        match fault {
            Some(FaultType::MissingUnlockLockPair) => {
                // Believe the lock is held without acquiring it: the later
                // release will corrupt whoever actually holds it.
                if let ExecContext::Kernel(e) = &mut self.tasks[slot].exec {
                    e.held.push(site_idx);
                }
                self.acquired_side_effects(cpu, slot, &site);
                self.advance_pc(slot);
                return;
            }
            Some(FaultType::WrongOrder) => {
                let partner = kpath::wrong_order_partner(&self.locks, &site);
                let already = match &self.tasks[slot].exec {
                    ExecContext::Kernel(e) => e.extra_locks.contains(&partner),
                    ExecContext::User => false,
                };
                if !already {
                    if self.locks.try_acquire(partner, pid) {
                        if let ExecContext::Kernel(e) = &mut self.tasks[slot].exec {
                            e.extra_locks.push(partner);
                        }
                        // Fall through to acquire the site lock normally.
                    } else {
                        if let ExecContext::Kernel(e) = &mut self.tasks[slot].exec {
                            e.spin_partner = Some(partner);
                        }
                        self.tasks[slot].state = RunState::Spinning(site_idx);
                        return;
                    }
                }
            }
            _ => {}
        }
        if self.locks.try_acquire(site.lock, pid) {
            if let ExecContext::Kernel(e) = &mut self.tasks[slot].exec {
                e.held.push(site_idx);
            }
            self.acquired_side_effects(cpu, slot, &site);
            self.advance_pc(slot);
        } else {
            self.tasks[slot].state = RunState::Spinning(site_idx);
        }
    }

    fn acquired_side_effects(
        &mut self,
        cpu: &mut CpuCtx<'_>,
        slot: usize,
        site: &crate::klocks::LockSite,
    ) {
        self.tasks[slot].preempt_count += 1;
        if site.irqsave {
            self.tasks[slot].saved_if = Some(cpu.interrupts_enabled());
            cpu.set_interrupts_enabled(false);
        }
        cpu.advance(Duration::from_nanos(60)); // lock acquisition cost
    }

    fn spin_step(&mut self, cpu: &mut CpuCtx<'_>, slot: usize, site_idx: usize) {
        let pid = self.tasks[slot].pid;
        let partner = match &self.tasks[slot].exec {
            ExecContext::Kernel(e) => e.spin_partner,
            ExecContext::User => None,
        };
        let target = partner.unwrap_or_else(|| self.locks.site(site_idx).lock);
        if self.locks.try_acquire(target, pid) {
            if let Some(p) = partner {
                if let ExecContext::Kernel(e) = &mut self.tasks[slot].exec {
                    e.extra_locks.push(p);
                    e.spin_partner = None;
                }
                // The Lock step re-executes next and takes the site lock.
            } else {
                let site = self.locks.site(site_idx).clone();
                if let ExecContext::Kernel(e) = &mut self.tasks[slot].exec {
                    e.held.push(site_idx);
                }
                self.acquired_side_effects(cpu, slot, &site);
                self.advance_pc(slot);
            }
            self.tasks[slot].state = RunState::Ready;
        } else {
            cpu.compute(self.cfg.spin_chunk_ns);
        }
    }

    fn unlock_step(&mut self, cpu: &mut CpuCtx<'_>, slot: usize, site_idx: usize) {
        let pid = self.tasks[slot].pid;
        let site = self.locks.site(site_idx).clone();
        let fault = self.fault_hook.check(site.id, false);
        if let Some(f) = fault {
            self.fault_activations.push(FaultActivation {
                site: site.id,
                fault: f,
                acquire: false,
                time_ns: cpu.now().as_nanos(),
            });
        }
        if let ExecContext::Kernel(e) = &mut self.tasks[slot].exec {
            if let Some(pos) = e.held.iter().rposition(|&h| h == site_idx) {
                e.held.remove(pos);
            }
        }
        self.tasks[slot].preempt_count = self.tasks[slot].preempt_count.saturating_sub(1);
        match fault {
            Some(FaultType::MissingUnlock) => {
                // The lock is never released again.
                self.leaked_locks.push(site.lock);
                self.restore_irq_state(cpu, slot, &site);
            }
            Some(FaultType::MissingIrqRestore) if site.irqsave => {
                self.locks.release(site.lock, pid);
                // Interrupts stay off on this vCPU: the tick is dead.
                self.tasks[slot].saved_if = None;
            }
            _ => {
                self.locks.release(site.lock, pid);
                self.restore_irq_state(cpu, slot, &site);
            }
        }
        cpu.advance(Duration::from_nanos(40));
        self.advance_pc(slot);
    }

    fn restore_irq_state(
        &mut self,
        cpu: &mut CpuCtx<'_>,
        slot: usize,
        site: &crate::klocks::LockSite,
    ) {
        if site.irqsave {
            if let Some(saved) = self.tasks[slot].saved_if.take() {
                cpu.set_interrupts_enabled(saved);
            }
        }
    }

    /// Runs after a kernel path finished: applies the syscall's semantics
    /// and returns to user mode (or puts a kernel thread back to sleep).
    fn finish_kernel(&mut self, cpu: &mut CpuCtx<'_>, slot: usize) {
        // Release any wrong-order partner locks.
        let pid = self.tasks[slot].pid;
        if let ExecContext::Kernel(e) = &mut self.tasks[slot].exec {
            for l in e.extra_locks.drain(..) {
                self.locks.release(l, pid);
            }
        }

        let syscall = match &self.tasks[slot].exec {
            ExecContext::Kernel(e) => e.syscall,
            ExecContext::User => None,
        };
        match syscall {
            None => {
                // Kernel-thread burst done: sleep until the next period.
                let period = self.tasks[slot].kthread_period.unwrap_or(Duration::from_secs(3600));
                self.set_exec(slot, ExecContext::User);
                self.tasks[slot].state = RunState::Sleeping(cpu.now() + period);
                self.current[cpu.vcpu_id().0] = None;
            }
            Some((nr, args)) => {
                let already_applied = match &self.tasks[slot].exec {
                    ExecContext::Kernel(e) => e.applied,
                    ExecContext::User => true,
                };
                if !already_applied {
                    if let ExecContext::Kernel(e) = &mut self.tasks[slot].exec {
                        e.applied = true;
                    }
                    let blocked = self.apply_syscall(cpu, slot, nr, args);
                    if blocked
                        || matches!(self.tasks[slot].state, RunState::Zombie | RunState::Dead)
                    {
                        self.current[cpu.vcpu_id().0] = None;
                        return;
                    }
                }
                // Return to user mode.
                let ret = match &self.tasks[slot].exec {
                    ExecContext::Kernel(e) => e.ret,
                    ExecContext::User => 0,
                };
                self.tasks[slot].last_ret = ret;
                self.set_exec(slot, ExecContext::User);
                let user_rsp = self.tasks[slot].user_stack;
                match self.cfg.gate {
                    SyscallGateKind::Sysenter => cpu.sysexit(user_rsp),
                    SyscallGateKind::Int80 => cpu.iret(user_rsp),
                }
                if self.tasks[slot].kill_pending {
                    self.do_exit(cpu, slot, u64::MAX);
                }
            }
        }
    }

    fn set_ret(&mut self, slot: usize, val: u64) {
        if let ExecContext::Kernel(e) = &mut self.tasks[slot].exec {
            e.ret = val;
        }
    }

    /// Applies a completed syscall's semantics. Returns true if the task
    /// blocked (no return-to-user yet).
    fn apply_syscall(
        &mut self,
        cpu: &mut CpuCtx<'_>,
        slot: usize,
        nr: Sysno,
        args: [u64; 5],
    ) -> bool {
        match nr {
            Sysno::Exit => {
                self.do_exit(cpu, slot, args[0]);
            }
            Sysno::Getpid => {
                let pid = self.tasks[slot].pid.0;
                self.set_ret(slot, pid);
            }
            Sysno::Getuid => {
                let v = self.tasks[slot].uid;
                self.set_ret(slot, v);
            }
            Sysno::Geteuid => {
                let v = self.tasks[slot].euid;
                self.set_ret(slot, v);
            }
            Sysno::Setuid => {
                if self.tasks[slot].euid == 0 {
                    self.tasks[slot].uid = args[0];
                    self.tasks[slot].euid = args[0];
                    let gva = self.tasks[slot].ts_gva;
                    self.w(cpu, gva.offset(ts::UID), args[0]);
                    self.w(cpu, gva.offset(ts::EUID), args[0]);
                    self.set_ret(slot, 0);
                } else {
                    self.set_ret(slot, u64::MAX);
                }
            }
            Sysno::VulnEscalate => {
                // The planted kernel bug: no credential check at all.
                self.tasks[slot].euid = 0;
                let gva = self.tasks[slot].ts_gva;
                self.w(cpu, gva.offset(ts::EUID), 0);
                self.set_ret(slot, 0);
            }
            Sysno::Open => {
                let fd = self.tasks[slot].fds.len() as u64;
                self.tasks[slot].fds.push(Some((args[0] as u32, 0)));
                self.set_ret(slot, fd);
            }
            Sysno::Close => {
                let fd = args[0] as usize;
                if let Some(e) = self.tasks[slot].fds.get_mut(fd) {
                    *e = None;
                }
                self.set_ret(slot, 0);
            }
            Sysno::Read | Sysno::Write => {
                let fd = args[0] as usize;
                let len = args[1];
                if let Some(Some((_, off))) = self.tasks[slot].fds.get_mut(fd) {
                    *off += len;
                }
                self.set_ret(slot, len);
            }
            Sysno::Lseek => {
                let fd = args[0] as usize;
                if let Some(Some((_, off))) = self.tasks[slot].fds.get_mut(fd) {
                    *off = args[1];
                }
                self.set_ret(slot, args[1]);
            }
            Sysno::Nanosleep => {
                self.set_ret(slot, 0);
                if args[0] == 0 {
                    // sched_yield: go to the back of the runqueue.
                    self.tasks[slot].state = RunState::Ready;
                    self.runqueue.push_back(slot);
                    return true;
                }
                let due = cpu.now() + Duration::from_nanos(args[0]);
                self.tasks[slot].state = RunState::Sleeping(due);
                return true;
            }
            Sysno::Waitpid => {
                if let Some(childpid) = self.tasks[slot].pending_child_exits.pop() {
                    self.set_ret(slot, childpid);
                } else if self.tasks[slot].children_alive > 0 {
                    self.tasks[slot].state = RunState::WaitingChild;
                    return true;
                } else {
                    self.set_ret(slot, 0);
                }
            }
            Sysno::Kill => {
                let target = Pid(args[0]);
                let ok = self.kill_task(cpu, target);
                self.set_ret(slot, if ok { 0 } else { u64::MAX });
            }
            Sysno::Spawn => {
                let prog_idx = args[0] as usize;
                if prog_idx >= self.programs.len() {
                    self.set_ret(slot, u64::MAX);
                } else {
                    let uid = if args[1] == u64::MAX { self.tasks[slot].uid } else { args[1] };
                    let name = self.programs[prog_idx].name.clone();
                    let prog = (self.programs[prog_idx].factory)();
                    let ppid = self.tasks[slot].pid;
                    let child = self.create_user_task(
                        cpu,
                        &name,
                        uid,
                        Some(ppid),
                        prog,
                        Some(ProgId(prog_idx as u64)),
                    );
                    self.runqueue.push_back(child);
                    let child_pid = self.tasks[child].pid.0;
                    self.set_ret(slot, child_pid);
                }
            }
            Sysno::InstallModule => {
                if self.tasks[slot].euid != 0 {
                    self.set_ret(slot, u64::MAX);
                } else {
                    let ok = self.install_module(cpu, args[0], Pid(args[1]));
                    self.set_ret(slot, if ok { 0 } else { u64::MAX });
                }
            }
            Sysno::ListProcs => {
                let entries = self.walk_guest_proc_list(cpu);
                let n = entries.len() as u64;
                self.tasks[slot].proc_snapshot = entries;
                self.set_ret(slot, n);
            }
            Sysno::ReadProcStat => {
                let v = self.read_proc_stat(cpu, Pid(args[0]));
                self.set_ret(slot, v);
            }
            Sysno::UserLock => {
                let id = args[0] as usize;
                while self.user_locks.len() <= id {
                    self.user_locks.push(UserLockState::default());
                }
                let pid = self.tasks[slot].pid;
                let l = &mut self.user_locks[id];
                if l.owner.is_none() {
                    l.owner = Some(pid);
                    self.set_ret(slot, 0);
                } else {
                    l.waiters.push_back(slot);
                    self.tasks[slot].state = RunState::WaitingUserLock(id as u32);
                    return true;
                }
            }
            Sysno::UserUnlock => {
                let id = args[0] as usize;
                if let Some(l) = self.user_locks.get_mut(id) {
                    l.owner = None;
                    if let Some(w) = l.waiters.pop_front() {
                        l.owner = Some(self.tasks[w].pid);
                        self.tasks[w].state = RunState::Ready;
                        self.set_ret(w, 0);
                        self.runqueue.push_back(w);
                    }
                }
                self.set_ret(slot, 0);
            }
            Sysno::Pipe => {
                self.set_ret(slot, 1);
            }
            Sysno::NetRecv => {
                let got = match &self.tasks[slot].exec {
                    ExecContext::Kernel(e) => e.ret,
                    ExecContext::User => 0,
                };
                if got == 0 {
                    // Nothing pending: block until the NIC interrupt.
                    self.tasks[slot].state = RunState::WaitingIo;
                    return true;
                }
            }
            Sysno::NetSend => {
                self.set_ret(slot, args[0]);
            }
            Sysno::ConsolePutc => {
                cpu.pio_out(CONSOLE_PORT, args[0]);
                self.set_ret(slot, 0);
            }
            Sysno::Reboot => {
                self.shutdown = true;
            }
        }
        false
    }

    fn kill_task(&mut self, cpu: &mut CpuCtx<'_>, target: Pid) -> bool {
        let Some(slot) = self
            .tasks
            .iter()
            .position(|t| t.pid == target && !matches!(t.state, RunState::Dead | RunState::Zombie))
        else {
            return false;
        };
        let running_elsewhere =
            self.current.iter().enumerate().any(|(v, c)| *c == Some(slot) && v != cpu.vcpu_id().0);
        if running_elsewhere {
            self.tasks[slot].kill_pending = true;
        } else {
            // Remove from queues and finish it now.
            self.runqueue.retain(|&s| s != slot);
            self.do_exit(cpu, slot, u64::MAX);
        }
        true
    }

    fn do_exit(&mut self, cpu: &mut CpuCtx<'_>, slot: usize, _code: u64) {
        let pid = self.tasks[slot].pid;
        self.stats.exits += 1;
        // Locks held by the dying task are released at the kernel boundary —
        // except those leaked by an injected fault.
        let leaked = self.leaked_locks.clone();
        self.locks.release_all_owned(pid, &leaked);
        // Restore IF if it died inside an irqsave section.
        if let Some(saved) = self.tasks[slot].saved_if.take() {
            cpu.set_interrupts_enabled(saved);
        }
        // Free the user image: unmapped + zeroed, so the stale PDBA fails
        // the Fig. 3A validity probe.
        let frames = std::mem::take(&mut self.tasks[slot].user_frames);
        if let Some(pdba) = self.tasks[slot].pdba.take() {
            // The kernel switches to its own mm before tearing down the
            // dying process's (as Linux switches to init_mm).
            if cpu.cr3() == pdba {
                cpu.write_cr3(self.kernel_pd);
            }
            let mut falloc = self.falloc.take().expect("booted");
            let vm = cpu.vm_mut();
            for f in frames {
                falloc.free(&mut vm.mem, f);
            }
            // Another vCPU may still run a kernel thread that borrowed this
            // address space; park the directory in the graveyard until no
            // vCPU references it.
            let in_use = (0..vm.vcpu_count()).any(|v| vm.vcpu(VcpuId(v)).cr3() == pdba);
            if in_use {
                self.mm_graveyard.push(pdba);
            } else {
                AddressSpaceBuilder::from_pdba(pdba).destroy(
                    &mut vm.mem,
                    &mut falloc,
                    Some(self.kernel_pd),
                );
            }
            self.falloc = Some(falloc);
        }
        // Tell the parent.
        if let Some(pp) = self.tasks[slot].ppid {
            if let Some(pslot) = self.tasks.iter().position(|t| t.pid == pp) {
                self.tasks[pslot].children_alive =
                    self.tasks[pslot].children_alive.saturating_sub(1);
                self.tasks[pslot].pending_child_exits.push(pid.0);
                if matches!(self.tasks[pslot].state, RunState::WaitingChild) {
                    let child = self.tasks[pslot].pending_child_exits.pop().unwrap();
                    self.set_ret(pslot, child);
                    self.tasks[pslot].state = RunState::Ready;
                    self.runqueue.push_back(pslot);
                }
            }
        }
        // Unlink from the guest list and recycle kernel allocations.
        let ts_gva = self.tasks[slot].ts_gva;
        self.guest_unlink_ts(cpu, ts_gva);
        // Zero the task_struct so stale readers see an empty record.
        let zeros = vec![0u8; ts::SIZE as usize];
        cpu.write_gva(ts_gva, &zeros).expect("kernel address mapped");
        self.ts_free.push(ts_gva);
        let kstack_base = Gva::new(self.tasks[slot].kstack_top.value() - layout::KERNEL_STACK_SIZE);
        self.kstack_free.push(kstack_base);
        self.tasks[slot].state = RunState::Dead;
        self.tasks[slot].program = None;
        self.set_exec(slot, ExecContext::User);
        self.runqueue.retain(|&s| s != slot);
        for c in self.current.iter_mut() {
            if *c == Some(slot) {
                *c = None;
            }
        }
        self.pid_filters.remove(&pid.0);
    }

    fn install_module(&mut self, cpu: &mut CpuCtx<'_>, module_id: u64, hide: Pid) -> bool {
        let Some(spec) = self.modules.get(module_id as usize).cloned() else {
            return false;
        };
        let Some(target) = self.task_by_pid(hide) else {
            return false;
        };
        let ts_gva = target.ts_gva;
        for mech in &spec.mechanisms {
            match mech {
                HideMechanism::Dkom | HideMechanism::KmemPatch => {
                    // Both routes end in the same corruption: the
                    // task_struct vanishes from the in-guest list. The task
                    // keeps running — the scheduler uses its runqueues, not
                    // this list.
                    self.guest_unlink_ts(cpu, ts_gva);
                }
                HideMechanism::SyscallHijack => {
                    self.pid_filters.insert(hide.0);
                }
                HideMechanism::TssRelocate => {
                    // Copy the current TSS into a decoy page and retarget TR
                    // at it, so future monitoring reads forged thread state.
                    let v = cpu.vcpu_id();
                    let old = cpu.tr_base();
                    let decoy = self.alloc_kstack(); // any fresh kernel page
                    let rsp0 = self.r(cpu, old.offset(hypertap_hvsim::cpu::TSS_RSP0_OFFSET));
                    self.w(cpu, decoy.offset(hypertap_hvsim::cpu::TSS_RSP0_OFFSET), rsp0);
                    cpu.load_task_register(decoy);
                    let _ = v;
                }
            }
        }
        cpu.compute(50_000); // module load work
        true
    }

    /// The `getdents`-over-`/proc` walk: reads the in-guest task list (the
    /// bytes a rootkit corrupts), resolves each entry, applies any hijacked
    /// syscall filters, and returns rows in ascending-pid order (as `/proc`
    /// readdir does).
    fn walk_guest_proc_list(&mut self, cpu: &mut CpuCtx<'_>) -> Vec<ProcEntry> {
        let mut out = Vec::new();
        let mut node = self.r(cpu, layout::TASK_LIST_HEAD);
        let mut hops = 0;
        while node != 0 && hops < 8192 {
            let gva = Gva::new(node);
            let pid = self.r(cpu, gva.offset(ts::PID));
            let uid = self.r(cpu, gva.offset(ts::UID));
            let euid = self.r(cpu, gva.offset(ts::EUID));
            let parent = self.r(cpu, gva.offset(ts::PARENT));
            let (ppid, parent_uid) = if parent != 0 {
                (
                    self.r(cpu, Gva::new(parent).offset(ts::PID)),
                    self.r(cpu, Gva::new(parent).offset(ts::UID)),
                )
            } else {
                (0, 0)
            };
            let mut comm_buf = [0u8; ts::COMM_LEN as usize];
            cpu.read_gva(gva.offset(ts::COMM), &mut comm_buf).expect("kernel address mapped");
            let end = comm_buf.iter().position(|&b| b == 0).unwrap_or(comm_buf.len());
            let comm = String::from_utf8_lossy(&comm_buf[..end]).into_owned();
            // Per-process /proc traversal cost (open+read+parse).
            cpu.compute(self.cfg.proc_entry_ns);
            if !self.pid_filters.contains(&pid) {
                out.push(ProcEntry { pid, uid, euid, ppid, parent_uid, comm });
            }
            node = self.r(cpu, gva.offset(ts::NEXT));
            hops += 1;
        }
        out.sort_by_key(|e| e.pid);
        out
    }

    /// `/proc/PID/stat`: a fresh, per-pid lookup through the in-guest list.
    fn read_proc_stat(&mut self, cpu: &mut CpuCtx<'_>, pid: Pid) -> u64 {
        if self.pid_filters.contains(&pid.0) {
            return u64::MAX;
        }
        let mut node = self.r(cpu, layout::TASK_LIST_HEAD);
        let mut hops = 0;
        while node != 0 && hops < 8192 {
            let gva = Gva::new(node);
            let p = self.r(cpu, gva.offset(ts::PID));
            if p == pid.0 {
                cpu.compute(self.cfg.proc_entry_ns);
                let euid = self.r(cpu, gva.offset(ts::EUID));
                let parent = self.r(cpu, gva.offset(ts::PARENT));
                let parent_uid =
                    if parent != 0 { self.r(cpu, Gva::new(parent).offset(ts::UID)) } else { 0 };
                // State and RIP come from the live scheduler view.
                let (state, rip_off) = self
                    .task_by_pid(pid)
                    .map(|t| {
                        (
                            t.state.guest_encoding(),
                            (t.user_rip.value() - layout::USER_TEXT.value()) >> 4,
                        )
                    })
                    .unwrap_or((2, 0));
                return pack_proc_stat(euid, parent_uid, state, rip_off);
            }
            node = self.r(cpu, gva.offset(ts::NEXT));
            hops += 1;
        }
        u64::MAX
    }
}

impl GuestProgram for Kernel {
    fn step(&mut self, cpu: &mut CpuCtx<'_>) -> StepOutcome {
        if self.shutdown {
            return StepOutcome::Shutdown;
        }
        let v = cpu.vcpu_id();
        if !self.booted {
            if v.0 == 0 {
                self.boot(cpu);
            } else {
                // Secondary vCPUs wait for the boot processor.
                cpu.compute(10_000);
            }
            return StepOutcome::Continue;
        }
        if !self.vcpu_online[v.0] {
            self.bring_up_vcpu(cpu);
            return StepOutcome::Continue;
        }
        if let Some(vector) = cpu.poll_interrupt() {
            self.handle_irq(cpu, vector);
            return StepOutcome::Continue;
        }
        self.run_current(cpu)
    }
}

#[cfg(test)]
mod compute_fold;

#[cfg(test)]
mod tests {
    use super::*;
    use hypertap_hvsim::exit::{ExitAction, VmExit};
    use hypertap_hvsim::machine::{Hypervisor, Machine, RunExit, VmConfig, VmState};

    struct NoHv;
    impl Hypervisor for NoHv {
        fn handle_exit(&mut self, _vm: &mut VmState, _exit: &VmExit) -> ExitAction {
            ExitAction::Resume
        }
    }

    fn machine(vcpus: usize) -> Machine<NoHv> {
        Machine::new(VmConfig::new(vcpus, 256 << 20), NoHv)
    }

    fn run_for(m: &mut Machine<NoHv>, k: &mut Kernel, secs_ms: u64) -> RunExit {
        m.run_until(k, SimTime::from_millis(secs_ms))
    }

    #[test]
    fn boots_and_idles() {
        let mut m = machine(2);
        let mut k = Kernel::new(KernelConfig::new(2));
        run_for(&mut m, &mut k, 1_000);
        assert!(k.is_booted());
        // init + 2 daemons alive.
        assert_eq!(k.alive_pids().len(), 3);
        assert!(k.stats().ticks > 0, "timer ticks flowed");
        assert!(k.stats().context_switches > 0, "daemons caused switches");
    }

    #[test]
    fn syscalls_round_trip_values() {
        let mut m = machine(1);
        let mut k = Kernel::new(KernelConfig::new(1));
        let probe = k.register_program(
            "probe",
            Box::new(|| {
                Box::new(crate::program::FnProgram(|v: &UserView<'_>| match v.last_ret {
                    0 => UserOp::sys(Sysno::Getpid, &[]),
                    r if r == v.pid => UserOp::sys(Sysno::Geteuid, &[]),
                    _ => UserOp::Exit(0),
                }))
            }),
        );
        k.set_init_program(probe);
        run_for(&mut m, &mut k, 1_000);
        // init ran getpid -> geteuid(=0 for root... careful: euid 0 == initial last_ret 0)
        assert!(k.stats().syscalls >= 2);
    }

    #[test]
    fn spawn_wait_exit_lifecycle() {
        let mut m = machine(2);
        let mut k = Kernel::new(KernelConfig::new(2));
        let child = k.register_program(
            "worker",
            Box::new(|| {
                Box::new(crate::program::ScriptProgram::new(
                    vec![UserOp::Compute(3_000_000), UserOp::sys(Sysno::Write, &[0, 4096])],
                    0,
                ))
            }),
        );
        let child_raw = child.0;
        let init = k.register_program(
            "init",
            Box::new(move || {
                let child_raw = child_raw;
                let mut stage = 0;
                Box::new(crate::program::FnProgram(move |v: &UserView<'_>| {
                    stage += 1;
                    match stage {
                        1 => UserOp::sys(Sysno::Spawn, &[child_raw, 1000]),
                        2 => UserOp::sys(Sysno::Waitpid, &[]),
                        3 => UserOp::Emit("reaped".into(), format!("{}", v.last_ret)),
                        _ => UserOp::sys(Sysno::Nanosleep, &[60_000_000_000]),
                    }
                }))
            }),
        );
        k.set_init_program(init);
        run_for(&mut m, &mut k, 2_000);
        let mail = k.drain_mailbox(Pid(1));
        assert_eq!(mail.len(), 1, "init reaped its child");
        assert_eq!(mail[0].tag, "reaped");
        let reaped: u64 = mail[0].detail.parse().unwrap();
        assert!(k.task_by_pid(Pid(reaped)).is_none(), "child gone");
        assert!(k.stats().spawns >= 2);
        assert!(k.stats().exits >= 1);
    }

    #[test]
    fn vuln_escalate_grants_root_and_guest_memory_agrees() {
        let mut m = machine(1);
        let mut k = Kernel::new(KernelConfig::new(1));
        let init = k.register_program(
            "init",
            Box::new(|| {
                let mut stage = 0;
                Box::new(crate::program::FnProgram(move |_v: &UserView<'_>| {
                    stage += 1;
                    match stage {
                        1 => UserOp::sys(Sysno::Setuid, &[1000]),
                        2 => UserOp::sys(Sysno::VulnEscalate, &[]),
                        3 => UserOp::sys(Sysno::Geteuid, &[]),
                        _ => UserOp::sys(Sysno::Nanosleep, &[60_000_000_000]),
                    }
                }))
            }),
        );
        k.set_init_program(init);
        run_for(&mut m, &mut k, 1_000);
        let t = k.task_by_pid(Pid(1)).unwrap();
        assert_eq!(t.uid, 1000);
        assert_eq!(t.euid, 0, "escalated");
        // The guest task_struct agrees (this is what VMI/derivation read).
        let profile = layout::os_profile();
        let view =
            hypertap_core::vmi::list_tasks(&m.vm().mem, k.kernel_pd(), &profile, 100).unwrap();
        let init_view = view.iter().find(|t| t.pid == 1).unwrap();
        assert_eq!(init_view.euid, 0);
        assert_eq!(init_view.uid, 1000);
    }

    #[test]
    fn proc_list_walk_sees_tasks_and_respects_dkom() {
        let mut m = machine(1);
        let mut k = Kernel::new(KernelConfig::new(1));
        let sleeper = k.register_program(
            "sleeper",
            Box::new(|| {
                Box::new(crate::program::ScriptProgram::new(
                    vec![UserOp::sys(Sysno::Nanosleep, &[50_000_000_000])],
                    0,
                ))
            }),
        );
        let sleeper_raw = sleeper.0;
        let rk = k.register_module(ModuleSpec::new("testkit", "Linux", vec![HideMechanism::Dkom]));
        let init = k.register_program(
            "init",
            Box::new(move || {
                let mut stage = 0;
                let mut victim = 0u64;
                Box::new(crate::program::FnProgram(move |v: &UserView<'_>| {
                    stage += 1;
                    match stage {
                        1 => UserOp::sys(Sysno::Spawn, &[sleeper_raw, 1000]),
                        2 => {
                            victim = v.last_ret;
                            UserOp::sys(Sysno::ListProcs, &[])
                        }
                        3 => UserOp::Emit("before".into(), format!("{}", v.procs.len())),
                        4 => UserOp::sys(Sysno::InstallModule, &[rk, victim]),
                        5 => UserOp::sys(Sysno::ListProcs, &[]),
                        6 => UserOp::Emit("after".into(), format!("{}", v.procs.len())),
                        _ => UserOp::sys(Sysno::Nanosleep, &[60_000_000_000]),
                    }
                }))
            }),
        );
        k.set_init_program(init);
        run_for(&mut m, &mut k, 2_000);
        let mail = k.drain_mailbox(Pid(1));
        let before: usize =
            mail.iter().find(|e| e.tag == "before").unwrap().detail.parse().unwrap();
        let after: usize = mail.iter().find(|e| e.tag == "after").unwrap().detail.parse().unwrap();
        assert_eq!(before, after + 1, "DKOM hid exactly one process from ps");
        // But the process is still scheduled (alive in kernel mirror).
        assert_eq!(k.alive_pids().len(), 3, "init + daemon + hidden sleeper");
    }

    #[test]
    fn missing_unlock_fault_hangs_the_vcpu() {
        use crate::fault::SingleFault;
        let mut m = machine(1);
        let mut k = Kernel::new(KernelConfig::new(1));
        // Workload: two writers hammering the fs path.
        let writer = k.register_program(
            "writer",
            Box::new(|| {
                Box::new(crate::program::FnProgram(|_v: &UserView<'_>| {
                    UserOp::sys(Sysno::Write, &[0, 4096])
                }))
            }),
        );
        let writer_raw = writer.0;
        let init = k.register_program(
            "init",
            Box::new(move || {
                let mut stage = 0;
                Box::new(crate::program::FnProgram(move |_v: &UserView<'_>| {
                    stage += 1;
                    match stage {
                        1 | 2 => UserOp::sys(Sysno::Spawn, &[writer_raw, 1000]),
                        _ => UserOp::sys(Sysno::Nanosleep, &[60_000_000_000]),
                    }
                }))
            }),
        );
        k.set_init_program(init);
        // Find a vfs site that the write path will hit and leak it.
        let site = kpath::site_for("vfs", 1) as u32;
        // Persistent missing unlock on every vfs variant site would be
        // broader; one site suffices because variants rotate and revisit.
        k.set_fault_hook(Box::new(SingleFault::new(site, FaultType::MissingUnlock, true)));
        run_for(&mut m, &mut k, 20_000);
        if k.fault_hook().activations() == 0 {
            // The rotating variant never hit this site in 20s — acceptable
            // for this unit test (the campaign handles non-activation).
            return;
        }
        // After activation, eventually some task spins forever on the leaked
        // lock and (non-preemptible kernel) wedges the vCPU: the dispatch
        // clock stops advancing.
        let last = k.last_dispatch()[0];
        let end = m.vm().now();
        assert!(
            end.saturating_since(last) > Duration::from_secs(4),
            "vCPU should have stopped switching (last dispatch {last}, now {end})"
        );
    }
}
