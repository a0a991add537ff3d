//! Table I — summary of guest internal events and related VM Exit types.
//!
//! The rows are *generated from the interception engines themselves* (each
//! engine self-describes its Table I contribution), so this output is
//! guaranteed to match what the code actually implements.

use hypertap_bench::report::table;
use hypertap_core::intercept::{
    FastSyscallEngine, FineGrainedEngine, IntSyscallEngine, IoEngine, ProcessSwitchEngine,
    ThreadSwitchEngine,
};
use hypertap_core::kvm::Kvm;
use hypertap_hvsim::machine::{Machine, VmConfig};

fn main() {
    let mut machine = Machine::new(VmConfig::new(1, 1 << 20), Kvm::new());
    let (vm, kvm) = machine.parts_mut();
    kvm.install(vm, Box::new(ProcessSwitchEngine::new()));
    kvm.install(vm, Box::new(ThreadSwitchEngine::new()));
    kvm.install(vm, Box::new(IntSyscallEngine::new()));
    kvm.install(vm, Box::new(FastSyscallEngine::new()));
    kvm.install(vm, Box::new(IoEngine::new()));
    kvm.install(vm, Box::new(FineGrainedEngine::new()));

    println!("Table I — Summary of guest internal events and related VM Exit types\n");
    let rows: Vec<Vec<String>> = kvm
        .table1()
        .into_iter()
        .map(|r| {
            vec![
                r.category.to_string(),
                r.guest_event.to_string(),
                r.vm_exit_column(),
                r.invariant.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &["Monitoring category", "Guest event", "Related VM Exit", "Architectural invariant"],
            &rows
        )
    );
}
