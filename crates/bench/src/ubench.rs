//! UnixBench-style overhead runner (Fig. 7).
//!
//! Runs one benchmark to completion under a monitoring configuration and
//! reports the simulated completion time; relative slowdowns against the
//! unmonitored baseline reproduce the paper's Fig. 7 measurements.

use hypertap_guestos::kernel::KernelConfig;
use hypertap_hvsim::clock::Duration;
use hypertap_hvsim::machine::RunExit;
use hypertap_monitors::goshd::GoshdConfig;
use hypertap_monitors::harness::{EngineSelection, TapVm};
use hypertap_monitors::ninja::rules::NinjaRules;
use hypertap_workloads::unixbench::{self, Ubench};
use std::fmt;

/// The monitoring configurations compared in Fig. 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorConfig {
    /// No engines, no auditors — the baseline.
    Baseline,
    /// HRKD alone (context-switch interception only).
    HrkdOnly,
    /// HT-Ninja alone (context switches + system calls).
    HtNinjaOnly,
    /// GOSHD + HRKD + HT-Ninja together over the unified logging channel.
    AllThree,
}

impl fmt::Display for MonitorConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MonitorConfig::Baseline => "baseline",
            MonitorConfig::HrkdOnly => "HRKD",
            MonitorConfig::HtNinjaOnly => "HT-Ninja",
            MonitorConfig::AllThree => "HRKD+HT-Ninja+GOSHD",
        })
    }
}

/// Builds and runs one benchmark under one configuration; returns the
/// simulated completion time.
///
/// # Panics
///
/// Panics if the benchmark fails to finish within the safety deadline
/// (a harness bug, not a modelled condition).
pub fn run_ubench(bench: Ubench, config: MonitorConfig) -> Duration {
    let mut builder = TapVm::builder()
        .vcpus(2)
        .memory(512 << 20)
        .kernel(KernelConfig::new(2))
        .em_tick(Duration::from_millis(1));
    builder = match config {
        MonitorConfig::Baseline => builder.engines(EngineSelection::none()),
        MonitorConfig::HrkdOnly => builder.engines(EngineSelection::context_switch_only()).hrkd(),
        MonitorConfig::HtNinjaOnly => {
            let mut sel = EngineSelection::context_switch_only();
            sel.int_syscall = true;
            sel.fast_syscall = true;
            builder.engines(sel).htninja(NinjaRules::new())
        }
        MonitorConfig::AllThree => builder
            .engines(EngineSelection::all())
            .goshd(GoshdConfig::paper_default())
            .hrkd()
            .htninja(NinjaRules::new()),
    };
    let mut vm = builder.build();
    let driver = unixbench::install(&mut vm.kernel, bench);
    let driver_raw = driver.0;
    let init = vm.kernel.register_program(
        "init",
        Box::new(move || {
            let mut started = false;
            Box::new(hypertap_guestos::program::FnProgram(
                move |_v: &hypertap_guestos::program::UserView<'_>| {
                    if !started {
                        started = true;
                        hypertap_guestos::program::UserOp::sys(
                            hypertap_guestos::syscalls::Sysno::Spawn,
                            &[driver_raw, 0],
                        )
                    } else {
                        hypertap_guestos::program::UserOp::sys(
                            hypertap_guestos::syscalls::Sysno::Waitpid,
                            &[],
                        )
                    }
                },
            ))
        }),
    );
    vm.kernel.set_init_program(init);
    let exit = vm.run_for(Duration::from_secs(600));
    assert_eq!(exit, RunExit::Shutdown, "{bench} under {config} did not finish");
    Duration::from_nanos(vm.now().as_nanos())
}

/// Relative overhead of `with` versus `base`.
pub fn overhead(base: Duration, with: Duration) -> f64 {
    (with.as_nanos() as f64 - base.as_nanos() as f64) / base.as_nanos() as f64
}

/// Measured overheads for one benchmark across all monitored configs.
#[derive(Debug, Clone)]
pub struct UbenchRow {
    /// The benchmark.
    pub bench: Ubench,
    /// Baseline completion time.
    pub baseline: Duration,
    /// Overhead under HRKD alone.
    pub hrkd: f64,
    /// Overhead under HT-Ninja alone.
    pub htninja: f64,
    /// Overhead with all three auditors.
    pub all: f64,
}

/// Runs the full Fig. 7 matrix for one benchmark.
pub fn measure(bench: Ubench) -> UbenchRow {
    let baseline = run_ubench(bench, MonitorConfig::Baseline);
    let hrkd = overhead(baseline, run_ubench(bench, MonitorConfig::HrkdOnly));
    let htninja = overhead(baseline, run_ubench(bench, MonitorConfig::HtNinjaOnly));
    let all = overhead(baseline, run_ubench(bench, MonitorConfig::AllThree));
    UbenchRow { bench, baseline, hrkd, htninja, all }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn syscall_bench_shows_ordered_overheads() {
        let row = measure(Ubench::SyscallOverhead);
        assert!(row.baseline > Duration::ZERO);
        // HRKD doesn't trap syscalls; HT-Ninja does.
        assert!(row.htninja > row.hrkd, "HT-Ninja {} vs HRKD {}", row.htninja, row.hrkd);
        // Unified logging: all three together cost about what the most
        // expensive individual monitor costs, not the sum.
        assert!(row.all < row.hrkd + row.htninja + 0.02);
        assert!(row.all >= row.htninja - 0.02);
    }

    #[test]
    fn overhead_math() {
        assert!((overhead(Duration::from_secs(10), Duration::from_secs(11)) - 0.1).abs() < 1e-9);
    }
}
