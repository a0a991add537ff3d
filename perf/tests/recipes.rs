//! The benchmark rebuilds two of the repository's run recipes so it can
//! instrument and split them; these tests pin them to the originals.

use hypertap_bench::ubench::{run_ubench, MonitorConfig};
use hypertap_perf::workloads::{
    pool_scenario, record_with_snapshot, run_fig7_vm, Fig7Config, Fnv, Tracing,
};
use hypertap_perf::DEFAULT_SEED;
use hypertap_replay::prelude::{run_scenario, BASE};
use hypertap_workloads::unixbench::Ubench;

const PLAIN: Tracing = Tracing { on: false, seed: DEFAULT_SEED };

#[test]
fn fig7_recipe_reproduces_run_ubench_for_every_pair() {
    let configs = [
        (Fig7Config::Baseline, MonitorConfig::Baseline),
        (Fig7Config::Hrkd, MonitorConfig::HrkdOnly),
        (Fig7Config::HtNinja, MonitorConfig::HtNinjaOnly),
        (Fig7Config::AllThree, MonitorConfig::AllThree),
    ];
    for bench in Ubench::suite() {
        for (ours, theirs) in configs {
            let (_, done) = run_fig7_vm(bench, ours, PLAIN, 0);
            assert_eq!(done, Some(run_ubench(bench, theirs)), "{bench} under {theirs}");
        }
    }
}

#[test]
fn mid_run_snapshot_trace_is_byte_identical_to_run_scenario() {
    for i in 0..5 {
        let s = pool_scenario(DEFAULT_SEED, i, None);
        let (trace, verdict, _) =
            record_with_snapshot(&s, PLAIN, 0, &mut Fnv::default()).expect("snapshot cycle works");
        let (want, want_verdict) = run_scenario(&s, &BASE);
        assert_eq!(trace.encode(), want.encode(), "{}", s.name);
        assert_eq!(verdict, want_verdict, "{}", s.name);
    }
}
