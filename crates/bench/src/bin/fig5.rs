//! Fig. 5 — Guest OS Hang Detection latency CDFs.
//!
//! Prints the cumulative distributions of (a) the latency of the *first*
//! hang detection (the paper's blue line: >90 % within the 4 s threshold +
//! epsilon, all within ~32 s) and (b) the latency until the hang became
//! *full* (the red line: many full hangs trail the first partial alarm by
//! tens of seconds — the value of partial-hang detection).
//!
//! Flags:
//!   --load PATH  reuse results saved by `fig4 --save PATH`
//!   --stride N / --seed S / --threads N / --quick  as in fig4

use hypertap_bench::cli::{usage_exit, Args};
use hypertap_bench::report::cdf_table;
use hypertap_faultinject::campaign::{default_campaign, fig5_latencies, run_campaign};
use hypertap_faultinject::spec::{TrialResult, Workload};
use std::io::BufRead as _;

fn main() {
    let args = Args::parse_known(&["load", "stride", "seed", "threads"], &["quick"])
        .unwrap_or_else(usage_exit);
    let stride = args.get("stride", 16).unwrap_or_else(usage_exit);
    let seed = args.get("seed", 42).unwrap_or_else(usage_exit);
    let threads = args.get("threads", 0).unwrap_or_else(usage_exit);
    let results: Vec<TrialResult> = if let Some(path) = args.get_str("load") {
        let f = std::fs::File::open(path).expect("open results file");
        std::io::BufReader::new(f)
            .lines()
            .map(|l| serde_json::from_str(&l.expect("read line")).expect("parse result"))
            .collect()
    } else {
        let mut cfg = default_campaign(stride);
        cfg.seed = seed;
        cfg.threads = threads;
        if args.has("quick") {
            cfg = default_campaign(94);
            cfg.workloads = vec![Workload::Hanoi, Workload::MakeJ2];
        }
        eprintln!(
            "fig5: running {} trials (use `fig4 --save` + `--load` to reuse)",
            cfg.specs().len()
        );
        run_campaign(&cfg, |done, total| {
            if done % 32 == 0 || done == total {
                eprint!("\r  {done}/{total} trials");
            }
        })
    };
    eprintln!();

    let (first, full) = fig5_latencies(&results);
    let xs = [4.0, 8.0, 12.0, 16.0, 20.0, 24.0, 28.0, 32.0, 40.0, 50.0];
    println!("Fig. 5 — Guest OS Hang Detection latency\n");
    println!("{}", cdf_table("first-hang detection latency (paper's blue line)", &first, &xs));
    println!("{}", cdf_table("full-hang latency (paper's red line)", &full, &xs));
    if !first.is_empty() {
        let at4 = first.partition_point(|&v| v <= 4.5) as f64 / first.len() as f64;
        println!(
            "first-hang detections within the 4s threshold (+0.5s): {:.1}% (paper: >90%)",
            at4 * 100.0
        );
        println!(
            "max first-hang latency: {:.1}s (paper: all within 32s)",
            first.last().copied().unwrap_or(0.0)
        );
    }
}
