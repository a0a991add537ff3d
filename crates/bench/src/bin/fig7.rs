//! Fig. 7 — performance overhead of the HyperTap sample monitors on the
//! UnixBench-style suite, under three configurations (HRKD only, HT-Ninja
//! only, all three auditors), relative to an unmonitored baseline.

use hypertap_bench::cli::Args;
use hypertap_bench::report::{pct, table};
use hypertap_bench::ubench::measure;
use hypertap_workloads::unixbench::Ubench;

fn main() {
    let args = Args::parse();
    let runs: usize = args.get("runs", 1);
    println!("Fig. 7 — monitoring overhead on the UnixBench-style suite");
    println!(
        "(relative slowdown vs unmonitored baseline; {} run(s) each; deterministic sim)\n",
        runs
    );

    let mut rows = Vec::new();
    let mut per_class: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    let mut sum_check: Vec<(f64, f64)> = Vec::new();
    for bench in Ubench::suite() {
        let row = measure(bench);
        per_class.entry(bench.class()).or_default().push(row.all);
        sum_check.push((row.all, row.hrkd + row.htninja));
        rows.push(vec![
            bench.to_string(),
            format!("{:.3}s", row.baseline.as_secs_f64()),
            pct(row.hrkd),
            pct(row.htninja),
            pct(row.all),
        ]);
    }
    println!("{}", table(&["benchmark", "baseline", "HRKD", "HT-Ninja", "all three"], &rows));

    println!("per-class mean overhead (all three auditors):");
    let mut class_rows = Vec::new();
    for (class, v) in &per_class {
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        class_rows.push(vec![class.to_string(), pct(mean)]);
    }
    println!("{}", table(&["class", "overhead"], &class_rows));

    let (combined, summed): (Vec<f64>, Vec<f64>) = sum_check.into_iter().unzip();
    let mean_combined = combined.iter().sum::<f64>() / combined.len() as f64;
    let mean_summed = summed.iter().sum::<f64>() / summed.len() as f64;
    println!(
        "unified-logging effect: combined overhead {} vs sum of individual overheads {}",
        pct(mean_combined),
        pct(mean_summed)
    );
}
