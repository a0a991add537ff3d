//! The live fleet telemetry plane: HTTP scrape endpoints, a streaming
//! findings feed, and the monitor self-watchdog — all host-side, with the
//! per-VM results provably untouched (see the `tlb-on/telemetry`
//! conformance pair).
//!
//! ```sh
//! cargo run --release --example telemetry_plane
//!
//! # keep serving for 30 s after the fleet finishes, and write the bound
//! # address to a file so scripts can curl it:
//! cargo run --release --example telemetry_plane -- \
//!     --serve-ms 30000 --addr-file /tmp/hypertap-telemetry.addr
//! ```
//!
//! While it runs (and for `--serve-ms` afterwards), scrape it:
//!
//! ```sh
//! curl http://$(cat /tmp/hypertap-telemetry.addr)/metrics       # Prometheus text
//! curl http://$(cat /tmp/hypertap-telemetry.addr)/metrics.json  # snapshot schema v1
//! curl http://$(cat /tmp/hypertap-telemetry.addr)/healthz       # 200 ok / 503 degraded
//! curl http://$(cat /tmp/hypertap-telemetry.addr)/vms           # per-VM lifecycle
//! curl -N http://$(cat /tmp/hypertap-telemetry.addr)/findings   # live NDJSON stream
//! ```

use hypertap::faultinject::fleet::{summarize, FleetCampaign};
use hypertap::framework::fleet::{FleetConfig, FleetHost};
use hypertap::framework::telemetry::{SelfWatch, TelemetryHub, TelemetryServer};
use hypertap_bench::cli::{usage_exit, Args};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let args =
        Args::parse_known(&["vms", "workers", "serve-ms", "addr-file"]).unwrap_or_else(usage_exit);
    let vms: usize = args.get("vms", 8).unwrap_or_else(usage_exit);
    let workers: usize = args.get("workers", 3).unwrap_or_else(usage_exit);
    let serve_ms: u64 = args.get("serve-ms", 0).unwrap_or_else(usage_exit);

    // The plane: hub (shared state + finding bus), HTTP server, watchdog.
    let hub = Arc::new(TelemetryHub::new());
    let mut server = TelemetryServer::start(Arc::clone(&hub)).expect("bind ephemeral loopback");
    let mut watchdog = SelfWatch::start(Arc::clone(&hub), Duration::from_millis(500));
    let subscriber = hub.subscribe(1024);

    println!("telemetry server on http://{}", server.addr());
    if let Some(path) = args.get_str("addr-file") {
        std::fs::write(path, server.addr().to_string()).expect("write addr file");
        println!("address written to {path}");
    }

    // The fleet: sampled fault/attack scenarios under the full monitor
    // set, stepped by a worker pool that reports into the hub.
    println!("launching {vms}-VM fleet on {workers} workers...");
    let campaign = FleetCampaign::quick(0x7E1E);
    let host = FleetHost::launch_with_telemetry(
        Arc::new(campaign),
        FleetConfig::new(vms, workers),
        Arc::clone(&hub),
    );
    let report = host.join();

    let summary = summarize(&report);
    println!(
        "\nfleet done: {} VMs ({} halted), {} events into fan-out",
        summary.vms, summary.halted, summary.events_in
    );
    for (auditor, n) in &summary.findings_by_auditor {
        println!("  {auditor:<10} {n} finding(s)");
    }

    let streamed = subscriber.drain();
    println!(
        "\nfinding stream: {} finding(s) delivered live, {} dropped (slow-subscriber policy)",
        streamed.len(),
        subscriber.dropped()
    );
    let (healthy, body) = hub.healthz();
    println!("healthz: {}", if healthy { "ok" } else { "DEGRADED" });
    for line in body.lines().take(4) {
        println!("  {line}");
    }

    if serve_ms > 0 {
        println!("\nserving scrapes for {serve_ms} ms (curl the endpoints above)...");
        std::thread::sleep(Duration::from_millis(serve_ms));
    }
    watchdog.stop();
    server.stop();
    println!("telemetry plane shut down cleanly");
}
