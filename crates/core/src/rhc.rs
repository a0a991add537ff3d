//! The Remote Health Checker (RHC) — who watches the watchers?
//!
//! The Event Multiplexer samples the VM-exit stream and ships every N-th
//! exit as a heartbeat to an RHC running on a *separate machine* (paper
//! Fig. 2). A healthy guest generates a continuous exit stream, so a gap
//! longer than the configured timeout means either the guest, the
//! hypervisor, or the monitoring stack itself has died — the RHC raises a
//! liveness alarm either way.
//!
//! Two transports are provided: an in-process one for deterministic
//! simulation, and a real TCP transport ([`TcpTransport`] / [`RhcServer`])
//! carrying newline-delimited JSON, used by the `remote_health` example and
//! its integration test to demonstrate genuine out-of-machine checking.

use crate::metrics::{Histogram, MetricsRegistry};
use crate::serve::{self, Service};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::fmt;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::rc::Rc;
use std::sync::{Arc, Mutex};

/// One heartbeat: a sampled VM exit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeartbeatSample {
    /// Simulated time of the sampled exit, in nanoseconds.
    pub time_ns: u64,
    /// Monotonic sample sequence number.
    pub seq: u64,
}

/// A channel capable of delivering heartbeat samples to an RHC.
pub trait RhcTransport {
    /// Delivers one sample. Transports must not block the caller for long —
    /// delivery is on the logging path.
    fn send(&mut self, sample: &HeartbeatSample);
}

/// A liveness alarm raised by the checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RhcAlert {
    /// Wall-clock (simulated) nanoseconds at which the check ran.
    pub checked_at_ns: u64,
    /// Time of the last heartbeat received, if any.
    pub last_heartbeat_ns: Option<u64>,
}

impl fmt::Display for RhcAlert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.last_heartbeat_ns {
            Some(t) => write!(
                f,
                "monitoring stack silent since {}ns (checked at {}ns)",
                t, self.checked_at_ns
            ),
            None => write!(f, "no heartbeat ever received (checked at {}ns)", self.checked_at_ns),
        }
    }
}

/// The health checker: receives samples, measures inter-arrival gaps.
#[derive(Debug)]
pub struct RemoteHealthChecker {
    timeout_ns: u64,
    last: Option<HeartbeatSample>,
    /// Time of the first `check` — silence is measured from here until the
    /// first heartbeat arrives, so a checker attached at t≫timeout does not
    /// false-alarm before it has actually waited one timeout.
    started_at_ns: Option<u64>,
    received: u64,
    alerts: Vec<RhcAlert>,
    /// Heartbeat inter-arrival gaps, simulated nanoseconds.
    gaps: Histogram,
}

impl RemoteHealthChecker {
    /// A checker that alarms after `timeout_ns` of silence.
    pub fn new(timeout_ns: u64) -> Self {
        RemoteHealthChecker {
            timeout_ns,
            last: None,
            started_at_ns: None,
            received: 0,
            alerts: Vec::new(),
            gaps: Histogram::gap_ns(),
        }
    }

    /// Ingests one sample.
    pub fn on_sample(&mut self, sample: HeartbeatSample) {
        self.received += 1;
        if let Some(prev) = &self.last {
            self.gaps.observe(sample.time_ns.saturating_sub(prev.time_ns));
        }
        self.last = Some(sample);
    }

    /// Number of samples received.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Observed heartbeat inter-arrival gaps (simulated nanoseconds; the
    /// first sample has no predecessor and records nothing).
    pub fn gap_histogram(&self) -> &Histogram {
        &self.gaps
    }

    /// Exports the checker's counters and gap histogram into a snapshot
    /// registry.
    pub fn collect_metrics(&self, reg: &mut MetricsRegistry) {
        reg.counter(
            "hypertap_rhc_samples_received_total",
            "heartbeat samples received by the checker",
            self.received,
        );
        reg.counter(
            "hypertap_rhc_alerts_total",
            "liveness alarms raised by the checker",
            self.alerts.len() as u64,
        );
        if !self.gaps.is_empty() {
            reg.histogram(
                "hypertap_rhc_gap_ns",
                "heartbeat inter-arrival gap, simulated nanoseconds",
                &self.gaps,
            );
        }
    }

    /// Runs a liveness check at (simulated) time `now_ns`; records and
    /// returns an alert if the silence exceeds the timeout.
    pub fn check(&mut self, now_ns: u64) -> Option<RhcAlert> {
        let started = *self.started_at_ns.get_or_insert(now_ns);
        let stale = match &self.last {
            Some(s) => now_ns.saturating_sub(s.time_ns) > self.timeout_ns,
            // No heartbeat yet: silence runs from the first check, not from
            // simulated t=0 — a late-attached checker has not been waiting
            // since boot.
            None => now_ns.saturating_sub(started) > self.timeout_ns,
        };
        if stale {
            let alert = RhcAlert {
                checked_at_ns: now_ns,
                last_heartbeat_ns: self.last.as_ref().map(|s| s.time_ns),
            };
            self.alerts.push(alert.clone());
            Some(alert)
        } else {
            None
        }
    }

    /// All alerts raised so far.
    pub fn alerts(&self) -> &[RhcAlert] {
        &self.alerts
    }
}

/// In-process transport: delivers directly into a shared checker. Used in
/// deterministic simulations where the "remote machine" is a host-side
/// object.
#[derive(Debug, Clone)]
pub struct InProcTransport {
    checker: Rc<RefCell<RemoteHealthChecker>>,
}

impl InProcTransport {
    /// Wraps a shared checker.
    pub fn new(checker: Rc<RefCell<RemoteHealthChecker>>) -> Self {
        InProcTransport { checker }
    }
}

impl RhcTransport for InProcTransport {
    fn send(&mut self, sample: &HeartbeatSample) {
        self.checker.borrow_mut().on_sample(sample.clone());
    }
}

/// TCP transport: serialises each sample as one JSON line.
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
}

impl TcpTransport {
    /// Connects to an RHC server.
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TcpTransport { stream })
    }
}

impl RhcTransport for TcpTransport {
    fn send(&mut self, sample: &HeartbeatSample) {
        // Best-effort: a dead RHC must not take the monitoring stack down.
        if let Ok(mut line) = serde_json::to_string(sample) {
            line.push('\n');
            let _ = self.stream.write_all(line.as_bytes());
        }
    }
}

/// A TCP RHC server: accepts a bounded number of monitored machines
/// concurrently (one reader thread per connection) and feeds a shared
/// thread-safe checker. [`RhcServer::stop`] shuts the whole server
/// down cleanly; dropping without `stop` is best-effort and never blocks.
#[derive(Debug)]
pub struct RhcServer {
    service: Service,
    checker: Arc<Mutex<RemoteHealthChecker>>,
}

impl RhcServer {
    /// Binds to an ephemeral local port and starts accepting.
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn start(timeout_ns: u64) -> std::io::Result<Self> {
        let checker = Arc::new(Mutex::new(RemoteHealthChecker::new(timeout_ns)));
        let sink = Arc::clone(&checker);
        // Each connection sends newline-delimited JSON heartbeats.
        let service =
            Service::listen("hypertap-rhc", serve::MAX_CONNECTIONS, move |mut reader, stop| {
                while let Some(line) = reader.next_line(stop) {
                    if let Ok(sample) = serde_json::from_str::<HeartbeatSample>(line) {
                        sink.lock().expect("checker lock").on_sample(sample);
                    }
                }
            })?;
        Ok(RhcServer { service, checker })
    }

    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.service.addr()
    }

    /// Shared access to the checker (for running `check` and reading stats).
    pub fn checker(&self) -> Arc<Mutex<RemoteHealthChecker>> {
        self.checker.clone()
    }

    /// Stops accepting, unblocks every reader, and joins the accept thread
    /// (which in turn joins the readers). Idempotent.
    pub fn stop(&mut self) {
        self.service.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checker_alarm_on_silence() {
        let mut c = RemoteHealthChecker::new(1_000_000); // 1 ms
        assert!(c.check(500_000).is_none(), "within timeout, nothing yet");
        let alert = c.check(2_000_000).expect("no heartbeat ever");
        assert_eq!(alert.last_heartbeat_ns, None);
        c.on_sample(HeartbeatSample { time_ns: 2_100_000, seq: 1 });
        assert!(c.check(2_500_000).is_none());
        let alert = c.check(4_000_000).expect("stale heartbeat");
        assert_eq!(alert.last_heartbeat_ns, Some(2_100_000));
        assert_eq!(c.alerts().len(), 2);
        assert_eq!(c.received(), 1);
    }

    #[test]
    fn in_proc_transport_delivers() {
        let checker = Rc::new(RefCell::new(RemoteHealthChecker::new(1_000)));
        let mut t = InProcTransport::new(checker.clone());
        t.send(&HeartbeatSample { time_ns: 10, seq: 1 });
        t.send(&HeartbeatSample { time_ns: 20, seq: 2 });
        assert_eq!(checker.borrow().received(), 2);
    }

    #[test]
    fn tcp_round_trip() {
        let server = RhcServer::start(1_000_000).unwrap();
        let mut client = TcpTransport::connect(server.addr()).unwrap();
        for seq in 1..=5u64 {
            client.send(&HeartbeatSample { time_ns: seq * 100, seq });
        }
        drop(client); // flush + EOF
                      // Wait for the server thread to drain the connection.
        let checker = server.checker();
        for _ in 0..200 {
            if checker.lock().unwrap().received() == 5 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let mut c = checker.lock().unwrap();
        assert_eq!(c.received(), 5);
        assert!(c.check(550).is_none());
        assert!(c.check(2_000_000).is_some());
    }

    #[test]
    fn sample_json_round_trip() {
        let s = HeartbeatSample { time_ns: 42, seq: 7 };
        let json = serde_json::to_string(&s).unwrap();
        let back: HeartbeatSample = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn late_attached_checker_waits_a_full_timeout_before_alarming() {
        // Regression: a checker whose first check runs at t ≫ timeout used
        // to compare absolute simulated time against the timeout and alarm
        // immediately, despite having waited for no silence at all.
        let mut c = RemoteHealthChecker::new(1_000_000); // 1 ms
        let attach = 10_000_000_000; // attached at t = 10 s
        assert!(c.check(attach).is_none(), "first check: no silence observed yet");
        assert!(c.check(attach + 900_000).is_none(), "still within one timeout of start");
        let alert = c.check(attach + 1_500_000).expect("one full timeout of silence");
        assert_eq!(alert.last_heartbeat_ns, None);
        assert_eq!(c.alerts().len(), 1);
    }

    #[test]
    fn gap_histogram_tracks_inter_arrival() {
        let mut c = RemoteHealthChecker::new(1_000_000);
        for (i, t) in [100_000u64, 200_000, 350_000, 50_350_000].iter().enumerate() {
            c.on_sample(HeartbeatSample { time_ns: *t, seq: i as u64 + 1 });
        }
        // 4 samples => 3 gaps: 100k, 150k, 50ms.
        let h = c.gap_histogram();
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 100_000 + 150_000 + 50_000_000);
        let mut reg = MetricsRegistry::new();
        c.collect_metrics(&mut reg);
        assert_eq!(
            reg.find("hypertap_rhc_samples_received_total", &[]).unwrap().as_counter(),
            Some(4)
        );
        assert_eq!(
            reg.find("hypertap_rhc_gap_ns", &[]).unwrap().as_histogram().unwrap().count(),
            3
        );
    }

    #[test]
    fn server_handles_two_concurrent_clients() {
        // Regression: the accept loop used to serve one connection at a
        // time, so a second monitored machine's heartbeats were not read
        // until the first disconnected. Both clients here stay connected
        // and interleave sends; all samples must arrive while both live.
        let mut server = RhcServer::start(1_000_000).unwrap();
        let mut a = TcpTransport::connect(server.addr()).unwrap();
        let mut b = TcpTransport::connect(server.addr()).unwrap();
        for seq in 1..=4u64 {
            a.send(&HeartbeatSample { time_ns: seq * 100, seq });
            b.send(&HeartbeatSample { time_ns: seq * 100 + 50, seq });
        }
        let checker = server.checker();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while checker.lock().unwrap().received() != 8 {
            assert!(
                std::time::Instant::now() < deadline,
                "only {} of 8 samples arrived while both clients were connected",
                checker.lock().unwrap().received()
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        // Clients are still open; a clean stop must not hang on them.
        server.stop();
        drop(a);
        drop(b);
    }

    #[test]
    fn server_stop_joins_and_is_idempotent() {
        let mut server = RhcServer::start(1_000_000).unwrap();
        let mut client = TcpTransport::connect(server.addr()).unwrap();
        client.send(&HeartbeatSample { time_ns: 100, seq: 1 });
        let checker = server.checker();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while checker.lock().unwrap().received() != 1 {
            assert!(std::time::Instant::now() < deadline, "sample never arrived");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        server.stop();
        server.stop(); // second stop is a no-op
        drop(server); // drop after stop must not block or panic
    }

    #[test]
    fn an_over_long_line_closes_only_that_connection() {
        let mut server = RhcServer::start(1_000_000).unwrap();
        crate::serve::tests::assert_closed_unanswered(server.addr(), &[b'{'; 1 << 20]);
        let checker = server.checker();
        assert_eq!(checker.lock().unwrap().received(), 0, "a cut-off line is no sample");
        let mut client = TcpTransport::connect(server.addr()).unwrap();
        client.send(&HeartbeatSample { time_ns: 100, seq: 1 });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while checker.lock().unwrap().received() != 1 {
            assert!(std::time::Instant::now() < deadline, "a fresh client was not served");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        server.stop();
    }
}
