//! Guest OS Hang Detection (GOSHD) — paper §VII-A.
//!
//! The guest OS is *hung* on a vCPU when it ceases to schedule tasks there.
//! GOSHD subscribes to HyperTap's context-switch events (process switches
//! from CR3 loads, thread switches from `TSS.RSP0` writes — the
//! `CR_ACCESS`/`EPT_VIOLATION` mechanisms guarantee no switch is missed) and
//! declares a vCPU hung when no switch arrives for a threshold period. The
//! paper sets the threshold to **twice the profiled maximum scheduling time
//! slice** to stay conservative.
//!
//! Because vCPUs are monitored independently, GOSHD distinguishes **partial
//! hangs** (a proper subset of vCPUs hung — invisible to heartbeat-style
//! detectors, whose heartbeat task keeps running on a healthy vCPU) from
//! **full hangs**.

use hypertap_core::audit::{Auditor, Finding, FindingSink, Severity};
use hypertap_core::event::{Event, EventClass, EventMask, EventRef};
use hypertap_hvsim::clock::{Duration, SimTime};
use hypertap_hvsim::machine::VmState;
use hypertap_hvsim::snap::{SnapError, SnapReader, SnapWriter};
use hypertap_hvsim::vcpu::VcpuId;
use std::any::Any;

/// GOSHD configuration.
#[derive(Debug, Clone)]
pub struct GoshdConfig {
    /// Hang threshold: declare a vCPU hung after this long without a
    /// context switch. The paper uses 2 × the profiled maximum time slice
    /// (4 s for their SUSE guest).
    pub threshold: Duration,
}

impl Default for GoshdConfig {
    fn default() -> Self {
        GoshdConfig::paper_default()
    }
}

impl GoshdConfig {
    /// The paper's configuration: profiled maximum slice of 2 s, threshold
    /// of twice that.
    pub fn paper_default() -> Self {
        GoshdConfig { threshold: Duration::from_secs(4) }
    }

    /// Derives the threshold from a profiled maximum scheduling slice.
    pub fn from_profiled_slice(max_slice: Duration) -> Self {
        GoshdConfig { threshold: max_slice.saturating_mul(2) }
    }
}

/// Whether an alarm covers part or all of the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HangScope {
    /// At least one vCPU is hung, at least one is healthy.
    Partial,
    /// Every vCPU is hung.
    Full,
}

/// One hang alarm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HangAlarm {
    /// The newly hung vCPU.
    pub vcpu: VcpuId,
    /// When GOSHD raised the alarm.
    pub detected_at: SimTime,
    /// The last context switch observed on that vCPU.
    pub last_switch: SimTime,
    /// Scope at detection time.
    pub scope: HangScope,
}

/// The GOSHD auditor.
#[derive(Debug)]
pub struct Goshd {
    threshold: Duration,
    last_switch: Vec<Option<SimTime>>,
    /// Ref of the last switch event per vCPU — the exit a hang alarm's
    /// provenance points at ("silent since exit #n").
    last_switch_ref: Vec<Option<EventRef>>,
    baseline: Option<SimTime>,
    /// Ref of the first event GOSHD saw; fallback provenance for a vCPU
    /// that never switched at all.
    baseline_ref: Option<EventRef>,
    hung: Vec<bool>,
    alarms: Vec<HangAlarm>,
}

impl Goshd {
    /// Creates GOSHD for a machine with `vcpus` vCPUs.
    pub fn new(vcpus: usize, config: GoshdConfig) -> Self {
        Goshd {
            threshold: config.threshold,
            last_switch: vec![None; vcpus],
            last_switch_ref: vec![None; vcpus],
            baseline: None,
            baseline_ref: None,
            hung: vec![false; vcpus],
            alarms: Vec::new(),
        }
    }

    /// All alarms raised so far, in order.
    pub fn alarms(&self) -> &[HangAlarm] {
        &self.alarms
    }

    /// The first alarm, if any (detection latency measurements use this).
    pub fn first_alarm(&self) -> Option<&HangAlarm> {
        self.alarms.first()
    }

    /// Whether the given vCPU is currently flagged hung.
    pub fn is_hung(&self, vcpu: VcpuId) -> bool {
        self.hung.get(vcpu.0).copied().unwrap_or(false)
    }

    /// Current machine-level scope, if any vCPU is hung.
    pub fn scope(&self) -> Option<HangScope> {
        let hung = self.hung.iter().filter(|h| **h).count();
        if hung == 0 {
            None
        } else if hung == self.hung.len() {
            Some(HangScope::Full)
        } else {
            Some(HangScope::Partial)
        }
    }

    /// Time at which the hang became full (all vCPUs flagged), if it did.
    pub fn full_hang_at(&self) -> Option<SimTime> {
        if self.scope() == Some(HangScope::Full) {
            self.alarms.last().map(|a| a.detected_at)
        } else {
            None
        }
    }

    fn effective_last(&self, vcpu: usize) -> Option<SimTime> {
        self.last_switch[vcpu].or(self.baseline)
    }
}

impl Auditor for Goshd {
    fn name(&self) -> &str {
        "goshd"
    }

    fn subscriptions(&self) -> EventMask {
        EventMask::only(EventClass::ProcessSwitch).with(EventClass::ThreadSwitch)
    }

    fn on_event(&mut self, _vm: &mut VmState, event: &Event, sink: &mut dyn FindingSink) {
        if self.baseline.is_none() {
            self.baseline = Some(event.time);
            self.baseline_ref = sink.current_ref();
        }
        let v = event.vcpu.0;
        if v < self.last_switch.len() {
            self.last_switch[v] = Some(event.time);
            self.last_switch_ref[v] = sink.current_ref().or(self.last_switch_ref[v]);
            // Note: the paper's GOSHD does not auto-clear alarms; a
            // recovered vCPU stays flagged for the operator. We keep that
            // latched behaviour.
        }
    }

    fn on_tick(&mut self, _vm: &mut VmState, now: SimTime, sink: &mut dyn FindingSink) {
        if self.baseline.is_none() {
            self.baseline = Some(now);
            return;
        }
        // Flag every newly hung vCPU first, then classify: the scope of a
        // simultaneous hang is a property of the whole tick, not of the
        // flagging order. (Classifying inside the loop mislabeled the
        // first alarm of an all-vCPUs-at-once hang as Partial.)
        let mut newly_hung = Vec::new();
        for v in 0..self.last_switch.len() {
            if self.hung[v] {
                continue;
            }
            let Some(last) = self.effective_last(v) else { continue };
            if now.saturating_since(last) > self.threshold {
                self.hung[v] = true;
                newly_hung.push((v, last));
            }
        }
        if newly_hung.is_empty() {
            return;
        }
        let scope = self.scope().expect("at least one vCPU was just flagged");
        for (v, last) in newly_hung {
            self.alarms.push(HangAlarm {
                vcpu: VcpuId(v),
                detected_at: now,
                last_switch: last,
                scope,
            });
            sink.note_transition("goshd", format!("vcpu{v} liveness: live -> hung"));
            // The alarm's cause is the last switch exit on that vCPU — the
            // event whose missing successor crossed the threshold. A vCPU
            // that never switched points at GOSHD's first observed exit.
            let provenance: Vec<EventRef> =
                self.last_switch_ref[v].or(self.baseline_ref).into_iter().collect();
            sink.report(
                Finding::new(
                    "goshd",
                    now,
                    Severity::Alert,
                    format!("vcpu{v} hung: no context switch since {last} ({scope:?} hang)"),
                )
                .with_provenance(provenance),
            );
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn snapshot_state(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.varint(self.last_switch.len() as u64);
        for i in 0..self.last_switch.len() {
            w.opt_varint(self.last_switch[i].map(|t| t.as_nanos()));
            w.opt_varint(self.last_switch_ref[i].map(|r| r.0));
            w.boolean(self.hung[i]);
        }
        w.opt_varint(self.baseline.map(|t| t.as_nanos()));
        w.opt_varint(self.baseline_ref.map(|r| r.0));
        w.varint(self.alarms.len() as u64);
        for a in &self.alarms {
            w.varint(a.vcpu.0 as u64);
            w.varint(a.detected_at.as_nanos());
            w.varint(a.last_switch.as_nanos());
            w.byte(match a.scope {
                HangScope::Partial => 0,
                HangScope::Full => 1,
            });
        }
        w.into_bytes()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let mut r = SnapReader::new(bytes);
        let start = r.offset();
        let n = r.count(1 << 10, "goshd vcpu slots")?;
        if n != self.last_switch.len() {
            return Err(SnapError::BadValue { offset: start, what: "goshd vcpu count" });
        }
        for i in 0..n {
            self.last_switch[i] = r.opt_varint()?.map(SimTime::from_nanos);
            self.last_switch_ref[i] = r.opt_varint()?.map(EventRef);
            self.hung[i] = r.boolean()?;
        }
        self.baseline = r.opt_varint()?.map(SimTime::from_nanos);
        self.baseline_ref = r.opt_varint()?.map(EventRef);
        let n = r.count(1 << 16, "goshd alarms")?;
        self.alarms = Vec::with_capacity(n);
        for _ in 0..n {
            let vcpu = VcpuId(r.varint()? as usize);
            let detected_at = SimTime::from_nanos(r.varint()?);
            let last_switch = SimTime::from_nanos(r.varint()?);
            let start = r.offset();
            let scope = match r.byte()? {
                0 => HangScope::Partial,
                1 => HangScope::Full,
                _ => return Err(SnapError::BadValue { offset: start, what: "hang scope" }),
            };
            self.alarms.push(HangAlarm { vcpu, detected_at, last_switch, scope });
        }
        r.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypertap_core::event::{EventKind, VmId};
    use hypertap_hvsim::exit::VcpuSnapshot;
    use hypertap_hvsim::machine::{Machine, VmConfig};
    use hypertap_hvsim::mem::Gpa;
    use hypertap_hvsim::vcpu::Vcpu;

    fn vm_state() -> VmState {
        struct NoHv;
        impl hypertap_hvsim::machine::Hypervisor for NoHv {
            fn handle_exit(
                &mut self,
                _vm: &mut VmState,
                _exit: &hypertap_hvsim::exit::VmExit,
            ) -> hypertap_hvsim::exit::ExitAction {
                hypertap_hvsim::exit::ExitAction::Resume
            }
        }
        Machine::new(VmConfig::new(2, 1 << 20), NoHv).into_parts().0
    }

    fn switch_event(vcpu: usize, t_ms: u64) -> Event {
        Event {
            vm: VmId(0),
            vcpu: VcpuId(vcpu),
            time: SimTime::from_millis(t_ms),
            kind: EventKind::ProcessSwitch { new_pdba: Gpa::new(0x1000) },
            state: VcpuSnapshot::capture(&Vcpu::new(VcpuId(vcpu))),
        }
    }

    fn cfg_ms(ms: u64) -> GoshdConfig {
        GoshdConfig { threshold: Duration::from_millis(ms) }
    }

    #[test]
    fn healthy_vcpus_never_alarm() {
        let mut g = Goshd::new(2, cfg_ms(100));
        let mut vm = vm_state();
        let mut sink: Vec<Finding> = Vec::new();
        for t in (0..1000).step_by(50) {
            g.on_event(&mut vm, &switch_event(0, t), &mut sink);
            g.on_event(&mut vm, &switch_event(1, t), &mut sink);
            g.on_tick(&mut vm, SimTime::from_millis(t), &mut sink);
        }
        assert!(g.alarms().is_empty());
        assert_eq!(g.scope(), None);
    }

    #[test]
    fn partial_then_full_hang() {
        let mut g = Goshd::new(2, cfg_ms(100));
        let mut vm = vm_state();
        let mut sink: Vec<Finding> = Vec::new();
        // Both vCPUs healthy until t=200; vCPU 1 dies after 200, vCPU 0
        // after 500.
        for t in (0..=200).step_by(50) {
            g.on_event(&mut vm, &switch_event(0, t), &mut sink);
            g.on_event(&mut vm, &switch_event(1, t), &mut sink);
        }
        for t in (250..=500).step_by(50) {
            g.on_event(&mut vm, &switch_event(0, t), &mut sink);
        }
        for t in (0..=1000).step_by(10) {
            g.on_tick(&mut vm, SimTime::from_millis(t), &mut sink);
        }
        assert_eq!(g.alarms().len(), 2);
        let a0 = &g.alarms()[0];
        assert_eq!(a0.vcpu, VcpuId(1));
        assert_eq!(a0.scope, HangScope::Partial);
        // Detected just past last_switch + threshold.
        assert_eq!(a0.last_switch, SimTime::from_millis(200));
        assert_eq!(a0.detected_at, SimTime::from_millis(310));
        let a1 = &g.alarms()[1];
        assert_eq!(a1.vcpu, VcpuId(0));
        assert_eq!(a1.scope, HangScope::Full);
        assert_eq!(g.scope(), Some(HangScope::Full));
        assert!(g.full_hang_at().is_some());
        assert_eq!(sink.len(), 2);
        assert!(sink.iter().all(|f| f.severity == Severity::Alert));
    }

    #[test]
    fn threshold_is_exclusive() {
        let mut g = Goshd::new(1, cfg_ms(100));
        let mut vm = vm_state();
        let mut sink: Vec<Finding> = Vec::new();
        g.on_event(&mut vm, &switch_event(0, 0), &mut sink);
        g.on_tick(&mut vm, SimTime::from_millis(100), &mut sink);
        assert!(g.alarms().is_empty(), "exactly the threshold: not yet hung");
        g.on_tick(&mut vm, SimTime::from_millis(101), &mut sink);
        assert_eq!(g.alarms().len(), 1);
    }

    #[test]
    fn baseline_prevents_boot_false_alarm() {
        // No events at all: the first tick establishes the baseline, so the
        // alarm fires only a full threshold after monitoring started.
        let mut g = Goshd::new(1, cfg_ms(100));
        let mut vm = vm_state();
        let mut sink: Vec<Finding> = Vec::new();
        g.on_tick(&mut vm, SimTime::from_millis(500), &mut sink);
        assert!(g.alarms().is_empty());
        g.on_tick(&mut vm, SimTime::from_millis(550), &mut sink);
        assert!(g.alarms().is_empty());
        g.on_tick(&mut vm, SimTime::from_millis(601), &mut sink);
        assert_eq!(g.alarms().len(), 1);
    }

    /// A sink that numbers delivered events like the EM does, so auditor
    /// provenance can be tested without a full pipeline.
    #[derive(Default)]
    struct RefSink {
        findings: Vec<Finding>,
        transitions: Vec<(String, String)>,
        current: Option<EventRef>,
    }

    impl FindingSink for RefSink {
        fn report(&mut self, finding: Finding) {
            self.findings.push(finding);
        }
        fn current_ref(&self) -> Option<EventRef> {
            self.current
        }
        fn note_transition(&mut self, auditor: &str, detail: String) {
            self.transitions.push((auditor.to_owned(), detail));
        }
    }

    #[test]
    fn alarm_provenance_points_at_the_last_switch_exit() {
        let mut g = Goshd::new(2, cfg_ms(100));
        let mut vm = vm_state();
        let mut sink = RefSink::default();
        // vCPU 0 switches at refs #0 and #2, vCPU 1 only at #1, then both
        // go silent.
        for (r, (vcpu, t)) in [(0usize, 10u64), (1, 20), (0, 30)].iter().enumerate() {
            sink.current = Some(EventRef(r as u64));
            g.on_event(&mut vm, &switch_event(*vcpu, *t), &mut sink);
        }
        sink.current = None;
        g.on_tick(&mut vm, SimTime::from_millis(500), &mut sink);
        assert_eq!(sink.findings.len(), 2);
        let by_vcpu = |needle: &str| {
            sink.findings
                .iter()
                .find(|f| f.message.starts_with(needle))
                .unwrap_or_else(|| panic!("missing alarm for {needle}"))
        };
        assert_eq!(by_vcpu("vcpu0").provenance, vec![EventRef(2)]);
        assert_eq!(by_vcpu("vcpu1").provenance, vec![EventRef(1)]);
        assert!(by_vcpu("vcpu0").explain().contains("triggered by exits #2"));
        // Each flagged vCPU also produced a liveness-flip transition.
        assert_eq!(sink.transitions.len(), 2);
        assert!(sink.transitions.iter().all(|(a, d)| a == "goshd" && d.contains("live -> hung")));
    }

    #[test]
    fn never_switching_vcpu_falls_back_to_baseline_provenance() {
        let mut g = Goshd::new(2, cfg_ms(100));
        let mut vm = vm_state();
        // Only vCPU 0 ever switches; vCPU 1's alarm can only cite GOSHD's
        // first observed exit.
        let mut sink = RefSink { current: Some(EventRef(4)), ..RefSink::default() };
        g.on_event(&mut vm, &switch_event(0, 10), &mut sink);
        sink.current = None;
        g.on_tick(&mut vm, SimTime::from_millis(500), &mut sink);
        let vcpu1 = sink.findings.iter().find(|f| f.message.starts_with("vcpu1")).unwrap();
        assert_eq!(vcpu1.provenance, vec![EventRef(4)]);
    }

    #[test]
    fn config_from_profile() {
        let c = GoshdConfig::from_profiled_slice(Duration::from_secs(2));
        assert_eq!(c.threshold, Duration::from_secs(4));
        assert_eq!(GoshdConfig::paper_default().threshold, Duration::from_secs(4));
    }

    #[test]
    fn alarms_latch() {
        let mut g = Goshd::new(1, cfg_ms(100));
        let mut vm = vm_state();
        let mut sink: Vec<Finding> = Vec::new();
        g.on_event(&mut vm, &switch_event(0, 0), &mut sink);
        g.on_tick(&mut vm, SimTime::from_millis(200), &mut sink);
        assert!(g.is_hung(VcpuId(0)));
        // Late recovery does not clear the alarm, and no duplicate fires.
        g.on_event(&mut vm, &switch_event(0, 300), &mut sink);
        g.on_tick(&mut vm, SimTime::from_millis(600), &mut sink);
        assert_eq!(g.alarms().len(), 1);
    }

    #[test]
    fn simultaneous_full_hang_is_labeled_full_on_every_alarm() {
        // Regression: both vCPUs die at the same instant and cross the
        // threshold in the same tick. Flagging one at a time computed the
        // scope mid-batch, mislabeling the first alarm Partial even though
        // the machine hung whole.
        let mut g = Goshd::new(2, cfg_ms(100));
        let mut vm = vm_state();
        let mut sink: Vec<Finding> = Vec::new();
        g.on_event(&mut vm, &switch_event(0, 10), &mut sink);
        g.on_event(&mut vm, &switch_event(1, 10), &mut sink);
        // Silence from t=10ms on; one late tick sees both cross at once.
        g.on_tick(&mut vm, SimTime::from_millis(500), &mut sink);
        assert_eq!(g.alarms().len(), 2);
        for alarm in g.alarms() {
            assert_eq!(
                alarm.scope,
                HangScope::Full,
                "a simultaneous whole-machine hang must never be reported Partial: {alarm:?}"
            );
        }
        assert_eq!(g.scope(), Some(HangScope::Full));
        assert_eq!(sink.len(), 2);
        assert!(sink.iter().all(|f| f.message.contains("Full")));
    }
}
