//! The trace recorder: an [`EventTap`] at the Event Forwarder boundary.
//!
//! The recorder attaches as an Event Multiplexer observer, which sees each
//! event *before* subscription routing — so the trace is the full
//! forwarded stream, including events no registered auditor subscribed to.
//! That is the stream the conformance harness diffs: the logging layer's
//! output, independent of which auditors happen to be listening.

use crate::trace::{Trace, TraceHeader, TraceRecord};
use hypertap_core::em::EventTap;
use hypertap_core::event::Event;
use hypertap_hvsim::clock::SimTime;
use std::sync::{Arc, Mutex};

/// Records the forwarded event stream into an in-memory [`Trace`].
///
/// The recorder hands the EM a tap via [`TraceRecorder::tap`]; both share
/// the same buffer, so the recorder can assemble the trace after the run
/// while the EM still owns the tap box.
pub struct TraceRecorder {
    header: TraceHeader,
    shared: Arc<Mutex<Vec<TraceRecord>>>,
}

impl TraceRecorder {
    /// A recorder for a run described by `header`.
    pub fn new(header: TraceHeader) -> Self {
        TraceRecorder { header, shared: Arc::new(Mutex::new(Vec::new())) }
    }

    /// The tap to hand to [`EventMultiplexer::attach_tap`].
    ///
    /// [`EventMultiplexer::attach_tap`]: hypertap_core::em::EventMultiplexer::attach_tap
    pub fn tap(&self) -> Box<dyn EventTap> {
        Box::new(RecorderTap { shared: Arc::clone(&self.shared) })
    }

    /// Number of records captured so far.
    pub fn len(&self) -> usize {
        self.shared.lock().expect("recorder buffer").len()
    }

    /// Whether nothing has been captured yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Assembles the trace from everything captured so far.
    pub fn finish(self) -> Trace {
        let records = std::mem::take(&mut *self.shared.lock().expect("recorder buffer"));
        Trace { header: self.header, records }
    }

    /// Serializes everything captured so far as HTRC trace bytes — the
    /// recorder's contribution to a VM migration blob. The EM's tap box is
    /// deliberately not serialized (it is recipe state); only the shared
    /// record buffer travels.
    pub fn snapshot_records(&self) -> Vec<u8> {
        let records = self.shared.lock().expect("recorder buffer").clone();
        Trace { header: self.header.clone(), records }.encode()
    }

    /// Replaces the captured buffer with records from
    /// [`TraceRecorder::snapshot_records`]. The recorder keeps its own
    /// (recipe-built) header; the snapshot's header must match it.
    pub fn restore_records(&mut self, bytes: &[u8]) -> Result<(), String> {
        let trace = Trace::decode(bytes).map_err(|e| e.to_string())?;
        if trace.header != self.header {
            return Err(format!(
                "migrated trace header mismatch: got {}/{}, want {}/{}",
                trace.header.scenario,
                trace.header.config,
                self.header.scenario,
                self.header.config
            ));
        }
        *self.shared.lock().expect("recorder buffer") = trace.records;
        Ok(())
    }
}

struct RecorderTap {
    shared: Arc<Mutex<Vec<TraceRecord>>>,
}

impl EventTap for RecorderTap {
    fn on_event(&mut self, event: &Event) {
        self.shared.lock().expect("recorder buffer").push(TraceRecord::Event(*event));
    }

    fn on_tick(&mut self, now: SimTime) {
        self.shared.lock().expect("recorder buffer").push(TraceRecord::Tick(now));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypertap_core::event::{EventKind, VmId};
    use hypertap_hvsim::exit::VcpuSnapshot;
    use hypertap_hvsim::mem::{Gpa, Gva};
    use hypertap_hvsim::vcpu::{Cpl, VcpuId};

    #[test]
    fn tap_and_recorder_share_the_buffer() {
        let rec = TraceRecorder::new(TraceHeader::new(1, 0, "unit", "default"));
        let mut tap = rec.tap();
        let ev = Event {
            vm: VmId(0),
            vcpu: VcpuId(0),
            time: SimTime::from_nanos(5),
            kind: EventKind::ProcessSwitch { new_pdba: Gpa::new(0x1000) },
            state: VcpuSnapshot::from_parts(
                Gpa::new(0x1000),
                Gva::new(0),
                Gva::new(0),
                Gva::new(0),
                Cpl::Kernel,
                [0; 7],
            ),
        };
        tap.on_event(&ev);
        tap.on_tick(SimTime::from_nanos(9));
        assert_eq!(rec.len(), 2);
        let trace = rec.finish();
        assert_eq!(trace.records[0], TraceRecord::Event(ev));
        assert_eq!(trace.records[1], TraceRecord::Tick(SimTime::from_nanos(9)));
    }
}
