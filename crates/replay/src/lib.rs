//! Deterministic record–replay and differential conformance testing for
//! the HyperTap monitoring stack.
//!
//! The paper's passive monitoring guarantee (§IV) is that the logging
//! layer observes the guest without perturbing it: monitoring-plane knobs
//! — the software TLB, the engine decode set, extra never-firing
//! exit-control bits — must not change what gets logged. This crate turns
//! that guarantee into a testable contract:
//!
//! * [`recorder`] — an [`EventTap`](hypertap_core::em::EventTap) at the
//!   Event Forwarder boundary records the full pre-subscription stream.
//! * [`trace`] — the compact versioned HTRC trace format (delta-encoded, sync
//!   barriers, validated trailing index, optional HTRZ compression).
//! * [`replay`] — re-feeds a trace into a fresh Event Multiplexer and
//!   auditor set *without the simulator* and extracts a [`Verdict`]
//!   that must equal the live run's bit-for-bit.
//! * [`diff`] — finds the first divergent record between two traces,
//!   exactly or after projection onto a shared event-class mask.
//! * [`scenario`] — seeded random guest scenarios (program mixes, lock
//!   faults, rootkit insertions) and the configuration variants under
//!   differential test.
//! * [`golden`] — checked-in regression traces mirroring the repo
//!   examples, plus a recorded 4-VM fleet archive.
//! * [`fleet`] — per-VM trace recording under the sharded
//!   `hypertap_core::fleet` host, diffed against the sequential
//!   single-VM baseline (the fleet determinism contract, §tested).
//!
//! The `conformance` binary drives the loop:
//! `cargo run --release -p hypertap-replay --bin conformance -- --scenarios 100 --seed 42`.
//!
//! [`Verdict`]: crate::replay::Verdict

pub mod diff;
pub mod fleet;
pub mod golden;
pub mod mutate;
pub mod recorder;
pub mod replay;
pub mod scenario;
pub mod shrink;
pub mod trace;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::diff::{diff_traces, DiffPolicy, Divergence};
    pub use crate::fleet::{
        decode_fleet_archive, diff_fleet_reports, encode_fleet_archive, fleet_conformance_pair,
        fleet_traces, golden_fleet, run_member_alone, run_scenario_fleet, FleetDivergence,
        ScenarioFleet, GOLDEN_FLEET_NAME,
    };
    pub use crate::golden::{golden_path, golden_scenarios};
    pub use crate::mutate::{apply_all, cross_splice, TraceMutation};
    pub use crate::recorder::TraceRecorder;
    pub use crate::replay::{replay_trace, validate_provenance, Verdict};
    pub use crate::scenario::{
        build_scenario_vm, conformance_pairs, register_auditors, run_scenario, ConfigVariant,
        Scenario, BASE,
    };
    pub use crate::shrink::{minimize_mutations, shrink_diverging_prefix, truncated, ShrunkPair};
    pub use crate::trace::{compress, decompress, Trace, TraceHeader, TraceRecord};
    pub use hypertap_hvsim::snap::SnapError;
}
