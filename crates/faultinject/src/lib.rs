//! # hypertap-faultinject — the guest-OS hang fault-injection campaign
//!
//! Reproduces the paper's §VIII-A evaluation of GOSHD: faults in the
//! kernel's locking discipline (following Cotroneo et al., the
//! paper's reference 34) are injected at catalogue sites while a workload runs; each trial
//! is classified into the paper's five outcomes:
//!
//! * **Not Activated** — the workload never executed the faulty site;
//! * **Not Manifested** — the fault ran but no observable failure followed;
//! * **Not Detected** — an external probe found the VM unresponsive but
//!   GOSHD raised no alarm (the paper's SSH-probe artefact: the probe's
//!   service starved while the kernel kept scheduling);
//! * **Partial Hang** — a proper subset of vCPUs hung (detected);
//! * **Full Hang** — all vCPUs hung within the observation window
//!   (detected, with the partial→full propagation latency recorded).
//!
//! The per-trial latencies feed the Fig. 5 CDFs; the outcome counts feed
//! the Fig. 4 breakdown.

pub mod campaign;
pub mod fleet;
pub mod runner;
pub mod spec;

/// Glob import for campaign drivers.
pub mod prelude {
    pub use crate::campaign::{default_campaign, run_campaign, CampaignConfig, Fig4Row};
    pub use crate::fleet::{
        run_fleet_campaign, FleetAttack, FleetCampaign, FleetCampaignSummary, FleetScenario,
    };
    pub use crate::runner::{run_trial, RunnerConfig};
    pub use crate::spec::{Outcome, TrialResult, TrialSpec, Workload};
}

pub use prelude::*;
