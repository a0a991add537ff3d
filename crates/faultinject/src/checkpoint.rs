//! Campaign checkpoint/resume: a versioned `.htcp` blob in the HTRC codec
//! family that freezes a partially-run injection campaign — which trials
//! have completed and what they produced — so a host restart resumes the
//! sweep instead of restarting it.
//!
//! Trials are independent and individually seeded, so the checkpoint does
//! not freeze machine state (that is what `.htsp` snapshots are for); it
//! freezes *campaign progress*. Resuming re-runs only the missing trials,
//! and because every trial is deterministic the resumed campaign's result
//! vector is byte-identical to an uninterrupted run — the same contract
//! the VM snapshot codec proves, one layer up.
//!
//! A checkpoint is bound to its campaign by a fingerprint over the full
//! expanded spec list. Restoring into a different campaign (different
//! sites, workloads, seed, runner-visible shape) is a structured error,
//! mirroring the snapshot codec's recipe-congruence rejection.

use crate::campaign::CampaignConfig;
use crate::runner::run_trial;
use crate::spec::{FaultKind, Outcome, TrialResult, TrialSpec, Workload};
use hypertap_hvsim::snap::{SnapError, SnapReader, SnapWriter};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

/// Magic for the campaign-checkpoint codec.
pub const HTCP_MAGIC: &[u8; 4] = b"HTCP";
/// Current `.htcp` envelope version.
pub const HTCP_VERSION: u64 = 1;

/// A frozen campaign: the identity of the sweep plus every completed
/// trial, indexed into the expanded spec list.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCheckpoint {
    /// Fingerprint of the campaign's expanded spec list (see
    /// [`campaign_fingerprint`]).
    pub fingerprint: u64,
    /// Total trials in the campaign.
    pub total: u64,
    /// Completed trials as `(spec index, result)`, in index order.
    pub completed: Vec<(u64, TrialResult)>,
}

fn workload_tag(w: Workload) -> u64 {
    Workload::ALL.iter().position(|&x| x == w).expect("workload is in ALL") as u64
}

fn workload_from_tag(tag: u64, offset: usize) -> Result<Workload, SnapError> {
    Workload::ALL
        .get(tag as usize)
        .copied()
        .ok_or(SnapError::BadValue { offset, what: "workload tag" })
}

fn fault_tag(f: FaultKind) -> u64 {
    match f {
        FaultKind::MissingUnlock => 0,
        FaultKind::WrongOrder => 1,
        FaultKind::MissingUnlockLockPair => 2,
        FaultKind::MissingIrqRestore => 3,
    }
}

fn fault_from_tag(tag: u64, offset: usize) -> Result<FaultKind, SnapError> {
    Ok(match tag {
        0 => FaultKind::MissingUnlock,
        1 => FaultKind::WrongOrder,
        2 => FaultKind::MissingUnlockLockPair,
        3 => FaultKind::MissingIrqRestore,
        _ => return Err(SnapError::BadValue { offset, what: "fault tag" }),
    })
}

fn outcome_tag(o: Outcome) -> u64 {
    match o {
        Outcome::NotActivated => 0,
        Outcome::NotManifested => 1,
        Outcome::NotDetected => 2,
        Outcome::PartialHang => 3,
        Outcome::FullHang => 4,
    }
}

fn outcome_from_tag(tag: u64, offset: usize) -> Result<Outcome, SnapError> {
    Ok(match tag {
        0 => Outcome::NotActivated,
        1 => Outcome::NotManifested,
        2 => Outcome::NotDetected,
        3 => Outcome::PartialHang,
        4 => Outcome::FullHang,
        _ => return Err(SnapError::BadValue { offset, what: "outcome tag" }),
    })
}

fn save_spec(w: &mut SnapWriter, s: &TrialSpec) {
    w.varint(s.site as u64);
    w.varint(fault_tag(s.fault));
    w.boolean(s.persistent);
    w.varint(workload_tag(s.workload));
    w.boolean(s.preemptible);
    w.varint(s.seed);
}

fn load_spec(r: &mut SnapReader) -> Result<TrialSpec, SnapError> {
    let site = u32::try_from(r.varint()?)
        .map_err(|_| SnapError::BadValue { offset: r.offset(), what: "site index" })?;
    Ok(TrialSpec {
        site,
        fault: fault_from_tag(r.varint()?, r.offset())?,
        persistent: r.boolean()?,
        workload: workload_from_tag(r.varint()?, r.offset())?,
        preemptible: r.boolean()?,
        seed: r.varint()?,
    })
}

fn save_result(w: &mut SnapWriter, t: &TrialResult) {
    save_spec(w, &t.spec);
    w.varint(outcome_tag(t.outcome));
    w.varint(t.activations);
    w.opt_varint(t.activated_at_ns);
    w.opt_varint(t.first_alarm_ns);
    w.opt_varint(t.detection_latency_ns);
    w.opt_varint(t.full_hang_at_ns);
    w.opt_varint(t.full_hang_latency_ns);
}

fn load_result(r: &mut SnapReader) -> Result<TrialResult, SnapError> {
    Ok(TrialResult {
        spec: load_spec(r)?,
        outcome: outcome_from_tag(r.varint()?, r.offset())?,
        activations: r.varint()?,
        activated_at_ns: r.opt_varint()?,
        first_alarm_ns: r.opt_varint()?,
        detection_latency_ns: r.opt_varint()?,
        full_hang_at_ns: r.opt_varint()?,
        full_hang_latency_ns: r.opt_varint()?,
    })
}

/// FNV-1a over the campaign's expanded spec list: two configurations get
/// the same fingerprint exactly when they expand to the same trials in
/// the same order, which is what resume-correctness needs.
pub fn campaign_fingerprint(cfg: &CampaignConfig) -> u64 {
    let mut w = SnapWriter::new();
    for spec in cfg.specs() {
        save_spec(&mut w, &spec);
    }
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in w.into_bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

impl CampaignCheckpoint {
    /// An empty checkpoint for a campaign (no trials completed).
    pub fn for_config(cfg: &CampaignConfig) -> CampaignCheckpoint {
        CampaignCheckpoint {
            fingerprint: campaign_fingerprint(cfg),
            total: cfg.specs().len() as u64,
            completed: Vec::new(),
        }
    }

    /// Serializes the checkpoint into `.htcp` bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.header(HTCP_MAGIC, HTCP_VERSION);
        w.varint(self.fingerprint);
        w.varint(self.total);
        w.varint(self.completed.len() as u64);
        for (idx, result) in &self.completed {
            w.varint(*idx);
            save_result(&mut w, result);
        }
        w.into_bytes()
    }

    /// Decodes `.htcp` bytes; truncation, corruption and version skew are
    /// structured errors, never panics.
    pub fn decode(bytes: &[u8]) -> Result<CampaignCheckpoint, SnapError> {
        let mut r = SnapReader::new(bytes);
        r.header(HTCP_MAGIC, HTCP_VERSION)?;
        let fingerprint = r.varint()?;
        let total = r.varint()?;
        let n = r.count(total.min(u32::MAX as u64) as usize, "completed trials")?;
        let mut completed = Vec::with_capacity(n);
        let mut last: Option<u64> = None;
        for _ in 0..n {
            let idx = r.varint()?;
            if idx >= total || last.is_some_and(|p| idx <= p) {
                return Err(SnapError::BadValue {
                    offset: r.offset(),
                    what: "completed-trial index",
                });
            }
            last = Some(idx);
            completed.push((idx, load_result(&mut r)?));
        }
        r.finish()?;
        Ok(CampaignCheckpoint { fingerprint, total, completed })
    }
}

/// Runs a campaign, resuming from `resume` if given and emitting a
/// checkpoint to `on_checkpoint` after every `checkpoint_every` completed
/// trials (and once more when the campaign finishes). Completed trials in
/// the checkpoint are not re-run; because trials are deterministic, the
/// returned result vector is identical to an uninterrupted
/// [`run_campaign`](crate::campaign::run_campaign).
///
/// Fails up front if the checkpoint belongs to a different campaign.
pub fn run_campaign_resumable(
    cfg: &CampaignConfig,
    resume: Option<&CampaignCheckpoint>,
    checkpoint_every: usize,
    mut on_checkpoint: impl FnMut(&CampaignCheckpoint),
    progress: impl Fn(usize, usize) + Send + Sync,
) -> Result<Vec<TrialResult>, String> {
    let specs = cfg.specs();
    let total = specs.len();
    let fingerprint = campaign_fingerprint(cfg);
    let mut results: Vec<Option<TrialResult>> = (0..total).map(|_| None).collect();
    if let Some(cp) = resume {
        if cp.fingerprint != fingerprint {
            return Err(format!(
                "checkpoint fingerprint {:#018x} does not match this campaign ({fingerprint:#018x})",
                cp.fingerprint
            ));
        }
        if cp.total as usize != total {
            return Err(format!(
                "checkpoint expects {} trials, this campaign expands to {total}",
                cp.total
            ));
        }
        for (idx, r) in &cp.completed {
            results[*idx as usize] = Some(r.clone());
        }
    }

    let pending: Vec<(usize, TrialSpec)> =
        specs.into_iter().enumerate().filter(|(i, _)| results[*i].is_none()).collect();
    let threads = if cfg.threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    } else {
        cfg.threads
    };

    let queue = Arc::new(Mutex::new(pending));
    let (tx, rx) = mpsc::channel::<(usize, TrialResult)>();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let queue = queue.clone();
            let tx = tx.clone();
            let runner = cfg.runner.clone();
            scope.spawn(move || loop {
                let next = queue.lock().expect("queue lock").pop();
                let Some((idx, spec)) = next else { break };
                let result = run_trial(&spec, &runner);
                if tx.send((idx, result)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let checkpoint = |results: &[Option<TrialResult>]| CampaignCheckpoint {
            fingerprint,
            total: total as u64,
            completed: results
                .iter()
                .enumerate()
                .filter_map(|(i, r)| r.as_ref().map(|r| (i as u64, r.clone())))
                .collect(),
        };
        let mut done = results.iter().filter(|r| r.is_some()).count();
        let mut since_checkpoint = 0usize;
        while let Ok((idx, r)) = rx.recv() {
            results[idx] = Some(r);
            done += 1;
            since_checkpoint += 1;
            progress(done, total);
            if checkpoint_every > 0 && since_checkpoint >= checkpoint_every {
                since_checkpoint = 0;
                on_checkpoint(&checkpoint(&results));
            }
        }
        on_checkpoint(&checkpoint(&results));
    });
    results.into_iter().map(|r| r.ok_or_else(|| "a trial never completed".to_string())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{default_campaign, run_campaign};

    fn tiny_campaign() -> CampaignConfig {
        let mut cfg = default_campaign(47);
        cfg.workloads = vec![Workload::Hanoi];
        cfg.persistence = vec![true];
        cfg.threads = 2;
        cfg
    }

    #[test]
    fn checkpoint_round_trips_byte_for_byte() {
        let cfg = tiny_campaign();
        let results = run_campaign(&cfg, |_, _| {});
        let cp = CampaignCheckpoint {
            fingerprint: campaign_fingerprint(&cfg),
            total: results.len() as u64,
            completed: results.iter().cloned().enumerate().map(|(i, r)| (i as u64, r)).collect(),
        };
        let bytes = cp.encode();
        let decoded = CampaignCheckpoint::decode(&bytes).expect("decodes");
        assert_eq!(decoded, cp);
        assert_eq!(decoded.encode(), bytes, "re-encode must be byte-identical");
    }

    #[test]
    fn resumed_campaign_equals_uninterrupted_run() {
        let cfg = tiny_campaign();
        let uninterrupted = run_campaign(&cfg, |_, _| {});

        // Simulate a crash after roughly half the trials: keep every
        // second completed trial in the checkpoint.
        let half = CampaignCheckpoint {
            fingerprint: campaign_fingerprint(&cfg),
            total: uninterrupted.len() as u64,
            completed: uninterrupted
                .iter()
                .cloned()
                .enumerate()
                .filter(|(i, _)| i % 2 == 0)
                .map(|(i, r)| (i as u64, r))
                .collect(),
        };
        let bytes = half.encode();
        let restored = CampaignCheckpoint::decode(&bytes).expect("decodes");
        let resumed = run_campaign_resumable(&cfg, Some(&restored), 0, |_| {}, |_, _| {})
            .expect("resume runs");
        assert_eq!(resumed, uninterrupted, "resume must reproduce the full campaign");
    }

    #[test]
    fn checkpoints_are_emitted_and_final_one_is_complete() {
        let cfg = tiny_campaign();
        let mut seen = Vec::new();
        let results = run_campaign_resumable(&cfg, None, 1, |cp| seen.push(cp.clone()), |_, _| {})
            .expect("runs");
        assert!(seen.len() >= results.len(), "one checkpoint per trial plus the final one");
        let last = seen.last().expect("final checkpoint");
        assert_eq!(last.completed.len(), results.len());
        // The final checkpoint resumes to a no-op campaign.
        let resumed = run_campaign_resumable(
            &cfg,
            Some(last),
            0,
            |_| {},
            |_, _| panic!("no trial should re-run from a complete checkpoint"),
        )
        .expect("no-op resume");
        assert_eq!(resumed, results);
    }

    #[test]
    fn foreign_checkpoints_are_rejected() {
        let cfg = tiny_campaign();
        let mut other = tiny_campaign();
        other.seed ^= 0xDEAD;
        let cp = CampaignCheckpoint::for_config(&other);
        let err = run_campaign_resumable(&cfg, Some(&cp), 0, |_| {}, |_, _| {})
            .expect_err("foreign checkpoint must be rejected");
        assert!(err.contains("fingerprint"), "error names the mismatch: {err}");
    }
}
