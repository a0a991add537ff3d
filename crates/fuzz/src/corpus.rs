//! Corpus management: the on-disk formats and the starter corpus.
//!
//! A corpus holds two kinds of entries:
//!
//! * **Scenario entries** (`.scn`) — a scenario spec in a line-oriented
//!   `key=value` text format. Replayed by running the scenario live.
//! * **Trace entries** (`.htrz`) — a compressed HTRC trace (possibly a
//!   mutated one that no live scenario produces). Replayed through the
//!   replay path alone.
//!
//! `MANIFEST.txt` lists every entry with the coverage fingerprint it was
//! admitted under; the corpus regression test recomputes each fingerprint
//! and fails on drift. All serialization is deterministic — no wall-clock
//! stamps, no hash-map ordering — so a seeded fuzzing run writes a
//! byte-identical corpus every time.

use crate::harness::{observe_replay, observe_scenario};
use hypertap_hvsim::clock::Duration;
use hypertap_replay::prelude::*;
use hypertap_replay::scenario::WorkloadMix;
use std::fmt;
use std::path::Path;

/// Format tag of `.scn` files and the manifest.
pub const CORPUS_VERSION: &str = "hypertap-fuzz corpus v1";

/// A corpus entry's input payload.
#[derive(Debug, Clone)]
pub enum InputKind {
    /// A scenario spec, run through the live simulator.
    Scenario(Scenario),
    /// A recorded (possibly mutated) trace, run through replay only.
    Trace(Trace),
}

/// One corpus entry.
#[derive(Debug, Clone)]
pub struct CorpusItem {
    /// Entry name; also the file stem on disk.
    pub name: String,
    /// Name of the corpus entry this one was mutated from, if any.
    pub parent: Option<String>,
    /// Coverage fingerprint of the entry's own run at admission time.
    pub fingerprint: u64,
    /// The input itself.
    pub kind: InputKind,
}

/// Structured corpus codec / IO errors.
#[derive(Debug)]
pub enum CorpusError {
    /// Filesystem failure, with the path involved.
    Io(String, std::io::Error),
    /// A `.scn` file or manifest violated the format.
    Malformed {
        /// File the problem was found in.
        file: String,
        /// Human-readable description.
        detail: String,
    },
    /// A `.htrz` entry failed to decode.
    Trace(String, SnapError),
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Io(path, e) => write!(f, "{path}: {e}"),
            CorpusError::Malformed { file, detail } => write!(f, "{file}: {detail}"),
            CorpusError::Trace(path, e) => write!(f, "{path}: trace decode failed: {e}"),
        }
    }
}

impl std::error::Error for CorpusError {}

fn malformed(file: &str, detail: impl Into<String>) -> CorpusError {
    CorpusError::Malformed { file: file.to_owned(), detail: detail.into() }
}

/// Serializes a scenario entry into the `.scn` text format.
pub fn encode_scenario_entry(name: &str, parent: Option<&str>, s: &Scenario) -> String {
    let fault = match s.fault {
        Some((site, true)) => format!("{site},persistent"),
        Some((site, false)) => format!("{site},transient"),
        None => "none".to_owned(),
    };
    let rootkit = match s.rootkit {
        Some(i) => i.to_string(),
        None => "none".to_owned(),
    };
    format!(
        "# {CORPUS_VERSION}\nname={name}\nparent={}\nseed={}\nvcpus={}\npreempt={}\n\
         duration_ms={}\nmix={}\nfault={fault}\nrootkit={rootkit}\n",
        parent.unwrap_or("-"),
        s.seed,
        s.vcpus,
        u8::from(s.preemptible),
        s.duration.as_millis(),
        s.mix.label(),
    )
}

/// Parses a `.scn` scenario entry. `file` is only used in error messages.
pub fn parse_scenario_entry(
    file: &str,
    text: &str,
) -> Result<(String, Option<String>, Scenario), CorpusError> {
    let mut lines = text.lines();
    match lines.next() {
        Some(header) if header == format!("# {CORPUS_VERSION}") => {}
        other => {
            return Err(malformed(file, format!("bad header line: {other:?}")));
        }
    }
    let mut name = None;
    let mut parent = None;
    let mut seed = None;
    let mut vcpus = None;
    let mut preempt = None;
    let mut duration_ms = None;
    let mut mix = None;
    let mut fault = None;
    let mut rootkit = None;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| malformed(file, format!("expected key=value, got {line:?}")))?;
        let parse_u64 =
            |v: &str| v.parse::<u64>().map_err(|e| malformed(file, format!("{key}: {v:?}: {e}")));
        match key {
            "name" => name = Some(value.to_owned()),
            "parent" => parent = (value != "-").then(|| value.to_owned()),
            "seed" => seed = Some(parse_u64(value)?),
            "vcpus" => vcpus = Some(parse_u64(value)? as usize),
            "preempt" => preempt = Some(parse_u64(value)? != 0),
            "duration_ms" => duration_ms = Some(parse_u64(value)?),
            "mix" => {
                mix =
                    Some(WorkloadMix::from_label(value).ok_or_else(|| {
                        malformed(file, format!("unknown workload mix {value:?}"))
                    })?);
            }
            "fault" => {
                fault = Some(if value == "none" {
                    None
                } else {
                    let (site, kind) = value.split_once(',').ok_or_else(|| {
                        malformed(file, format!("fault expects site,kind: {value:?}"))
                    })?;
                    let persistent = match kind {
                        "persistent" => true,
                        "transient" => false,
                        other => {
                            return Err(malformed(
                                file,
                                format!("fault kind must be persistent|transient, got {other:?}"),
                            ));
                        }
                    };
                    Some((parse_u64(site)? as u32, persistent))
                });
            }
            "rootkit" => {
                rootkit =
                    Some(if value == "none" { None } else { Some(parse_u64(value)? as usize) });
            }
            other => return Err(malformed(file, format!("unknown field {other:?}"))),
        }
    }
    let field = |opt: Option<&str>, what: &str| match opt {
        Some(v) => Ok(v.to_owned()),
        None => Err(malformed(file, format!("missing field {what}"))),
    };
    let name = field(name.as_deref(), "name")?;
    let missing = |what: &str| malformed(file, format!("missing field {what}"));
    let scenario = Scenario {
        name: name.clone(),
        seed: seed.ok_or_else(|| missing("seed"))?,
        vcpus: vcpus.ok_or_else(|| missing("vcpus"))?,
        preemptible: preempt.ok_or_else(|| missing("preempt"))?,
        duration: Duration::from_millis(duration_ms.ok_or_else(|| missing("duration_ms"))?),
        mix: mix.ok_or_else(|| missing("mix"))?,
        fault: fault.ok_or_else(|| missing("fault"))?,
        rootkit: rootkit.ok_or_else(|| missing("rootkit"))?,
    };
    Ok((name, parent, scenario))
}

/// Serializes the manifest: one `<file> <fingerprint>` line per entry, in
/// the given order.
pub fn encode_manifest(entries: &[(String, u64)]) -> String {
    let mut out = format!("# {CORPUS_VERSION} manifest\n");
    for (file, fp) in entries {
        out.push_str(&format!("{file} {fp:#018x}\n"));
    }
    out
}

/// Parses the manifest into `(file, fingerprint)` pairs.
pub fn parse_manifest(file: &str, text: &str) -> Result<Vec<(String, u64)>, CorpusError> {
    let mut lines = text.lines();
    match lines.next() {
        Some(h) if h == format!("# {CORPUS_VERSION} manifest") => {}
        other => return Err(malformed(file, format!("bad manifest header: {other:?}"))),
    }
    let mut out = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (entry, fp) = line
            .split_once(' ')
            .ok_or_else(|| malformed(file, format!("expected '<file> <fp>', got {line:?}")))?;
        let fp = fp
            .strip_prefix("0x")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| malformed(file, format!("bad fingerprint {fp:?}")))?;
        out.push((entry.to_owned(), fp));
    }
    Ok(out)
}

/// Loads a corpus directory: reads `MANIFEST.txt` and every entry it
/// names, attaching the manifest fingerprints.
pub fn load_corpus(dir: &Path) -> Result<Vec<CorpusItem>, CorpusError> {
    let manifest_path = dir.join("MANIFEST.txt");
    let as_str = |p: &Path| p.display().to_string();
    let text = std::fs::read_to_string(&manifest_path)
        .map_err(|e| CorpusError::Io(as_str(&manifest_path), e))?;
    let mut items = Vec::new();
    for (entry, fingerprint) in parse_manifest(&as_str(&manifest_path), &text)? {
        let path = dir.join(&entry);
        if entry.ends_with(".scn") {
            let text =
                std::fs::read_to_string(&path).map_err(|e| CorpusError::Io(as_str(&path), e))?;
            let (name, parent, scenario) = parse_scenario_entry(&as_str(&path), &text)?;
            items.push(CorpusItem {
                name,
                parent,
                fingerprint,
                kind: InputKind::Scenario(scenario),
            });
        } else if entry.ends_with(".htrz") {
            let bytes = std::fs::read(&path).map_err(|e| CorpusError::Io(as_str(&path), e))?;
            let raw = decompress(&bytes).map_err(|e| CorpusError::Trace(as_str(&path), e))?;
            let trace = Trace::decode(&raw).map_err(|e| CorpusError::Trace(as_str(&path), e))?;
            let name = entry.trim_end_matches(".htrz").to_owned();
            items.push(CorpusItem {
                name,
                parent: None,
                fingerprint,
                kind: InputKind::Trace(trace),
            });
        } else {
            return Err(malformed(
                &as_str(&manifest_path),
                format!("unknown entry kind {entry:?} (expected .scn or .htrz)"),
            ));
        }
    }
    Ok(items)
}

/// Writes a corpus (entries plus manifest) into `dir`, deterministically.
pub fn save_corpus(dir: &Path, items: &[CorpusItem]) -> Result<(), CorpusError> {
    let as_str = |p: &Path| p.display().to_string();
    std::fs::create_dir_all(dir).map_err(|e| CorpusError::Io(as_str(dir), e))?;
    let mut manifest = Vec::new();
    for item in items {
        let (file, bytes) = match &item.kind {
            InputKind::Scenario(s) => (
                format!("{}.scn", item.name),
                encode_scenario_entry(&item.name, item.parent.as_deref(), s).into_bytes(),
            ),
            InputKind::Trace(t) => (format!("{}.htrz", item.name), compress(&t.encode())),
        };
        let path = dir.join(&file);
        std::fs::write(&path, bytes).map_err(|e| CorpusError::Io(as_str(&path), e))?;
        manifest.push((file, item.fingerprint));
    }
    let path = dir.join("MANIFEST.txt");
    std::fs::write(&path, encode_manifest(&manifest)).map_err(|e| CorpusError::Io(as_str(&path), e))
}

/// The checked-in starter corpus lives here (the fuzz analogue of the
/// golden trace directory).
pub const CORPUS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus");

/// The starter scenarios: a fixed, hand-picked spread over the input
/// space — plain workloads, a persistent lock fault, a rootkit insertion,
/// and a 4-vCPU fault+rootkit stress mix the blind sampler cannot emit.
pub fn starter_scenarios() -> Vec<Scenario> {
    let scn = |name: &str,
               seed: u64,
               vcpus: usize,
               preemptible: bool,
               ms: u64,
               mix: WorkloadMix,
               fault: Option<(u32, bool)>,
               rootkit: Option<usize>| Scenario {
        name: name.to_owned(),
        seed,
        vcpus,
        preemptible,
        duration: Duration::from_millis(ms),
        mix,
        fault,
        rootkit,
    };
    vec![
        scn("seed-writer", 101, 1, false, 90, WorkloadMix::Writer, None, None),
        scn("seed-hanoi-fault", 102, 2, true, 110, WorkloadMix::Hanoi, Some((3, true)), None),
        scn("seed-make-rootkit", 103, 2, false, 100, WorkloadMix::MakeJ2, None, Some(0)),
        scn(
            "seed-stress",
            104,
            4,
            true,
            120,
            WorkloadMix::WriterPlusHanoi,
            Some((7, true)),
            Some(1),
        ),
        scn("seed-preempt-mix", 105, 3, true, 80, WorkloadMix::MakeJ1, Some((0, false)), None),
    ]
}

/// Rebuilds the starter corpus: runs every starter scenario, records its
/// coverage fingerprint, derives one truncated-trace entry, and writes
/// everything (plus the manifest) into `dir`.
pub fn record_starter_corpus(dir: &Path) -> Result<Vec<CorpusItem>, CorpusError> {
    let mut items = Vec::new();
    for s in starter_scenarios() {
        let obs = observe_scenario(&s, &BASE);
        items.push(CorpusItem {
            name: s.name.clone(),
            parent: None,
            fingerprint: obs.coverage.fingerprint(),
            kind: InputKind::Scenario(s),
        });
        // Derive one replay-only trace entry from the first scenario: its
        // trace truncated to a short prefix, the simplest mutated input
        // that exists only on the replay path.
        if items.len() == 1 {
            let mut t = obs.trace.clone();
            TraceMutation::Truncate { keep: 200 }.apply(&mut t);
            t.header.scenario = "seed-writer-trunc".to_owned();
            let replay_obs = observe_replay(&t);
            items.push(CorpusItem {
                name: "seed-writer-trunc".to_owned(),
                parent: Some("seed-writer".to_owned()),
                fingerprint: replay_obs.coverage.fingerprint(),
                kind: InputKind::Trace(t),
            });
        }
    }
    save_corpus(dir, &items)?;
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_entries_round_trip() {
        for s in starter_scenarios() {
            let text = encode_scenario_entry(&s.name, Some("p0"), &s);
            let (name, parent, parsed) = parse_scenario_entry("unit.scn", &text).expect("parses");
            assert_eq!(name, s.name);
            assert_eq!(parent.as_deref(), Some("p0"));
            assert_eq!(parsed.seed, s.seed);
            assert_eq!(parsed.vcpus, s.vcpus);
            assert_eq!(parsed.preemptible, s.preemptible);
            assert_eq!(parsed.duration, s.duration);
            assert_eq!(parsed.mix, s.mix);
            assert_eq!(parsed.fault, s.fault);
            assert_eq!(parsed.rootkit, s.rootkit);
        }
    }

    #[test]
    fn malformed_entries_are_structured_errors() {
        assert!(parse_scenario_entry("u.scn", "garbage").is_err());
        let missing = format!("# {CORPUS_VERSION}\nname=x\n");
        assert!(matches!(
            parse_scenario_entry("u.scn", &missing),
            Err(CorpusError::Malformed { .. })
        ));
        let bad_mix = format!("# {CORPUS_VERSION}\nname=x\nmix=quake\n");
        let err = parse_scenario_entry("u.scn", &bad_mix).unwrap_err();
        assert!(err.to_string().contains("quake"), "{err}");
    }

    #[test]
    fn manifest_round_trips() {
        let entries = vec![("a.scn".to_owned(), 0x1234u64), ("b.htrz".to_owned(), u64::MAX)];
        let text = encode_manifest(&entries);
        assert_eq!(parse_manifest("m", &text).expect("parses"), entries);
        assert!(parse_manifest("m", "nope").is_err());
    }
}
