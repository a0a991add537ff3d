//! # hypertap-bench — experiment harnesses for every table and figure
//!
//! One binary per paper artefact (see DESIGN.md's per-experiment index):
//!
//! | binary | artefact |
//! |---|---|
//! | `table1` | Table I — guest events ↔ VM Exits ↔ invariants |
//! | `fig4`   | Fig. 4 — GOSHD hang-detection coverage |
//! | `fig5`   | Fig. 5 — GOSHD detection-latency CDFs |
//! | `table2` | Table II — rootkits detected by HRKD |
//! | `table3` | Table III — side-channel prediction of Ninja's interval |
//! | `fig6`   | Fig. 6 — transient & spamming attack timelines |
//! | `ninjas` | §VIII-C — detection probability of O-/H-/HT-Ninja |
//! | `fig7`   | Fig. 7 — monitoring overhead on the UnixBench-style suite |
//!
//! plus `flightdump`, which inspects, exports and tails flight-recorder
//! dumps. Host-time performance is measured by the separate `perf`
//! package (`perf/README.md`), not here: these binaries report simulated
//! time only.
//!
//! The library half hosts the shared machinery: a tiny CLI parser, table
//! formatting, the dump-directory follower, the ninja-experiment trial
//! runner and the ubench runner.

pub mod cli;
pub mod follow;
pub mod ninja_scenarios;
pub mod report;
pub mod ubench;
