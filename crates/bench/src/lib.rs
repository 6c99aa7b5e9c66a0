//! # study-bench — harnesses regenerating the paper's tables and figures
//!
//! The [`figures`] module contains one function per table/figure; the
//! `repro` binary drives them (`repro all --quick` smoke-runs everything).
//! [`probes`] holds the raw memory-system microbenchmarks (Table 1, §6.3).
//! [`regress`] is the gate harness behind the `bench` binary: one pass over
//! the pinned matrix yields both accuracy baselines, the attribution
//! snapshot and, via [`critpath`], the critical-path one
//! (`bench regress --check` gates CI on `BENCH_attrib.json` and
//! `BENCH_critpath.json`); its pool loop, comparators and write-or-check
//! flow also serve [`perf`].
//! [`live`] wires the `ccnuma-telemetry` registry, rate pipeline, and
//! streaming observer into sweeps (`bench sweep --live`, `bench top`).
//! [`perf`] is the host-throughput harness behind `bench perf`
//! (`bench perf --check` gates CI on `BENCH_engine.json`) and prices every
//! optional observer in its overhead table.
//! [`daemon`] is the sweep-as-a-service front end (`bench serve` runs a
//! `ccnuma-sweepd` daemon, `bench submit` is its client).
//! [`schedsan`] folds the schedule-seed axis of `bench sanitize
//! --schedules N` back into per-cell deduplicated findings.

#![warn(missing_docs)]

pub mod critpath;
pub mod daemon;
pub mod figures;
pub mod live;
pub mod perf;
pub mod probes;
pub mod regress;
pub mod schedsan;
