//! Live telemetry for the ccNUMA scaling study: a lock-cheap metrics
//! registry, a rate pipeline, and a streaming observer.
//!
//! The crate is std-only and knows nothing about simulators or sweeps —
//! it provides the mechanisms the study's binaries compose:
//!
//! * [`registry`] — named counters, gauges, and log2-bucketed histograms
//!   with an atomic hot path (handles are `Arc`s around atomics; the
//!   registry lock is touched only at registration and snapshot time).
//! * [`rate`] — an EWMA/derivative filter turning monotonic counters
//!   into per-epoch rates (events/sec, misses/sec), robust to counter
//!   resets and empty epochs.
//! * [`expo`] — Prometheus text exposition and a flat JSON rendering of
//!   a registry snapshot.
//! * [`http`] — the one HTTP/1.1 request parser, accept loop, response
//!   and SSE framing, and client, shared with the sweep daemon.
//! * [`hub`] — the observer: an epoch sampler, a crash-safe JSONL
//!   epoch log, and `/metrics`, `/snapshot`, `/events` (SSE) and
//!   `/healthz` endpoints.
//!
//! Everything here observes; nothing feeds back. The simulation's
//! determinism guarantee (bit-identical `RunStats` with telemetry on or
//! off) is pinned by tests in the `bench` crate.

#![warn(missing_docs)]

pub mod expo;
pub mod http;
pub mod hub;
pub mod rate;
pub mod registry;

pub use rate::RateFilter;
pub use registry::{Counter, Gauge, Histogram, Registry, SampleValue};
