//! Spans around the benchmark's calls into each crate, held in memory
//! and written out at the end of a traced run.
//!
//! A span's name is `<layer>:<call>` (`sim.engine:run`,
//! `sweep.store:append`, ...). Its self time is its duration times its
//! lanes (parallel workers that run its children) minus the durations
//! of its direct children, so the self times of a tree sum exactly to
//! the root's duration times its lanes. Each workload pass is a root
//! span in the `unattributed` layer: its self time is what no measured
//! call accounts for (glue, pool idle, and the benchmark itself).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The layer of a pass's root span: host time inside the pass that no
/// measured call accounts for.
pub const UNATTRIBUTED: &str = "unattributed";

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the recorder.
    pub id: u64,
    /// Enclosing span, `None` for a root.
    pub parent: Option<u64>,
    /// `<layer>:<call>`.
    pub name: String,
    /// Cell, experiment or request the span belongs to (may be empty).
    pub cell: String,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Parallel lanes the span's children run on (1 unless the span
    /// fans work out over a pool).
    pub lanes: u32,
}

impl Span {
    /// Wall duration, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer part of the name.
    pub fn layer(&self) -> &str {
        self.name.split(':').next().unwrap_or(&self.name)
    }
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a one-lane span; `f` gets the span id to parent
    /// its own children on.
    pub fn span<R>(
        &self,
        name: &str,
        parent: Option<u64>,
        cell: &str,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        self.span_lanes(name, parent, cell, 1, f)
    }

    /// Like [`Recorder::span`], for a span whose children run on
    /// `lanes` parallel workers.
    pub fn span_lanes<R>(
        &self,
        name: &str,
        parent: Option<u64>,
        cell: &str,
        lanes: u32,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            parent,
            name: name.to_string(),
            cell: cell.to_string(),
            start_ns,
            end_ns,
            lanes,
        });
        out
    }

    /// Every span recorded so far, in finishing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// Self time of each span, ns, in the order given. Negative only if
/// children overlap more than the span's lanes allow.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut child_ns: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.dur_ns() as f64;
        }
    }
    spans
        .iter()
        .map(|s| {
            s.dur_ns() as f64 * f64::from(s.lanes) - child_ns.get(&s.id).copied().unwrap_or(0.0)
        })
        .collect()
}

/// Self seconds per layer; sums to the roots' durations times lanes.
pub fn ledger(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer().to_string()).or_default() += self_ns / 1e9;
    }
    out
}

/// Total seconds spent in spans called `name`.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e9)
        .sum()
}

/// Durations in ms of the spans called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// Writes the spans as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"cell\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}, \"lanes\": {}}}",
            s.id,
            s.name.replace('"', "'"),
            s.cell.replace('"', "'"),
            s.start_ns,
            s.end_ns,
            s.lanes
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start: u64, end: u64, lanes: u32) -> Span {
        Span {
            id,
            parent,
            name: name.into(),
            cell: String::new(),
            start_ns: start,
            end_ns: end,
            lanes,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // A two-lane pass running two cells; the second cell nests a run.
        let spans = vec![
            span(2, Some(1), "sweep.run:cell", 0, 60, 1),
            span(4, Some(3), "sim.engine:run", 20, 50, 1),
            span(3, Some(1), "sweep.run:cell", 10, 90, 1),
            span(1, None, "unattributed:pass", 0, 100, 2),
        ];
        assert_eq!(self_times(&spans), vec![60.0, 30.0, 50.0, 60.0]);
        let l = ledger(&spans);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-18;
        assert!(close(l["sweep.run"], 110e-9));
        assert!(close(l["sim.engine"], 30e-9));
        assert!(close(l[UNATTRIBUTED], 60e-9));
        let sum: f64 = l.values().sum();
        assert!(close(sum, 200e-9), "ledger sums to wall x lanes");
    }

    #[test]
    fn recorder_nests_and_names_layers() {
        let rec = Recorder::default();
        let v = rec.span_lanes("unattributed:pass", None, "", 1, |root| {
            rec.span("apps:build", Some(root), "fft/orig/32p", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                7
            })
        });
        assert_eq!(v, 7);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].layer(), "apps");
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert!(spans[0].dur_ns() >= 2_000_000);
        let selfs = self_times(&spans);
        assert!(selfs.iter().all(|&s| s >= 0.0));
        assert_eq!(total_s(&spans, "apps:build"), spans[0].dur_ns() as f64 / 1e9);
        assert_eq!(durations_ms(&spans, "apps:build").len(), 1);
    }
}
