//! The correctness oracle: the deterministic result every cell and
//! experiment must reproduce.
//!
//! The simulator is deterministic, so a cell's record is fixed except
//! for `host_ms` (how long the host took). The expected files under
//! `expected/` hold each cell's record with `host_ms` zeroed, and one
//! FNV-1a digest per experiment of the text `repro` prints. They are
//! written by `--bless` from the current model; an intended model change
//! re-blesses them in the same change. The model reproduces the paper in
//! shape only (DESIGN.md §1), so there is no accuracy error against the
//! paper's numbers to report.

use std::collections::BTreeMap;

use ccnuma_sweep::store::CellRecord;

/// 64-bit FNV-1a.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The record's deterministic form: its store line with `host_ms` = 0.
pub fn canonical(rec: &CellRecord) -> String {
    let mut r = rec.clone();
    r.host_ms = 0;
    r.to_json_line()
}

/// Expected lines keyed by a name (cell label or experiment).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Expected {
    by_name: BTreeMap<String, String>,
}

impl Expected {
    /// Parses an expected-records file (one canonical store line each).
    pub fn records(text: &str) -> Expected {
        let by_name = text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .filter_map(|l| CellRecord::parse_line(l).ok().map(|r| (r.label, l.to_string())))
            .collect();
        Expected { by_name }
    }

    /// Parses an expected-digests file (`<name> <hex digest>` lines).
    pub fn digests(text: &str) -> Expected {
        let by_name = text
            .lines()
            .filter_map(|l| l.split_once(' '))
            .map(|(n, d)| (n.to_string(), d.trim().to_string()))
            .collect();
        Expected { by_name }
    }

    /// Checks one record against its expected line.
    pub fn check_record(&self, rec: &CellRecord) -> Result<(), String> {
        if rec.status.quarantined() {
            return Err(format!(
                "{}: quarantined ({}): {}",
                rec.label,
                rec.status.name(),
                rec.error.as_deref().unwrap_or("")
            ));
        }
        let want = self
            .by_name
            .get(&rec.label)
            .ok_or_else(|| format!("{}: no expected record", rec.label))?;
        let got = canonical(rec);
        if &got == want {
            Ok(())
        } else {
            Err(format!("{}: {}", rec.label, first_difference(want, &got)))
        }
    }

    /// Checks the fields no observer may change (status, simulated
    /// times, misses, events) against the expected record of the same
    /// label, which may have been taken with other observers on.
    pub fn check_passive(&self, rec: &CellRecord) -> Result<(), String> {
        let want = self
            .by_name
            .get(&rec.label)
            .and_then(|l| CellRecord::parse_line(l).ok())
            .ok_or_else(|| format!("{}: no expected record", rec.label))?;
        let fields = |r: &CellRecord| {
            [
                ("wall_ns", r.wall_ns),
                ("seq_ns", r.seq_ns),
                ("busy_ns", r.busy_ns),
                ("mem_ns", r.mem_ns),
                ("sync_ns", r.sync_ns),
                ("misses", r.misses),
                ("events", r.events),
            ]
        };
        if rec.status != want.status {
            return Err(format!("{}: status {}", rec.label, rec.status.name()));
        }
        for ((name, w), (_, g)) in fields(&want).into_iter().zip(fields(rec)) {
            if w != g {
                return Err(format!("{}: expected {name} {w}, got {g}", rec.label));
            }
        }
        Ok(())
    }

    /// Checks one experiment's output digest.
    pub fn check_digest(&self, name: &str, digest: u64) -> Result<(), String> {
        match self.by_name.get(name) {
            None => Err(format!("{name}: no expected digest")),
            Some(want) if *want == format!("{digest:016x}") => Ok(()),
            Some(want) => Err(format!("{name}: output digest {digest:016x}, expected {want}")),
        }
    }
}

/// The expected-records file for `records`, sorted by label.
pub fn render_records(records: &[CellRecord]) -> String {
    let mut lines: Vec<(String, String)> = records
        .iter()
        .map(|r| (r.label.clone(), canonical(r)))
        .collect();
    lines.sort();
    lines.into_iter().map(|(_, l)| l + "\n").collect()
}

/// The expected-digests file for `(name, digest)` pairs, sorted by name.
pub fn render_digests(digests: &[(String, u64)]) -> String {
    let mut v = digests.to_vec();
    v.sort();
    v.into_iter().map(|(n, d)| format!("{n} {d:016x}\n")).collect()
}

/// The first `field: value` pair that differs between two store lines.
fn first_difference(want: &str, got: &str) -> String {
    let strip = |s: &str| s.trim_matches(|c| c == '{' || c == '}').to_string();
    let (w, g) = (strip(want), strip(got));
    let ws: Vec<&str> = w.split(", \"").collect();
    let gs: Vec<&str> = g.split(", \"").collect();
    for i in 0..ws.len().max(gs.len()) {
        let (a, b) = (ws.get(i).copied(), gs.get(i).copied());
        if a != b {
            return format!(
                "expected \"{}, got \"{}",
                a.unwrap_or("<none>").trim_start_matches('"'),
                b.unwrap_or("<none>").trim_start_matches('"')
            );
        }
    }
    "records differ".into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccnuma_sweep::store::CellStatus;

    fn record() -> CellRecord {
        CellRecord {
            key: "49fb21ffd269539e".into(),
            label: "fft/orig/32p".into(),
            app: "fft".into(),
            version: "orig".into(),
            problem: "4K points".into(),
            nprocs: 32,
            scale: "full".into(),
            status: CellStatus::Ok,
            attempts: 1,
            host_ms: 123,
            wall_ns: 1_985_314,
            seq_ns: 112_125_587,
            busy_ns: 111_360_300,
            mem_ns: 19_439_984,
            sync_ns: 123_319_908,
            misses: 50_743,
            events: 17_510,
            causes: [1, 2, 3, 4, 5],
            sanitize: Some([0, 0, 2]),
            critpath: Some([10, 20, 30]),
            error: None,
        }
    }

    #[test]
    fn host_time_is_not_part_of_the_result() {
        let exp = Expected::records(&render_records(&[record()]));
        let mut r = record();
        r.host_ms = 99_999;
        assert_eq!(exp.check_record(&r), Ok(()));
    }

    #[test]
    fn every_simulated_field_is_checked() {
        let exp = Expected::records(&render_records(&[record()]));
        let perturb: [(&str, fn(&mut CellRecord)); 8] = [
            ("wall_ns", |r| r.wall_ns += 1),
            ("seq_ns", |r| r.seq_ns -= 1),
            ("busy_ns", |r| r.busy_ns += 7),
            ("mem_ns", |r| r.mem_ns += 1),
            ("sync_ns", |r| r.sync_ns += 1),
            ("misses", |r| r.misses += 1),
            ("events", |r| r.events += 1),
            ("causes", |r| r.causes[4] += 1),
        ];
        for (field, f) in perturb {
            let mut r = record();
            f(&mut r);
            let err = exp.check_record(&r).expect_err(field);
            assert!(err.contains(field), "{field}: {err}");
        }
        let mut r = record();
        r.critpath = Some([10, 21, 30]);
        assert!(exp.check_record(&r).unwrap_err().contains("critpath"));
    }

    #[test]
    fn passive_check_ignores_observer_fields_only() {
        let exp = Expected::records(&render_records(&[record()]));
        let mut r = record();
        r.key = "0000000000000000".into();
        r.causes = [0; 5];
        r.sanitize = None;
        r.critpath = None;
        assert_eq!(exp.check_passive(&r), Ok(()));
        r.events += 1;
        assert!(exp.check_passive(&r).unwrap_err().contains("events"));
    }

    #[test]
    fn quarantined_and_unknown_cells_fail() {
        let exp = Expected::records(&render_records(&[record()]));
        let mut r = record();
        r.status = CellStatus::Panicked;
        assert!(exp.check_record(&r).unwrap_err().contains("quarantined"));
        let mut r = record();
        r.label = "fft/orig/64p".into();
        assert!(exp.check_record(&r).unwrap_err().contains("no expected"));
    }

    #[test]
    fn digests_round_trip() {
        let d = fnv1a64(b"Table 1\n");
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        let exp = Expected::digests(&render_digests(&[("table1".into(), d)]));
        assert_eq!(exp.check_digest("table1", d), Ok(()));
        assert!(exp.check_digest("table1", d ^ 1).is_err());
        assert!(exp.check_digest("fig2", d).is_err());
    }
}
