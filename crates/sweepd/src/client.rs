//! A small blocking client for the daemon, used by `bench submit` and
//! the integration tests: [`request`] round trips plus readers for the
//! daemon's JSON shapes (records are read by the store's own
//! [`CellRecord::from_value`], so a fetched record round-trips
//! bit-identically).

use std::time::Duration;

use ccnuma_sweep::json::{self, Value};
use ccnuma_sweep::store::CellRecord;
pub use ccnuma_telemetry::http::request;

/// What `POST /sweep` answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitResponse {
    /// Daemon-assigned job id.
    pub job: u64,
    /// Cells in the expanded matrix.
    pub cells: usize,
    /// Cells answered from the store immediately.
    pub cached: usize,
    /// Cells enqueued for fresh simulation by *this* job.
    pub enqueued: usize,
    /// Cells still pending (enqueued here or joined onto another job's
    /// in-flight run).
    pub pending: usize,
    /// Whether the job was complete at submit time (100% cache hits).
    pub complete: bool,
}

/// One `GET /jobs/<id>` answer.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// Job id.
    pub job: u64,
    /// Total cells.
    pub total: usize,
    /// Cells answered from the store at submit time.
    pub cached: usize,
    /// Cells filled by simulations finishing after submit.
    pub executed: usize,
    /// Cells with a record.
    pub done: usize,
    /// Whether every cell has a record.
    pub complete: bool,
    /// Labels of quarantined cells.
    pub quarantined: Vec<String>,
    /// Records in matrix order, `None` while pending.
    pub records: Vec<Option<CellRecord>>,
}

/// A GET returning the body on 200, or the error body otherwise.
///
/// # Errors
///
/// Transport failures or a non-200 status.
pub fn get(addr: &str, path: &str) -> Result<String, String> {
    let (status, body) = request(addr, "GET", path, "")?;
    if status == 200 {
        Ok(body)
    } else {
        Err(format!("GET {path}: {status}: {}", body.trim()))
    }
}

/// Submits one matrix-DSL string.
///
/// # Errors
///
/// Transport failures or a daemon rejection (bad DSL, shutting down).
pub fn submit(addr: &str, dsl: &str) -> Result<SubmitResponse, String> {
    let (status, body) = request(addr, "POST", "/sweep", dsl)?;
    if status != 200 {
        return Err(format!("submit rejected ({status}): {}", body.trim()));
    }
    let v = json::parse(&body)?;
    Ok(SubmitResponse {
        job: v.field("job", Value::as_u64)?,
        cells: v.field("cells", Value::as_u64)? as usize,
        cached: v.field("cached", Value::as_u64)? as usize,
        enqueued: v.field("enqueued", Value::as_u64)? as usize,
        pending: v.field("pending", Value::as_u64)? as usize,
        complete: v.field("complete", Value::as_bool)?,
    })
}

/// Fetches one job's full state.
///
/// # Errors
///
/// Transport failures, 404, or a malformed body.
pub fn job_status(addr: &str, id: u64) -> Result<JobStatus, String> {
    let body = get(addr, &format!("/jobs/{id}"))?;
    parse_job_status(&body)
}

/// Polls `GET /jobs/<id>` every `poll` until the job is complete.
/// Transient transport errors are retried; a run of consecutive
/// failures (daemon gone) aborts.
///
/// # Errors
///
/// Persistent transport failure or a daemon-side 404.
pub fn wait(addr: &str, id: u64, poll: Duration) -> Result<JobStatus, String> {
    let mut consecutive_errors = 0u32;
    loop {
        match job_status(addr, id) {
            Ok(st) if st.complete => return Ok(st),
            Ok(_) => consecutive_errors = 0,
            Err(e) if e.contains("404") => return Err(e),
            Err(e) => {
                consecutive_errors += 1;
                if consecutive_errors >= 20 {
                    return Err(format!("daemon unreachable while waiting: {e}"));
                }
            }
        }
        std::thread::sleep(poll);
    }
}

/// Fetches one record by run-key hash; `Ok(None)` on 404.
///
/// # Errors
///
/// Transport failures or a malformed record body.
pub fn cell(addr: &str, key_hex: &str) -> Result<Option<CellRecord>, String> {
    let (status, body) = request(addr, "GET", &format!("/cell/{key_hex}"), "")?;
    match status {
        200 => CellRecord::parse_line(body.trim()).map(Some),
        404 => Ok(None),
        s => Err(format!("GET /cell/{key_hex}: {s}: {}", body.trim())),
    }
}

/// Requests a graceful shutdown.
///
/// # Errors
///
/// Transport failures or a non-200 status.
pub fn shutdown(addr: &str) -> Result<(), String> {
    let (status, body) = request(addr, "POST", "/shutdown", "")?;
    if status == 200 {
        Ok(())
    } else {
        Err(format!("shutdown rejected ({status}): {}", body.trim()))
    }
}

/// Parses the `GET /jobs/<id>` body.
///
/// # Errors
///
/// Describes the first malformed field.
pub fn parse_job_status(body: &str) -> Result<JobStatus, String> {
    let v = json::parse(body)?;
    let records = match v.get("records") {
        None => Vec::new(),
        Some(recs) => recs
            .as_array()
            .ok_or("bad records")?
            .iter()
            .map(|r| match r {
                Value::Null => Ok(None),
                r => CellRecord::from_value(r).map(Some),
            })
            .collect::<Result<_, _>>()?,
    };
    let quarantined = v.field("quarantined", Value::as_array)?;
    Ok(JobStatus {
        job: v.field("job", Value::as_u64)?,
        total: v.field("total", Value::as_u64)? as usize,
        cached: v.field("cached", Value::as_u64)? as usize,
        executed: v.field("executed", Value::as_u64)? as usize,
        done: v.field("done", Value::as_u64)? as usize,
        complete: v.field("complete", Value::as_bool)?,
        quarantined: quarantined
            .iter()
            .map(|l| l.as_str().map(str::to_string).ok_or("bad quarantined"))
            .collect::<Result<_, _>>()?,
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_status_reads_empty_and_rejects_malformed_bodies() {
        let body = "{\"job\":1,\"dsl\":\"\",\"total\":0,\"cached\":0,\"executed\":0,\"done\":0,\"complete\":true,\"quarantined\":[],\"records\":[]}";
        let st = parse_job_status(body).unwrap();
        assert!(st.complete && st.records.is_empty() && st.quarantined.is_empty());
        assert!(parse_job_status("{}").is_err());
        let bad_bool = body.replace("true", "maybe");
        assert!(parse_job_status(&bad_bool).is_err());
        let torn = body.replace("[]}", "[{\"key\": \"x");
        assert!(parse_job_status(&torn).is_err());
    }
}
