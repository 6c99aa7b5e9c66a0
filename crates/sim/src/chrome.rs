//! Shared Chrome trace-event JSON writer.
//!
//! Three subsystems export Chrome trace-event files — the virtual-time
//! event trace ([`crate::trace`]), the host profiler ([`crate::prof`]) and
//! the critical-path profiler ([`crate::critpath`]). They all speak the
//! same dialect: an object-form document `{"traceEvents":[…],
//! "displayTimeUnit":"ns"}` whose timestamps are fractional microseconds.
//! This module owns that dialect — the number formatting and the document
//! framing — so the emitters cannot drift apart in field format; strings
//! are escaped by [`crate::json`].

use crate::json::quote;
use crate::time::Ns;

/// Nanoseconds → microseconds with fractional part, as Chrome expects.
pub fn us(ns: Ns) -> String {
    if ns.is_multiple_of(1000) {
        format!("{}", ns / 1000)
    } else {
        format!("{}.{:03}", ns / 1000, ns % 1000)
    }
}

/// An in-progress Chrome trace-event document: the `traceEvents` array
/// plus closing metadata. Events are appended with [`ChromeDoc::event`]
/// (comma placement handled here), and [`ChromeDoc::finish`] closes the
/// document.
#[derive(Debug, Default)]
pub struct ChromeDoc {
    buf: String,
    first: bool,
}

impl ChromeDoc {
    /// Starts an empty document.
    pub fn new() -> Self {
        let mut buf = String::with_capacity(1 << 14);
        buf.push_str("{\"traceEvents\":[");
        ChromeDoc { buf, first: true }
    }

    /// Appends one pre-serialized event object (no surrounding commas).
    pub fn event(&mut self, ev: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push_str(ev);
    }

    /// Closes the `traceEvents` array and the document, returning the
    /// complete JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push_str("],\"displayTimeUnit\":\"ns\"}");
        self.buf
    }
}

impl ChromeDoc {
    /// Convenience: a `process_name` metadata event naming process `pid`.
    pub fn process_name(&mut self, pid: u32, name: &str) {
        self.event(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":{}}}}}",
            quote(name)
        ));
    }

    /// Convenience: a `thread_name` metadata event naming track `tid` of
    /// process `pid`.
    pub fn thread_name(&mut self, pid: u32, tid: u32, name: &str) {
        self.event(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"name\":{}}}}}",
            quote(name)
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn us_formats_exact_and_fractional() {
        assert_eq!(us(0), "0");
        assert_eq!(us(2000), "2");
        assert_eq!(us(2050), "2.050");
        assert_eq!(us(7), "0.007");
    }

    #[test]
    fn doc_frames_and_separates_events() {
        let doc = ChromeDoc::new();
        assert_eq!(
            doc.finish(),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ns\"}"
        );

        let mut doc = ChromeDoc::new();
        doc.event("{\"a\":1}");
        doc.event("{\"b\":2}");
        let json = doc.finish();
        assert_eq!(
            json,
            "{\"traceEvents\":[{\"a\":1},{\"b\":2}],\"displayTimeUnit\":\"ns\"}"
        );
    }

    #[test]
    fn metadata_helpers_emit_named_tracks() {
        let mut doc = ChromeDoc::new();
        doc.process_name(3, "run \"a\"");
        doc.thread_name(3, 1, "proc 1");
        let json = doc.finish();
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\\\"a\\\""));
        assert!(json.contains("\"tid\":1"));
    }
}
