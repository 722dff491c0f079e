//! The benchmark's own spans around each call into a layer.
//!
//! Spans live in memory while the run measures and are written out once at
//! the end. Each span has a name, start and end (µs since the recorder was
//! made), the span that was open when it began, and the job it belongs to
//! (a job is one launch of a guest, one native twin, or one set-up
//! sample). A disabled recorder records nothing, so untraced runs pay one
//! branch per span. Past the current limit (at most [`CAPACITY`] spans)
//! further ones are counted as dropped instead of recorded.

use std::fmt::Write;
use std::time::Instant;

use crate::json::{num, quote};

/// Spans kept per run.
pub const CAPACITY: usize = 1 << 16;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub job: u64,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
    /// The measured quantity this span produced, when it produced one
    /// (for example one set-up sample's seconds).
    pub value_s: Option<f64>,
}

/// Handle of an open span; `close` it in reverse order of opening.
#[must_use]
pub struct Open(Option<usize>);

pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    next_job: u64,
    limit: usize,
    dropped: u64,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_job: 0,
            limit: CAPACITY,
            dropped: 0,
        }
    }

    /// A fresh job id.
    pub fn job(&mut self) -> u64 {
        self.next_job += 1;
        self.next_job
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    pub fn open(&mut self, name: &'static str, job: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        if self.spans.len() >= self.limit {
            self.dropped += 1;
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            job,
            parent: self.stack.last().copied(),
            start_us: self.now_us(),
            end_us: f64::NAN,
            value_s: None,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Record at most `n` spans in all (capped at [`CAPACITY`]), so that a
    /// long phase leaves room for the ones after it.
    pub fn limit(&mut self, n: usize) {
        self.limit = n.min(CAPACITY);
    }

    pub fn close(&mut self, open: Open) {
        self.close_with(open, None);
    }

    /// Close a span and attach the value it measured.
    pub fn close_with(&mut self, open: Open, value_s: Option<f64>) {
        let Some(idx) = open.0 else { return };
        assert_eq!(self.stack.pop(), Some(idx), "spans must close innermost first");
        let end = self.now_us();
        let span = &mut self.spans[idx];
        span.end_us = end;
        span.value_s = value_s;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON document: `{"dropped": n, "spans": [{"id",
    /// "name", "job", "parent", "start_us", "end_us", "value_s"}, ...]}`.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"dropped\": {}, \"spans\": [\n", self.dropped);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let value = s.value_s.map_or("null".to_string(), num);
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": {}, \"job\": {}, \"parent\": {parent}, \"start_us\": {}, \"end_us\": {}, \"value_s\": {value}}}",
                quote(s.name),
                s.job,
                num(s.start_us),
                num(s.end_us),
            );
            out.push_str(if i + 1 < self.spans.len() { ",\n" } else { "\n" });
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_disabled() {
        let mut s = Spans::new(true);
        let job = s.job();
        let outer = s.open("outer", job);
        let inner = s.open("inner", job);
        s.close(inner);
        s.close_with(outer, Some(1.5));
        assert_eq!(s.spans().len(), 2);
        assert_eq!(s.spans()[1].parent, Some(0));
        assert_eq!(s.spans()[0].value_s, Some(1.5));
        assert!(s.spans()[0].start_us <= s.spans()[1].start_us);
        assert!(s.spans()[1].end_us <= s.spans()[0].end_us);
        crate::json::parse(&s.to_json()).unwrap();

        let mut off = Spans::new(false);
        let o = off.open("x", 1);
        off.close(o);
        assert!(off.spans().is_empty());
    }
}
