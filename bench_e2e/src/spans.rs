//! Spans recorded by the benchmark itself, around each public call it
//! makes and each layer replay. Nothing inside the measured crates is
//! instrumented; that is a later issue.
//!
//! Spans are kept in memory and written (as JSON lines) only at exit.
//! With the recorder off, [`Spans::open`] reads no clock and allocates
//! nothing, which is how every end-to-end metric is measured.

use crate::json::Json;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran, e.g. `core.train` or `replay.sparse.margin`.
    pub name: &'static str,
    /// Microseconds since the recorder was created.
    pub start_us: u64,
    /// Microseconds since the recorder was created; 0 while still open.
    pub end_us: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

/// The in-memory span recorder of one workload process.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    workload: &'static str,
    list: Vec<Span>,
}

impl Spans {
    /// A recorder for `workload`; `on = false` makes every call a no-op.
    pub fn new(workload: &'static str, on: bool) -> Self {
        Spans {
            on,
            origin: Instant::now(),
            workload,
            list: Vec::new(),
        }
    }

    /// Switches recording on or off (the traced run alternates).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Opens a span; returns its id, or `None` when recording is off.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_us = self.now_us();
        self.list.push(Span {
            name,
            start_us,
            end_us: 0,
            parent,
        });
        Some(self.list.len() - 1)
    }

    /// Closes a span opened by [`Spans::open`].
    pub fn close(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            self.list[i].end_us = self.now_us();
        }
    }

    /// Runs `f` inside a span and returns its result with the seconds
    /// it took (timed whether or not recording is on).
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, parent);
        let t0 = Instant::now();
        let r = f();
        let secs = t0.elapsed().as_secs_f64();
        self.close(id);
        (r, secs)
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// One JSON object per line: name, workload, start_us, end_us, id
    /// and parent id.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.list.iter().enumerate() {
            let line = Json::obj([
                ("id", Json::Int(id as u64)),
                ("name", Json::Str(s.name.into())),
                ("workload", Json::Str(self.workload.into())),
                ("start_us", Json::Int(s.start_us)),
                ("end_us", Json::Int(s.end_us)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                ),
            ]);
            out.push_str(&line.encode());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_but_still_times() {
        let mut s = Spans::new("w", false);
        let id = s.open("a", None);
        assert!(id.is_none());
        s.close(id);
        let (r, secs) = s.timed("b", None, || 7);
        assert_eq!(r, 7);
        assert!(secs >= 0.0);
        assert!(s.is_empty());
    }

    #[test]
    fn on_records_parents_and_order() {
        let mut s = Spans::new("w", true);
        let root = s.open("rep", None);
        let (_, _) = s.timed("core.train", root, || ());
        s.close(root);
        assert_eq!(s.len(), 2);
        let text = s.to_jsonl();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines[1].get("parent"), Some(&Json::Int(0)));
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
        assert_eq!(lines[1].get("workload").and_then(Json::as_str), Some("w"));
        let end = |j: &Json| j.get("end_us").and_then(Json::as_f64).unwrap();
        let start = |j: &Json| j.get("start_us").and_then(Json::as_f64).unwrap();
        assert!(start(&lines[0]) <= start(&lines[1]) && end(&lines[1]) <= end(&lines[0]));
    }
}
