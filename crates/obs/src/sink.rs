//! The recorder: one object fanning events out to stderr and a JSONL
//! trace — plus the process-global install point.
//!
//! The global recorder is the *only* sanctioned `eprintln!` site for event
//! traffic (`clippy::print_stderr`, denied in `cluster` and `cli`, enforces
//! this). It defaults to absent: [`emit`] is a no-op until [`install`] is
//! called, so library code can emit unconditionally and stays inert in
//! workers, tests, and embedding programs that never install one.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, RwLock};

use crate::clock::ObsClock;
use crate::event::{Event, LogLevel};

enum TraceSink {
    None,
    File(BufWriter<File>),
    Memory(Vec<String>),
}

/// Fans each event out to stderr (level-gated) and the JSONL trace sink,
/// stamping it from the configured [`ObsClock`].
pub struct Recorder {
    level: LogLevel,
    clock: ObsClock,
    trace: Mutex<TraceSink>,
}

impl Recorder {
    /// A recorder with no trace sink (stderr only).
    pub fn new(level: LogLevel, clock: ObsClock) -> Recorder {
        Recorder {
            level,
            clock,
            trace: Mutex::new(TraceSink::None),
        }
    }

    /// Route JSONL lines to a file created (truncated) at `path`.
    pub fn trace_to_file(self, path: &Path) -> std::io::Result<Recorder> {
        let file = BufWriter::new(File::create(path)?);
        *self.lock() = TraceSink::File(file);
        Ok(self)
    }

    /// Route JSONL lines to an in-memory buffer (tests).
    pub fn trace_to_memory(self) -> Recorder {
        *self.lock() = TraceSink::Memory(Vec::new());
        self
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TraceSink> {
        // A panic while holding the lock poisons it; the sink holds no
        // invariants worth halting observability over, so keep recording.
        self.trace
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Record one event in both sinks.
    pub fn emit(&self, ev: &Event) {
        let ts = self.clock.now_us();
        if self.level >= ev.level() && self.level > LogLevel::Off {
            eprintln!("{}", ev.human(ts));
        }
        match &mut *self.lock() {
            TraceSink::None => {}
            TraceSink::File(f) => {
                // Trace IO failure must not abort training; drop the line.
                let _ = writeln!(f, "{}", ev.to_jsonl(ts));
            }
            TraceSink::Memory(lines) => lines.push(ev.to_jsonl(ts)),
        }
    }

    /// Drain the in-memory trace buffer (empty for file/none sinks).
    pub fn take_trace_lines(&self) -> Vec<String> {
        match &mut *self.lock() {
            TraceSink::Memory(lines) => std::mem::take(lines),
            _ => Vec::new(),
        }
    }

    /// Flush the file trace sink, if any.
    pub fn flush(&self) -> std::io::Result<()> {
        match &mut *self.lock() {
            TraceSink::File(f) => f.flush(),
            _ => Ok(()),
        }
    }
}

static GLOBAL: RwLock<Option<Arc<Recorder>>> = RwLock::new(None);

/// Install `recorder` as the process-global sink (replacing any previous).
pub fn install(recorder: Arc<Recorder>) {
    if let Ok(mut g) = GLOBAL.write() {
        *g = Some(recorder);
    }
}

/// Remove and return the global recorder.
pub fn uninstall() -> Option<Arc<Recorder>> {
    GLOBAL.write().ok().and_then(|mut g| g.take())
}

/// Emit through the global recorder; a no-op when none is installed.
pub fn emit(ev: &Event) {
    if let Ok(g) = GLOBAL.read() {
        if let Some(r) = g.as_ref() {
            r.emit(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sink_captures_jsonl_with_logical_timestamps() {
        let r = Recorder::new(LogLevel::Off, ObsClock::logical()).trace_to_memory();
        r.emit(&Event::RoundStart { round: 1, nodes: 2 });
        r.emit(&Event::RoundStart { round: 2, nodes: 2 });
        let lines = r.take_trace_lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"ts_us\":0,\"event\":\"round_start\""));
        assert!(lines[1].starts_with("{\"ts_us\":1,"));
        assert!(r.take_trace_lines().is_empty());
    }

    // The global-install path is exercised by the CLI end-to-end tests;
    // mutating process state here would race sibling unit tests.
}
