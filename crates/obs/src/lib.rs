//! Structured observability for the IS-ASGD runtime.
//!
//! Everything the runtime knows about its own behaviour flows through this
//! crate as an [`Event`] — a typed, timestamped record of one thing that
//! happened (a round starting, a worker handshake, a respawn replay, a
//! per-round worker timing sample shipped over the wire).
//!
//! # The event table
//!
//! The vocabulary is declared once, in the `events!` table of [`event`]:
//! one entry per event giving its variant, its JSONL name, its stderr
//! level and its typed fields in trace order. Everything that is a
//! function of that *list* is generated from it — the [`Event`] enum,
//! `name`/`level`/`fields`, the typed reader [`Event::parse_jsonl`] that
//! `isasgd report` matches on, and [`Event::schema_json`], whose rendering
//! is committed as `TRACE_SCHEMA.json` and byte-compared by a test. The
//! two renderers stay hand-written, one loop each over `fields()`, so no
//! event can render differently from another.
//!
//! # The two sinks
//!
//! Events fan out inside a single [`Recorder`]:
//!
//! 1. **Human-readable stderr** at `--log-level {off,info,debug}` — terse
//!    `[event] k=v` lines for live debugging.
//! 2. **JSONL traces** via `--trace-out <path>` — one hand-rolled JSON object
//!    per line with a stable field order (no serde; the build is offline and
//!    the schema is part of the repo's contract). The trace is the run's one
//!    record: `isasgd report` reads it back, typed and strictly, into
//!    per-round timelines and latency histograms.
//!
//! # The clock seam
//!
//! Every timestamp comes from one seam, [`ObsClock`]: wall-clock
//! (`monotonic_us`, a process-wide [`std::time::Instant`] anchor) in
//! production, a logical counter in tests. Nothing else in the workspace may
//! read the clock — `clippy::disallowed_methods` (each deterministic crate's
//! `clippy.toml` lists `Instant::now`) keeps timing out of them, and cluster
//! code that needs a duration calls [`monotonic_us`] so the seam stays
//! singular.
//!
//! # Inertness
//!
//! Observability must never change a result. The recorder is a process
//! global that defaults to *absent*: [`emit`] is a no-op until [`install`]
//! is called, worker subprocesses never install one (their timing travels as
//! `Message::Telemetry` wire frames instead), and the cluster equivalence
//! tests pin bit-identical models with tracing on vs. off.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod event;
pub mod json;
pub mod sink;

pub use clock::{monotonic_us, ObsClock};
pub use event::{Event, LogLevel};
pub use json::{parse_jsonl_line, JsonValue};
pub use sink::{emit, install, uninstall, Recorder};
