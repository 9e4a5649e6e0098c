//! The event table and its two renderings (human stderr, JSONL).
//!
//! The trace vocabulary is declared **once**, in the `events!` table in
//! this file: `Name = "wire_name" @ Level { field: type, … }`, a field's
//! type being `u64`, `f64`, `bool` or `String`. From each entry the macro
//! generates
//!
//! - the [`Event`] variant (doc comments pass through),
//! - [`Event::name`], [`Event::level`] and [`Event::fields`],
//! - the inverse of `fields()` — the typed read-back behind
//!   [`Event::parse_jsonl`], which `isasgd report` matches on — and
//! - the `(name, level, [(field, type)])` list [`Event::schema_json`]
//!   renders into the committed `TRACE_SCHEMA.json`.
//!
//! The renderers ([`Event::to_jsonl`], [`Event::human`]) stay
//! hand-written on purpose: one loop each over `fields()`, so no event
//! can render differently from another. What an event *means* lives in
//! the table alone; the exhaustive `sample_after` in this file's tests
//! stops a new entry from compiling until it has a round-trip sample.
//!
//! Every event renders the same way everywhere: field order is table
//! order, names are `snake_case`, and the JSONL object always opens with
//! `"ts_us"` then `"event"`. The order is a compatibility contract —
//! append new fields at the end of an entry, never reorder — and
//! `trace_schema_is_frozen` turns any change to it into a reviewable
//! `TRACE_SCHEMA.json` diff.

use crate::json::{escape_json, parse_jsonl_line, schema_fields, JsonValue};

/// Verbosity threshold for the human-readable stderr sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// No stderr event output (default).
    Off,
    /// Coarse run landmarks: rounds, handshakes, respawns, summaries.
    Info,
    /// Everything, including per-worker timing and per-frame detail.
    Debug,
}

impl LogLevel {
    /// Parse a `--log-level` value.
    pub fn parse(s: &str) -> Option<LogLevel> {
        match s {
            "off" => Some(LogLevel::Off),
            "info" => Some(LogLevel::Info),
            "debug" => Some(LogLevel::Debug),
            _ => None,
        }
    }
}

/// One field value inside an event, for uniform rendering.
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    /// Unsigned integer (counts, ids, microseconds).
    U(u64),
    /// Floating point (objectives, rates). Non-finite renders as JSON null.
    F(f64),
    /// Boolean flag.
    B(bool),
    /// String (paths, pre-rendered summaries).
    S(String),
}

/// A Rust type an event field may be declared with: how it becomes a
/// [`Field`] and how it reads back from a parsed JSON scalar.
trait FieldType: Sized {
    fn to_field(&self) -> Field;
    fn from_json(v: &JsonValue) -> Option<Self>;
}

impl FieldType for u64 {
    fn to_field(&self) -> Field {
        Field::U(*self)
    }
    fn from_json(v: &JsonValue) -> Option<u64> {
        v.as_u64()
    }
}

impl FieldType for f64 {
    fn to_field(&self) -> Field {
        Field::F(*self)
    }
    /// `null` is what the writer prints for a non-finite float.
    fn from_json(v: &JsonValue) -> Option<f64> {
        match v {
            JsonValue::Null => Some(f64::NAN),
            v => v.as_f64(),
        }
    }
}

impl FieldType for bool {
    fn to_field(&self) -> Field {
        Field::B(*self)
    }
    fn from_json(v: &JsonValue) -> Option<bool> {
        match v {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl FieldType for String {
    fn to_field(&self) -> Field {
        Field::S(self.clone())
    }
    fn from_json(v: &JsonValue) -> Option<String> {
        v.as_str().map(str::to_string)
    }
}

/// The field `name` of a parsed line, as the type the table declares.
fn read<T: FieldType>(fields: &[(String, JsonValue)], name: &str, ty: &str) -> Result<T, String> {
    fields
        .iter()
        .find(|(k, _)| k == name)
        .and_then(|(_, v)| T::from_json(v))
        .ok_or_else(|| format!("missing or mistyped field '{name}' (expected {ty})"))
}

/// The event table's expander: from `Name = "wire_name" @ Level { field:
/// type, … }` entries it declares [`Event`] and every function of the
/// event *list* — names, levels, field lists, the typed read-back and the
/// schema rows. Field types are the four [`FieldType`]s.
macro_rules! events {
    ($(
        $(#[$doc:meta])*
        $name:ident = $wire:literal @ $level:ident {
            $($(#[$fdoc:meta])* $field:ident: $ty:ident,)*
        }
    )*) => {
        /// A typed, timestamped record of one runtime occurrence.
        ///
        /// Durations are microseconds from [`crate::monotonic_us`]. `node` is the
        /// cluster slot id (coordinator-assigned, 0-based).
        #[derive(Debug, Clone, PartialEq)]
        pub enum Event {
            $($(#[$doc])* $name { $($(#[$fdoc])* $field: $ty,)* },)*
        }

        /// `(name, level, [(field, type)])` per event, in table order.
        const CATALOG: &[(&str, LogLevel, &[(&str, &str)])] = &[
            $(($wire, LogLevel::$level, &[$((stringify!($field), stringify!($ty)),)*]),)*
        ];

        impl Event {
            /// Stable `snake_case` event name (the JSONL `"event"` field).
            pub fn name(&self) -> &'static str {
                match self {
                    $(Event::$name { .. } => $wire,)*
                }
            }

            /// Minimum [`LogLevel`] at which the stderr sink prints this event.
            pub fn level(&self) -> LogLevel {
                match self {
                    $(Event::$name { .. } => LogLevel::$level,)*
                }
            }

            /// Field names and values in declaration (= wire/JSONL) order.
            pub fn fields(&self) -> Vec<(&'static str, Field)> {
                match self {
                    $(Event::$name { $($field,)* } => {
                        vec![$((stringify!($field), $field.to_field()),)*]
                    })*
                }
            }

            /// The inverse of [`Event::fields`]: `None` for a name the
            /// table does not list.
            // Two events sharing a name must not compile.
            #[deny(unreachable_patterns)]
            fn read_back(
                name: &str,
                fields: &[(String, JsonValue)],
            ) -> Result<Option<Event>, String> {
                Ok(Some(match name {
                    $($wire => Event::$name {
                        $($field: read(fields, stringify!($field), stringify!($ty))?,)*
                    },)*
                    _ => return Ok(None),
                }))
            }
        }
    };
}

// The event table — the one list of the trace vocabulary. Entry order is
// schema order; field order is JSONL order.
events! {
    /// A training dataset finished loading.
    DatasetLoaded = "dataset_loaded" @ Info {
        /// Source path as given on the command line.
        path: String,
        /// Row count.
        rows: u64,
        /// Feature dimensionality.
        dim: u64,
        /// Stored non-zero count.
        nnz: u64,
    }
    /// The coordinator is about to release round `round` to the workers.
    RoundStart = "round_start" @ Debug {
        /// 1-based round number.
        round: u64,
        /// Worker count participating in the round.
        nodes: u64,
    }
    /// The coordinator finished collecting and evaluating round `round`.
    RoundEnd = "round_end" @ Info {
        /// 1-based round number.
        round: u64,
        /// Training objective after the round's model average.
        objective: f64,
        /// Root-mean-square error on the training set.
        rmse: f64,
        /// Classification error rate (0 for regression losses).
        error_rate: f64,
        /// Coordinator wall time spent in the round.
        wall_us: u64,
    }
    /// A worker waited at the round barrier (worker-side measurement).
    BarrierWait = "barrier_wait" @ Debug {
        /// Worker slot id.
        node: u64,
        /// 1-based round number.
        round: u64,
        /// Time blocked in `await_round_start`.
        wait_us: u64,
    }
    /// A worker completed the admission handshake.
    Handshake = "handshake" @ Info {
        /// Worker slot id.
        node: u64,
        /// True when this admission replaced a lost worker.
        respawn: bool,
        /// Handshake duration (accept → admitted).
        dur_us: u64,
    }
    /// The supervisor absorbed and stored a worker checkpoint.
    CheckpointStored = "checkpoint_stored" @ Debug {
        /// Worker slot id.
        node: u64,
        /// Round the checkpoint covers.
        round: u64,
        /// Encoded checkpoint size.
        bytes: u64,
    }
    /// A lost worker was respawned and its replay log re-sent.
    Respawn = "respawn" @ Info {
        /// Worker slot id.
        node: u64,
        /// Frames replayed to restore the worker.
        replay_frames: u64,
        /// Bytes the replay wrote to the replacement's socket (the
        /// stored checkpoint and the logged suffix, as the frames that
        /// went out, length prefixes included).
        replay_bytes: u64,
        /// Recovery duration (spawn → caught up).
        replay_us: u64,
    }
    /// A dataset shard was streamed to a worker: once per admission,
    /// respawns included (each admission encodes its chunks afresh).
    ShardStream = "shard_stream" @ Debug {
        /// Worker slot id.
        node: u64,
        /// Rows in the shard.
        rows: u64,
        /// Encoded bytes streamed.
        bytes: u64,
        /// Chunk frames used.
        chunks: u64,
        /// Time spent encoding the shard's chunks (sends excluded).
        encode_us: u64,
    }
    /// The sampler committed observed feedback into its distribution.
    SamplerCommit = "sampler_commit" @ Info {
        /// Total feedback rows folded in across the run.
        feedback_rows: u64,
        /// Importance imbalance observed by the sampler.
        observed_phi_imbalance: f64,
    }
    /// A per-round worker timing sample (shipped as `Message::Telemetry`).
    WorkerTiming = "worker_timing" @ Debug {
        /// Worker slot id.
        node: u64,
        /// 1-based round number.
        round: u64,
        /// Time in the local-epoch compute loop.
        compute_us: u64,
        /// Time blocked waiting for the round barrier.
        barrier_wait_us: u64,
        /// Sample draws performed this round.
        rows: u64,
        /// Feedback observations committed this round.
        commits: u64,
    }
    /// End-of-run per-link traffic summary (one per worker slot).
    NetSummary = "net_summary" @ Info {
        /// Worker slot id.
        node: u64,
        /// Total bytes sent to the worker.
        tx_bytes: u64,
        /// Total bytes received from the worker.
        rx_bytes: u64,
        /// Pre-rendered per-kind frame/byte breakdown.
        summary: String,
    }
    /// The trained model was written to disk.
    ModelSaved = "model_saved" @ Info {
        /// Destination path.
        path: String,
        /// Non-zero weights written.
        nnz: u64,
    }
}

/// The JSONL rendering of `fields` under the `ts_us`/`event` line opening.
fn jsonl(ts_us: u64, name: &str, fields: Vec<(&'static str, Field)>) -> String {
    let mut out = format!("{{\"ts_us\":{ts_us},\"event\":\"{name}\"");
    for (k, v) in fields {
        out.push_str(",\"");
        out.push_str(k);
        out.push_str("\":");
        match v {
            Field::U(n) => out.push_str(&n.to_string()),
            Field::F(f) if f.is_finite() => out.push_str(&f.to_string()),
            Field::F(_) => out.push_str("null"),
            Field::B(b) => out.push_str(if b { "true" } else { "false" }),
            Field::S(s) => {
                out.push('"');
                out.push_str(&escape_json(&s));
                out.push('"');
            }
        }
    }
    out.push('}');
    out
}

impl Event {
    /// One JSONL line (no trailing newline), stable field order.
    pub fn to_jsonl(&self, ts_us: u64) -> String {
        jsonl(ts_us, self.name(), self.fields())
    }

    /// Terse human rendering for the stderr sink: `[name] k=v k=v …`.
    pub fn human(&self, ts_us: u64) -> String {
        let mut out = format!(
            "[{} +{}.{:06}s]",
            self.name(),
            ts_us / 1_000_000,
            ts_us % 1_000_000
        );
        for (k, v) in self.fields() {
            out.push(' ');
            out.push_str(k);
            out.push('=');
            match v {
                Field::U(n) => out.push_str(&n.to_string()),
                Field::F(f) => out.push_str(&format!("{f:.6}")),
                Field::B(b) => out.push_str(if b { "true" } else { "false" }),
                Field::S(s) => out.push_str(&s),
            }
        }
        out
    }

    /// Reads one trace line back, typed: the inverse of
    /// [`Event::to_jsonl`]. A line naming an event the table lists comes
    /// back as that [`Event`], every field present and of its declared
    /// type; a name the table does not list is `None` (a newer writer's
    /// trace stays readable); a listed event with a missing or mistyped
    /// field is an error naming event, field and type.
    pub fn parse_jsonl(line: &str) -> Result<(u64, Option<Event>), String> {
        let fields = parse_jsonl_line(line)?;
        let ts_us = read(&fields, "ts_us", "u64")?;
        let name: String = read(&fields, "event", "String")?;
        let event = Event::read_back(&name, &fields).map_err(|e| format!("event '{name}': {e}"))?;
        Ok((ts_us, event))
    }

    /// The canonical `TRACE_SCHEMA.json` rendering of the event table:
    /// the two fields every line opens with, then every event's name,
    /// stderr level and field list (JSONL order). Fixed key order, nothing
    /// run-dependent. The committed file at the workspace root is
    /// byte-compared against this by `trace_schema_is_frozen`, so no event
    /// or field change lands without a reviewable schema diff.
    pub fn schema_json() -> String {
        let events: Vec<String> = CATALOG
            .iter()
            .map(|(name, level, fields)| {
                format!(
                    "    {{\n      \"name\": \"{name}\",\n      \"level\": \"{}\",\n      \
                     \"fields\": {}\n    }}",
                    format!("{level:?}").to_lowercase(),
                    schema_fields(fields, "      ")
                )
            })
            .collect();
        format!(
            "{{\n  \"format\": 1,\n  \"line\": {},\n  \"events\": [\n{}\n  ]\n}}\n",
            schema_fields(&[("ts_us", "u64"), ("event", "String")], "  "),
            events.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_has_stable_field_order() {
        let ev = Event::RoundEnd {
            round: 3,
            objective: 0.5,
            rmse: 0.25,
            error_rate: 0.0,
            wall_us: 1200,
        };
        assert_eq!(
            ev.to_jsonl(42),
            "{\"ts_us\":42,\"event\":\"round_end\",\"round\":3,\"objective\":0.5,\
             \"rmse\":0.25,\"error_rate\":0,\"wall_us\":1200}"
        );
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        let ev = Event::SamplerCommit {
            feedback_rows: 1,
            observed_phi_imbalance: f64::NAN,
        };
        assert!(ev.to_jsonl(0).contains("\"observed_phi_imbalance\":null"));
    }

    #[test]
    fn strings_are_escaped() {
        let ev = Event::ModelSaved {
            path: "a\"b\\c".into(),
            nnz: 7,
        };
        assert!(ev.to_jsonl(0).contains("\"path\":\"a\\\"b\\\\c\""));
    }

    #[test]
    fn human_rendering_is_terse() {
        let ev = Event::Handshake {
            node: 2,
            respawn: true,
            dur_us: 1_500_000,
        };
        assert_eq!(
            ev.human(1_500_000),
            "[handshake +1.500000s] node=2 respawn=true dur_us=1500000"
        );
    }

    #[test]
    fn levels_partition_the_catalog() {
        assert_eq!(
            Event::RoundStart { round: 1, nodes: 2 }.level(),
            LogLevel::Debug
        );
        assert_eq!(
            Event::Respawn {
                node: 0,
                replay_frames: 0,
                replay_bytes: 0,
                replay_us: 0
            }
            .level(),
            LogLevel::Info
        );
        assert!(LogLevel::Off < LogLevel::Info && LogLevel::Info < LogLevel::Debug);
    }

    /// Every JSON escape `escape_json` writes, plus `/` and multi-byte
    /// UTF-8 the reader must reassemble.
    const AWKWARD: &str = "q\"b\\s/n\nr\rt\tc\u{1}\u{1f} é€😀";

    /// The sample after `prev`, in table order, with awkward values.
    /// Exhaustive: a new event does not compile until it has a sample
    /// (and `samples_cover_the_table_in_order` fails until it is linked in).
    fn sample_after(prev: Option<&Event>) -> Option<Event> {
        Some(match prev {
            None => Event::DatasetLoaded {
                path: AWKWARD.into(),
                rows: u64::MAX,
                dim: 0,
                nnz: (1 << 53) + 1,
            },
            Some(Event::DatasetLoaded { .. }) => Event::RoundStart {
                round: u64::MAX,
                nodes: 3,
            },
            Some(Event::RoundStart { .. }) => Event::RoundEnd {
                round: 1,
                objective: f64::NAN,
                rmse: f64::INFINITY,
                error_rate: f64::NEG_INFINITY,
                wall_us: u64::MAX,
            },
            Some(Event::RoundEnd { .. }) => Event::BarrierWait {
                node: 2,
                round: u64::MAX - 1,
                wait_us: 0,
            },
            Some(Event::BarrierWait { .. }) => Event::Handshake {
                node: u64::MAX,
                respawn: true,
                dur_us: 1,
            },
            Some(Event::Handshake { .. }) => Event::CheckpointStored {
                node: 1,
                round: 2,
                bytes: u64::MAX,
            },
            Some(Event::CheckpointStored { .. }) => Event::Respawn {
                node: 1,
                replay_frames: 5,
                replay_bytes: u64::MAX,
                replay_us: 900,
            },
            Some(Event::Respawn { .. }) => Event::ShardStream {
                node: 0,
                rows: 1,
                bytes: u64::MAX,
                chunks: 2,
                encode_us: 3,
            },
            Some(Event::ShardStream { .. }) => Event::SamplerCommit {
                feedback_rows: u64::MAX,
                observed_phi_imbalance: -0.0,
            },
            Some(Event::SamplerCommit { .. }) => Event::WorkerTiming {
                node: 0,
                round: 1,
                compute_us: u64::MAX,
                barrier_wait_us: 0,
                rows: 64,
                commits: 8,
            },
            Some(Event::WorkerTiming { .. }) => Event::NetSummary {
                node: 0,
                tx_bytes: u64::MAX,
                rx_bytes: u64::MAX,
                summary: String::new(),
            },
            Some(Event::NetSummary { .. }) => Event::ModelSaved {
                path: AWKWARD.into(),
                nnz: 1e19 as u64,
            },
            Some(Event::ModelSaved { .. }) => return None,
        })
    }

    fn samples() -> Vec<Event> {
        std::iter::successors(sample_after(None), |e| sample_after(Some(e))).collect()
    }

    #[test]
    fn samples_cover_the_table_in_order() {
        let names: Vec<&str> = samples().iter().map(Event::name).collect();
        let table: Vec<&str> = CATALOG.iter().map(|(name, ..)| *name).collect();
        assert_eq!(names, table);
        for (e, (_, level, fields)) in samples().iter().zip(CATALOG) {
            assert_eq!(e.level(), *level);
            let rendered: Vec<&str> = e.fields().iter().map(|(k, _)| *k).collect();
            let declared: Vec<&str> = fields.iter().map(|(k, _)| *k).collect();
            assert_eq!(rendered, declared, "{}", e.name());
        }
    }

    #[test]
    fn names_are_unique_and_snake_case() {
        let snake = |s: &str| {
            s.starts_with(|c: char| c.is_ascii_lowercase())
                && s.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        };
        for (i, (name, _, fields)) in CATALOG.iter().enumerate() {
            assert!(snake(name), "event name {name:?}");
            assert!(
                CATALOG[..i].iter().all(|(other, ..)| other != name),
                "{name} listed twice"
            );
            for (j, (field, _)) in fields.iter().enumerate() {
                assert!(snake(field), "{name}.{field}");
                assert!(!["ts_us", "event"].contains(field), "{name}.{field}");
                assert!(
                    fields[..j].iter().all(|(other, _)| other != field),
                    "{name}.{field} listed twice"
                );
            }
        }
    }

    #[test]
    fn every_kind_round_trips_through_a_trace_line() {
        for (i, e) in samples().iter().enumerate() {
            let ts = u64::MAX - i as u64;
            let line = e.to_jsonl(ts);
            let (back_ts, back) = Event::parse_jsonl(&line).unwrap_or_else(|err| {
                panic!("{line}: {err}");
            });
            let back = back.unwrap_or_else(|| panic!("{line}: read back as unknown"));
            assert_eq!(back_ts, ts);
            // Non-finite floats are written as null and read back as NaN,
            // and NaN != NaN: the rendering is what must survive.
            assert_eq!(back.to_jsonl(ts), line);
            let non_finite = |(_, v): &(&str, Field)| matches!(v, Field::F(f) if !f.is_finite());
            if !e.fields().iter().any(non_finite) {
                assert_eq!(&back, e);
            }
        }
    }

    #[test]
    fn a_missing_or_mistyped_field_is_an_error_naming_event_field_and_type() {
        for e in samples() {
            let (_, _, declared) = CATALOG.iter().find(|(n, ..)| *n == e.name()).unwrap();
            for (i, (field, ty)) in declared.iter().enumerate() {
                let mut missing = e.fields();
                missing.remove(i);
                let mut mistyped = e.fields();
                mistyped[i].1 = match mistyped[i].1 {
                    Field::S(_) => Field::B(true),
                    _ => Field::S("7".into()),
                };
                for fields in [missing, mistyped] {
                    let line = jsonl(1, e.name(), fields);
                    let err = Event::parse_jsonl(&line).unwrap_err();
                    let want = format!(
                        "event '{}': missing or mistyped field '{field}' (expected {ty})",
                        e.name()
                    );
                    assert_eq!(err, want, "{line}");
                }
            }
        }
        // The line opening is checked the same way; an unknown name is not
        // an error, whatever fields it carries.
        let err = Event::parse_jsonl("{\"event\":\"round_start\",\"round\":1,\"nodes\":2}");
        assert!(err.unwrap_err().contains("'ts_us'"));
        let err = Event::parse_jsonl("{\"ts_us\":1,\"round\":1,\"nodes\":2}");
        assert!(err.unwrap_err().contains("'event'"));
        assert_eq!(
            Event::parse_jsonl("{\"ts_us\":9,\"event\":\"brand_new\",\"x\":[]}").ok(),
            None,
            "a line that is not flat JSON is still an error"
        );
        assert_eq!(
            Event::parse_jsonl("{\"ts_us\":9,\"event\":\"brand_new\",\"x\":null}"),
            Ok((9, None))
        );
    }

    #[test]
    fn schema_lists_every_kind_once_in_table_order() {
        let schema = Event::schema_json();
        let mut at = 0;
        for e in samples() {
            let key = format!("\"name\": \"{}\",\n      \"level\"", e.name());
            assert_eq!(schema.matches(&key).count(), 1, "{key}");
            let pos = schema.find(&key).unwrap();
            assert!(pos > at, "{} out of table order", e.name());
            at = pos;
        }
        assert_eq!(schema.matches("\"level\"").count(), samples().len());
    }

    /// The committed schema is what the event table renders, byte for
    /// byte: no event, level or field change lands without a reviewable
    /// `TRACE_SCHEMA.json` diff.
    #[test]
    fn trace_schema_is_frozen() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../TRACE_SCHEMA.json");
        assert_eq!(
            std::fs::read_to_string(path).expect(path),
            Event::schema_json(),
            "TRACE_SCHEMA.json drifted — review the vocabulary diff, then refresh it with \
             `cargo run -p isasgd-obs --example trace_schema > TRACE_SCHEMA.json`"
        );
    }

    #[test]
    fn log_level_parses() {
        assert_eq!(LogLevel::parse("off"), Some(LogLevel::Off));
        assert_eq!(LogLevel::parse("info"), Some(LogLevel::Info));
        assert_eq!(LogLevel::parse("debug"), Some(LogLevel::Debug));
        assert_eq!(LogLevel::parse("verbose"), None);
    }
}
