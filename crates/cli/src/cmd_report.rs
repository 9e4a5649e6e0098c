//! `isasgd report` — render a `--trace-out` JSONL trace as a run report.
//!
//! The analyzer is strict where CI needs it to be. Every line is read
//! back through the event table (`isasgd_obs::Event::parse_jsonl`): a line
//! that is not a flat JSONL object, or an event the table lists with a
//! field missing or of the wrong type, is a hard error (exit 2) carrying
//! the line number — for every listed event, rendered below or not. And
//! `--expect-rounds n` fails the command unless every round `1..=n` was
//! closed by a round-end event. An event name the table does not list is
//! counted and otherwise passes through untouched, so newer traces stay
//! readable by older binaries.

use crate::opts::Opts;
use isasgd_obs::Event;
use std::collections::BTreeMap;

/// Runs the command; `main` turns an error into exit 2.
pub fn run(o: &Opts) -> Result<(), String> {
    let path = o
        .positional
        .get(1)
        .cloned()
        .or_else(|| o.get("trace"))
        .ok_or("usage: isasgd report <run.jsonl> [--expect-rounds n] (see --help)")?;
    let expect_rounds: u64 = o
        .get_parsed_or("expect-rounds", 0, "u64")
        .map_err(|e| e.to_string())?;
    o.finish().map_err(|e| e.to_string())?;

    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading trace {path}: {e}"))?;
    let report = analyze(&text)?;
    print!("{}", report.render(&path));
    report.expect_rounds(expect_rounds)
}

/// What one `round_end` event recorded.
#[derive(Debug)]
struct RoundRow {
    /// Whether a `round_end` event closed this round (worker timing
    /// alone opens a row but does not close it).
    closed: bool,
    objective: f64,
    rmse: f64,
    error_rate: f64,
    wall_us: u64,
    /// Worker timings tagged with this round, in arrival order:
    /// `(node, compute_us, barrier_wait_us)`. Respawn replay can
    /// legitimately duplicate a `(node, round)` pair; duplicates stay
    /// visible here exactly as they arrived.
    timings: Vec<(u64, u64, u64)>,
}

/// Upper bucket bounds (inclusive, microseconds) for latency histograms.
///
/// Spans 10µs–10s in roughly 2.5× steps; one implicit overflow bucket sits
/// above the last bound.
const LATENCY_BOUNDS_US: [u64; 12] = [
    10, 25, 100, 250, 1_000, 2_500, 10_000, 25_000, 100_000, 250_000, 1_000_000, 10_000_000,
];

/// A fixed-bucket latency histogram over [`LATENCY_BOUNDS_US`].
#[derive(Debug, Default)]
struct Histogram {
    counts: [u64; LATENCY_BOUNDS_US.len() + 1],
    count: u64,
    sum_us: u64,
    max_us: u64,
}

impl Histogram {
    fn record(&mut self, us: u64) {
        let idx = LATENCY_BOUNDS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(LATENCY_BOUNDS_US.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
    }

    /// Mean duration in microseconds (0 when empty).
    fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.count).unwrap_or(0)
    }

    /// A one-line sparkline of the bucket counts, then count, mean, max.
    fn render_ascii(&self) -> String {
        const GLYPHS: [char; 5] = [' ', '.', ':', '*', '#'];
        let peak = self.counts.iter().copied().max().unwrap_or(0);
        let bars: String = self
            .counts
            .iter()
            .map(|&c| {
                if peak == 0 || c == 0 {
                    GLYPHS[0]
                } else {
                    // Map 1..=peak onto the non-blank glyphs.
                    GLYPHS[1 + (c * (GLYPHS.len() as u64 - 2) / peak) as usize]
                }
            })
            .collect();
        format!(
            "[{bars}] n={} mean={}us max={}us",
            self.count,
            self.mean_us(),
            self.max_us
        )
    }
}

/// Per-worker latency aggregation across the whole trace.
#[derive(Debug, Default)]
struct WorkerStats {
    compute: Histogram,
    barrier: Histogram,
    rows: u64,
    commits: u64,
}

/// Everything [`analyze`] extracts from a trace.
#[derive(Debug)]
struct TraceReport {
    events: usize,
    rounds: BTreeMap<u64, RoundRow>,
    workers: BTreeMap<u64, WorkerStats>,
    /// `(node, respawn, dur_us)` per handshake, in trace order.
    handshakes: Vec<(u64, bool, u64)>,
    /// `(node, replay_frames, replay_bytes, replay_us)` per respawn.
    respawns: Vec<(u64, u64, u64, u64)>,
    /// `(node, tx_bytes, rx_bytes, summary)` per link, in trace order
    /// (the coordinator emits these sorted by slot id).
    net: Vec<(u64, u64, u64, String)>,
}

fn analyze(text: &str) -> Result<TraceReport, String> {
    let mut report = TraceReport {
        events: 0,
        rounds: BTreeMap::new(),
        workers: BTreeMap::new(),
        handshakes: Vec::new(),
        respawns: Vec::new(),
        net: Vec::new(),
    };
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let (_, event) = Event::parse_jsonl(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        report.events += 1;
        match event {
            Some(Event::RoundEnd {
                round,
                objective,
                rmse,
                error_rate,
                wall_us,
            }) => {
                let timings = report
                    .rounds
                    .remove(&round)
                    .map(|r| r.timings)
                    .unwrap_or_default();
                report.rounds.insert(
                    round,
                    RoundRow {
                        closed: true,
                        objective,
                        rmse,
                        error_rate,
                        wall_us,
                        timings,
                    },
                );
            }
            Some(Event::WorkerTiming {
                node,
                round,
                compute_us,
                barrier_wait_us,
                rows,
                commits,
            }) => {
                report
                    .rounds
                    .entry(round)
                    .or_insert_with(|| RoundRow {
                        closed: false,
                        objective: f64::NAN,
                        rmse: f64::NAN,
                        error_rate: f64::NAN,
                        wall_us: 0,
                        timings: Vec::new(),
                    })
                    .timings
                    .push((node, compute_us, barrier_wait_us));
                let w = report.workers.entry(node).or_default();
                w.compute.record(compute_us);
                w.barrier.record(barrier_wait_us);
                w.rows += rows;
                w.commits += commits;
            }
            Some(Event::Handshake {
                node,
                respawn,
                dur_us,
            }) => report.handshakes.push((node, respawn, dur_us)),
            Some(Event::Respawn {
                node,
                replay_frames,
                replay_bytes,
                replay_us,
            }) => report
                .respawns
                .push((node, replay_frames, replay_bytes, replay_us)),
            Some(Event::NetSummary {
                node,
                tx_bytes,
                rx_bytes,
                summary,
            }) => report.net.push((node, tx_bytes, rx_bytes, summary)),
            // Every other event the table lists (dataset loading, barrier
            // waits, shard streaming, checkpoints, …) has been validated
            // and counted but has no dedicated section yet; a name it does
            // not list (`None`) is counted and passes through.
            _ => {}
        }
    }
    Ok(report)
}

fn ms(us: u64) -> String {
    format!("{:.1}ms", us as f64 / 1e3)
}

impl TraceReport {
    /// `--expect-rounds n`: every round `1..=n` must have been closed by
    /// a `round_end` (a row that only a `worker_timing` opened is not
    /// coverage, in the check or in the count the failure reports).
    fn expect_rounds(&self, n: u64) -> Result<(), String> {
        let missing: Vec<u64> = (1..=n)
            .filter(|r| !self.rounds.get(r).is_some_and(|row| row.closed))
            .collect();
        if missing.is_empty() {
            return Ok(());
        }
        Err(format!(
            "trace covers {} of {n} expected rounds; missing round_end for {missing:?}",
            n - missing.len() as u64
        ))
    }

    fn render(&self, path: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "trace {path}: {} events, {} rounds, {} workers with timing\n",
            self.events,
            self.rounds.len(),
            self.workers.len()
        ));

        if !self.rounds.is_empty() {
            out.push_str("\n[rounds]\n");
            for (round, row) in &self.rounds {
                let timings: Vec<String> = row
                    .timings
                    .iter()
                    .map(|&(n, c, b)| format!("{n}:{}/{}", ms(c), ms(b)))
                    .collect();
                out.push_str(&format!(
                    "round {round:>4}  obj={:<12.6} rmse={:<12.6} err={:<8.4} wall={:<9} workers(compute/barrier): {}\n",
                    row.objective,
                    row.rmse,
                    row.error_rate,
                    ms(row.wall_us),
                    if timings.is_empty() { "-".to_string() } else { timings.join(" ") }
                ));
            }
        }

        if !self.workers.is_empty() {
            out.push_str("\n[workers]\n");
            for (node, w) in &self.workers {
                out.push_str(&format!(
                    "worker {node}: rows={} commits={}\n  compute {}\n  barrier {}\n",
                    w.rows,
                    w.commits,
                    w.compute.render_ascii(),
                    w.barrier.render_ascii()
                ));
            }
        }

        if !self.handshakes.is_empty() {
            out.push_str("\n[handshakes]\n");
            for &(node, respawn, dur_us) in &self.handshakes {
                out.push_str(&format!(
                    "node {node}: {} in {}\n",
                    if respawn { "respawn" } else { "admitted" },
                    ms(dur_us)
                ));
            }
        }

        if !self.respawns.is_empty() {
            out.push_str("\n[respawns]\n");
            for &(node, frames, bytes, us) in &self.respawns {
                out.push_str(&format!(
                    "node {node}: replayed {frames} frames / {bytes} bytes in {}\n",
                    ms(us)
                ));
            }
        }

        if !self.net.is_empty() {
            out.push_str("\n[net]\n");
            for (node, tx, rx, summary) in &self.net {
                out.push_str(&format!("link {node}: tx={tx}B rx={rx}B {summary}\n"));
            }
        }
        out
    }
}

/// Usage string for `--help`.
pub const HELP: &str = "\
isasgd report <run.jsonl> [flags]

  --trace <path>       trace file (alternative to the positional arg)
  --expect-rounds <n>  fail unless rounds 1..=n all closed (CI gate)

Renders a --trace-out JSONL trace: per-round timeline with worker
compute/barrier timings, per-worker latency histograms, handshakes,
respawn replay footprints, and per-link wire totals. Exits nonzero on
any unparseable trace line or missing round coverage.
";

#[cfg(test)]
mod tests {
    use super::*;

    fn line(s: &str) -> String {
        s.to_string()
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::default();
        h.record(5); // bucket 0 (<=10)
        h.record(10); // bucket 0 (inclusive bound)
        h.record(11); // bucket 1
        h.record(20_000_000); // overflow
        assert_eq!(h.count, 4);
        assert_eq!(h.max_us, 20_000_000);
        assert_eq!(h.counts[0], 2);
        assert_eq!(h.counts[1], 1);
        assert_eq!(h.counts[LATENCY_BOUNDS_US.len()], 1);
        assert_eq!(h.counts.iter().sum::<u64>(), 4);
    }

    #[test]
    fn ascii_rendering_never_panics_on_empty() {
        assert!(Histogram::default().render_ascii().contains("n=0"));
    }

    #[test]
    fn empty_trace_renders() {
        let r = analyze("").unwrap();
        assert_eq!(r.events, 0);
        assert!(r.render("t.jsonl").contains("0 events"));
    }

    #[test]
    fn round_and_timing_lines_aggregate() {
        let trace = [
            line(r#"{"ts_us":1,"event":"worker_timing","node":0,"round":1,"compute_us":900,"barrier_wait_us":30,"rows":64,"commits":8}"#),
            line(r#"{"ts_us":2,"event":"worker_timing","node":1,"round":1,"compute_us":800,"barrier_wait_us":40,"rows":64,"commits":0}"#),
            line(r#"{"ts_us":3,"event":"round_end","round":1,"objective":0.5,"rmse":0.7,"error_rate":0.25,"wall_us":2000}"#),
        ]
        .join("\n");
        let r = analyze(&trace).unwrap();
        assert_eq!(r.events, 3);
        assert_eq!(r.rounds.len(), 1);
        assert_eq!(r.rounds[&1].timings.len(), 2);
        assert_eq!(r.workers.len(), 2);
        assert_eq!(r.workers[&0].rows, 64);
        assert_eq!(r.workers[&0].compute.count, 1);
        let text = r.render("t.jsonl");
        assert!(text.contains("[rounds]"), "{text}");
        assert!(text.contains("[workers]"), "{text}");
        assert!(text.contains("0:0.9ms/0.0ms"), "{text}");
    }

    #[test]
    fn expect_rounds_counts_closed_rounds_only() {
        // Round 3 has worker timings but no round_end: its row exists,
        // and used to be counted as covered ("covers 3 of 3 … missing
        // round_end for [3]").
        let end = |r: u64| {
            format!(
                r#"{{"ts_us":{r},"event":"round_end","round":{r},"objective":0.5,"rmse":0.7,"error_rate":0.25,"wall_us":10}}"#
            )
        };
        let open = line(
            r#"{"ts_us":9,"event":"worker_timing","node":0,"round":3,"compute_us":900,"barrier_wait_us":30,"rows":64,"commits":8}"#,
        );
        let r = analyze(&[end(1), end(2), open].join("\n")).unwrap();
        assert_eq!(r.rounds.len(), 3);
        assert_eq!(r.expect_rounds(0), Ok(()));
        assert_eq!(r.expect_rounds(2), Ok(()));
        assert_eq!(
            r.expect_rounds(3).unwrap_err(),
            "trace covers 2 of 3 expected rounds; missing round_end for [3]"
        );
    }

    #[test]
    fn malformed_lines_are_hard_errors_with_line_numbers() {
        let trace = "{\"ts_us\":1,\"event\":\"round_end\",\"round\":1,\"objective\":0.5,\"rmse\":0.7,\"error_rate\":0.25,\"wall_us\":10}\nnot json";
        let err = analyze(trace).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        // Missing required fields are errors too, not silent zeros.
        let err = analyze(r#"{"ts_us":1,"event":"round_end","round":1}"#).unwrap_err();
        assert!(err.contains("objective"), "{err}");
        // ... and so is a record with no event name.
        let err = analyze(r#"{"ts_us":1,"round":1}"#).unwrap_err();
        assert!(err.contains("event"), "{err}");
    }

    #[test]
    fn respawn_handshake_and_net_sections_render() {
        let trace = [
            line(r#"{"ts_us":1,"event":"handshake","node":1,"respawn":false,"dur_us":500}"#),
            line(r#"{"ts_us":2,"event":"handshake","node":1,"respawn":true,"dur_us":700}"#),
            line(r#"{"ts_us":3,"event":"respawn","node":1,"replay_frames":5,"replay_bytes":4096,"replay_us":900}"#),
            line(r#"{"ts_us":4,"event":"net_summary","node":0,"tx_bytes":10,"rx_bytes":20,"summary":"tx 10 B rx 20 B"}"#),
        ]
        .join("\n");
        let r = analyze(&trace).unwrap();
        let text = r.render("t.jsonl");
        assert!(text.contains("[handshakes]"), "{text}");
        assert!(text.contains("respawn in 0.7ms"), "{text}");
        assert!(text.contains("replayed 5 frames / 4096 bytes"), "{text}");
        assert!(text.contains("link 0: tx=10B rx=20B"), "{text}");
    }

    /// Every listed event is validated, not only the five rendered
    /// above. (`isasgd-obs` pins the full matrix — every kind, every
    /// field, removed and mistyped; here: the error reaches the user
    /// with its line number, for events and fields the report itself
    /// has no use for or could default.)
    #[test]
    fn events_without_a_section_are_validated_too() {
        let good = r#"{"ts_us":1,"event":"round_start","round":1,"nodes":2}"#;
        for (bad, event, field) in [
            // Events with no report section.
            (
                r#"{"ts_us":2,"event":"checkpoint_stored","node":1,"round":2}"#,
                "checkpoint_stored",
                "bytes",
            ),
            (
                r#"{"ts_us":2,"event":"barrier_wait","node":0,"round":1,"wait_us":1.5}"#,
                "barrier_wait",
                "wait_us",
            ),
            // A flag whose absence must not read as `false` ("admitted").
            (
                r#"{"ts_us":2,"event":"handshake","node":1,"dur_us":500}"#,
                "handshake",
                "respawn",
            ),
            (
                r#"{"ts_us":2,"event":"handshake","node":1,"respawn":"yes","dur_us":500}"#,
                "handshake",
                "respawn",
            ),
            // A string whose absence must not read as empty.
            (
                r#"{"ts_us":2,"event":"net_summary","node":0,"tx_bytes":10,"rx_bytes":20}"#,
                "net_summary",
                "summary",
            ),
        ] {
            let err = analyze(&[good, bad].join("\n")).unwrap_err();
            assert!(err.starts_with("line 2: "), "{err}");
            assert!(err.contains(&format!("'{event}'")), "{err}");
            assert!(err.contains(&format!("'{field}'")), "{err}");
        }
    }

    #[test]
    fn unknown_events_count_but_do_not_fail() {
        let r = analyze(r#"{"ts_us":1,"event":"brand_new_thing","x":1}"#).unwrap();
        assert_eq!(r.events, 1);
    }

    #[test]
    fn run_requires_a_trace_path() {
        let o = Opts::parse(["report".to_string()]);
        assert!(run(&o).is_err());
    }

    #[test]
    fn run_rejects_missing_file() {
        let o = Opts::parse(["report", "/no/such/trace.jsonl"].map(String::from));
        assert!(run(&o).is_err());
    }
}
