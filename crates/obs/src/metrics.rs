//! The metrics registry: counters, gauges, fixed-bucket latency histograms,
//! and per-round counter snapshots.
//!
//! The registry is fed exclusively from [`Event`]s: [`Metrics::apply`] is the
//! only public way in (the mutators it calls are private), so the metric
//! catalog is derived from the event catalog and needs no registration
//! step. `apply` is hand-written on purpose — it is the event→metric
//! *semantics*, and its exhaustive `match` is what stops a new entry in the
//! event table from compiling until someone has decided what it counts.
//! `render_json` dumps the whole registry as one stable hand-rolled JSON
//! document for `--metrics-out`.

use std::collections::BTreeMap;

use crate::event::Event;
use crate::json::escape_json;

/// Upper bucket bounds (inclusive, microseconds) for latency histograms.
///
/// Spans 10µs–10s in roughly 2.5× steps; one implicit overflow bucket sits
/// above the last bound.
pub const LATENCY_BOUNDS_US: [u64; 12] = [
    10, 25, 100, 250, 1_000, 2_500, 10_000, 25_000, 100_000, 250_000, 1_000_000, 10_000_000,
];

/// A fixed-bucket latency histogram over [`LATENCY_BOUNDS_US`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; LATENCY_BOUNDS_US.len() + 1],
    count: u64,
    sum_us: u64,
    max_us: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; LATENCY_BOUNDS_US.len() + 1],
            count: 0,
            sum_us: 0,
            max_us: 0,
        }
    }
}

impl Histogram {
    /// Record one duration.
    pub fn record(&mut self, us: u64) {
        let idx = LATENCY_BOUNDS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(LATENCY_BOUNDS_US.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean duration in microseconds (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.count).unwrap_or(0)
    }

    /// Per-bucket `(upper_bound_us, count)` pairs; the final entry uses
    /// `u64::MAX` as its bound (overflow bucket).
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        LATENCY_BOUNDS_US
            .iter()
            .copied()
            .chain(std::iter::once(u64::MAX))
            .zip(self.counts.iter().copied())
            .collect()
    }

    /// A one-line ASCII sparkline-style rendering for `isasgd report`.
    pub fn render_ascii(&self) -> String {
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

    fn render_json(&self) -> String {
        let buckets: Vec<String> = self
            .buckets()
            .iter()
            .map(|&(bound, c)| {
                if bound == u64::MAX {
                    format!("[null,{c}]")
                } else {
                    format!("[{bound},{c}]")
                }
            })
            .collect();
        format!(
            "{{\"count\":{},\"sum_us\":{},\"max_us\":{},\"buckets\":[{}]}}",
            self.count,
            self.sum_us,
            self.max_us,
            buckets.join(",")
        )
    }
}

/// Counters captured at the end of one round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundSnapshot {
    /// 1-based round the snapshot closes.
    pub round: u64,
    /// Cumulative counter values at snapshot time.
    pub counters: BTreeMap<&'static str, u64>,
}

/// The registry: named counters, gauges, histograms, round snapshots.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
    snapshots: Vec<RoundSnapshot>,
}

impl Metrics {
    /// Add `by` to a counter.
    fn inc(&mut self, name: &'static str, by: u64) {
        *self.counters.entry(name).or_insert(0) += by;
    }

    /// Set a gauge to its latest value.
    fn set_gauge(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(name, value);
    }

    /// Record a duration into a named histogram.
    fn observe_us(&mut self, name: &'static str, us: u64) {
        self.histograms.entry(name).or_default().record(us);
    }

    /// Capture the current counters as the snapshot closing `round`.
    fn snapshot_round(&mut self, round: u64) {
        self.snapshots.push(RoundSnapshot {
            round,
            counters: self.counters.clone(),
        });
    }

    /// Fold one event into the registry (the event→metric mapping).
    pub fn apply(&mut self, ev: &Event) {
        match ev {
            Event::DatasetLoaded { rows, .. } => self.inc("dataset_rows", *rows),
            Event::RoundStart { .. } => self.inc("rounds_started", 1),
            Event::RoundEnd {
                round,
                objective,
                rmse,
                error_rate,
                wall_us,
            } => {
                self.inc("rounds_completed", 1);
                self.set_gauge("objective", *objective);
                self.set_gauge("rmse", *rmse);
                self.set_gauge("error_rate", *error_rate);
                self.observe_us("round_wall_us", *wall_us);
                self.snapshot_round(*round);
            }
            Event::BarrierWait { wait_us, .. } => self.observe_us("barrier_wait_us", *wait_us),
            Event::Handshake {
                respawn, dur_us, ..
            } => {
                self.inc("handshakes", 1);
                if *respawn {
                    self.inc("respawn_handshakes", 1);
                }
                self.observe_us("handshake_us", *dur_us);
            }
            Event::CheckpointStored { bytes, .. } => {
                self.inc("checkpoints_stored", 1);
                self.inc("checkpoint_bytes", *bytes);
            }
            Event::Respawn {
                replay_frames,
                replay_bytes,
                replay_us,
                ..
            } => {
                self.inc("respawns", 1);
                self.inc("replay_frames", *replay_frames);
                self.inc("replay_bytes", *replay_bytes);
                self.observe_us("recovery_replay_us", *replay_us);
            }
            Event::ShardStream {
                rows,
                bytes,
                encode_us,
                ..
            } => {
                self.inc("shard_rows", *rows);
                self.inc("shard_bytes", *bytes);
                self.observe_us("shard_encode_us", *encode_us);
            }
            Event::SamplerCommit {
                feedback_rows,
                observed_phi_imbalance,
            } => {
                self.inc("feedback_rows", *feedback_rows);
                self.set_gauge("observed_phi_imbalance", *observed_phi_imbalance);
            }
            Event::WorkerTiming {
                compute_us,
                barrier_wait_us,
                rows,
                commits,
                ..
            } => {
                self.observe_us("worker_compute_us", *compute_us);
                self.observe_us("worker_barrier_wait_us", *barrier_wait_us);
                self.inc("worker_rows", *rows);
                self.inc("worker_commits", *commits);
            }
            Event::NetSummary {
                tx_bytes, rx_bytes, ..
            } => {
                self.inc("net_tx_bytes", *tx_bytes);
                self.inc("net_rx_bytes", *rx_bytes);
            }
            Event::ModelSaved { nnz, .. } => self.inc("model_nnz_saved", *nnz),
        }
    }

    /// Dump the registry as one stable JSON document (for `--metrics-out`).
    pub fn render_json(&self) -> String {
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        let gauges: Vec<String> = self
            .gauges
            .iter()
            .map(|(k, v)| {
                if v.is_finite() {
                    format!("\"{k}\":{v}")
                } else {
                    format!("\"{k}\":null")
                }
            })
            .collect();
        let histograms: Vec<String> = self
            .histograms
            .iter()
            .map(|(k, h)| format!("\"{k}\":{}", h.render_json()))
            .collect();
        let rounds: Vec<String> = self
            .snapshots
            .iter()
            .map(|s| {
                let inner: Vec<String> = s
                    .counters
                    .iter()
                    .map(|(k, v)| format!("\"{}\":{v}", escape_json(k)))
                    .collect();
                format!(
                    "{{\"round\":{},\"counters\":{{{}}}}}",
                    s.round,
                    inner.join(",")
                )
            })
            .collect();
        format!(
            "{{\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{{{}}},\"rounds\":[{}]}}\n",
            counters.join(","),
            gauges.join(","),
            histograms.join(","),
            rounds.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::default();
        h.record(5); // bucket 0 (<=10)
        h.record(10); // bucket 0 (inclusive bound)
        h.record(11); // bucket 1
        h.record(20_000_000); // overflow
        assert_eq!(h.count(), 4);
        assert_eq!(h.max_us, 20_000_000);
        let buckets = h.buckets();
        assert_eq!(buckets[0], (10, 2));
        assert_eq!(buckets[1], (25, 1));
        assert_eq!(buckets.last().copied(), Some((u64::MAX, 1)));
    }

    #[test]
    fn events_feed_the_registry() {
        let mut m = Metrics::default();
        m.apply(&Event::Handshake {
            node: 0,
            respawn: false,
            dur_us: 50,
        });
        m.apply(&Event::Handshake {
            node: 1,
            respawn: true,
            dur_us: 80,
        });
        m.apply(&Event::WorkerTiming {
            node: 0,
            round: 1,
            compute_us: 900,
            barrier_wait_us: 30,
            rows: 64,
            commits: 8,
        });
        m.apply(&Event::RoundEnd {
            round: 1,
            objective: 0.5,
            rmse: 0.7,
            error_rate: 0.0,
            wall_us: 1000,
        });
        assert_eq!(m.counters["handshakes"], 2);
        assert_eq!(m.counters["respawn_handshakes"], 1);
        assert_eq!(m.counters["worker_rows"], 64);
        assert_eq!(m.histograms["handshake_us"].count(), 2);
        assert_eq!(m.snapshots.len(), 1);
        assert_eq!(m.snapshots[0].round, 1);
        assert_eq!(m.snapshots[0].counters.get("worker_commits"), Some(&8));
    }

    #[test]
    fn render_json_is_stable_and_parseable_per_section() {
        let mut m = Metrics::default();
        m.apply(&Event::RoundEnd {
            round: 1,
            objective: 0.25,
            rmse: 0.5,
            error_rate: f64::NAN,
            wall_us: 10,
        });
        let a = m.render_json();
        let b = m.clone().render_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"counters\":{"));
        assert!(a.contains("\"error_rate\":null"));
        assert!(a.contains("\"rounds\":[{\"round\":1,"));
        assert!(a.ends_with("}\n"));
    }

    #[test]
    fn ascii_rendering_never_panics_on_empty() {
        assert!(Histogram::default().render_ascii().contains("n=0"));
    }
}
