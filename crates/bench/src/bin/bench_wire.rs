//! Wire-codec perf-trajectory runner: measures the encode/decode
//! throughput of the bandwidth-bearing frames (dense model updates,
//! sparse deltas, shard-streamed datasets) plus their deterministic
//! byte footprints, and gates CI against the committed baseline.
//!
//! ```text
//! cargo run --release -p isasgd-bench --bin bench_wire            # print
//! cargo run --release -p isasgd-bench --bin bench_wire -- --write BENCH_wire.json
//! cargo run --release -p isasgd-bench --bin bench_wire -- --check BENCH_wire.json
//! ```
//!
//! `--check` exits non-zero when any `*_gbps` metric falls more than
//! 25% below the baseline (a real codec regression at these sizes
//! dwarfs scheduler noise), when any `*_bytes` metric — which is a
//! pure function of the codec, not of the machine — differs from it in
//! either direction (a frame that shrinks is a layout change too), or
//! when the baseline holds a row this binary no longer measures.
//!
//! `--write` adds the rows the file lacks and keeps every existing row
//! byte for byte, so a new metric lands without re-measuring the old
//! ones on another machine. To re-baseline a row, delete it from the
//! file first.
//! This runner exists so the trajectory lives in-repo as one small
//! JSON file CI can diff against.

use isasgd_bench::bench_dataset;
use isasgd_cluster::{
    apply_model_frame, encode_dataset_shard_chunk, encode_model_frame, tcp_loopback_links,
    Broadcast, CheckpointSampler, CheckpointState, FrameKind, Message, Transport, WireEncoding,
    WorkerTiming,
};
use isasgd_obs::json::{escape_json, parse_jsonl_line};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const DIM: usize = 100_000;
const NNZ: usize = DIM / 10;
const SHARD_ROWS: usize = 10_000;
const SHARDS: usize = 3;

fn model_update(dim: usize) -> Message {
    Message::ModelUpdate {
        node: 1,
        round: 7,
        model: (0..dim).map(|i| (i as f64).sin()).collect(),
    }
}

fn model_delta(dim: usize, nnz: usize) -> Message {
    let stride = dim / nnz;
    Message::ModelDelta {
        node: 1,
        round: 7,
        dim: dim as u32,
        indices: (0..nnz).map(|i| (i * stride) as u32).collect(),
        values: (0..nnz).map(|i| (i as f64).cos()).collect(),
    }
}

fn checkpoint(round: u64) -> Message {
    Message::Checkpoint {
        node: 1,
        round,
        state: Box::new(CheckpointState {
            draw_rng: [0x9E37_79B9, 0x7F4A_7C15, 0xF39C_C060, 0x5CED_C834],
            sampler: CheckpointSampler::Adaptive {
                rows: SHARD_ROWS as u32,
                commits: 7,
                indices: (0..256).map(|i| i * 31).collect(),
                weights: (0..256).map(|i| 1.0 + (i % 17) as f64).collect(),
            },
        }),
    }
}

/// The delta fixture as two models: `model_update`'s model as the base,
/// and the base with `model_delta`'s coordinates set to its values.
fn delta_pair(dim: usize, nnz: usize) -> (Vec<f64>, Vec<f64>) {
    let Message::ModelUpdate { model: base, .. } = model_update(dim) else {
        unreachable!("model_update builds a ModelUpdate")
    };
    let Message::ModelDelta {
        indices, values, ..
    } = model_delta(dim, nnz)
    else {
        unreachable!("model_delta builds a ModelDelta")
    };
    let mut next = base.clone();
    for (&i, &v) in indices.iter().zip(&values) {
        next[i as usize] = v;
    }
    (base, next)
}

/// Bytes one round's broadcast of `next` writes to three links whose
/// tx bases are all `base` (sent the round before), length prefixes
/// included: one delta encode, written three times.
fn broadcast_bytes(base: &[f64], next: &[f64]) -> u64 {
    let links = tcp_loopback_links(3, "127.0.0.1:0").expect("loopback links");
    let (mut coord, workers): (Vec<_>, Vec<_>) = links.into_iter().unzip();
    for link in &mut coord {
        link.set_encoding(WireEncoding::Delta);
    }
    std::thread::scope(|scope| {
        for mut worker in workers {
            worker.set_encoding(WireEncoding::Delta);
            scope.spawn(move || {
                for _ in 0..2 {
                    worker.recv().expect("a round model");
                }
            });
        }
        let mut frame = Vec::new();
        for (round, model) in [(6, base), (7, next)] {
            let model: Arc<[f64]> = Arc::from(model);
            let mut broadcast = Broadcast::new(round, &model, &mut frame);
            for (k, link) in coord.iter_mut().enumerate() {
                link.send_broadcast(k as u32, &mut broadcast).expect("sent");
            }
        }
    });
    coord
        .iter()
        .map(|link| link.link_stats().tx_bytes_for(FrameKind::ModelDelta))
        .sum()
}

/// Bytes a respawn re-ships for a session of `rounds` rounds with a
/// checkpoint every `every` rounds: the newest absorbed checkpoint
/// blob plus the post-checkpoint log suffix (one barrier and one dense
/// update per round). A pure function of the checkpoint interval and
/// the frame shapes — the 12-round and 120-round variants must be
/// byte-identical, or checkpoint truncation has regressed to
/// whole-session replay.
fn recovery_replay_bytes(rounds: u64, every: u64, dim: usize) -> usize {
    // The newest checkpoint the coordinator has absorbed by round
    // `rounds` (the final-round checkpoint is skipped by design).
    let last_ckpt = (rounds - 1) / every * every;
    let mut total = checkpoint(last_ckpt).to_bytes().len();
    for round in last_ckpt + 1..=rounds {
        total += Message::RoundBarrier { node: 1, round }.to_bytes().len();
        total += Message::ModelUpdate {
            node: 1,
            round,
            model: (0..dim).map(|i| (i as f64).sin()).collect(),
        }
        .to_bytes()
        .len();
    }
    total
}

/// Median-of-5 throughput in GB/s of `f`, which processes `bytes`
/// bytes per call. Each rep loops until ≥ 30 ms has elapsed so the
/// measurement amortizes timer overhead.
fn gbps<F: FnMut()>(bytes: usize, mut f: F) -> f64 {
    // Warm-up.
    for _ in 0..3 {
        f();
    }
    let mut reps = Vec::with_capacity(5);
    for _ in 0..5 {
        let mut iters = 0u64;
        let start = Instant::now();
        while start.elapsed().as_millis() < 30 {
            f();
            iters += 1;
        }
        let secs = start.elapsed().as_secs_f64();
        reps.push((bytes as f64 * iters as f64) / secs / 1e9);
    }
    reps.sort_by(|a, b| a.partial_cmp(b).unwrap());
    reps[2]
}

fn measure() -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();

    let dense = model_update(DIM);
    let dense_bytes = dense.to_bytes();
    let mut buf = Vec::with_capacity(dense_bytes.len());
    m.insert(
        "encode_dense_gbps",
        gbps(dense_bytes.len(), || {
            buf.clear();
            dense.encode(&mut buf);
            black_box(buf.len());
        }),
    );
    m.insert(
        "decode_dense_gbps",
        gbps(dense_bytes.len(), || {
            black_box(Message::decode(&dense_bytes).unwrap());
        }),
    );

    let delta = model_delta(DIM, NNZ);
    let delta_bytes = delta.to_bytes();
    let mut buf = Vec::with_capacity(delta_bytes.len());
    m.insert(
        "encode_delta_gbps",
        gbps(delta_bytes.len(), || {
            buf.clear();
            delta.encode(&mut buf);
            black_box(buf.len());
        }),
    );
    m.insert(
        "decode_delta_gbps",
        gbps(delta_bytes.len(), || {
            black_box(Message::decode(&delta_bytes).unwrap());
        }),
    );

    // The link codec every round model crosses: the delta fixture
    // encoded against its base, and applied to it. Each encode advances
    // its base and each apply leaves the undone values in the payload,
    // so a second call on the same buffers is the reverse delta — the
    // same work — and restores them.
    let (base, next) = delta_pair(DIM, NNZ);
    let mut frame = Vec::with_capacity(delta_bytes.len());
    let mut held = base.clone();
    let encode = |frame: &mut Vec<u8>, model: &[f64], held: &mut [f64]| {
        frame.clear();
        encode_model_frame(frame, 1, 7, model, Some(held), WireEncoding::Delta).unwrap();
    };
    encode(&mut frame, &next, &mut held);
    assert_eq!(
        frame, delta_bytes,
        "the link encoder writes the delta fixture"
    );
    m.insert(
        "link_encode_delta_gbps",
        gbps(2 * delta_bytes.len(), || {
            encode(&mut frame, &base, &mut held);
            encode(&mut frame, &next, &mut held);
            black_box(frame.len());
        }),
    );
    let mut payload = delta_bytes.clone();
    let mut held = Some(base.clone());
    m.insert(
        "link_decode_delta_gbps",
        gbps(2 * delta_bytes.len(), || {
            for _ in 0..2 {
                black_box(apply_model_frame(&mut payload, &mut held).unwrap());
            }
        }),
    );
    m.insert("link_broadcast_bytes", broadcast_bytes(&base, &next) as f64);

    // Bytes-per-round at the benchmark shape (dim 100k, nnz = dim/10):
    // one model exchange in each direction per link per round.
    m.insert("round_dense_bytes", 2.0 * dense_bytes.len() as f64);
    m.insert("round_delta_bytes", 2.0 * delta_bytes.len() as f64);

    let data = bench_dataset(5_000, SHARD_ROWS, 20);
    let weights: Vec<f64> = (0..SHARD_ROWS).map(|i| 1.0 + (i % 17) as f64).collect();
    let shard = 0..SHARD_ROWS / SHARDS;
    // One worker's admission stream, encoded as the fleet sends it: one
    // chunk at a time through one reused buffer.
    let mut buf = Vec::new();
    let mut stream = |visit: &mut dyn FnMut(&[u8])| {
        let mut row = shard.start;
        while row < shard.end {
            buf.clear();
            row = encode_dataset_shard_chunk(&mut buf, 0, &shard, row, &data.dataset, &weights);
            visit(&buf);
        }
    };
    let mut chunks = Vec::new();
    stream(&mut |c| chunks.push(c.to_vec()));
    let stream_bytes: usize = chunks.iter().map(Vec::len).sum();
    m.insert(
        "encode_shard_stream_gbps",
        gbps(stream_bytes, || {
            stream(&mut |c| {
                black_box(c.len());
            });
        }),
    );
    m.insert(
        "decode_shard_stream_gbps",
        gbps(stream_bytes, || {
            for c in &chunks {
                black_box(Message::decode(c).unwrap());
            }
        }),
    );

    // Checkpoint frames are recovery-bearing traffic now: measure their
    // codec throughput at the benchmark shard shape, and the replay
    // footprint they bound. The 12r/120r pair pins session-length
    // independence (also re-checked as a headline invariant).
    let ckpt = checkpoint(8);
    let ckpt_bytes = ckpt.to_bytes();
    let mut buf = Vec::with_capacity(ckpt_bytes.len());
    m.insert(
        "encode_checkpoint_gbps",
        gbps(ckpt_bytes.len(), || {
            buf.clear();
            ckpt.encode(&mut buf);
            black_box(buf.len());
        }),
    );
    m.insert(
        "decode_checkpoint_gbps",
        gbps(ckpt_bytes.len(), || {
            black_box(Message::decode(&ckpt_bytes).unwrap());
        }),
    );
    m.insert(
        "recovery_replay_bytes_12r",
        recovery_replay_bytes(12, 4, DIM) as f64,
    );
    m.insert(
        "recovery_replay_bytes_120r",
        recovery_replay_bytes(120, 4, DIM) as f64,
    );

    // Telemetry frames ride every round of an armed run (one per
    // worker per round, absorbed by the supervisor), so their fixed
    // byte footprint joins the trajectory. No throughput figure: on a
    // 53-byte frame it measures call latency, not bandwidth, and swings
    // past the gate's 25% with no code change.
    let telem = Message::Telemetry {
        node: 1,
        round: 7,
        timing: WorkerTiming {
            compute_us: 48_000,
            barrier_wait_us: 1_200,
            rows: 10_000,
            commits: 625,
        },
    };
    m.insert("telemetry_frame_bytes", telem.to_bytes().len() as f64);

    // Admission footprint: one worker's shard stream.
    m.insert("admission_shard_stream_bytes", stream_bytes as f64);

    m
}

/// The baseline file: one flat JSON object, one metric per line, keys
/// in sorted order — byte-stable so `--write` diffs are reviewable.
fn render_baseline<K: AsRef<str>>(m: &BTreeMap<K, f64>) -> String {
    let rows: Vec<String> = m
        .iter()
        .map(|(k, v)| format!("  \"{}\": {v:.6}", escape_json(k.as_ref())))
        .collect();
    format!("{{\n{}\n}}\n", rows.join(",\n"))
}

/// Reads a baseline strictly: anything that is not one flat object of
/// numbers is an error, so a corrupted file cannot pass as "fewer gates".
fn parse_baseline(s: &str) -> Result<BTreeMap<String, f64>, String> {
    parse_jsonl_line(s)?
        .into_iter()
        .map(|(k, v)| match v.as_f64() {
            Some(n) => Ok((k, n)),
            None => Err(format!("baseline metric {k} is not a number")),
        })
        .collect()
}

/// Adds every `current` row `baseline` lacks, keeping the rows it has;
/// returns how many it added.
fn add_missing(
    baseline: &mut BTreeMap<String, f64>,
    current: &BTreeMap<&'static str, f64>,
) -> usize {
    let had = baseline.len();
    for (k, &v) in current {
        baseline.entry(k.to_string()).or_insert(v);
    }
    baseline.len() - had
}

/// Reads and parses the baseline at `path`, exiting 2 if it is corrupt.
fn read_baseline(path: &str) -> BTreeMap<String, f64> {
    let text = std::fs::read_to_string(path).expect("reading baseline");
    parse_baseline(&text).unwrap_or_else(|e| {
        eprintln!("bench_wire: {path}: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let current = measure();
    match args.as_slice() {
        [] => print!("{}", render_baseline(&current)),
        [flag, path] if flag == "--write" => {
            let mut baseline = if std::path::Path::new(path).exists() {
                read_baseline(path)
            } else {
                BTreeMap::new()
            };
            let added = add_missing(&mut baseline, &current);
            std::fs::write(path, render_baseline(&baseline)).expect("writing baseline");
            eprintln!("added {added} rows to {path}");
        }
        [flag, path] if flag == "--check" => {
            let baseline = read_baseline(path);
            print!("{}", render_baseline(&current));
            let mut failed = false;
            for k in baseline
                .keys()
                .filter(|k| !current.contains_key(k.as_str()))
            {
                eprintln!("FAIL {k}: in baseline {path} but no longer measured");
                failed = true;
            }
            for (k, &cur) in &current {
                let Some(&base) = baseline.get(*k) else {
                    eprintln!("FAIL {k}: missing from baseline {path}");
                    failed = true;
                    continue;
                };
                if k.ends_with("_gbps") {
                    if cur < 0.75 * base {
                        eprintln!("FAIL {k}: {cur:.3} GB/s is >25% below the baseline {base:.3}");
                        failed = true;
                    }
                } else if cur != base {
                    eprintln!("FAIL {k}: {cur:.0} bytes, the baseline is {base:.0}");
                    failed = true;
                }
            }
            // The headline ratio must hold on the current build too.
            if current["round_dense_bytes"] < 4.0 * current["round_delta_bytes"] {
                eprintln!("FAIL: sparse delta no longer ≥4× smaller than dense per round");
                failed = true;
            }
            if current["recovery_replay_bytes_12r"] != current["recovery_replay_bytes_120r"] {
                eprintln!(
                    "FAIL: recovery replay bytes depend on session length — \
                     checkpoint truncation regressed to whole-session replay"
                );
                failed = true;
            }
            if failed {
                std::process::exit(1);
            }
            eprintln!("wire perf OK vs {path}");
        }
        _ => {
            eprintln!("usage: bench_wire [--write PATH | --check PATH]");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_roundtrips_and_rejects_corruption() {
        let m = BTreeMap::from([("a_bytes", 53.0), ("b_gbps", 0.626824)]);
        let text = render_baseline(&m);
        assert_eq!(
            text,
            "{\n  \"a_bytes\": 53.000000,\n  \"b_gbps\": 0.626824\n}\n"
        );
        let back = parse_baseline(&text).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back["b_gbps"], 0.626824);
        // A line the old splitter would have skipped (one gate fewer).
        assert!(parse_baseline(&text.replace("\"b_gbps\":", "\"b_gbps\"")).is_err());
        assert!(parse_baseline(&text.replace("53.000000", "\"53\"")).is_err());
    }

    /// `--write` only adds: a row the file has keeps its bytes even when
    /// the run measured something else, and a missing row is added.
    #[test]
    fn write_adds_missing_rows_and_keeps_the_rest() {
        let file = "{\n  \"a_bytes\": 53.000000,\n  \"c_gbps\": 0.626824\n}\n";
        let current = BTreeMap::from([("a_bytes", 54.0), ("b_gbps", 1.5), ("c_gbps", 0.7)]);
        let mut merged = parse_baseline(file).unwrap();
        assert_eq!(add_missing(&mut merged, &current), 1);
        assert_eq!(
            render_baseline(&merged),
            "{\n  \"a_bytes\": 53.000000,\n  \"b_gbps\": 1.500000,\n  \"c_gbps\": 0.626824\n}\n"
        );
        // Nothing to add: the file comes back byte for byte.
        let mut same = parse_baseline(file).unwrap();
        let full = BTreeMap::from([("a_bytes", 1.0), ("c_gbps", 2.0)]);
        assert_eq!(add_missing(&mut same, &full), 0);
        assert_eq!(render_baseline(&same), file);
    }
}
