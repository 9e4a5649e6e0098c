//! Distributed-runtime transport bench: what one synchronization round
//! costs in pure plumbing — wire encode/decode of the protocol
//! messages, and a full send→recv round trip over each transport.
//!
//! `cargo bench -p isasgd-bench --bench cluster_transport`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use isasgd_bench::bench_dataset;
use isasgd_cluster::{
    encode_dataset_shard_chunks, in_process_links, tcp_loopback_links, Message, Transport,
    WireEncoding,
};
use std::hint::black_box;

fn model_update(dim: usize) -> Message {
    Message::ModelUpdate {
        node: 1,
        round: 7,
        model: (0..dim).map(|i| (i as f64).sin()).collect(),
    }
}

/// A sparse delta frame with `nnz` touched coordinates spread evenly
/// over `dim` — the shape a round of IS-SGD on a sparse shard produces.
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

fn feedback_batch(entries: usize) -> Message {
    Message::FeedbackBatch {
        node: 1,
        round: 7,
        observations: (0..entries as u32)
            .map(|i| (i * 3, 0.5 + i as f64))
            .collect(),
    }
}

fn wire_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire");
    for &dim in &[1_000usize, 100_000] {
        let msg = model_update(dim);
        let bytes = msg.to_bytes();
        group.throughput(Throughput::Bytes(bytes.len() as u64));
        group.bench_with_input(BenchmarkId::new("encode_model", dim), &dim, |b, _| {
            let mut buf = Vec::with_capacity(bytes.len());
            b.iter(|| {
                buf.clear();
                msg.encode(&mut buf);
                black_box(buf.len())
            });
        });
        group.bench_with_input(BenchmarkId::new("decode_model", dim), &dim, |b, _| {
            b.iter(|| black_box(Message::decode(&bytes).unwrap()));
        });
    }
    for &entries in &[1_000usize, 50_000] {
        let msg = feedback_batch(entries);
        let bytes = msg.to_bytes();
        group.throughput(Throughput::Bytes(bytes.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("roundtrip_feedback", entries),
            &entries,
            |b, _| {
                let mut buf = Vec::with_capacity(bytes.len());
                b.iter(|| {
                    buf.clear();
                    msg.encode(&mut buf);
                    black_box(Message::decode(&buf).unwrap())
                });
            },
        );
    }
    // The sparse counterpart of the model frames: a delta touching
    // dim/10 coordinates (gap-coded varint indices + raw f64 bits).
    for &dim in &[1_000usize, 100_000] {
        let msg = model_delta(dim, dim / 10);
        let bytes = msg.to_bytes();
        group.throughput(Throughput::Bytes(bytes.len() as u64));
        group.bench_with_input(BenchmarkId::new("encode_delta", dim), &dim, |b, _| {
            let mut buf = Vec::with_capacity(bytes.len());
            b.iter(|| {
                buf.clear();
                msg.encode(&mut buf);
                black_box(buf.len())
            });
        });
        group.bench_with_input(BenchmarkId::new("decode_delta", dim), &dim, |b, _| {
            b.iter(|| black_box(Message::decode(&bytes).unwrap()));
        });
    }
    // What the admission path sends: one worker's shard as
    // a stream of ~256 KiB DatasetShard chunks (weights included),
    // encode and validating decode.
    for &rows in &[1_000usize, 10_000] {
        let data = bench_dataset(5_000, rows, 20);
        let weights: Vec<f64> = (0..rows).map(|i| 1.0 + (i % 17) as f64).collect();
        let range = 0..rows / 3;
        let chunks = encode_dataset_shard_chunks(0, range.clone(), &data.dataset, &weights);
        let total: u64 = chunks.iter().map(|c| c.len() as u64).sum();
        group.throughput(Throughput::Bytes(total));
        group.bench_with_input(
            BenchmarkId::new("encode_shard_stream", rows),
            &rows,
            |b, _| {
                b.iter(|| {
                    black_box(encode_dataset_shard_chunks(
                        0,
                        range.clone(),
                        &data.dataset,
                        &weights,
                    ))
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("decode_shard_stream", rows),
            &rows,
            |b, _| {
                b.iter(|| {
                    for c in &chunks {
                        black_box(Message::decode(c).unwrap());
                    }
                });
            },
        );
    }
    group.finish();
}

/// One protocol round trip (send a model down, echo a model back) per
/// transport — the per-round latency floor of the distributed runtime.
fn transport_round_trip(c: &mut Criterion) {
    let mut group = c.benchmark_group("transport");
    let dim = 10_000;
    let msg = model_update(dim);

    let (mut coord, mut worker) = in_process_links(1).pop().unwrap();
    group.bench_function("round_trip/inproc", |b| {
        b.iter(|| {
            coord.send(&msg).unwrap();
            let m = worker.recv().unwrap();
            worker.send(&m).unwrap();
            black_box(coord.recv().unwrap())
        });
    });

    let (mut tc, mut tw) = tcp_loopback_links(1, "127.0.0.1:0")
        .expect("loopback sockets")
        .pop()
        .unwrap();
    group.bench_function("round_trip/tcp", |b| {
        b.iter(|| {
            tc.send(&msg).unwrap();
            let m = tw.recv().unwrap();
            tw.send(&m).unwrap();
            black_box(tc.recv().unwrap())
        });
    });

    // The same round trip with sparse-delta framing engaged: alternate
    // two models differing at dim/10 coordinates, so after the first
    // exchange every frame on the wire is a ModelDelta.
    let (mut dc, mut dw) = tcp_loopback_links(1, "127.0.0.1:0")
        .expect("loopback sockets")
        .pop()
        .unwrap();
    dc.set_encoding(WireEncoding::Delta);
    dw.set_encoding(WireEncoding::Delta);
    let mut variant = model_update(dim);
    if let Message::ModelUpdate { model, .. } = &mut variant {
        for i in (0..dim).step_by(10) {
            model[i] += 1.0;
        }
    }
    let pair = [msg.clone(), variant];
    let mut flip = 0usize;
    group.bench_function("round_trip/tcp_delta", |b| {
        b.iter(|| {
            let m = &pair[flip & 1];
            flip += 1;
            dc.send(m).unwrap();
            let got = dw.recv().unwrap();
            dw.send(&got).unwrap();
            black_box(dc.recv().unwrap())
        });
    });
    group.finish();
}

criterion_group!(benches, wire_codec, transport_round_trip);
criterion_main!(benches);
