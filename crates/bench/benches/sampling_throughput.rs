//! Algorithm 2 kernel bench: weighted-draw throughput — the property that
//! makes IS "free" at run time is that an alias-table draw costs the same
//! as a uniform draw.
//!
//! `cargo bench -p isasgd-bench --bench sampling_throughput`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use isasgd_sampling::{
    AdaptiveIsSampler, AliasTable, CommitPolicy, Draw, ObservationModel, SampleSequence, Sampler,
    SamplingStrategy, ScheduleStream, SequenceMode, ShardSpec, SumTree, Xoshiro256pp,
};
use std::hint::black_box;

fn samplers(c: &mut Criterion) {
    let mut group = c.benchmark_group("sampling");
    for &n in &[1_000usize, 1_000_000] {
        let mut rng = Xoshiro256pp::new(1);
        let weights: Vec<f64> = (0..n).map(|_| rng.next_f64() + 0.01).collect();
        let alias = AliasTable::new(&weights).unwrap();
        let sumtree = SumTree::new(&weights).unwrap();
        group.throughput(Throughput::Elements(1));

        group.bench_with_input(BenchmarkId::new("uniform_draw", n), &n, |b, &n| {
            let mut r = Xoshiro256pp::new(2);
            b.iter(|| black_box(r.next_index(n)));
        });

        group.bench_with_input(BenchmarkId::new("alias_draw", n), &n, |b, _| {
            let mut r = Xoshiro256pp::new(3);
            b.iter(|| black_box(alias.sample(&mut r)));
        });

        group.bench_with_input(BenchmarkId::new("sumtree_draw", n), &n, |b, _| {
            let mut r = Xoshiro256pp::new(4);
            b.iter(|| black_box(sumtree.sample(&mut r)));
        });

        // The adaptivity tax, itemized: a sum-tree weight refresh, an
        // adaptive mixture draw, and a draw+correction pair (what the
        // engine actually does per scheduled sample).
        group.bench_with_input(BenchmarkId::new("sumtree_update", n), &n, |b, &n| {
            let mut f = sumtree.clone();
            let mut r = Xoshiro256pp::new(5);
            b.iter(|| {
                let i = r.next_index(n);
                f.update(i, r.next_f64() + 0.01).unwrap();
                black_box(f.total())
            });
        });

        let mut adaptive = AdaptiveIsSampler::new(&weights).unwrap();
        group.bench_with_input(BenchmarkId::new("adaptive_draw", n), &n, |b, _| {
            let mut r = Xoshiro256pp::new(6);
            b.iter(|| black_box(adaptive.next(&mut r)));
        });

        let mut adaptive2 = AdaptiveIsSampler::new(&weights).unwrap();
        group.bench_with_input(
            BenchmarkId::new("adaptive_draw_with_correction", n),
            &n,
            |b, _| {
                let mut r = Xoshiro256pp::new(7);
                b.iter(|| {
                    let i = adaptive2.next(&mut r);
                    black_box(adaptive2.correction(i))
                });
            },
        );

        // The intra-epoch tax: observe + periodic EveryK commit (what a
        // streamed schedule pays per step on top of the draw).
        let mut everyk = AdaptiveIsSampler::new(&weights)
            .unwrap()
            .with_commit(CommitPolicy::EveryK(256));
        group.bench_with_input(
            BenchmarkId::new("adaptive_observe_every_k", n),
            &n,
            |b, &n| {
                let mut r = Xoshiro256pp::new(8);
                b.iter(|| {
                    let i = r.next_index(n);
                    everyk.update_weight(i, r.next_f64() + 0.01);
                    black_box(everyk.weight(i))
                });
            },
        );

        // One whole EveryK(32) commit window per iteration — 32 observes,
        // the last of which folds them — at the CLI's default stride.
        // The cost must not grow with n beyond the tree's log n depth.
        let mut every32 = AdaptiveIsSampler::new(&weights)
            .unwrap()
            .with_commit(CommitPolicy::EveryK(32));
        group.bench_with_input(
            BenchmarkId::new("adaptive_commit_every_32", n),
            &n,
            |b, &n| {
                let mut r = Xoshiro256pp::new(9);
                b.iter(|| {
                    for _ in 0..32 {
                        every32.update_weight(r.next_index(n), r.next_f64() + 0.01);
                    }
                    black_box(every32.commit_version())
                });
            },
        );
    }

    // Streamed vs materialized epoch schedules: the engine pulls bounded
    // chunks from a ScheduleStream (O(chunk) memory, distribution read
    // at pull time) where the old path collected a full epoch Vec
    // (O(n) allocation per epoch, frozen distribution). Same adaptive
    // sampler underneath, so the delta is pure schedule mechanics.
    {
        let n = 100_000usize;
        let mut rng = Xoshiro256pp::new(12);
        let weights: Vec<f64> = (0..n).map(|_| rng.next_f64() + 0.01).collect();
        group.throughput(Throughput::Elements(n as u64));

        let spec = ShardSpec {
            shard: 0,
            shards: 1,
            seed: 13,
            range: 0..n,
            strategy: SamplingStrategy::Adaptive,
            weights: Some(&weights),
            sequence: SequenceMode::RegeneratePerEpoch,
            commit: CommitPolicy::EpochBoundary,
            obs_model: ObservationModel::GradNorm,
        };
        let mut stream = ScheduleStream::for_shard(spec, vec![1.0; n]).unwrap();
        let mut chunk: Vec<Draw> = Vec::with_capacity(ScheduleStream::DEFAULT_CHUNK);
        group.bench_function("stream_chunked_epoch", |b| {
            b.iter(|| {
                let mut acc = 0u64;
                while stream.fill_chunk(&mut chunk, ScheduleStream::DEFAULT_CHUNK) > 0 {
                    for d in &chunk {
                        acc = acc.wrapping_add(d.row as u64);
                    }
                }
                stream.epoch_reset();
                black_box(acc)
            });
        });

        let mut mat_sampler = AdaptiveIsSampler::new(&weights).unwrap();
        let mut mat_rng = Xoshiro256pp::new(13);
        group.bench_function("materialized_epoch", |b| {
            b.iter(|| {
                // The pre-stream engine path: draw the whole epoch into a
                // Vec, then walk it.
                let schedule: Vec<Draw> = (0..n)
                    .map(|_| {
                        let i = mat_sampler.next(&mut mat_rng);
                        Draw {
                            row: i as u32,
                            corr: mat_sampler.correction(i),
                        }
                    })
                    .collect();
                let mut acc = 0u64;
                for d in &schedule {
                    acc = acc.wrapping_add(d.row as u64);
                }
                mat_sampler.epoch_reset();
                black_box(acc)
            });
        });
    }

    // Per-epoch sequence refresh: regenerate vs shuffle-once (§4.2).
    let mut rng = Xoshiro256pp::new(5);
    let weights: Vec<f64> = (0..100_000).map(|_| rng.next_f64() + 0.01).collect();
    group.throughput(Throughput::Elements(100_000));
    for (mode, label) in [
        (SequenceMode::RegeneratePerEpoch, "seq_regenerate"),
        (SequenceMode::ShuffleOnce, "seq_shuffle_once"),
    ] {
        let mut seq = SampleSequence::weighted(&weights, 100_000, mode, 6).unwrap();
        group.bench_function(label, |b| {
            b.iter(|| {
                seq.advance_epoch();
                black_box(seq.indices()[0])
            });
        });
    }
    group.finish();
}

criterion_group!(benches, samplers);
criterion_main!(benches);
