//! Figure 1 kernel bench: index-compressed vs dense-µ model updates,
//! plus the unrolled-vs-strict margin/axpy kernel comparison.
//!
//! `cargo bench -p isasgd-bench --bench fig1_update_cost`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use isasgd_bench::bench_dataset;
use isasgd_sparse::ops::dense_axpy;
use isasgd_sparse::SparseRow;
use std::hint::black_box;

/// The pre-unroll margin kernel: a strict left-to-right reduction.
fn dot_dense_strict(row: &SparseRow<'_>, dense: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (&i, &x) in row.indices.iter().zip(row.values) {
        acc += x * dense[i as usize];
    }
    acc
}

/// The margin gather (`wᵀx` over the row support) and the dense axpy,
/// before/after the 4-wide unroll: `margin_strict` is the pre-unroll
/// left-to-right reduction above, `margin_unrolled` the 4-accumulator
/// hot path `Objective::margin` now drives.
fn margin_axpy_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig1_margin_axpy");
    for &nnz in &[8usize, 32, 128] {
        let data = bench_dataset(50_000, 256, nnz);
        let ds = &data.dataset;
        let w: Vec<f64> = (0..50_000).map(|i| (i as f64 * 0.31).sin()).collect();
        group.throughput(Throughput::Elements(nnz as u64));
        group.bench_with_input(BenchmarkId::new("margin_strict", nnz), &nnz, |b, _| {
            let mut t = 0usize;
            b.iter(|| {
                let row = ds.row(t % ds.n_samples());
                t += 1;
                black_box(dot_dense_strict(&row, &w))
            });
        });
        group.bench_with_input(BenchmarkId::new("margin_unrolled", nnz), &nnz, |b, _| {
            let mut t = 0usize;
            b.iter(|| {
                let row = ds.row(t % ds.n_samples());
                t += 1;
                black_box(row.dot_dense(&w))
            });
        });
    }
    for &dim in &[1_000usize, 100_000] {
        let x: Vec<f64> = (0..dim).map(|i| (i as f64 * 0.77).cos()).collect();
        let mut y = vec![0.0f64; dim];
        group.throughput(Throughput::Elements(dim as u64));
        group.bench_with_input(BenchmarkId::new("dense_axpy_scalar", dim), &dim, |b, _| {
            b.iter(|| {
                let a = black_box(1e-9);
                for (yi, &xi) in y.iter_mut().zip(&x) {
                    *yi += a * xi;
                }
            });
        });
        group.bench_with_input(
            BenchmarkId::new("dense_axpy_unrolled", dim),
            &dim,
            |b, _| {
                b.iter(|| {
                    dense_axpy(black_box(1e-9), &x, &mut y);
                });
            },
        );
    }
    group.finish();
}

fn update_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig1_update");
    for &dim in &[1_000usize, 10_000, 100_000] {
        let data = bench_dataset(dim, 400, 20);
        let ds = &data.dataset;
        let mut w = vec![0.0f64; dim];
        let mu = vec![1e-6f64; dim];
        group.throughput(Throughput::Elements(1));

        group.bench_with_input(BenchmarkId::new("sparse_axpy", dim), &dim, |b, _| {
            let mut t = 0usize;
            b.iter(|| {
                let row = ds.row(t % ds.n_samples());
                row.axpy_into(black_box(-1e-9), &mut w);
                t += 1;
            });
        });

        group.bench_with_input(
            BenchmarkId::new("sparse_plus_dense_mu", dim),
            &dim,
            |b, _| {
                let mut t = 0usize;
                b.iter(|| {
                    let row = ds.row(t % ds.n_samples());
                    row.axpy_into(black_box(-1e-9), &mut w);
                    for (wj, &mj) in w.iter_mut().zip(&mu) {
                        *wj -= 1e-9 * mj;
                    }
                    t += 1;
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, update_kernels, margin_axpy_kernels);
criterion_main!(benches);
