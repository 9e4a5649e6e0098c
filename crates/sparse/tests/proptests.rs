//! Property-based tests for the sparse substrate.

use isasgd_sparse::dataset::shard_ranges;
use isasgd_sparse::{libsvm, Dataset, DatasetBuilder, SparseVec};
use proptest::prelude::*;

/// Strategy producing a valid row: sorted unique indices below `dim` with
/// finite values, plus a ±1 label.
fn row_strategy(dim: u32) -> impl Strategy<Value = (Vec<(u32, f64)>, f64)> {
    (
        proptest::collection::btree_map(0..dim, -100.0f64..100.0, 0..16),
        prop_oneof![Just(1.0f64), Just(-1.0f64)],
    )
        .prop_map(|(m, label)| {
            let pairs: Vec<(u32, f64)> = m.into_iter().filter(|&(_, v)| v != 0.0).collect();
            (pairs, label)
        })
}

fn dataset_strategy(dim: u32, max_rows: usize) -> impl Strategy<Value = Dataset> {
    proptest::collection::vec(row_strategy(dim), 1..=max_rows).prop_map(move |rows| {
        let mut b = DatasetBuilder::new(dim as usize);
        for (pairs, label) in rows {
            b.push_row(&pairs, label).unwrap();
        }
        b.finish()
    })
}

proptest! {
    #[test]
    fn sparse_dot_matches_dense_dot(pairs in proptest::collection::btree_map(0u32..64, -10.0f64..10.0, 0..20),
                                    dense in proptest::collection::vec(-10.0f64..10.0, 64)) {
        let pairs: Vec<(u32, f64)> = pairs.into_iter().collect();
        let v = SparseVec::from_pairs(&pairs).unwrap();
        let full = v.to_dense(64);
        let expect: f64 = full.iter().zip(&dense).map(|(a, b)| a * b).sum();
        prop_assert!((v.dot_dense(&dense) - expect).abs() < 1e-9);
    }

    #[test]
    fn axpy_is_linear(pairs in proptest::collection::btree_map(0u32..32, -5.0f64..5.0, 1..10),
                      s1 in -3.0f64..3.0, s2 in -3.0f64..3.0) {
        let v = SparseVec::from_pairs(&pairs.into_iter().collect::<Vec<_>>()).unwrap();
        let mut once = vec![0.0; 32];
        v.axpy_into(s1 + s2, &mut once);
        let mut twice = vec![0.0; 32];
        v.axpy_into(s1, &mut twice);
        v.axpy_into(s2, &mut twice);
        for (a, b) in once.iter().zip(&twice) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn libsvm_roundtrip(ds in dataset_strategy(40, 12)) {
        let mut buf = Vec::new();
        libsvm::write_writer(&ds, &mut buf).unwrap();
        let back = libsvm::parse_reader(buf.as_slice(), Some(ds.dim())).unwrap();
        prop_assert_eq!(ds, back);
    }

    #[test]
    fn reorder_preserves_multiset_of_labels(ds in dataset_strategy(24, 10), seed in 0u64..1000,
                                            picks in proptest::collection::vec(0usize..1000, 0..12)) {
        // Build a permutation deterministically from the seed.
        let n = ds.n_samples();
        let mut order: Vec<usize> = (0..n).collect();
        let mut state = seed.wrapping_add(0x9E3779B97F4A7C15);
        for i in (1..n).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let j = (state % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let rd = ds.reordered(&order).unwrap();
        let mut l1: Vec<i64> = ds.labels().iter().map(|&l| l as i64).collect();
        let mut l2: Vec<i64> = rd.labels().iter().map(|&l| l as i64).collect();
        l1.sort_unstable();
        l2.sort_unstable();
        prop_assert_eq!(l1, l2);
        prop_assert_eq!(ds.nnz(), rd.nnz());

        // A view equals its contiguous copy, row for row — also with
        // duplicate rows, and as a view of a view (copied from a view),
        // which picks through both orders — whatever pieces the copy is
        // cut into (one part, and `cut` shard ranges).
        let dup: Vec<usize> = picks.iter().map(|&p| p % n).collect();
        let direct: Vec<usize> = dup.iter().map(|&k| order[k]).collect();
        let cut = 1 + seed as usize % 5;
        for (src, at, rows) in [(&ds, &order, &order), (&ds, &dup, &dup), (&rd, &dup, &direct)] {
            let view = src.reordered(at).unwrap();
            let copy = src
                .reordered_contiguous(at, std::slice::from_ref(&(0..at.len())))
                .unwrap();
            if let Ok(parts) = shard_ranges(at.len(), cut) {
                prop_assert_eq!(&src.reordered_contiguous(at, &parts).unwrap(), &copy);
            }
            prop_assert!(src.reordered(&[src.n_samples()]).is_err());
            prop_assert!(src
                .reordered_contiguous(&[src.n_samples()], std::slice::from_ref(&(0..1)))
                .is_err());
            prop_assert_eq!(view.n_samples(), rows.len());
            prop_assert_eq!(view.nnz(), copy.nnz());
            prop_assert_eq!(view.labels(), copy.labels());
            for (k, &i) in rows.iter().enumerate() {
                let (v, c, o) = (view.row(k), copy.row(k), ds.row(i));
                prop_assert_eq!(v.indices, c.indices);
                prop_assert_eq!(v.values, c.values);
                prop_assert_eq!(v.indices, o.indices);
                prop_assert_eq!(v.values, o.values);
                prop_assert_eq!(v.label, o.label);
            }
            prop_assert_eq!(&view, &copy);
        }
    }

    #[test]
    fn shard_ranges_partition(n in 1usize..500, k in 1usize..32) {
        prop_assume!(k <= n);
        let ranges = isasgd_sparse::dataset::shard_ranges(n, k).unwrap();
        prop_assert_eq!(ranges.len(), k);
        prop_assert_eq!(ranges[0].start, 0);
        prop_assert_eq!(ranges[k - 1].end, n);
        for w in ranges.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
        }
        // Shards differ in size by at most 1.
        let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        let (mn, mx) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        prop_assert!(mx - mn <= 1);
    }
}

/// Builds an arbitrary small labelled dataset for the split properties.
fn arb_dataset(n: usize, seed: u64) -> isasgd_sparse::Dataset {
    let mut b = isasgd_sparse::DatasetBuilder::new(32);
    let mut state = seed | 1;
    for i in 0..n {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let j = (state % 32) as u32;
        let y = if state.is_multiple_of(3) { 1.0 } else { -1.0 };
        // Unique value per row lets the partition property track rows.
        b.push_row(&[(j, i as f64 + 1.0)], y).unwrap();
    }
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Holdout splits partition the rows: every row lands on exactly one
    /// side, test size matches the requested fraction.
    #[test]
    fn holdout_split_partitions(n in 10usize..400, seed in 0u64..1000, pct in 5u32..95) {
        let frac = pct as f64 / 100.0;
        let ds = arb_dataset(n, seed);
        let n_test = ((n as f64) * frac).round() as usize;
        prop_assume!(n_test > 0 && n_test < n);
        let (train, test) = isasgd_sparse::holdout_split(&ds, frac, seed).unwrap();
        prop_assert_eq!(test.n_samples(), n_test);
        prop_assert_eq!(train.n_samples() + test.n_samples(), n);
        let mut vals: Vec<u64> = train
            .rows()
            .chain(test.rows())
            .map(|r| r.values[0] as u64)
            .collect();
        vals.sort_unstable();
        let expect: Vec<u64> = (1..=n as u64).collect();
        prop_assert_eq!(vals, expect, "every row exactly once across the halves");
    }
}
