//! Property-based tests for the sparse substrate.

use isasgd_sparse::dataset::shard_ranges;
use isasgd_sparse::{
    holdout_split, libsvm, Dataset, DatasetBuilder, RowWindow, SparseError, SparseRow,
};
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

/// A one-row dataset of width `dim` holding `pairs`.
fn one_row(dim: usize, pairs: &[(u32, f64)]) -> Dataset {
    let mut b = DatasetBuilder::new(dim);
    b.push_row(pairs, 1.0).unwrap();
    b.finish()
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
        let ds = one_row(64, &pairs);
        let expect: f64 = pairs.iter().map(|&(i, x)| x * dense[i as usize]).sum();
        prop_assert!((ds.row(0).dot_dense(&dense) - expect).abs() < 1e-9);
    }

    #[test]
    fn axpy_is_linear(pairs in proptest::collection::btree_map(0u32..32, -5.0f64..5.0, 1..10),
                      s1 in -3.0f64..3.0, s2 in -3.0f64..3.0) {
        let ds = one_row(32, &pairs.into_iter().collect::<Vec<_>>());
        let v = ds.row(0);
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

/// One row of the per-non-zero reference: indices, values, label.
type RefRow = (Vec<u32>, Vec<f64>, f64);

/// 0..12 rows (the empty set included) of 0..8 non-zeros each (zero-nnz
/// rows included) below dimension 16, with labels.
fn supports() -> impl Strategy<Value = Vec<(Vec<u32>, f64)>> {
    proptest::collection::vec(
        (
            proptest::collection::btree_map(0u32..16, 0u32..1, 0..8),
            prop_oneof![Just(1.0f64), Just(-1.0f64)],
        )
            .prop_map(|(m, y)| (m.into_keys().collect(), y)),
        0..12,
    )
}

/// The rows of `supports`, every value `base` except the non-zero
/// `odd` (counted over the whole set, modulo its size), which `kind`
/// leaves as it is (0), moves one ulp (1), negates — `±0.0` for a zero
/// base — (2) or sets to `x` (3).
fn reference(
    supports: &[(Vec<u32>, f64)],
    base: f64,
    (kind, odd, x): (u32, usize, f64),
) -> Vec<RefRow> {
    let nnz: usize = supports.iter().map(|s| s.0.len()).sum();
    let odd = odd.checked_rem(nnz);
    let odd_value = match kind {
        1 => f64::from_bits(base.to_bits() + 1),
        2 => -base,
        3 => x,
        _ => base,
    };
    let mut k = 0;
    supports
        .iter()
        .map(|(idx, y)| {
            let vals = idx
                .iter()
                .map(|_| {
                    k += 1;
                    if Some(k - 1) == odd {
                        odd_value
                    } else {
                        base
                    }
                })
                .collect();
            (idx.clone(), vals, *y)
        })
        .collect()
}

fn build(rows: &[RefRow]) -> Dataset {
    let mut b = DatasetBuilder::new(16);
    for (idx, vals, y) in rows {
        let pairs: Vec<(u32, f64)> = idx.iter().copied().zip(vals.iter().copied()).collect();
        b.push_row(&pairs, *y).unwrap();
    }
    b.finish()
}

fn rows_of(ds: &Dataset) -> Vec<RefRow> {
    ds.rows()
        .map(|r| (r.indices.to_vec(), r.values.to_vec(), r.label))
        .collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Row `k` of `got` is reference row `picks[k]`: indices, value bits,
/// label bits.
fn holds<'a>(
    got: impl Iterator<Item = SparseRow<'a>>,
    want: &[RefRow],
    picks: &[usize],
) -> Result<(), TestCaseError> {
    let got: Vec<SparseRow<'a>> = got.collect();
    prop_assert_eq!(got.len(), picks.len());
    for (r, &i) in got.iter().zip(picks) {
        let (idx, vals, y) = &want[i];
        prop_assert_eq!(r.indices, &idx[..], "row {}", i);
        prop_assert_eq!(bits(r.values), bits(vals), "row {}", i);
        prop_assert_eq!(r.label.to_bits(), y.to_bits(), "row {}", i);
    }
    Ok(())
}

fn window_rows(w: &RowWindow) -> impl Iterator<Item = SparseRow<'_>> {
    (0..w.len()).map(|k| w.row(k))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A value stored once reads, through every way a set is built, cut
    /// or walked, exactly what a value per non-zero reads: constant sets
    /// (of 0.3, 1, ±0.0 or −2.5) and sets with one value one ulp off,
    /// of the other sign, or arbitrary, with zero-nnz rows and empty
    /// sets among them. Only a set whose stored values all share their
    /// bits stores its value once, and `==` holds across the storages.
    #[test]
    fn a_shared_value_reads_as_one_per_nonzero(
        supports in supports(),
        base in prop_oneof![Just(0.3f64), Just(1.0), Just(0.0), Just(-0.0), Just(-2.5)],
        odd in (0u32..4, 0usize..64, -5.0f64..5.0),
        cuts in (
            proptest::collection::vec(0usize..1000, 0..20),
            proptest::collection::vec(0usize..1000, 0..4),
            1u32..100,
        ),
    ) {
        let (picks, cuts, pct) = cuts;
        let want = reference(&supports, base, odd);
        let n = want.len();
        let all: Vec<usize> = (0..n).collect();
        let ds = build(&want);
        holds(ds.rows(), &want, &all)?;
        let mut stored = want.iter().flat_map(|r| bits(&r.1));
        let first = stored.next();
        let shared = first.filter(|&f| stored.all(|b| b == f));
        prop_assert_eq!(ds.shared_value().map(f64::to_bits), shared);

        // The same rows, one value per non-zero: copied out of a set
        // whose extra last row holds two values.
        let mut plus = want.clone();
        plus.push((vec![0, 1], vec![1.0, 2.0], 1.0));
        let mixed = build(&plus);
        let twin = mixed
            .reordered_contiguous(&all, std::slice::from_ref(&(0..n)))
            .unwrap();
        prop_assert_eq!(twin.shared_value(), None);
        holds(twin.rows(), &want, &all)?;
        prop_assert!(ds == twin);

        let order: Vec<usize> = picks.iter().filter_map(|&p| p.checked_rem(n)).collect();
        let mut at: Vec<usize> = cuts.iter().map(|&c| c % (order.len() + 1)).collect();
        at.push(order.len());
        at.sort_unstable();
        let parts: Vec<_> = std::iter::once(0)
            .chain(at.iter().copied())
            .zip(&at)
            .map(|(a, &b)| a..b)
            .collect();
        let view = ds.reordered(&order).unwrap();
        holds(view.rows(), &want, &order)?;
        prop_assert!(view == twin.reordered(&order).unwrap());
        let copy = ds.reordered_contiguous(&order, &parts).unwrap();
        holds(copy.rows(), &want, &order)?;
        prop_assert!(copy == view);
        let inherited = ds.shared_value().filter(|_| copy.nnz() > 0);
        prop_assert_eq!(
            copy.shared_value().map(f64::to_bits),
            inherited.map(f64::to_bits)
        );
        let twin_copy = twin.reordered_contiguous(&order, &parts).unwrap();
        prop_assert_eq!(twin_copy.shared_value(), None);
        prop_assert!(copy == twin_copy);

        let (frac, seed) = (f64::from(pct) / 100.0, u64::from(pct));
        match (holdout_split(&ds, frac, seed), holdout_split(&twin, frac, seed)) {
            (Ok((train, test)), Ok((twin_train, twin_test))) => {
                for (half, twin_half) in [(&train, &twin_train), (&test, &twin_test)] {
                    let ids: Vec<usize> = (0..twin_half.n_samples()).collect();
                    holds(half.rows(), &rows_of(twin_half), &ids)?;
                    prop_assert!(half == twin_half);
                }
            }
            (a, b) => prop_assert_eq!(a.is_err(), b.is_err()),
        }

        // One window across both storages, so each gather overwrites
        // the other storage's (the mixed set's extra row last).
        let mut w = RowWindow::with_row_capacity(0);
        let positions: Vec<usize> = (0..order.len()).collect();
        let extra: Vec<usize> = order.iter().copied().chain([n]).collect();
        for (src, rows, picks) in [
            (&ds, &order, &order),
            (&mixed, &extra, &extra),
            (&copy, &positions, &order),
            (&twin, &order, &order),
            (&view, &positions, &order),
        ] {
            w.gather(src, rows.iter().copied());
            holds(window_rows(&w), &plus, picks)?;
        }
        let mut walked = Vec::new();
        w.walk(&ds, &order, |&i| i, |&i, r| {
            walked.push((i, (r.indices.to_vec(), r.values.to_vec(), r.label)));
        });
        let ids: Vec<usize> = walked.iter().map(|w| w.0).collect();
        prop_assert_eq!(&ids, &order);
        let rows = walked.iter().map(|(_, (indices, values, label))| SparseRow {
            indices,
            values,
            label: *label,
        });
        holds(rows, &want, &order)?;
    }
}

/// The builder's general path for one row: sort the pairs by index,
/// refuse the first non-finite value or repeated index in that order,
/// then an out-of-bounds last index, naming the row; store — what
/// `push_row` did for every row before sorted rows got their own path.
fn push_row_sorted(
    b: &mut DatasetBuilder,
    dim: usize,
    pairs: &[(u32, f64)],
    label: f64,
) -> Result<(), SparseError> {
    let row = b.len();
    if label != 1.0 && label != -1.0 {
        return Err(SparseError::BadLabel { row, label });
    }
    let mut sorted = pairs.to_vec();
    sorted.sort_unstable_by_key(|&(i, _)| i);
    for (k, &(index, x)) in sorted.iter().enumerate() {
        if !x.is_finite() {
            return Err(SparseError::NonFiniteValue { row });
        }
        if k > 0 && sorted[k - 1].0 == index {
            return Err(SparseError::DuplicateIndex { row, index });
        }
    }
    let (indices, values): (Vec<u32>, Vec<f64>) = sorted.into_iter().unzip();
    if let Some(&index) = indices.last() {
        if index as usize >= dim {
            return Err(SparseError::IndexOutOfBounds { index, dim });
        }
    }
    b.push_row_unchecked(&indices, &values, label);
    Ok(())
}

/// Rows of up to 12 pairs below `dim + 3` (so some fall out of bounds),
/// mostly finite and often all one value, each kept sorted and unique,
/// as drawn (unsorted, maybe duplicated) or reversed; labels mostly ±1.
fn raw_rows(dim: u32) -> impl Strategy<Value = Vec<(Vec<(u32, f64)>, f64)>> {
    let value = prop_oneof![
        6 => -5.0f64..5.0,
        6 => Just(1.0f64),
        1 => Just(f64::NAN),
        1 => Just(f64::NEG_INFINITY),
    ];
    let row = (
        proptest::collection::vec((0..dim + 3, value), 0..12),
        0u8..3,
        prop_oneof![8 => Just(1.0f64), 8 => Just(-1.0), 1 => Just(0.5)],
    )
        .prop_map(|(mut pairs, shape, label)| {
            match shape {
                0 => {
                    pairs.sort_by_key(|&(i, _)| i);
                    pairs.dedup_by_key(|&mut (i, _)| i);
                }
                1 => {}
                _ => pairs.sort_by_key(|&(i, _)| std::cmp::Reverse(i)),
            }
            (pairs, label)
        });
    proptest::collection::vec(row, 0..24)
}

proptest! {
    /// `push_row` stores what the general path stores and refuses what
    /// it refuses, with the same error: random rows, unsorted,
    /// duplicated, non-finite, out of bounds or badly labelled among
    /// valid ones, into two builders side by side.
    #[test]
    fn push_row_is_the_general_path(rows in raw_rows(40)) {
        let dim = 40;
        let (mut fast, mut general) = (DatasetBuilder::new(dim), DatasetBuilder::new(dim));
        for (pairs, label) in &rows {
            let got = fast.push_row(pairs, *label);
            let want = push_row_sorted(&mut general, dim, pairs, *label);
            prop_assert_eq!(&got, &want, "row {:?}", pairs);
        }
        let (fast, general) = (fast.finish(), general.finish());
        prop_assert!(fast == general);
        prop_assert_eq!(fast.nnz(), general.nnz());
        prop_assert_eq!(
            fast.shared_value().map(f64::to_bits),
            general.shared_value().map(f64::to_bits)
        );
    }
}
