//! Datasets shared by more than one of the cluster's integration tests.

#![allow(
    dead_code,
    reason = "every test binary compiles this module and uses its own subset of it"
)]

use isasgd_sparse::{Dataset, DatasetBuilder};

/// The cluster's skewed-importance fixture: two non-zeros a row, dim 8,
/// every tenth row 20× heavier than the rest, alternating labels.
pub fn skewed(n: usize) -> Dataset {
    let mut b = DatasetBuilder::new(8);
    for i in 0..n {
        let norm = if i % 10 == 0 { 6.0 } else { 0.3 };
        let j = (i % 4) as u32;
        let y = if i % 2 == 0 { 1.0 } else { -1.0 };
        b.push_row(&[(j, y * norm), (4 + j, 0.5 * y * norm)], y)
            .unwrap();
    }
    b.finish()
}

/// The engine's bit-pin fixture: 7–9 non-zeros a row (unrolled margin
/// body + tail), mixed-sign values, planted labels, dim 24.
pub fn wide(n: usize) -> Dataset {
    planted(n, |i, k| {
        let sign = if (i + k) % 2 == 0 { 1.0 } else { -1.0 };
        sign * ((1 + (i * 7 + k * 3) % 9) as f64 * 0.0625)
    })
}

/// [`wide`]'s supports with every value 0.3 (not dyadic, so each
/// product rounds): a constant-valued set, like the binary profiles'
/// files.
pub fn binary(n: usize) -> Dataset {
    planted(n, |_, _| 0.3)
}

/// Row `i` holds `value(i, k)` at feature `i % 6 + 2k`, k < 7 + i % 3;
/// its label is the sign of ⟨x, w*⟩, w*_j = 1 or −½.
fn planted(n: usize, value: impl Fn(usize, usize) -> f64) -> Dataset {
    let mut b = DatasetBuilder::new(24);
    for i in 0..n {
        let row: Vec<(u32, f64)> = (0..7 + i % 3)
            .map(|k| ((i % 6 + 2 * k) as u32, value(i, k)))
            .collect();
        let planted = |&(j, x): &(u32, f64)| if j % 3 == 0 { x } else { -0.5 * x };
        let y = if row.iter().map(planted).sum::<f64>() >= 0.0 {
            1.0
        } else {
            -1.0
        };
        b.push_row(&row, y).unwrap();
    }
    b.finish()
}
