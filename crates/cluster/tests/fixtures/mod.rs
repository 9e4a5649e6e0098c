//! Datasets shared by more than one of the cluster's integration tests.

use isasgd_sparse::{Dataset, DatasetBuilder};

/// The engine's bit-pin fixture: 7–9 non-zeros a row (unrolled margin
/// body + tail), mixed-sign values, planted labels, dim 24.
pub fn wide(n: usize) -> Dataset {
    let mut b = DatasetBuilder::new(24);
    for i in 0..n {
        let row: Vec<(u32, f64)> = (0..7 + i % 3)
            .map(|k| {
                let sign = if (i + k) % 2 == 0 { 1.0 } else { -1.0 };
                let magnitude = (1 + (i * 7 + k * 3) % 9) as f64 * 0.0625;
                ((i % 6 + 2 * k) as u32, sign * magnitude)
            })
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
