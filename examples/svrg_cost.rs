//! The SVRG sparsity cliff (paper §1.2 / Fig. 1): on sparse data the
//! dense full-gradient term µ makes every SVRG iteration cost O(d)
//! instead of O(nnz), so SVRG-ASGD wins per-epoch but loses — badly — on
//! the wall clock. This example measures both on the same dataset.
//!
//! ```sh
//! cargo run --release --example svrg_cost
//! ```

use is_asgd::prelude::*;

fn main() {
    // Sparse enough that d/nnz ≈ 250: the dense add dominates.
    let mut profile = PaperProfile::KddAlgebra.scaled().scaled_by(0.05);
    profile.mean_nnz = 20;
    println!(
        "generating {} (d={}, n={}, nnz/row≈{})…\n",
        profile.name, profile.dim, profile.n_samples, profile.mean_nnz
    );
    let data = generate(&profile, 23);
    let obj = Objective::new(LogisticLoss, Regularizer::L2 { eta: 1e-4 });

    let epochs = 6;
    let cfg = TrainConfig::default()
        .with_epochs(epochs)
        .with_step_size(0.1);
    let exec = Execution::Simulated { tau: 8, workers: 4 };

    println!("running ASGD (index-compressed updates)…");
    let asgd = train(&data.dataset, &obj, Algorithm::Asgd, exec, &cfg, "kdd").unwrap();
    println!("running IS-ASGD (index-compressed + importance sampling)…");
    let is_asgd = train(&data.dataset, &obj, Algorithm::IsAsgd, exec, &cfg, "kdd").unwrap();
    println!("running SVRG-ASGD (dense µ added every iteration)…");
    let svrg = train(&data.dataset, &obj, Algorithm::SvrgAsgd, exec, &cfg, "kdd").unwrap();

    println!(
        "\n{:<10} {:>12} {:>12} {:>12}",
        "algorithm", "train (s)", "s/epoch", "best err"
    );
    for (name, r) in [("ASGD", &asgd), ("IS-ASGD", &is_asgd), ("SVRG-ASGD", &svrg)] {
        println!(
            "{:<10} {:>12.3} {:>12.3} {:>12.4}",
            name,
            r.train_secs,
            r.train_secs / epochs as f64,
            r.trace.best_error().unwrap()
        );
    }
    let slowdown = svrg.train_secs / asgd.train_secs;
    println!(
        "\nSVRG-ASGD per-epoch cost is {slowdown:.0}x ASGD's here (d/nnz = {:.0}).\n\
         At the paper's scales (d up to 3·10⁷, density 10⁻⁷) the same ratio makes\n\
         SVRG-ASGD ~2 hours per epoch — 'computationally infeasible' (§1.2).",
        data.dataset.dim() as f64 / data.dataset.mean_nnz()
    );
    assert!(
        slowdown > 5.0,
        "the sparsity cliff should be clearly visible"
    );
}
