//! `isasgd info` — dataset diagnostics: the paper's Table-1 statistics
//! plus the §3 theory quantities (conflict degree Δ̄, τ budget, IS gain).

use crate::opts::Opts;
use isasgd_analysis::theory::{is_improvement_factor, LipschitzSummary};
use isasgd_analysis::ConflictStats;
use isasgd_balance::ImportanceProfile;
use isasgd_core::{ImportanceScheme, LogisticLoss, Regularizer};
use isasgd_losses::importance_weights;

/// Runs the command; `main` turns an error into exit 2.
pub fn run(o: &Opts) -> Result<(), String> {
    let data_path = o
        .positional
        .get(1)
        .cloned()
        .ok_or("usage: isasgd info <data.svm> [--conflict-sample n] [--seed s]")?;
    let sample: usize = o
        .get_parsed_or("conflict-sample", 2000usize, "usize")
        .map_err(|e| e.to_string())?;
    let seed: u64 = o
        .get_parsed_or("seed", 0x15A5_6D00u64, "u64")
        .map_err(|e| e.to_string())?;
    o.finish().map_err(|e| e.to_string())?;

    let ds = isasgd_sparse::libsvm::read_file(&data_path, None)
        .map_err(|e| format!("reading {data_path}: {e}"))?;
    // Every statistic below is a mean, sup or inf over rows; `train`
    // refuses the same file with the same message.
    if ds.n_samples() == 0 {
        return Err(isasgd_sparse::SparseError::Empty.to_string());
    }
    let stats = isasgd_sparse::DatasetStats::compute(&ds);

    out!("dataset            {data_path}\n");
    out!("instances          {}\n", ds.n_samples());
    out!("dimension          {}\n", ds.dim());
    out!("nnz                {}\n", ds.nnz());
    out!("density            {:.3e}\n", ds.density());
    out!("mean nnz/row       {:.2}\n", ds.mean_nnz());
    match ds.shared_value() {
        Some(v) => out!("values             one shared value {v}, stored once\n"),
        None => out!("values             one per non-zero\n"),
    }
    out!("positive fraction  {:.4}\n", stats.positive_fraction);
    out!("active features    {}\n", stats.active_features);

    // Importance structure under the paper's Eq. 12 constants.
    let w = importance_weights(
        &ds,
        &LogisticLoss,
        Regularizer::None,
        ImportanceScheme::LipschitzSmoothness,
    );
    let profile = ImportanceProfile::compute(&w);
    let l = LipschitzSummary::from_weights(&w);
    out!("\nimportance (L_i = ‖x_i‖²/4, logistic)\n");
    out!("psi/n (Eq. 15)     {:.4}\n", profile.psi_normalized);
    out!("rho   (Eq. 20)     {:.4e}\n", profile.rho);
    out!(
        "L mean/sup/inf     {:.4} / {:.4} / {:.4}\n",
        l.mean,
        l.sup,
        l.inf
    );
    out!("IS gain (Eq13/14)  {:.4}x\n", is_improvement_factor(&w));
    out!(
        "balancing hint     {}\n",
        if profile.rho >= 5e-4 {
            "rho ≥ ζ — importance balancing recommended (Alg. 3)"
        } else {
            "rho < ζ — random shuffling suffices (§2.4)"
        }
    );

    // Conflict structure (paper §3.1); sampled estimate for big files.
    let c = if ds.n_samples() <= sample {
        ConflictStats::exact(&ds)
    } else {
        ConflictStats::estimate(&ds, sample, seed)
    };
    out!("\nconflict graph (§3.1)\n");
    out!("avg degree Δ̄      {:.2}\n", c.avg_degree);
    out!(
        "Δ̄/n               {:.4}\n",
        c.avg_degree / ds.n_samples().max(1) as f64
    );
    out!(
        "τ budget hint      n/Δ̄ ≈ {:.0} (Eq. 27 first term)\n",
        ds.n_samples() as f64 / c.avg_degree.max(1e-12)
    );
    Ok(())
}

/// Usage string for `--help`.
pub const HELP: &str = "\
isasgd info <data.svm> [--conflict-sample n] [--seed s]

  Prints Table-1-style statistics (n, d, density, ψ, ρ), the Lipschitz
  profile and theoretical IS gain, and the §3.1 conflict-graph degree
  with the Eq. 27 τ budget hint.
";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opts::Opts;

    #[test]
    fn requires_a_path() {
        let o = Opts::parse(["info"].map(String::from));
        assert!(run(&o).is_err());
    }
}
