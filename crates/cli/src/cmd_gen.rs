//! `isasgd gen` — synthesize a Table-1-calibrated dataset as a LibSVM file.

use crate::opts::{OptError, Opts};
use isasgd_datagen::{generate, PaperProfile};

fn parse_profile(s: &str) -> Option<PaperProfile> {
    PaperProfile::ALL.into_iter().find(|p| p.id() == s)
}

/// Runs the command; `main` turns an error into exit 2.
pub fn run(o: &Opts) -> Result<(), String> {
    let out = o.require("out").map_err(|e| e.to_string())?;
    let profile_s = o.get_or("profile", "kdd_algebra");
    let profile = parse_profile(&profile_s).ok_or_else(|| {
        format!(
            "unknown profile '{profile_s}' (choose from: {})",
            PaperProfile::ALL.map(|p| p.id()).join(", ")
        )
    })?;
    // A scale shrinks (n, d): anything outside (0, 1], NaN included,
    // would saturate the profile's sizes or collapse them to the floor.
    let scale = match o.get("scale") {
        None => 0.1,
        Some(v) => v
            .parse()
            .ok()
            .filter(|s: &f64| *s > 0.0 && *s <= 1.0)
            .ok_or_else(|| {
                OptError::BadValue {
                    flag: "scale".into(),
                    value: v,
                    expected: "float in (0, 1]",
                }
                .to_string()
            })?,
    };
    let seed: u64 = o
        .get_parsed_or("seed", 0x5EED_1501u64, "u64")
        .map_err(|e| e.to_string())?;
    let training = o.switch("training");
    o.finish().map_err(|e| e.to_string())?;

    let p = if training {
        profile.training()
    } else {
        profile.scaled()
    }
    .scaled_by(scale);
    #[expect(
        clippy::print_stderr,
        reason = "generator progress line; `gen` runs install no recorder"
    )]
    {
        eprintln!(
            "[gen] {} (d={}, n={}, ~{} nnz/row, {})…",
            p.name,
            p.dim,
            p.n_samples,
            p.mean_nnz,
            if training {
                "training-calibrated"
            } else {
                "Table-1-literal"
            }
        );
    }
    let g = generate(&p, seed);
    isasgd_sparse::libsvm::write_file(&g.dataset, &out).map_err(|e| e.to_string())?;
    println!(
        "wrote {out}: n={} d={} nnz={} flipped={:.4}",
        g.dataset.n_samples(),
        g.dataset.dim(),
        g.dataset.nnz(),
        g.flipped_fraction
    );
    Ok(())
}

/// Usage string for `--help`.
pub const HELP: &str = "\
isasgd gen --out <file.svm> [--profile p] [--scale f] [--training] [--seed n]

  Profiles: news20 | url | kdd_algebra | kdd_bridge (Table-1-calibrated).
  --scale shrinks (n, d) proportionally; --training rescales norms to the
  stability-matched regime used by the convergence figures.
";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opts::Opts;

    #[test]
    fn profile_parsing() {
        assert_eq!(parse_profile("news20"), Some(PaperProfile::News20));
        assert_eq!(parse_profile("kdd_bridge"), Some(PaperProfile::KddBridge));
        assert_eq!(parse_profile("mnist"), None);
    }

    #[test]
    fn requires_out() {
        let o = Opts::parse(["gen"].map(String::from));
        assert!(run(&o).is_err());
    }

    #[test]
    fn rejects_unknown_profile() {
        let o = Opts::parse(["gen", "--out", "/tmp/x.svm", "--profile", "mnist"].map(String::from));
        assert!(run(&o).is_err());
    }
}
