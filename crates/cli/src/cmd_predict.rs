//! `isasgd predict` — score a LibSVM file with a saved model.

use crate::opts::Opts;
use isasgd_model::SavedModel;
use std::io::Write;

/// Runs the command; `main` turns an error into exit 2.
pub fn run(o: &Opts) -> Result<(), String> {
    let data_path = o
        .positional
        .get(1)
        .cloned()
        .ok_or("usage: isasgd predict <data.svm> --model m.json [--out preds.txt]")?;
    let model_path = o.require("model").map_err(|e| e.to_string())?;
    let out_path = o.get("out");
    o.finish().map_err(|e| e.to_string())?;

    let model = SavedModel::load(&model_path).map_err(|e| e.to_string())?;
    let ds = isasgd_sparse::libsvm::read_file(&data_path, Some(model.dim))
        .map_err(|e| format!("reading {data_path}: {e}"))?;

    let mut out: Box<dyn Write> = match &out_path {
        Some(p) => Box::new(std::io::BufWriter::new(
            std::fs::File::create(p).map_err(|e| format!("creating {p}: {e}"))?,
        )),
        None => Box::new(std::io::sink()),
    };

    let mut errors = 0usize;
    for row in ds.rows() {
        let margin = model.margin(row.indices, row.values);
        let pred = if margin >= 0.0 { 1.0 } else { -1.0 };
        if (pred > 0.0) != (row.label > 0.0) {
            errors += 1;
        }
        writeln!(out, "{pred} {margin:.6}").map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())?;

    let n = ds.n_samples().max(1);
    out!(
        "model={} ({} weights)  n={}  error_rate={:.6}\n",
        model.algorithm,
        model.nnz(),
        ds.n_samples(),
        errors as f64 / n as f64
    );
    Ok(())
}

/// Usage string for `--help`.
pub const HELP: &str = "\
isasgd predict <data.svm> --model <model.json> [--out preds.txt]

  Writes one line per example: `<±1 prediction> <margin>`; prints the
  error rate against the file's labels.
";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opts::Opts;

    #[test]
    fn requires_model_flag() {
        let o = Opts::parse(["predict", "x.svm"].map(String::from));
        assert!(run(&o).is_err());
    }

    #[test]
    fn missing_model_file_is_an_error() {
        let o = Opts::parse(["predict", "x.svm", "--model", "/no/model.json"].map(String::from));
        assert!(run(&o).is_err());
    }
}
