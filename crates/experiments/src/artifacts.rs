//! The one table of paper artifacts and the one runner that regenerates
//! a row of it.
//!
//! A row's `name` is its CLI command and (with `-` → `_`) the stem of
//! every file it writes; `--help`, `all` and command resolution are read
//! off [`ARTIFACTS`], so adding or auditing an artifact is one row here
//! plus its `fill`. A row's `checks` are the checkable half of its
//! `note`: each reads one number back out of the filled table and holds
//! it against a band.

use crate::cmds::{
    ablations, adaptive, cluster, dense, fig1, fig2, fig3, fig4, fig5, intra_epoch, isgain,
    summary, table1, theory, variance,
};
use crate::common::Ctx;
use isasgd_metrics::table::TextTable;

/// One regenerated table or figure of the paper.
pub struct Artifact {
    /// CLI command and, via [`Artifact::stem`], the output file stem.
    pub name: &'static str,
    /// What of the paper this regenerates.
    pub paper_ref: &'static str,
    /// One-line description, shown in the heading and in `--help`.
    pub title: &'static str,
    /// Column headers of the table, whitespace-separated.
    pub columns: &'static str,
    /// How to read the table: the expected shape, printed under it.
    pub note: &'static str,
    /// Every `.txt`/`.csv` is an exact function of the flags — no
    /// wall-clock column, no racy threads. A failed check of such an
    /// artifact fails the process; CI `cmp`s these across core counts.
    pub deterministic: bool,
    /// The table's own CSV is written as `<stem>.csv`; `false` where
    /// `fill` writes curve or full-precision CSVs of its own instead.
    pub table_csv: bool,
    /// Runs the sweep and appends its rows.
    pub fill: fn(&mut Ctx, &mut TextTable),
    /// The claims read back from the filled table.
    pub checks: &'static [Check],
}

/// One checkable claim about a filled table.
pub struct Check {
    pub id: &'static str,
    pub paper_ref: &'static str,
    /// The measured quantity; NaN (a cell that is `-`, a column that is
    /// gone) fails every band.
    pub measure: fn(&TextTable) -> f64,
    /// Inclusive band the measurement must fall in.
    pub expect: (f64, f64),
    /// The paper's own band, where `expect` was widened to hold a
    /// measurement that misses it: inside `expect` but outside this is
    /// [`Verdict::NotReproduced`], not a pass.
    paper: Option<(f64, f64)>,
    /// What the band means and where it comes from.
    pub why: &'static str,
}

/// How a measurement stands against its [`Check`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Inside the paper's band.
    Pass,
    /// Outside the paper's band, inside the widened one the table holds
    /// it to: the tree does not reproduce the claim, and says so.
    NotReproduced,
    /// Outside the band it is held to (or NaN).
    Fail,
}

impl Check {
    /// Where the measurement `x` falls.
    fn verdict(&self, x: f64) -> Verdict {
        let within = |(lo, hi): (f64, f64)| lo <= x && x <= hi;
        if !within(self.expect) {
            Verdict::Fail
        } else if self.paper.is_some_and(|paper| !within(paper)) {
            Verdict::NotReproduced
        } else {
            Verdict::Pass
        }
    }
}

impl Artifact {
    /// Stem of the artifact's output files.
    pub fn stem(&self) -> String {
        self.name.replace('-', "_")
    }
}

/// Column `col` as numbers (a trailing `%` dropped, anything else that
/// is not a number read as NaN), over the rows whose `key` column
/// contains `pat`, for every `(key, pat)` of `only`.
fn nums(t: &TextTable, col: &str, only: &[(&str, &str)]) -> Vec<f64> {
    let keys: Vec<Vec<&str>> = only.iter().map(|(key, _)| t.column(key)).collect();
    let kept = |i: usize| {
        only.iter()
            .zip(&keys)
            .all(|((_, pat), k)| k[i].contains(pat))
    };
    let num = |c: &str| c.trim_end_matches('%').parse().unwrap_or(f64::NAN);
    let cells = t.column(col);
    (0..cells.len())
        .filter(|&i| kept(i))
        .map(|i| num(cells[i]))
        .collect()
}

/// Smallest of `v`; NaN when `v` is empty or holds one.
pub fn lo(v: impl IntoIterator<Item = f64>) -> f64 {
    let least = |a: f64, b: f64| {
        if a.is_nan() || b.is_nan() {
            f64::NAN
        } else {
            a.min(b)
        }
    };
    v.into_iter().reduce(least).unwrap_or(f64::NAN)
}

/// Largest of `v`, NaN as in [`lo`].
pub fn hi(v: impl IntoIterator<Item = f64>) -> f64 {
    -lo(v.into_iter().map(|x| -x))
}

/// Smallest step between consecutive entries: positive iff `v` rises
/// strictly.
fn least_rise(v: &[f64]) -> f64 {
    lo(v.windows(2).map(|w| w[1] - w[0]))
}

/// The larger-is-worse gap `a[i] − b[i]`, at its worst.
fn worst_gap(a: &[f64], b: &[f64]) -> f64 {
    hi(a.iter().zip(b).map(|(a, b)| a - b))
}

const UP: f64 = f64::INFINITY;

/// Figure 4's row, named because the two artifacts derived from its
/// traces have to find (and, when there are none, run) it.
pub const FIG4: Artifact = Artifact {
    name: "fig4",
    paper_ref: "Figure 4",
    title: "absolute convergence (wall-clock axis)",
    columns: "dataset threads algo train_s best_err t_to_asgd_opt_s speedup_vs_asgd setup_overhead",
    note: "Expected shape (paper Fig. 4): IS-ASGD reaches ASGD's optimum error\n\
           earlier (paper: 1.13–1.54×); SVRG-ASGD's wall-clock is far behind on\n\
           sparse data despite its per-epoch advantage; IS setup overhead is a few\n\
           percent of training time.\n",
    deterministic: false,
    table_csv: false,
    fill: fig4::fill,
    checks: &[Check {
        id: "fig4.is_setup_overhead_pct",
        paper_ref: "§4.2",
        measure: |t| hi(nums(t, "setup_overhead", &[("algo", "IS-ASGD")])),
        expect: (1.1, 7.7),
        paper: None,
        why: "sequence generation costs 1.1–7.7 % of training time in the paper; \
              sub-10-ms --quick runs inflate it",
    }],
};

/// Every artifact, in the order `all` runs them.
pub const ARTIFACTS: &[Artifact] = &[
    Artifact {
        name: "table1",
        paper_ref: "Table 1",
        title: "evaluation datasets (paper → synthetic)",
        columns: "dataset dim n grad-spa. psi/n rho paper-dim paper-n paper-spa. paper-psi paper-rho",
        note: "",
        deterministic: true,
        table_csv: true,
        fill: table1::fill,
        checks: &[],
    },
    Artifact {
        name: "fig1",
        paper_ref: "Figure 1",
        title: "per-iteration update cost, sparse vs dense µ",
        columns: "dataset d nnz/row sparse_ns dense_ns measured_ratio d/nnz",
        note: "The dense-µ kernel is slower by ≈ d/nnz — the paper's reason SVRG-ASGD\n\
               cannot finish on large sparse data (§1.2; KDD: 2h per epoch on 44 threads).\n",
        deterministic: false,
        table_csv: true,
        fill: fig1::fill,
        checks: &[Check {
            id: "fig1.dense_mu_costs_more",
            paper_ref: "§1.2",
            measure: |t| lo(nums(t, "measured_ratio", &[])),
            expect: (1.0, UP),
            paper: None,
            why: "the dense-µ add makes an iteration O(d) instead of O(nnz) on every profile",
        }],
    },
    Artifact {
        name: "fig2",
        paper_ref: "Figure 2",
        title: "importance balancing for sharded IS",
        columns: "dataset shards shuffle_imb balance_imb shuffle_maxdist balance_maxdist",
        note: "Head-tail balancing (Alg. 3) keeps shard importance sums Φ_a nearly equal\n\
               regardless of shard count; with near-uniform L (low ρ) random shuffling is\n\
               already adequate — exactly the adaptive rule of Alg. 4.\n",
        deterministic: true,
        table_csv: true,
        fill: fig2::fill,
        checks: &[Check {
            id: "fig2.head_tail_vs_shuffle_imbalance_gap",
            paper_ref: "Fig. 2, Alg. 3",
            measure: |t| worst_gap(&nums(t, "balance_imb", &[]), &nums(t, "shuffle_imb", &[])),
            expect: (-1.0, 0.5),
            paper: Some((-1.0, 0.0)),
            why: "paper: ≤ 0, balanced shards are no more imbalanced than shuffled ones. Not \
                  reproduced at Table 1's ρ ≈ 1e-4 (+0.31 at --quick, +0.48 at scale 1), where \
                  Alg. 4 itself shuffles; the band holds the measured gap",
        }],
    },
    Artifact {
        name: "fig3",
        paper_ref: "Figure 3",
        title: "iterative convergence (epoch axis), τ sweep",
        columns: "dataset tau algo final_rmse final_err best_err epochs_to_asgd_opt",
        note: "Expected shape (paper Fig. 3): IS-ASGD ≥ ASGD everywhere per epoch; the\n\
               gap grows on the low-ψ KDD-like profiles; ASGD degrades as τ rises while\n\
               IS-ASGD stays near SGD; SVRG-ASGD has the best per-epoch curve on the\n\
               small dense profile.\n",
        deterministic: true,
        table_csv: false,
        fill: fig3::fill,
        checks: &[Check {
            id: "fig3.kdd_is_asgd_best_err_gap",
            paper_ref: "Fig. 3",
            measure: |t| {
                let of = |algo| nums(t, "best_err", &[("dataset", "kdd"), ("algo", algo)]);
                worst_gap(&of("IS-ASGD"), &of("ASGD"))
            },
            expect: (-1.0, 0.05),
            paper: Some((-1.0, 0.0)),
            why: "paper: ≤ 0, IS-ASGD's best error is no worse than ASGD's on the low-ψ \
                  profiles. Not reproduced under the saturating logistic loss: +0.028 at \
                  --quick, a tie (+1e-4) at scale 0.25; the band holds the measured gap",
        }],
    },
    FIG4,
    Artifact {
        name: "fig5",
        paper_ref: "Figure 5",
        title: "error-rate → speedup slices",
        columns: "dataset threads target_err speedup_vs_ASGD speedup_vs_SGD",
        note: "Expected shape (paper Fig. 5): speedups over ASGD are largest early in\n\
               the trajectory, dip mid-way, and (on the large low-ψ profiles) rise\n\
               again near the optimum; speedup over SGD scales with thread count.\n",
        deterministic: false,
        table_csv: false,
        fill: fig5::fill,
        checks: &[],
    },
    Artifact {
        name: "summary",
        paper_ref: "§4.2",
        title: "IS-ASGD speedup statistics",
        columns: "dataset threads avg_speedup optimum_speedup max min",
        note: "paper §4.2: average 1.26–1.97x, optimum 1.13–1.54x\n",
        deterministic: false,
        table_csv: true,
        fill: summary::fill,
        checks: &[Check {
            id: "summary.avg_speedup_band",
            paper_ref: "§4.2",
            measure: |t| lo(nums(t, "avg_speedup", &[])),
            expect: (1.26, 1.97),
            paper: None,
            why: "the paper's average IS-ASGD-over-ASGD wall-clock speedup, at its lowest",
        }],
    },
    Artifact {
        name: "ablation-balance",
        paper_ref: "§2.3–2.4",
        title: "balanced vs shuffled IS-ASGD",
        columns: "dataset policy balanced? rho best_err final_rmse",
        note: "Expected: on the high-ρ profile, 'balance' ≥ 'shuffle' ≥ 'identity';\n\
               on the low-ρ profile the three are indistinguishable and 'adaptive'\n\
               picks shuffle — the paper's Algorithm-4 rule.\n",
        deterministic: true,
        table_csv: true,
        fill: ablations::balance,
        checks: &[],
    },
    Artifact {
        name: "ablation-seq",
        paper_ref: "§4.2",
        title: "regenerate vs shuffle-once sequences",
        columns: "dataset mode best_err final_rmse setup_s train_s",
        note: "Expected (paper §4.2): the shuffle-once approximation converges like\n\
               exact regeneration — 'such approximation works well in practice'.\n",
        deterministic: false,
        table_csv: true,
        fill: ablations::sequences,
        checks: &[],
    },
    Artifact {
        name: "ablation-svrg",
        paper_ref: "§1.2",
        title: "SVRG literature vs public skip-µ variant",
        columns: "variant epoch rmse error_rate",
        note: "Expected (paper §1.2): the skip-µ trajectory departs from the literature\n\
               version — 'we found the convergence curve of this public version far\n\
               from the literature version'.\n",
        deterministic: true,
        table_csv: true,
        fill: ablations::svrg,
        checks: &[],
    },
    Artifact {
        name: "ablation-scheme",
        paper_ref: "Eq. 12",
        title: "importance scheme × ψ × step regime",
        columns: "psi_norm hotness scheme best_err err@25%ep epochs_to_1.25opt speedup_ep max_corr",
        note: "Reading: at the Table-1-printed ψ (normalized constants) the L-spread\n\
               is too small for any scheme to beat uniform by the paper's factors; at\n\
               the raw-constant ψ of variable-nnz data (0.35–0.6) the smoothness and\n\
               partially-biased corrections equalize effective steps and reach common\n\
               error targets with paper-sized epoch speedups.\n",
        deterministic: true,
        table_csv: true,
        fill: ablations::schemes,
        checks: &[],
    },
    Artifact {
        name: "ablation-adaptive",
        paper_ref: "Eq. 11",
        title: "static vs adaptive importance sampling",
        columns: "psi_norm sampling sp@50% sp@80% final_obj setup_ovh",
        note: "Expected: at high ψ (near-uniform importance) the two samplers tie;\n\
               as ψ falls the static scheme wins early epochs (its prior is exact\n\
               at w₀) while the adaptive sampler tracks the shifting gradient\n\
               distribution in later epochs. The setup-overhead column shows\n\
               adaptivity's cost: no offline sequence generation, but O(log n)\n\
               draws during training.\n",
        deterministic: false,
        table_csv: true,
        fill: adaptive::fill,
        checks: &[],
    },
    Artifact {
        name: "ablation-intra-epoch",
        paper_ref: "Eq. 11",
        title: "epoch vs every-k adaptive commit policy",
        columns: "psi_norm exec commit sp@50% sp@80% final_obj commits",
        note: "Expected: every-k commits track the shifting gradient distribution\n\
               within each pass, which matters most late in training and at low ψ\n\
               (heavy importance skew). Smaller k reacts faster but re-weights from\n\
               noisier windows; epoch commits are the deterministic baseline. The\n\
               thr2 arm exercises the streamed worker schedules: its `commits`\n\
               column exceeding workers×epochs is intra-epoch adaptivity firing on\n\
               real Hogwild threads. The cost side is structural rather than\n\
               visible here: every-k runs draw on the training path (streamed in\n\
               k-strides) instead of pulling large amortized chunks.\n",
        deterministic: false,
        table_csv: true,
        fill: intra_epoch::fill,
        checks: &[],
    },
    Artifact {
        name: "is-gain",
        paper_ref: "§2.2, Eqs. 13–14",
        title: "provable-regime IS speedup sweep (squared loss)",
        columns: "psi_norm sup_over_mean pair_protocol sp@50% sp@80% sp@95%",
        note: "Expected: tuned-λ speedups grow with sup L/L̄ as ψ falls — into and\n\
               beyond the paper's 1.13–1.54× band — and the asynchronous pair tracks\n\
               the sequential pair (Lemma 2's 'IS-ASGD inherits IS-SGD's bound up to\n\
               an order-wise constant'). Same-λ speedups (the paper's experimental\n\
               protocol) collapse to the variance channel: per-epoch effective step\n\
               mass per row is λ·L_i under both samplers, so only the gradient-noise\n\
               reduction remains.\n",
        deterministic: true,
        table_csv: true,
        fill: isgain::fill,
        checks: &[
            Check {
                id: "is_gain.tuned_sp80_at_psi_0.35",
                paper_ref: "Lemma 2",
                measure: |t| lo(nums(t, "sp@80%", &[("psi_norm", "0.35"), ("pair_protocol", "tuned")])),
                expect: (1.0, UP),
                paper: None,
                why: "each sampler at its own stability edge: IS needs fewer epochs than \
                      uniform at the widest importance spread, sequentially and at τ = 32",
            },
            Check {
                id: "is_gain.tuned_sp80_grows_as_psi_falls",
                paper_ref: "Eqs. 13–14",
                measure: |t| {
                    let of = |pair| nums(t, "sp@80%", &[("pair_protocol", pair)]);
                    least_rise(&of("IS-SGD/SGD tuned")).min(least_rise(&of("IS-ASGD/ASGD tuned")))
                },
                expect: (0.0, UP),
                paper: None,
                why: "the gain is sup L / L̄, which grows at every step of ψ = 0.9 → 0.35",
            },
        ],
    },
    Artifact {
        name: "cluster",
        paper_ref: "§2.3–2.4, Fig. 2",
        title: "per-node importance balancing in the local-SGD setting",
        columns: "nodes policy phi_max_over_mean final_obj final_err",
        note: "Expected: identity sharding of importance-sorted data is maximally\n\
               imbalanced (Φ ratio ≫ 1, growing with node count); greedy-LPT flattens\n\
               Φ to ≈ 1 at every width; head-tail (Alg. 3) helps but *degrades with\n\
               node count on right-skewed importance* (its pair sums concentrate the\n\
               heavy tail in one contiguous block); shuffling is near-balanced at\n\
               this n/node ratio, the paper's §2.4 observation.\n",
        deterministic: true,
        table_csv: true,
        fill: cluster::fill,
        checks: &[
            Check {
                id: "cluster.greedy_lpt_flattens_phi",
                paper_ref: "Eqs. 18–19",
                measure: |t| hi(nums(t, "phi_max_over_mean", &[("policy", "greedy")])),
                expect: (1.0, 1.001),
                paper: None,
                why: "greedy-LPT leaves max Φ_a / mean Φ_a ≈ 1 at every cluster width",
            },
            Check {
                id: "cluster.identity_is_worse_than_greedy",
                paper_ref: "Fig. 2",
                measure: |t| {
                    let of = |policy| nums(t, "phi_max_over_mean", &[("policy", policy)]);
                    -worst_gap(&of("greedy"), &of("identity"))
                },
                expect: (0.0, UP),
                paper: None,
                why: "contiguous shards of importance-sorted rows are more imbalanced \
                      than balanced ones at every width",
            },
        ],
    },
    Artifact {
        name: "theory",
        paper_ref: "§3",
        title: "bounds, conflict degrees, τ budgets",
        columns: "dataset supL meanL infL IS_factor delta_bar n/delta tau_budget k_sgd k_is lambda*",
        note: "IS_factor = 1/sqrt(psi/n) is the Eq. 13-vs-14 bound improvement; the\n\
               low-psi KDD profiles gain most, matching the paper's Fig. 3 ordering.\n\
               tau_budget is Eq. 27's delay tolerance: sparser data (smaller delta_bar)\n\
               tolerates more asynchrony.\n",
        deterministic: true,
        table_csv: true,
        fill: theory::fill,
        checks: &[Check {
            id: "theory.is_factor_ordering",
            paper_ref: "Eqs. 13–14, Table 1",
            measure: |t| least_rise(&nums(t, "IS_factor", &[])),
            expect: (0.0, UP),
            paper: None,
            why: "1/√ψ rises News20 < URL < KDD-Algebra < KDD-Bridge, Table 1's ψ ordering",
        }],
    },
    Artifact {
        name: "variance",
        paper_ref: "Eqs. 4, 10–11",
        title: "stochastic-gradient variance along the trajectory",
        columns: "dataset epoch V_uniform V_smoothness V_gradnorm V_optimal gradnorm_reduction",
        note: "V_optimal is the Eq. 11 floor (p ∝ ‖∇f_i(w_t)‖, impractical); the static\n\
               gradient-norm scheme tracks it closer than the smoothness scheme on\n\
               the logistic objective, which is why the convergence figures weight\n\
               by gradient-norm bounds.\n",
        deterministic: true,
        table_csv: true,
        fill: variance::fill,
        checks: &[],
    },
    Artifact {
        name: "dense-crossover",
        paper_ref: "§4.3",
        title: "density sweep — where does SVRG-ASGD win?",
        columns: "density nnz/row asgd_s svrg_s asgd_obj svrg_obj t_to_target_asgd t_to_target_svrg winner",
        note: "Expected (paper §4.3): ASGD wins decisively at low density; as density\n\
               approaches 10⁻¹…1 the dense-µ penalty vanishes and SVRG-ASGD's\n\
               per-epoch advantage takes over — the crossover the paper describes.\n",
        deterministic: false,
        table_csv: true,
        fill: dense::fill,
        checks: &[],
    },
];

/// The artifacts `names` asks for, `all` standing for the whole table —
/// or the first name that is neither, before anything has run.
pub fn resolve(names: &[String]) -> Result<Vec<&'static Artifact>, String> {
    let mut out = Vec::new();
    for name in names {
        match ARTIFACTS.iter().find(|a| a.name == name) {
            Some(a) => out.push(a),
            None if name == "all" => out.extend(ARTIFACTS),
            None => return Err(format!("unknown command {name}; see --help")),
        }
    }
    Ok(out)
}

/// Regenerates one artifact: heading, table, note, files, checks.
pub fn run(ctx: &mut Ctx, a: &Artifact) {
    println!("\n=== {} — {}: {} ===\n", a.name, a.paper_ref, a.title);
    let outer = std::mem::replace(&mut ctx.stem, a.stem());
    let mut table = TextTable::new(a.columns.split_whitespace().collect());
    (a.fill)(ctx, &mut table);
    let rendered = table.render();
    println!("{rendered}\n{}", a.note);
    ctx.write(".txt", &rendered);
    if a.table_csv {
        ctx.write(".csv", &table.to_csv());
    }
    for c in a.checks {
        let x = (c.measure)(&table);
        let verdict = c.verdict(x);
        ctx.claims.total += 1;
        ctx.claims.passed += usize::from(verdict == Verdict::Pass);
        ctx.claims.not_reproduced += usize::from(verdict == Verdict::NotReproduced);
        ctx.claims.broken |= verdict == Verdict::Fail && a.deterministic;
        println!(
            "{}  {}  measured {x:.4} vs [{}, {}]  {} — {}",
            match verdict {
                Verdict::Pass => "PASS",
                Verdict::NotReproduced => "NOT-REPRODUCED",
                Verdict::Fail => "FAIL",
            },
            c.id,
            c.expect.0,
            c.expect.1,
            c.paper_ref,
            c.why
        );
    }
    ctx.stem = outer;
}

/// `--help`: usage, the table's rows, the flags.
pub fn help() -> String {
    let mut s = String::from(
        "isasgd-experiments — regenerate the IS-ASGD paper's tables and figures\n\n\
         USAGE: isasgd-experiments [FLAGS] <COMMAND>...\n\nCOMMANDS\n",
    );
    for a in ARTIFACTS {
        let tag = ["", "  [deterministic]"][usize::from(a.deterministic)];
        s += &format!("  {:<21} {:<17} {}{tag}\n", a.name, a.paper_ref, a.title);
    }
    s + "  all                   every row above, in order\n\n\
         FLAGS\n\
         \x20 --quick           tiny datasets + few epochs (CI smoke preset)\n\
         \x20 --scale <f>       scale factor on profile sizes       [default 1.0]\n\
         \x20 --epochs <n>      override per-profile epoch counts\n\
         \x20 --seed <n>        master seed                         [default fixed]\n\
         \x20 --taus <a,b,..>   simulated delay sweep               [default 16,32,44]\n\
         \x20 --threads <a,..>  real-thread sweep of Figure 4       [default 1,host]\n\
         \x20 --avg <n>         seeds averaged per curve and timing [default 3]\n\
         \x20 --out <dir>       output directory                    [default results/]\n\n\
         [deterministic] artifacts are exact functions of the flags; a failed check\n\
         of one exits 1. Run with --release; figures involve full training runs.\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Settings;
    use std::collections::BTreeSet;

    fn names(of: &[&Artifact]) -> Vec<&'static str> {
        of.iter().map(|a| a.name).collect()
    }

    #[test]
    fn names_and_stems_are_unique() {
        let stems: BTreeSet<String> = ARTIFACTS.iter().map(Artifact::stem).collect();
        assert_eq!(stems.len(), ARTIFACTS.len());
        assert!(ARTIFACTS.iter().all(|a| a.name != "all"));
        assert!(ARTIFACTS.iter().any(|a| a.name == FIG4.name));
    }

    #[test]
    fn all_is_exactly_the_table() {
        let all = resolve(&["all".to_string()]).unwrap();
        assert_eq!(names(&all), names(&ARTIFACTS.iter().collect::<Vec<_>>()));
    }

    #[test]
    fn an_unknown_name_is_refused_before_anything_runs() {
        let asked = ["theory", "typo", "fig4"].map(String::from);
        let Err(e) = resolve(&asked) else {
            panic!("'typo' resolved");
        };
        assert!(e.contains("typo"), "{e}");
        assert_eq!(names(&resolve(&asked[..1]).unwrap()), ["theory"]);
    }

    #[test]
    fn help_lists_every_row() {
        let help = help();
        for a in ARTIFACTS {
            let row = format!("\n  {} ", a.name);
            assert!(help.contains(&row), "--help lacks {}", a.name);
            assert!(
                help.contains(a.title),
                "--help lacks the title of {}",
                a.name
            );
        }
        assert!(help.contains("\n  all "));
    }

    #[test]
    fn a_widened_band_is_not_a_pass() {
        // The two rows held to a band wider than the paper's: what the
        // paper claims passes, what only the widened band admits is
        // NOT-REPRODUCED, and outside both (or NaN) fails.
        let widened: Vec<&Check> = ARTIFACTS
            .iter()
            .flat_map(|a| a.checks)
            .filter(|c| c.paper.is_some())
            .collect();
        let ids: Vec<&str> = widened.iter().map(|c| c.id).collect();
        assert_eq!(
            ids,
            [
                "fig2.head_tail_vs_shuffle_imbalance_gap",
                "fig3.kdd_is_asgd_best_err_gap"
            ]
        );
        for c in widened {
            assert_eq!(c.verdict(-0.01), Verdict::Pass, "{}", c.id);
            assert_eq!(c.verdict(0.03), Verdict::NotReproduced, "{}", c.id);
            assert_eq!(c.verdict(0.9), Verdict::Fail, "{}", c.id);
            assert_eq!(c.verdict(f64::NAN), Verdict::Fail, "{}", c.id);
        }
        // A row held to the paper's own band has no middle status.
        let plain = &FIG4.checks[0];
        assert_eq!(plain.verdict(5.0), Verdict::Pass);
        assert_eq!(plain.verdict(9.0), Verdict::Fail);
    }

    #[test]
    fn a_quick_deterministic_artifact_fills_a_table_whose_checks_pass() {
        let out_dir = std::env::temp_dir().join(format!("isasgd-exp-{}", std::process::id()));
        let settings = Settings {
            out_dir: out_dir.clone(),
            ..Settings::quick()
        };
        let mut ctx = Ctx::new(settings).unwrap();
        let theory = resolve(&["theory".to_string()]).unwrap()[0];
        assert!(theory.deterministic && !theory.checks.is_empty());
        run(&mut ctx, theory);
        assert_eq!(ctx.claims.total, theory.checks.len());
        assert_eq!(ctx.claims.passed, ctx.claims.total);
        assert!(!ctx.claims.broken);
        let csv = std::fs::read_to_string(out_dir.join("theory.csv")).unwrap();
        assert_eq!(csv.lines().count(), 5, "a header and the four profiles");
        assert!(out_dir.join("theory.txt").exists());
        std::fs::remove_dir_all(&out_dir).unwrap();
    }
}
