//! Shared option-to-configuration mapping for the CLI commands.

use crate::opts::{OptError, Opts};
use isasgd_cluster::{SyncStrategy, TransportConfig, WireEncoding, WorkerLossPolicy};
use isasgd_core::{
    Algorithm, BalancePolicy, CommitPolicy, Execution, ImportanceScheme, Regularizer,
    SamplingStrategy, SvrgVariant,
};
use isasgd_obs::LogLevel;

/// Distributed-run settings: present when any `--cluster*` flag was
/// given, routing `train` through the `isasgd-cluster` runtime instead
/// of the in-process engine.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Node count `numT`.
    pub nodes: usize,
    /// Local epochs per synchronization round.
    pub local_epochs: usize,
    /// Coordinator↔worker transport.
    pub transport: TransportConfig,
    /// Model reducer at each round.
    pub sync: SyncStrategy,
}

/// Everything `train` needs besides the dataset itself.
#[derive(Debug, Clone)]
pub struct TrainSpec {
    /// Solver.
    pub algorithm: Algorithm,
    /// Execution mode.
    pub execution: Execution,
    /// Distributed execution (`--cluster`/`--cluster-transport`);
    /// `None` keeps the single-process engine.
    pub cluster: Option<ClusterSpec>,
    /// The loss, by its canonical [`Loss::name`](isasgd_core::Loss::name)
    /// — one `isasgd_losses::with_loss!` knows.
    pub loss: &'static str,
    /// Regularizer.
    pub regularizer: Regularizer,
    /// Importance scheme.
    pub importance: ImportanceScheme,
    /// Balance policy.
    pub balance: BalancePolicy,
    /// Sampling-strategy override (`None` keeps the algorithm's default).
    pub sampling: Option<SamplingStrategy>,
    /// Commit policy for adaptive sampling.
    pub commit: CommitPolicy,
    /// Epochs.
    pub epochs: usize,
    /// Step size λ.
    pub step_size: f64,
    /// Master seed.
    pub seed: u64,
    /// Held-out fraction (0 disables).
    pub holdout: f64,
    /// Stderr event verbosity (`--log-level`; default off).
    pub log_level: LogLevel,
    /// JSONL trace destination (`--trace-out`).
    pub trace_out: Option<String>,
}

fn bad(flag: &str, value: String, expected: &'static str) -> OptError {
    OptError::BadValue {
        flag: flag.into(),
        value,
        expected,
    }
}

/// Parses the solver name.
pub fn parse_algorithm(s: &str) -> Option<Algorithm> {
    Some(match s {
        "sgd" => Algorithm::Sgd,
        "is-sgd" => Algorithm::IsSgd,
        "asgd" => Algorithm::Asgd,
        "is-asgd" => Algorithm::IsAsgd,
        "svrg" | "svrg-sgd" => Algorithm::SvrgSgd(SvrgVariant::Literature),
        "svrg-asgd" => Algorithm::SvrgAsgd,
        "svrg-skipmu" => Algorithm::SvrgSgd(SvrgVariant::SkipMu),
        _ => return None,
    })
}

impl TrainSpec {
    /// Builds a spec from parsed options (flags: `--algo --threads --tau
    /// --workers --epochs --step --loss --reg --eta --scheme --bias
    /// --balance --holdout --seed`).
    pub fn from_opts(o: &Opts) -> Result<TrainSpec, OptError> {
        let algo_s = o.get_or("algo", "is-asgd");
        let algorithm =
            parse_algorithm(&algo_s).ok_or_else(|| bad("algo", algo_s, "solver name"))?;

        // Only an absent flag takes a default: an explicit `--threads 1`
        // or `--tau 0` asks for the deterministic one-worker run and must
        // not fall through to the racy two-thread default.
        let threads: Option<usize> = o.get_parsed("threads", "thread count (usize, ≥ 1)")?;
        let tau: Option<usize> = o.get_parsed("tau", "usize")?;
        let workers: usize = o.get_parsed_or("workers", 4, "usize")?;
        let is_async = matches!(
            algorithm,
            Algorithm::Asgd | Algorithm::IsAsgd | Algorithm::SvrgAsgd
        );
        let execution = match (tau, threads) {
            (Some(tau), _) => Execution::Simulated { tau, workers },
            (None, Some(0)) => return Err(bad("threads", "0".into(), "thread count (usize, ≥ 1)")),
            (None, Some(1)) if !is_async => Execution::Sequential,
            (None, Some(k)) => Execution::Threads(k),
            // Async algorithms need a parallel execution; default modestly.
            (None, None) if is_async => Execution::Threads(2),
            (None, None) => Execution::Sequential,
        };

        // The CLI adds only its own spellings; which names are losses
        // is `with_loss!`'s list.
        let loss_s = o.get_or("loss", "logistic");
        let canonical = match loss_s.as_str() {
            "squared-hinge" | "svm" => "squared_hinge",
            name => name,
        };
        let loss = isasgd_losses::with_loss!(canonical, |l| isasgd_core::Loss::name(&l))
            .ok_or_else(|| bad("loss", loss_s.clone(), "logistic|squared-hinge|squared"))?;

        let eta: f64 = o.get_parsed_or("eta", 1e-5, "float")?;
        let regularizer = match o.get_or("reg", "l1").as_str() {
            "none" => Regularizer::None,
            "l1" => Regularizer::L1 { eta },
            "l2" => Regularizer::L2 { eta },
            other => return Err(bad("reg", other.into(), "none|l1|l2")),
        };

        let bias: f64 = o.get_parsed_or("bias", 0.5, "float")?;
        let importance = match o.get_or("scheme", "gradnorm").as_str() {
            "gradnorm" => ImportanceScheme::GradNormBound { radius: 1.0 },
            "smoothness" | "lipschitz" => ImportanceScheme::LipschitzSmoothness,
            "partial" => ImportanceScheme::PartiallyBiased { bias },
            "uniform" => ImportanceScheme::Uniform,
            other => {
                return Err(bad(
                    "scheme",
                    other.into(),
                    "gradnorm|smoothness|partial|uniform",
                ))
            }
        };

        let balance = match o.get_or("balance", "adaptive").as_str() {
            "adaptive" => BalancePolicy::default(),
            "head-tail" | "balance" => BalancePolicy::ForceBalance,
            "greedy" | "lpt" => BalancePolicy::ForceGreedy,
            "shuffle" => BalancePolicy::ForceShuffle,
            "identity" | "none" => BalancePolicy::Identity,
            other => {
                return Err(bad(
                    "balance",
                    other.into(),
                    "adaptive|head-tail|greedy|shuffle|identity",
                ))
            }
        };

        let sampling = match o.get("sampling") {
            None => None,
            Some(v) => Some(
                SamplingStrategy::parse(&v)
                    .ok_or_else(|| bad("sampling", v, "uniform|static|adaptive"))?,
            ),
        };

        let commit = match o.get("commit") {
            None => CommitPolicy::default(),
            Some(v) => CommitPolicy::parse(&v)
                .ok_or_else(|| bad("commit", v, "epoch|every-k|every-<n>"))?,
        };

        let holdout: f64 = o.get_parsed_or("holdout", 0.0, "float in [0,1)")?;
        if !(0.0..1.0).contains(&holdout) {
            return Err(bad("holdout", holdout.to_string(), "float in [0,1)"));
        }

        // Cluster mode turns on when any --cluster* flag appears;
        // `--cluster-transport tcp` alone implies the default 4 nodes.
        let cluster_nodes = o.get("cluster");
        let cluster_transport = o.get("cluster-transport");
        let sync_name = o.get("sync");
        let cluster = if cluster_nodes.is_some() || cluster_transport.is_some() {
            let local_epochs: usize = o.get_parsed_or("local-epochs", 1, "usize")?;
            // The cluster runtime has no per-algorithm dispatch — nodes
            // run local (IS-)SGD. Reject an explicit solver request it
            // would silently ignore.
            if o.get("algo").is_some() && !matches!(algorithm, Algorithm::Sgd | Algorithm::IsSgd) {
                return Err(bad(
                    "algo",
                    algorithm.name().into(),
                    "cluster nodes run local (is-)sgd; use --algo sgd or is-sgd \
                     (sampling/importance flags still apply)",
                ));
            }
            if tau.unwrap_or(0) > 0 || threads.unwrap_or(1) > 1 {
                return Err(bad(
                    "cluster",
                    "with --tau/--threads".into(),
                    "cluster nodes run sequential local SGD; drop --tau/--threads",
                ));
            }
            if let Some(v) = o.get("init-model") {
                return Err(bad(
                    "init-model",
                    v,
                    "not supported with --cluster: cluster training starts from the zero model",
                ));
            }
            let nodes: usize = match cluster_nodes {
                Some(v) => v
                    .parse()
                    .map_err(|_| bad("cluster", v, "node count (usize)"))?,
                None => 4,
            };
            let mut transport = match cluster_transport {
                Some(v) => TransportConfig::parse(&v)
                    .ok_or_else(|| bad("cluster-transport", v, "inproc|tcp|process"))?,
                None => TransportConfig::InProcess,
            };
            // Fleet/socket flags, validated against the chosen transport
            // so a silently-ignored flag is impossible. Each mismatch
            // error names the flag the offending value came from.
            let bind = o.get("cluster-bind");
            let on_loss = o.get("on-worker-loss");
            let chaos = o.get("chaos-kill");
            let round_timeout = o.get("round-timeout");
            let wire_encoding = o.get("wire-encoding");
            let checkpoint_every = o.get("checkpoint-every");
            let needs_process = |flag: &str, v: String| {
                Err(bad(flag, v, "only valid with --cluster-transport process"))
            };
            let parse_encoding = |v: String| {
                WireEncoding::parse(&v).ok_or_else(|| bad("wire-encoding", v, "dense|delta|auto"))
            };
            match &mut transport {
                TransportConfig::Process(pc) => {
                    if let Some(b) = bind {
                        pc.bind = b;
                    }
                    if let Some(v) = on_loss {
                        pc.on_loss = WorkerLossPolicy::parse(&v)
                            .ok_or_else(|| bad("on-worker-loss", v, "fail|respawn"))?;
                    }
                    if let Some(v) = chaos {
                        let parsed = v.split_once(':').and_then(|(n, r)| {
                            Some((n.parse::<u32>().ok()?, r.parse::<u64>().ok()?))
                        });
                        pc.chaos_kill =
                            Some(parsed.ok_or_else(|| {
                                bad("chaos-kill", v, "<node>:<round> (e.g. 1:2)")
                            })?);
                    }
                    if let Some(v) = round_timeout {
                        let secs: u64 = v
                            .parse()
                            .ok()
                            .filter(|&s| s > 0)
                            .ok_or_else(|| bad("round-timeout", v, "seconds (u64, ≥ 1)"))?;
                        pc.round_timeout_ms = secs.saturating_mul(1000);
                    }
                    if let Some(v) = wire_encoding {
                        pc.encoding = parse_encoding(v)?;
                    }
                    if let Some(v) = checkpoint_every {
                        // 0 would silently disable the feature the user
                        // just asked for — reject it; omit the flag to
                        // disable checkpointing.
                        pc.checkpoint_every = v
                            .parse()
                            .ok()
                            .filter(|&n: &u64| n > 0)
                            .ok_or_else(|| bad("checkpoint-every", v, "rounds (u64, ≥ 1)"))?;
                    }
                }
                TransportConfig::Tcp {
                    bind: tcp_bind,
                    encoding,
                } => {
                    if let Some(v) = on_loss {
                        return needs_process("on-worker-loss", v);
                    }
                    if let Some(v) = chaos {
                        return needs_process("chaos-kill", v);
                    }
                    if let Some(v) = round_timeout {
                        return needs_process("round-timeout", v);
                    }
                    if let Some(v) = checkpoint_every {
                        return needs_process("checkpoint-every", v);
                    }
                    if let Some(b) = bind {
                        *tcp_bind = b;
                    }
                    if let Some(v) = wire_encoding {
                        *encoding = parse_encoding(v)?;
                    }
                }
                TransportConfig::InProcess => {
                    for (flag, value) in [
                        ("cluster-bind", bind),
                        ("on-worker-loss", on_loss),
                        ("chaos-kill", chaos),
                        ("round-timeout", round_timeout),
                        ("wire-encoding", wire_encoding),
                        ("checkpoint-every", checkpoint_every),
                    ] {
                        if let Some(v) = value {
                            return Err(bad(flag, v, "needs a socket transport (tcp or process)"));
                        }
                    }
                }
            }
            let sync = match sync_name.as_deref() {
                None | Some("average") => SyncStrategy::Average,
                Some("weighted") => SyncStrategy::WeightedByShard,
                Some(other) => return Err(bad("sync", other.into(), "average|weighted")),
            };
            Some(ClusterSpec {
                nodes,
                local_epochs,
                transport,
                sync,
            })
        } else {
            if let Some(v) = sync_name {
                return Err(bad(
                    "sync",
                    v,
                    "only valid with --cluster/--cluster-transport",
                ));
            }
            None
        };

        let log_level = match o.get("log-level") {
            None => LogLevel::Off,
            Some(v) => LogLevel::parse(&v).ok_or_else(|| bad("log-level", v, "off|info|debug"))?,
        };

        Ok(TrainSpec {
            algorithm,
            execution,
            cluster,
            loss,
            regularizer,
            importance,
            balance,
            sampling,
            commit,
            epochs: o.get_parsed_or("epochs", 10, "usize")?,
            step_size: o.get_parsed_or("step", 0.5, "float")?,
            seed: o.get_parsed_or("seed", 0x15A5_6D00, "u64")?,
            holdout,
            log_level,
            trace_out: o.get("trace-out"),
        })
    }

    /// Whether any observability channel was requested — the switch that
    /// arms the recorder *and* the wire-level [`Message::Telemetry`]
    /// frames in cluster runs. Everything downstream is inert when this
    /// is false: no clock reads, no extra frames, no recorder.
    ///
    /// [`Message::Telemetry`]: isasgd_cluster::Message::Telemetry
    pub fn telemetry_enabled(&self) -> bool {
        self.log_level != LogLevel::Off || self.trace_out.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opts::Opts;

    fn spec(s: &str) -> Result<TrainSpec, OptError> {
        TrainSpec::from_opts(&Opts::parse(s.split_whitespace().map(String::from)))
    }

    #[test]
    fn defaults_are_paperlike() {
        let t = spec("").unwrap();
        assert_eq!(t.algorithm, Algorithm::IsAsgd);
        assert_eq!(t.execution, Execution::Threads(2));
        assert_eq!(t.loss, "logistic");
        assert!(matches!(t.regularizer, Regularizer::L1 { .. }));
        assert_eq!(t.epochs, 10);
        assert_eq!(t.step_size, 0.5);
        assert_eq!(t.holdout, 0.0);
    }

    #[test]
    fn algorithm_names_roundtrip() {
        for (name, algo) in [
            ("sgd", Algorithm::Sgd),
            ("is-sgd", Algorithm::IsSgd),
            ("asgd", Algorithm::Asgd),
            ("is-asgd", Algorithm::IsAsgd),
            ("svrg", Algorithm::SvrgSgd(SvrgVariant::Literature)),
            ("svrg-asgd", Algorithm::SvrgAsgd),
        ] {
            assert_eq!(parse_algorithm(name), Some(algo), "{name}");
        }
        assert_eq!(parse_algorithm("adamw"), None);
        assert_eq!(parse_algorithm("saga"), None);
    }

    #[test]
    fn tau_selects_simulation() {
        let t = spec("--algo asgd --tau 32 --workers 8").unwrap();
        assert_eq!(
            t.execution,
            Execution::Simulated {
                tau: 32,
                workers: 8
            }
        );
    }

    #[test]
    fn threads_select_hogwild() {
        let t = spec("--algo is-asgd --threads 4").unwrap();
        assert_eq!(t.execution, Execution::Threads(4));
    }

    #[test]
    fn explicit_one_thread_and_zero_tau_are_not_the_default() {
        // Absent flags: async solvers get the racy two-thread default.
        assert_eq!(
            spec("--algo is-asgd").unwrap().execution,
            Execution::Threads(2)
        );
        // An explicit 1 / 0 is the deterministic one-worker run, not
        // "flag absent".
        for algo in ["asgd", "is-asgd", "svrg-asgd"] {
            let t = spec(&format!("--algo {algo} --threads 1")).unwrap();
            assert_eq!(t.execution, Execution::Threads(1), "{algo}");
        }
        assert_eq!(
            spec("--algo is-asgd --tau 0 --workers 1")
                .unwrap()
                .execution,
            Execution::Simulated { tau: 0, workers: 1 }
        );
        assert_eq!(
            spec("--algo sgd --threads 1").unwrap().execution,
            Execution::Sequential
        );
        for line in ["--threads 0", "--algo sgd --threads 0"] {
            match spec(line) {
                Err(OptError::BadValue { flag, .. }) => assert_eq!(flag, "threads", "{line}"),
                other => panic!("{line}: expected BadValue, got {other:?}"),
            }
        }
    }

    #[test]
    fn sequential_for_sgd_by_default() {
        let t = spec("--algo sgd").unwrap();
        assert_eq!(t.execution, Execution::Sequential);
    }

    #[test]
    fn loss_names_and_cli_spellings() {
        for (flag, name) in [
            ("logistic", "logistic"),
            ("squared-hinge", "squared_hinge"),
            ("svm", "squared_hinge"),
            ("squared_hinge", "squared_hinge"),
            ("squared", "squared"),
        ] {
            assert_eq!(
                spec(&format!("--loss {flag}")).unwrap().loss,
                name,
                "{flag}"
            );
        }
        match spec("--loss hinge") {
            Err(OptError::BadValue { flag, .. }) => assert_eq!(flag, "loss"),
            other => panic!("expected BadValue, got {other:?}"),
        }
    }

    #[test]
    fn reg_and_scheme_parsing() {
        let t = spec("--reg l2 --eta 0.01 --scheme partial --bias 0.25").unwrap();
        assert_eq!(t.regularizer, Regularizer::L2 { eta: 0.01 });
        assert_eq!(
            t.importance,
            ImportanceScheme::PartiallyBiased { bias: 0.25 }
        );
        assert!(spec("--reg l3").is_err());
        assert!(spec("--scheme magic").is_err());
    }

    #[test]
    fn commit_flag_parsing() {
        assert_eq!(spec("").unwrap().commit, CommitPolicy::EpochBoundary);
        let t = spec("--sampling adaptive --commit every-64").unwrap();
        assert_eq!(t.commit, CommitPolicy::EveryK(64));
        let t = spec("--commit every-k").unwrap();
        assert_eq!(
            t.commit,
            CommitPolicy::EveryK(CommitPolicy::DEFAULT_EVERY_K)
        );
        assert!(spec("--commit never").is_err());
    }

    #[test]
    fn sampling_flag_parsing() {
        assert_eq!(spec("").unwrap().sampling, None);
        assert_eq!(
            spec("--sampling adaptive").unwrap().sampling,
            Some(SamplingStrategy::Adaptive)
        );
        assert_eq!(
            spec("--sampling static").unwrap().sampling,
            Some(SamplingStrategy::Static)
        );
        assert_eq!(
            spec("--sampling uniform").unwrap().sampling,
            Some(SamplingStrategy::Uniform)
        );
        assert!(spec("--sampling magic").is_err());
    }

    #[test]
    fn cluster_flags_parse() {
        // Off by default.
        assert_eq!(spec("").unwrap().cluster, None);
        // --cluster alone.
        let t = spec("--cluster 6").unwrap();
        let c = t.cluster.unwrap();
        assert_eq!(c.nodes, 6);
        assert_eq!(c.local_epochs, 1);
        assert_eq!(c.transport, TransportConfig::InProcess);
        assert_eq!(c.sync, SyncStrategy::Average);
        // --cluster-transport alone implies cluster mode with defaults.
        let t = spec("--cluster-transport tcp").unwrap();
        let c = t.cluster.unwrap();
        assert_eq!(c.nodes, 4);
        assert_eq!(c.transport, TransportConfig::tcp());
        // The full set.
        let t = spec("--cluster 3 --cluster-transport inproc --local-epochs 2 --sync weighted")
            .unwrap();
        let c = t.cluster.unwrap();
        assert_eq!(c.nodes, 3);
        assert_eq!(c.local_epochs, 2);
        assert_eq!(c.sync, SyncStrategy::WeightedByShard);
        // Bad values are rejected with the flag named.
        assert!(spec("--cluster-transport udp").is_err());
        assert!(spec("--cluster zero").is_err());
        assert!(spec("--cluster 2 --sync median").is_err());
        // --sync without cluster mode is rejected.
        assert!(spec("--sync weighted").is_err());
        // Cluster nodes run sequential local SGD; parallel-exec flags
        // conflict.
        assert!(spec("--cluster 2 --threads 4").is_err());
        assert!(spec("--cluster 2 --tau 8").is_err());
        // ... and so does an explicit solver the runtime would ignore.
        assert!(spec("--cluster 2 --algo svrg").is_err());
        assert!(spec("--cluster 2 --algo asgd").is_err());
        assert!(spec("--cluster 2 --algo is-sgd").is_ok());
        assert!(spec("--cluster 2").is_ok(), "default algo stays implicit");
    }

    #[test]
    fn process_transport_flags_parse() {
        use isasgd_cluster::ProcessConfig;
        // Bare process transport: defaults (fail policy, loopback bind).
        let t = spec("--cluster 3 --cluster-transport process").unwrap();
        let c = t.cluster.unwrap();
        assert_eq!(
            c.transport,
            TransportConfig::Process(ProcessConfig::default())
        );
        // The full fleet flag set.
        let t = spec(
            "--cluster 3 --cluster-transport process --on-worker-loss respawn \
             --chaos-kill 1:2 --cluster-bind 127.0.0.1:7070 --round-timeout 300 \
             --checkpoint-every 4",
        )
        .unwrap();
        match t.cluster.unwrap().transport {
            TransportConfig::Process(pc) => {
                assert_eq!(pc.on_loss, WorkerLossPolicy::Respawn);
                assert_eq!(pc.chaos_kill, Some((1, 2)));
                assert_eq!(pc.bind, "127.0.0.1:7070");
                assert_eq!(pc.round_timeout_ms, 300_000);
                assert_eq!(pc.checkpoint_every, 4);
                assert_eq!(pc.worker, None, "worker binary resolved at run time");
            }
            other => panic!("expected process transport, got {other:?}"),
        }
        // Checkpointing is off unless asked for; zero and junk are
        // rejected rather than silently disabling the flag.
        let t = spec("--cluster 2 --cluster-transport process").unwrap();
        match t.cluster.unwrap().transport {
            TransportConfig::Process(pc) => assert_eq!(pc.checkpoint_every, 0),
            other => panic!("expected process transport, got {other:?}"),
        }
        assert!(spec("--cluster 2 --cluster-transport process --checkpoint-every 0").is_err());
        assert!(spec("--cluster 2 --cluster-transport process --checkpoint-every often").is_err());
        // --cluster-bind also applies to tcp.
        let t = spec("--cluster 2 --cluster-transport tcp --cluster-bind 127.0.0.1:9000").unwrap();
        assert_eq!(
            t.cluster.unwrap().transport,
            TransportConfig::Tcp {
                bind: "127.0.0.1:9000".into(),
                encoding: WireEncoding::default(),
            }
        );
        // Bad values are rejected with the flag named.
        assert!(spec("--cluster 2 --cluster-transport process --on-worker-loss retry").is_err());
        assert!(spec("--cluster 2 --cluster-transport process --chaos-kill soonish").is_err());
        assert!(spec("--cluster 2 --cluster-transport process --chaos-kill 1").is_err());
        // Fleet flags demand the process transport — and the error
        // names the flag the offending value came from.
        for (line, flag) in [
            ("--cluster 2 --on-worker-loss respawn", "on-worker-loss"),
            (
                "--cluster 2 --cluster-transport tcp --chaos-kill 1:2",
                "chaos-kill",
            ),
            ("--cluster 2 --cluster-bind 127.0.0.1:9000", "cluster-bind"),
            (
                "--cluster 2 --cluster-transport tcp --round-timeout 5",
                "round-timeout",
            ),
            (
                "--cluster 2 --cluster-transport tcp --checkpoint-every 4",
                "checkpoint-every",
            ),
            ("--cluster 2 --checkpoint-every 4", "checkpoint-every"),
        ] {
            match spec(line) {
                Err(OptError::BadValue { flag: f, .. }) => {
                    assert_eq!(f, flag, "{line}: wrong flag attributed");
                }
                other => panic!("{line}: expected BadValue, got {other:?}"),
            }
        }
        assert!(spec("--cluster 2 --cluster-transport process --round-timeout soon").is_err());
    }

    #[test]
    fn wire_encoding_flag_parses() {
        use isasgd_cluster::ProcessConfig;
        // Socket transports accept all three spellings; default is auto.
        assert_eq!(ProcessConfig::default().encoding, WireEncoding::Auto);
        for (name, enc) in [
            ("dense", WireEncoding::Dense),
            ("delta", WireEncoding::Delta),
            ("auto", WireEncoding::Auto),
        ] {
            let t = spec(&format!(
                "--cluster 2 --cluster-transport tcp --wire-encoding {name}"
            ))
            .unwrap();
            match t.cluster.unwrap().transport {
                TransportConfig::Tcp { encoding, .. } => assert_eq!(encoding, enc, "{name}"),
                other => panic!("expected tcp transport, got {other:?}"),
            }
            let t = spec(&format!(
                "--cluster 2 --cluster-transport process --wire-encoding {name}"
            ))
            .unwrap();
            match t.cluster.unwrap().transport {
                TransportConfig::Process(pc) => assert_eq!(pc.encoding, enc, "{name}"),
                other => panic!("expected process transport, got {other:?}"),
            }
        }
        // Bad values and the channel transport are rejected with the
        // flag named.
        assert!(spec("--cluster 2 --cluster-transport tcp --wire-encoding rle").is_err());
        match spec("--cluster 2 --wire-encoding delta") {
            Err(OptError::BadValue { flag, .. }) => assert_eq!(flag, "wire-encoding"),
            other => panic!("expected BadValue, got {other:?}"),
        }
    }

    #[test]
    fn observability_flags_parse() {
        let t = spec("").unwrap();
        assert_eq!(t.log_level, LogLevel::Off);
        assert_eq!(t.trace_out, None);
        assert!(!t.telemetry_enabled(), "observability is strictly opt-in");
        for (name, level) in [
            ("off", LogLevel::Off),
            ("info", LogLevel::Info),
            ("debug", LogLevel::Debug),
        ] {
            assert_eq!(
                spec(&format!("--log-level {name}")).unwrap().log_level,
                level,
                "{name}"
            );
        }
        assert!(spec("--log-level info").unwrap().telemetry_enabled());
        let t = spec("--trace-out /tmp/t.jsonl").unwrap();
        assert_eq!(t.trace_out.as_deref(), Some("/tmp/t.jsonl"));
        assert!(t.telemetry_enabled());
        match spec("--log-level loud") {
            Err(OptError::BadValue { flag, .. }) => assert_eq!(flag, "log-level"),
            other => panic!("expected BadValue, got {other:?}"),
        }
    }

    #[test]
    fn holdout_validation() {
        assert_eq!(spec("--holdout 0.2").unwrap().holdout, 0.2);
        assert!(spec("--holdout 1.5").is_err());
        assert!(spec("--holdout -0.1").is_err());
    }
}
