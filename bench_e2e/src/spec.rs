//! The benchmark's metric names, units and bounds — the same tables
//! `BENCHMARK.json` publishes (a test keeps the two in step).

/// One end-to-end metric: something a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name, unique across both tables.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// One per-layer metric; reported by the traced run only, no bound.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, `<crate>.<what>`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

/// End-to-end metrics, each reported per workload as the median over
/// the run's datasets of each dataset's median over its reps
/// (`peak_rss_mb`: the smallest per-rep peak).
///
/// Bounds are the allowed worsening, and are as wide as the reference
/// box makes them: it is a 2-vCPU guest whose speed drifts by ±10 % over
/// tens of seconds, so timed medians of a 15 s run spread by 5–15 %
/// between runs whatever the estimator (README, "Steadiness"). A bound
/// narrower than that spread could not tell a regression from the host.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("time_to_target_s", "s", false, 0.25),
    e2e("epochs_to_target", "epochs", false, 0.20),
    e2e("rows_per_s", "rows/s", true, 0.25),
    e2e("wall_s", "s", false, 0.25),
    e2e("setup_s", "s", false, 0.25),
    e2e("peak_rss_mb", "MiB", false, 0.05),
];

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: higher,
    }
}

/// Per-layer metrics, named by crate. A metric that does not apply to a
/// workload (a cluster counter on a single-process run, a commit cost
/// without an adaptive sampler) is reported as 0.
pub const PER_LAYER: &[PerLayer] = &[
    layer("sparse.margin_ns_per_nnz", "ns", false),
    layer("sparse.axpy_ns_per_nnz", "ns", false),
    layer("losses.grad_scale_ns", "ns", false),
    layer("losses.apply_update_ns_per_nnz", "ns", false),
    layer("losses.importance_weights_s", "s", false),
    layer("losses.eval_s", "s", false),
    layer("sampling.build_s", "s", false),
    layer("sampling.draw_ns", "ns", false),
    layer("sampling.observe_ns", "ns", false),
    layer("sampling.commit_us", "us", false),
    layer("sampling.commits", "count", false),
    layer("sampling.commit_share", "ratio", false),
    layer("balance.decide_s", "s", false),
    layer("balance.phi_imbalance", "ratio", false),
    layer("core.build_plan_s", "s", false),
    layer("core.step_ns", "ns", false),
    layer("core.kernel_sum_ns", "ns", false),
    layer("core.engine_overhead_share", "ratio", false),
    layer("core.shared_model_overhead_ns", "ns", false),
    layer("core.thread_scaling", "ratio", true),
    layer("core.eval_share", "ratio", false),
    layer("cluster.wire.bytes_per_round", "bytes", false),
    layer("cluster.wire.model_bytes_per_round", "bytes", false),
    layer("cluster.wire.feedback_bytes_per_round", "bytes", false),
    layer("cluster.wire.checkpoint_bytes_per_round", "bytes", false),
    layer("cluster.wire.admission_bytes", "bytes", false),
    layer("cluster.wire.delta_frame_share", "ratio", true),
    layer("cluster.wire.round_encode_us", "us", false),
    layer("cluster.wire.round_decode_us", "us", false),
    layer("cluster.transport.roundtrip_us", "us", false),
    layer("cluster.transport.wire_share", "ratio", false),
    layer("cluster.coordinator.round_ms_p50", "ms", false),
    layer("cluster.coordinator.round_ms_p90", "ms", false),
    layer("cluster.coordinator.average_us", "us", false),
    layer("cluster.coordinator.feedback_rows", "count", false),
    layer("cluster.coordinator.barrier_wait_share", "ratio", false),
    layer("cluster.coordinator.compute_share", "ratio", true),
    layer("cluster.fleet.spawn_admit_s", "s", false),
    layer("cluster.fleet.checkpoint_bytes", "bytes", false),
    layer("cluster.fleet.replay_log_bytes", "bytes", false),
    layer("cluster.fleet.respawns", "count", false),
    layer("cluster.fleet.recovery_ms", "ms", false),
    layer("trace.rows_per_s_traced", "rows/s", true),
    layer("trace.rows_per_s_untraced", "rows/s", true),
    layer("trace.overhead_share", "ratio", false),
    layer("trace.spans", "count", false),
];
