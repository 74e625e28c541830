//! Metric names, units and the result line the benchmark prints last.

use crate::trace::{fold, RankTrace};
use crate::workload::Workload;
use std::collections::BTreeMap;

/// End-to-end metrics of an untraced run: (name, unit).
pub const END_TO_END: [(&str, &str); 4] = [
    ("solve_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("rel_mismatch", "ratio"),
];

/// Per-layer metrics of a traced run: (name, unit).
pub const PER_LAYER: [(&str, &str); 32] = [
    ("comm.bytes_sent", "B"),
    ("comm.messages_sent", "count"),
    ("comm.blocked_s", "s"),
    ("pfft.fft3d", "count"),
    ("pfft.exec_s", "s"),
    ("pfft.comm_s", "s"),
    ("pfft.us_per_fft3d", "us"),
    ("pfft.gradient_call_s", "s"),
    ("pfft.flops_computed", "flop"),
    ("interp.points_evaluated", "count"),
    ("interp.points_routed", "count"),
    ("interp.exec_s", "s"),
    ("interp.comm_s", "s"),
    ("interp.ns_per_point", "ns"),
    ("transport.setup_call_s", "s"),
    ("transport.state_call_s", "s"),
    ("transport.adjoint_call_s", "s"),
    ("optim.newton_iters", "count"),
    ("optim.matvecs", "count"),
    ("optim.objective_evals", "count"),
    ("optim.self_s", "s"),
    ("core.problem_new_s", "s"),
    ("core.linearize_s", "s"),
    ("core.matvec_s", "s"),
    ("core.precond_s", "s"),
    ("core.objective_s", "s"),
    ("core.post_s", "s"),
    ("core.s_per_matvec", "s"),
    ("setup.plan_s", "s"),
    ("setup.images_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Median of `v` (mean of the middle two for an even count).
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The last line of a run: one JSON object with every metric of `table`.
/// A metric missing from `values`, or not finite, makes the run incorrect.
pub fn result_line(
    table: &[(&str, &str)],
    values: &BTreeMap<&str, f64>,
    mut correct: bool,
    attempted: usize,
    failed: usize,
) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(f64::NAN);
            correct &= v.is_finite();
            let v = if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// Folds the ranks' raw numbers into the per-layer metrics. Work counts are
/// summed over ranks, except counts of collective operations that every rank
/// takes part in (3D FFTs, Newton iterations, matvecs), which are per rank;
/// times are the maximum over ranks, the critical path.
pub fn layer_metrics(w: &Workload, ranks: &[RankTrace]) -> BTreeMap<&'static str, f64> {
    let sum = |f: &dyn Fn(&RankTrace) -> f64| ranks.iter().map(f).sum::<f64>();
    let max = |f: &dyn Fn(&RankTrace) -> f64| ranks.iter().map(f).fold(f64::MIN, f64::max);
    let phase = |r: &RankTrace, k: &str| r.phases.get(k).copied().unwrap_or(0.0);
    let count = |r: &RankTrace, k: &str| r.counters.get(k).copied().unwrap_or(0) as f64;
    let folded: Vec<_> = ranks.iter().map(|r| fold(&r.spans)).collect();
    let span_max = |name: &str, self_time: bool| {
        folded
            .iter()
            .map(|f| {
                f.get(name)
                    .map_or(0.0, |t| if self_time { t.1 } else { t.0 })
            })
            .fold(0.0, f64::max)
    };
    let r0 = &ranks[0];
    let n = w.grid.iter().product::<usize>() as f64;
    let fft3d = max(&|r| count(r, "fft_3d"));
    let points = sum(&|r| count(r, "interp_points_evaluated"));
    let matvecs = r0.traced.matvecs as f64;
    // Coverage, worst rank: the layer spans' summed self time is the root
    // span's duration minus its own self time. Both are raw wall time, so
    // steal cannot push the ratio past 1.
    let coverage = folded
        .iter()
        .map(|f| f.get("solve").map_or(0.0, |t| (t.0 - t.1) / t.0))
        .fold(f64::MAX, f64::min);

    let mut m = BTreeMap::new();
    m.insert("comm.bytes_sent", sum(&|r| r.comm.bytes_sent as f64));
    m.insert("comm.messages_sent", sum(&|r| r.comm.messages_sent as f64));
    m.insert("comm.blocked_s", max(&|r| r.comm.blocked_seconds));
    m.insert("pfft.fft3d", fft3d);
    m.insert("pfft.exec_s", max(&|r| phase(r, "fft_exec")));
    m.insert("pfft.comm_s", max(&|r| phase(r, "fft_comm")));
    m.insert(
        "pfft.us_per_fft3d",
        1e6 * max(&|r| phase(r, "fft_exec") + phase(r, "fft_comm")) / fft3d,
    );
    m.insert("pfft.flops_computed", fft3d * 2.5 * n * n.log2());
    m.insert("interp.points_evaluated", points);
    m.insert(
        "interp.points_routed",
        sum(&|r| count(r, "interp_points_routed")),
    );
    m.insert("interp.exec_s", max(&|r| phase(r, "interp_exec")));
    m.insert("interp.comm_s", max(&|r| phase(r, "interp_comm")));
    m.insert(
        "interp.ns_per_point",
        1e9 * sum(&|r| phase(r, "interp_exec")) / points,
    );
    for (k, v) in &r0.replay {
        m.insert(k, *v);
    }
    m.insert("optim.newton_iters", r0.traced.newton_iters as f64);
    m.insert("optim.matvecs", matvecs);
    m.insert("optim.objective_evals", r0.objective_evals as f64);
    m.insert("optim.self_s", span_max("optim.newton", true));
    for (metric, span) in [
        ("core.problem_new_s", "core.problem_new"),
        ("core.linearize_s", "core.linearize"),
        ("core.matvec_s", "core.matvec"),
        ("core.precond_s", "core.precond"),
        ("core.objective_s", "core.objective"),
        ("core.post_s", "core.post"),
    ] {
        m.insert(metric, span_max(span, false));
    }
    m.insert(
        "core.s_per_matvec",
        span_max("core.matvec", false) / matvecs,
    );
    m.insert("setup.plan_s", r0.setup.plan_s);
    m.insert("setup.images_s", r0.setup.images_s);
    m.insert("trace.coverage", coverage);
    m.insert(
        "trace.overhead_frac",
        r0.traced_solve_s / r0.untraced_solve_s - 1.0,
    );
    m
}
