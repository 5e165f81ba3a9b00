//! Per-layer metrics of a workload, from its traced campaigns and the
//! passes the traced run makes around them. Names are those of the
//! `per_layer` list in `BENCHMARK.json`.

use swifi_campaign::SessionStats;

use crate::stats::{busy_frac, percentile, ratio, tail_s, PhaseLoad};
use crate::traced::{RunSample, TracedProgram};

/// What the traced run measured besides the traced campaigns.
#[derive(Debug, Clone, Copy, Default)]
pub struct Around {
    /// Inputs per fault, summed over the workload's programs.
    pub inputs: usize,
    /// Traced-loop wall-clock, summed over programs, best round.
    pub traced_wall_s: f64,
    /// Untraced default-pass wall-clock, summed over programs, best round.
    pub untraced_wall_s: f64,
    /// Untraced wall-clock with one layer off: blocks, fork, prune.
    pub without_wall_s: [f64; 3],
    /// Service timings, summed over the programs' submissions.
    pub shard_s: f64,
    /// See [`crate::service::ServiceRun::merge_s`].
    pub merge_s: f64,
    /// See [`crate::service::ServiceRun::replay_s`].
    pub replay_s: f64,
    /// See [`crate::service::ServiceRun::checkpoint_bytes`].
    pub checkpoint_bytes: u64,
}

/// Summed duration of the samples matching `keep`, in microseconds.
fn time_where(samples: &[RunSample], keep: impl Fn(&RunSample) -> bool) -> f64 {
    // `Sum` for floats starts at -0.0; an empty set should read 0.
    samples
        .iter()
        .filter(|s| keep(s))
        .fold(0.0, |acc, s| acc + s.dur_us)
}

/// Every per-layer metric of one workload, by name.
pub fn layer_metrics(programs: &[TracedProgram], around: &Around) -> Vec<(&'static str, f64)> {
    let mut st = SessionStats::default();
    let mut samples = Vec::new();
    let mut phases: Vec<PhaseLoad> = Vec::new();
    let (mut compile_s, mut plans_s, mut test_case_s, mut boot_s) = (0.0, 0.0, 0.0, 0.0);
    for p in programs {
        st.merge(&p.stats);
        samples.extend_from_slice(&p.samples);
        phases.extend(p.phases.iter().cloned());
        compile_s += p.setup.compile_s;
        plans_s += p.setup.fault_plans_s;
        test_case_s += p.setup.test_case_s;
        boot_s += p.boot_s;
    }
    let retired = st.retired_instrs as f64;
    let run_time = time_where(&samples, |_| true);
    let durations: Vec<f64> = samples.iter().map(|s| s.dur_us).collect();
    let nonhang: Vec<f64> = samples
        .iter()
        .filter(|s| !s.hang)
        .map(|s| s.dur_us)
        .collect();
    let hang_instrs: u64 = samples.iter().filter(|s| s.hang).map(|s| s.retired).sum();
    let p50 = percentile(&durations, 50.0);
    let p99 = percentile(&durations, 99.0);
    let nonhang_p50 = percentile(&nonhang, 50.0);
    let [no_blocks, no_fork, no_prune] = around.without_wall_s;
    vec![
        ("lang.compile_s", compile_s),
        ("core.fault_plans_s", plans_s),
        ("programs.test_case_s", test_case_s),
        ("session.boot_s", boot_s),
        ("vm.instrs_executed", retired),
        ("vm.hang_instr_frac", ratio(hang_instrs as f64, retired)),
        ("vm.slow_fetch_frac", ratio(st.slow_fetches as f64, retired)),
        (
            "vm.minstr_per_s",
            ratio(retired, time_where(&samples, |s| s.retired > 0)),
        ),
        (
            "vm.block_instr_frac",
            ratio(st.block_instrs as f64, retired),
        ),
        ("vm.block_fallbacks", st.block_fallbacks as f64),
        ("session.run_us.p50", p50.value),
        ("session.run_us.p99", p99.value),
        ("session.run_us.samples", p50.samples as f64),
        ("session.run_us.p99_beyond", p99.beyond as f64),
        (
            "session.hang_time_frac",
            ratio(time_where(&samples, |s| s.hang), run_time),
        ),
        ("session.nonhang_run_us.p50", nonhang_p50.value),
        ("session.nonhang_run_us.samples", nonhang_p50.samples as f64),
        ("session.injector_rebuilds", st.injector_rebuilds as f64),
        ("prefix.snapshots_built", st.prefix_snapshots_built as f64),
        ("prefix.fork_hits", st.prefix_fork_hits as f64),
        (
            "prefix.fork_hits_per_snapshot",
            ratio(st.prefix_fork_hits as f64, st.prefix_snapshots_built as f64),
        ),
        (
            "prefix.instrs_skipped_frac",
            ratio(
                st.prefix_instrs_skipped as f64,
                st.prefix_instrs_skipped as f64 + retired,
            ),
        ),
        (
            "prefix.capture_time_frac",
            ratio(time_where(&samples, |s| s.captured), run_time),
        ),
        (
            "plan.trace_time_frac",
            ratio(time_where(&samples, |s| s.traced), run_time),
        ),
        (
            "plan.answered_frac",
            ratio(
                (st.prune_dormant_skips + st.prune_collapse_hits) as f64,
                st.injected_runs as f64,
            ),
        ),
        (
            "plan.trace_runs_per_input",
            ratio(st.prune_trace_runs as f64, around.inputs as f64),
        ),
        ("plan.collapse_hits", st.prune_collapse_hits as f64),
        (
            "plan.collapse_classes_logged",
            st.prune_collapse_logged as f64,
        ),
        ("pool.busy_frac", busy_frac(&phases)),
        ("pool.tail_s", tail_s(&phases)),
        ("server.shard_s", around.shard_s),
        ("shard.merge_s", around.merge_s),
        ("engine.replay_s", around.replay_s),
        ("engine.checkpoint_bytes", around.checkpoint_bytes as f64),
        // Default runs/s over runs/s with the layer off is the inverse
        // ratio of the two wall-clocks (same runs).
        ("ablation.blocks", ratio(no_blocks, around.untraced_wall_s)),
        ("ablation.fork", ratio(no_fork, around.untraced_wall_s)),
        ("ablation.prune", ratio(no_prune, around.untraced_wall_s)),
        (
            "trace.overhead_frac",
            ratio(around.traced_wall_s, around.untraced_wall_s) - 1.0,
        ),
    ]
}
