//! Per-layer metrics shared by the workloads' traced runs: the scheduler
//! stage split and counters, the solver counters, and predictor timings.

use std::time::Instant;

use threesigma::SchedStats;
use threesigma_cluster::{Attributes, JobSpec};
use threesigma_predict::{AttributeSource, Predictor, PredictorConfig};

use crate::stats::{Report, Samples};
use crate::wrap::CycleRec;

/// A job's attributes as the predictor reads them.
struct Attrs<'a>(&'a Attributes);

impl AttributeSource for Attrs<'_> {
    fn get_attr(&self, key: &str) -> Option<&str> {
        self.0.get(key)
    }
}

/// Reports the `sched.*`, `milp.*` (bar `milp.resolve_ms`), `engine.cycles`,
/// `engine.queue_depth_p99` and `fig12.*` metrics from the recorded
/// `schedule` calls and the schedulers' counters.
pub fn sched_layers(report: &mut Report, cycles: &[CycleRec], stats: &[SchedStats]) {
    let n = cycles.len();
    let (mut cycle_ms, mut queue) = (Samples::new(), Samples::new());
    let (mut solve_us, mut compile_us) = (Samples::new(), Samples::new());
    let (mut vars, mut rows) = (Samples::new(), Samples::new());
    let (mut generate, mut compile, mut solve, mut extract) = (0.0, 0.0, 0.0, 0.0);
    for c in cycles {
        cycle_ms.push(c.took.as_secs_f64() * 1e3);
        queue.push(c.pending as f64);
        if let Some(t) = c.stages {
            solve_us.push(t.solver.as_secs_f64() * 1e6);
            compile_us.push(t.compile.as_secs_f64() * 1e6);
            generate += t.generate.as_secs_f64() * 1e3;
            compile += t.compile.as_secs_f64() * 1e3;
            solve += t.solver.as_secs_f64() * 1e3;
            extract += t.extract.as_secs_f64() * 1e3;
            vars.push(t.milp_vars as f64);
            rows.push(t.milp_rows as f64);
        }
    }
    let sum = |f: fn(&SchedStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    let tier2 = sum(|s| s.tier2_cycles);
    let enumerated = sum(|s| s.options_enumerated);
    let lookups = sum(|s| s.cache.lookups);
    report.put("sched.solve_ms", solve, "ms", n);
    report.put(
        "sched.solve_us_p99",
        solve_us.quantile_or_max(0.99),
        "us",
        n,
    );
    report.put("milp.nodes", sum(|s| s.milp_nodes), "count", n);
    report.put("milp.pivots", sum(|s| s.milp_pivots), "count", n);
    report.put(
        "milp.reuse_ratio",
        sum(|s| s.incremental_reuses) / tier2.max(1.0),
        "ratio",
        tier2 as usize,
    );
    report.put("milp.timeouts", sum(|s| s.solver_timeouts), "count", n);
    report.put("sched.compile_ms", compile, "ms", n);
    report.put(
        "sched.compile_us_p99",
        compile_us.quantile_or_max(0.99),
        "us",
        n,
    );
    report.put("sched.generate_ms", generate, "ms", n);
    report.put("sched.extract_ms", extract, "ms", n);
    report.put("sched.milp_vars_mean", vars.mean(), "count", vars.len());
    report.put("sched.milp_rows_mean", rows.mean(), "count", rows.len());
    report.put("sched.options_enumerated", enumerated, "count", n);
    report.put(
        "sched.options_placed_ratio",
        sum(|s| s.options_placed) / enumerated.max(1.0),
        "ratio",
        enumerated as usize,
    );
    report.put(
        "sched.cache_hit_ratio",
        sum(|s| s.cache.hits) / lookups.max(1.0),
        "ratio",
        lookups as usize,
    );
    report.put("engine.cycles", n as f64, "count", n);
    report.put(
        "engine.queue_depth_p99",
        queue.quantile_or_max(0.99),
        "count",
        n,
    );
    report.put(
        "fig12.cycle_ms_p95",
        cycle_ms.quantile_or_max(0.95),
        "ms",
        n,
    );
    report.put("fig12.cycle_ms_max", cycle_ms.max(), "ms", n);
    report.put(
        "fig12.solver_ms_p95",
        solve_us.quantile_or_max(0.95) / 1e3,
        "ms",
        n,
    );
    report.put("fig12.solver_ms_max", solve_us.max() / 1e3, "ms", n);
}

/// Times `Predictor::observe` over `history`, then, for each job of
/// `stream`, `Predictor::predict` at its submission and `observe` of its
/// runtime at its completion.
pub fn predictor_layer(
    report: &mut Report,
    config: PredictorConfig,
    history: &[JobSpec],
    stream: &[JobSpec],
) {
    let mut p = Predictor::new(config);
    let (mut lookup, mut observe) = (Samples::new(), Samples::new());
    let mut timed_observe = |p: &mut Predictor, job: &JobSpec| {
        let t = Instant::now();
        p.observe(&Attrs(&job.attributes), job.duration);
        observe.push(t.elapsed().as_secs_f64() * 1e6);
    };
    for job in history {
        timed_observe(&mut p, job);
    }
    for job in stream {
        let t = Instant::now();
        std::hint::black_box(p.predict(&Attrs(&job.attributes)));
        lookup.push(t.elapsed().as_secs_f64() * 1e6);
        timed_observe(&mut p, job);
    }
    report.put(
        "predict.lookup_us_p50",
        lookup.quantile_or_max(0.5),
        "us",
        lookup.len(),
    );
    report.put("predict.lookup_us_max", lookup.max(), "us", lookup.len());
    report.put(
        "predict.observe_us_p50",
        observe.quantile_or_max(0.5),
        "us",
        observe.len(),
    );
    report.put(
        "predict.tracked_values",
        p.tracked_values() as f64,
        "count",
        1,
    );
}
