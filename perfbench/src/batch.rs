//! `batch-12k`: Fig. 12's layout (8 racks × 1573 = 12,584 nodes), Google
//! jobs at 4000 jobs/h with the offered load rescaled to 0.95 and a 5 s
//! cycle, run in-process through `Engine::run_observed` and a timed
//! `ThreeSigmaScheduler`.
//!
//! Each run simulates several short traces drawn from the seed and pools
//! them. At this layout the per-trace wall time varies little from seed to
//! seed, and most scheduler time goes to compiling the MILP, so the
//! workload exposes the distribution, option and compile layers and the
//! engine's per-node costs.

use std::time::Instant;

use threesigma::driver::{run, Experiment, SchedulerKind};
use threesigma::{EstimateSource, OverestimateMode, SchedConfig, ThreeSigmaScheduler};
use threesigma_cluster::{ClusterSpec, Engine, Metrics};
use threesigma_milp::{solver_for_tier, Model, SolverConfig};
use threesigma_workload::{generate, ArrivalTarget, Environment, Trace, WorkloadConfig};

use crate::gate::{forwards_partition_limit, lost_jobs, metrics_identical, Gate};
use crate::layers::{predictor_layer, sched_layers};
use crate::stats::{median, peak_rss_mb, Report, Samples};
use crate::wrap::{CycleClock, CycleRec, Timed, Tracer};
use crate::Outcome;

/// Racks of the Fig. 12 layout.
pub const RACKS: usize = 8;
/// Nodes per rack: 8 × 1573 = 12,584, the trace's 12,583 machines rounded.
pub const NODES_PER_RACK: u32 = 1573;
const JOBS_PER_HOUR: f64 = 4000.0;
const LOAD: f64 = 0.95;
const CYCLE_S: f64 = 5.0;
/// Simulated hours of arrivals per trace.
pub const TRACE_HOURS: f64 = 0.5;
/// Simulated seconds kept after the last arrival, so every trace covers
/// the same window whatever its longest job.
const DRAIN_S: f64 = 900.0;
const PRETRAIN_JOBS: usize = 6000;
/// Wall seconds one trace takes on a 2-core x86-64 machine, used to turn
/// `--seconds` into a fixed number of traces.
const SECONDS_PER_TRACE: f64 = 1.0;
/// Set-ups timed per trace; the run reports the median over all of them.
const SETUP_REPS: usize = 3;
/// Captured MILPs re-solved cache-free in a traced run.
const RESOLVE_MODELS: usize = 300;

/// Number of traces a run of `seconds` simulates (at least two).
pub fn traces_for(seconds: f64) -> usize {
    ((seconds / SECONDS_PER_TRACE).round() as usize).max(2)
}

/// The experiment every trace runs under.
pub fn experiment() -> Experiment {
    let mut exp = Experiment {
        cluster: ClusterSpec::uniform(RACKS, NODES_PER_RACK),
        ..Experiment::paper_sc256().with_cycle(CYCLE_S)
    };
    exp.engine.drain = Some(DRAIN_S);
    exp
}

/// Trace `index` of a run seeded with `seed`, with gang sizes rescaled
/// so the offered load is exactly [`LOAD`] (as Fig. 12 does).
pub fn make_trace(seed: u64, index: usize, hours: f64) -> Trace {
    let nodes = RACKS as u32 * NODES_PER_RACK;
    let duration = hours * 3600.0;
    let config = WorkloadConfig {
        cluster_nodes: nodes,
        num_partitions: RACKS,
        duration,
        arrival: ArrivalTarget::JobsPerHour(JOBS_PER_HOUR),
        pretrain_jobs: PRETRAIN_JOBS,
        ..WorkloadConfig::e2e(Environment::Google, seed.wrapping_mul(1000) + index as u64)
    };
    let mut trace = generate(&config);
    let work: f64 = trace.jobs.iter().map(|j| j.tasks as f64 * j.duration).sum();
    let factor = LOAD * nodes as f64 * duration / work;
    for j in &mut trace.jobs {
        j.tasks = ((j.tasks as f64 * factor).round() as u32).clamp(1, nodes);
    }
    trace
}

/// The scheduler `driver::run` builds for `SchedulerKind::ThreeSigma`.
fn scheduler(exp: &Experiment, record_models: bool) -> ThreeSigmaScheduler {
    let config = SchedConfig {
        oe_mode: OverestimateMode::Adaptive,
        cycle_hint: exp.engine.cycle_interval,
        record_models,
        ..exp.sched.clone()
    };
    ThreeSigmaScheduler::new(config, EstimateSource::Predicted, exp.predictor.clone())
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs the workload: `traces` traces of `hours` simulated hours each.
pub fn run_batch(seed: u64, traces: usize, hours: f64, trace: bool) -> Outcome {
    let exp = experiment();
    let mut out = Outcome::default();
    let Outcome {
        gate,
        report,
        detail,
        tracer,
    } = &mut out;

    let mut setup = Vec::new();
    let mut per_trace = Vec::new();
    let mut cycles: Vec<CycleRec> = Vec::new();
    let mut engine_us = Samples::new();
    let (mut run_wall, mut sched_wall) = (0.0, 0.0);
    let mut pooled = Metrics::default();
    let mut stats = Vec::new();
    let mut first_trace = None;

    for i in 0..traces {
        let mut built = None;
        for _ in 0..SETUP_REPS {
            let t0 = Instant::now();
            let tr = make_trace(seed, i, hours);
            let mut sched = scheduler(&exp, false);
            sched.pretrain(&tr.pretrain);
            setup.push(t0.elapsed().as_secs_f64());
            built = Some((tr, sched));
        }
        let Some((tr, sched)) = built else { continue };

        let mut timed = Timed::new(sched);
        let mut clock = CycleClock::default();
        let engine = Engine::new(exp.cluster.clone(), exp.engine.clone());
        let start = Instant::now();
        let result = engine.run_observed(&tr.jobs, &mut timed, &mut clock);
        let wall = start.elapsed();
        let Ok(m) = result else {
            gate.check(&format!("trace {i}: simulation error {result:?}"), false);
            continue;
        };
        gate.count(
            "lost jobs",
            tr.jobs.len() as u64,
            lost_jobs(&m, tr.jobs.len()),
        );
        let s = timed.inner.stats();
        gate.check("milp.timeouts == 0", s.solver_timeouts == 0);
        gate.check(
            "one schedule call and one observed cycle per engine cycle",
            timed.cycles.len() == m.cycles && clock.ends.len() == m.cycles,
        );
        let trace_cycles: Vec<f64> = timed.cycles.iter().map(|c| ms(c.took)).collect();
        per_trace.push((wall.as_secs_f64() / (m.end_time / 3600.0), trace_cycles));
        run_wall += wall.as_secs_f64();

        // Engine self time per cycle: the gap between the ends of two
        // consecutive cycles minus the time inside `schedule`.
        let mut prev_end = start;
        for (c, (rec, &end)) in timed.cycles.iter().zip(&clock.ends).enumerate() {
            sched_wall += rec.took.as_secs_f64();
            let own = end
                .saturating_duration_since(prev_end)
                .saturating_sub(rec.took);
            engine_us.push(own.as_secs_f64() * 1e6);
            if trace {
                let group = ((i as u64) << 32) | c as u64;
                let parent = tracer.span("engine.cycle", prev_end, end, None, group);
                tracer.schedule_span(rec, Some(parent), group);
            }
            prev_end = end;
        }
        cycles.extend_from_slice(&timed.cycles);
        pooled.outcomes.extend(m.outcomes.iter().cloned());
        stats.push(s);
        if i == 0 {
            first_trace = Some((tr, m));
        }
    }

    // The wrapper must not change a decision or hide a trait method.
    if let Some((tr, m)) = &first_trace {
        let reference = run(SchedulerKind::ThreeSigma, tr, &exp);
        gate.check(
            "timed scheduler matches driver::run",
            reference.is_ok_and(|r| metrics_identical(&r.metrics, m)),
        );
    }
    let mut wrapped = Timed::new(scheduler(&exp, false));
    let mut reference = scheduler(&exp, false);
    gate.check(
        "wrapper forwards max_partitions",
        forwards_partition_limit(&mut wrapped, &mut reference),
    );

    let rss = peak_rss_mb("self").unwrap_or(0.0);
    gate.check("peak RSS readable", rss > 0.0);
    // Other tenants of a shared machine slow it by up to 2x for seconds at
    // a time. The end-to-end figures come from the faster half of the
    // run's traces, which a slow spell is least likely to have touched.
    per_trace.sort_by(|a, b| a.0.total_cmp(&b.0));
    let faster = &per_trace[..per_trace.len().div_ceil(2)];
    let mut fast_cycles = Samples::new();
    for v in faster.iter().flat_map(|(_, c)| c) {
        fast_cycles.push(*v);
    }
    let p50 = fast_cycles.quantile(0.5);
    let p99 = fast_cycles.quantile(0.99);
    gate.check(
        "enough cycles for cycle p50 and p99",
        p50.is_some() && p99.is_some(),
    );
    let walls: Vec<f64> = faster.iter().map(|(w, _)| *w).collect();
    report.put("setup_s", median(&setup), "s", setup.len());
    report.put("wall_s_per_sim_h", median(&walls), "s/h", walls.len());
    report.put(
        "latency_p50_ms",
        p50.unwrap_or(0.0),
        "ms",
        fast_cycles.len(),
    );
    report.put(
        "latency_p99_ms",
        p99.unwrap_or(0.0),
        "ms",
        fast_cycles.len(),
    );
    report.put("peak_rss_mb", rss, "MB", 1);

    let mut all_cycles = Samples::new();
    for (_, c) in &per_trace {
        c.iter().for_each(|v| all_cycles.push(*v));
    }
    let n = all_cycles.len();
    detail.put("cycle_p50_ms", all_cycles.quantile_or_max(0.5), "ms", n);
    detail.put("cycle_p99_ms", all_cycles.quantile_or_max(0.99), "ms", n);
    let jobs = pooled.outcomes.len();
    detail.put("slo_miss_pct", pooled.slo_miss_pct(), "%", jobs);
    detail.put("goodput_mh", pooled.goodput_hours(), "machine-h", jobs);
    let be_latency = pooled.mean_be_latency().unwrap_or(0.0);
    detail.put("be_latency_s", be_latency, "s", jobs);
    detail.put("traces", traces as f64, "count", traces);

    if trace {
        sched_layers(report, &cycles, &stats);
        report.put("engine.self_ms", (run_wall - sched_wall) * 1e3, "ms", n);
        let p99 = engine_us.quantile_or_max(0.99);
        report.put("engine.self_us_p99", p99, "us", engine_us.len());
        if let Some((tr, _)) = &first_trace {
            predictor_layer(report, exp.predictor.clone(), &tr.pretrain, &tr.jobs);
            resolve_layer(&exp, tr, gate, report);
            overhead(&exp, tr, report);
        }
        crate::serve::absent_serve_layers(report);
    }
    out
}

/// Captures the trace's MILPs with `record_models` and re-solves them
/// cache-free through the tier-2 `Solver`.
fn resolve_layer(exp: &Experiment, tr: &Trace, gate: &mut Gate, report: &mut Report) {
    let mut sched = scheduler(exp, true);
    sched.pretrain(&tr.pretrain);
    let engine = Engine::new(exp.cluster.clone(), exp.engine.clone());
    gate.check(
        "model capture run",
        engine.run(&tr.jobs, &mut sched).is_ok(),
    );
    let config = SolverConfig {
        node_limit: exp.sched.solver_nodes,
        time_limit: None,
        gap_tolerance: 1e-4,
        ..SolverConfig::default()
    };
    let mut solver = solver_for_tier(2, config);
    let mut total = 0.0;
    let mut solved = 0;
    for text in sched.models().iter().take(RESOLVE_MODELS) {
        let Ok(model) = Model::from_text(text) else {
            gate.check("captured model parses", false);
            continue;
        };
        let t = Instant::now();
        std::hint::black_box(solver.solve(&model));
        total += t.elapsed().as_secs_f64() * 1e3;
        solved += 1;
    }
    report.put("milp.resolve_ms", total, "ms", solved);
}

/// Runs the first trace once without and once with the cycle observer
/// and span recording, and reports the difference.
fn overhead(exp: &Experiment, tr: &Trace, report: &mut Report) {
    let engine = Engine::new(exp.cluster.clone(), exp.engine.clone());
    let mut plain = Timed::new(scheduler(exp, false));
    plain.inner.pretrain(&tr.pretrain);
    let t = Instant::now();
    let _ = engine.run(&tr.jobs, &mut plain);
    let untraced = t.elapsed().as_secs_f64();

    let mut traced = Timed::new(scheduler(exp, false));
    traced.inner.pretrain(&tr.pretrain);
    let mut clock = CycleClock::default();
    let mut tracer = Tracer::new();
    let t = Instant::now();
    let _ = engine.run_observed(&tr.jobs, &mut traced, &mut clock);
    let mut prev = t;
    for (rec, &end) in traced.cycles.iter().zip(&clock.ends) {
        let parent = tracer.span("engine.cycle", prev, end, None, 0);
        tracer.schedule_span(rec, Some(parent), 0);
        prev = end;
    }
    let with_trace = t.elapsed().as_secs_f64();
    report.put(
        "trace.overhead_pct",
        100.0 * (with_trace - untraced) / untraced,
        "%",
        1,
    );
}
