//! The repository benchmark: end-to-end metrics from timed runs and
//! per-layer metrics from a separate traced run, measured by timing calls
//! into the layers' public functions from outside the program.
//!
//! `perfbench/run.py` builds this package and `threesigma`, then runs
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//! The last line of standard output is the result object; the line
//! before it carries every metric with its sample count, the workload's
//! own metrics (ack latency, recovery time, SLO miss rate, ...), the
//! correctness checks and the provenance stamp.

pub mod batch;
pub mod gate;
pub mod layers;
pub mod serve;
pub mod stats;
pub mod wrap;

use std::path::PathBuf;

use gate::Gate;
use stats::{json_str, Report};
use wrap::Tracer;

/// The workloads, as named in `BENCHMARK.json`.
pub const WORKLOADS: [&str; 2] = ["batch-12k", "serve-wal"];

/// End-to-end metrics reported by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s_per_sim_h", "s/h"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Layers whose self time the traced run reports as `self_ms.<layer>`.
pub const SELF_TIME_LAYERS: [&str; 6] = ["engine", "sched", "milp", "serve", "wal", "wire"];

/// Per-layer metrics reported by every traced run: `(name, unit)`. A layer
/// that a workload does not run reports 0 from 0 samples.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("sched.solve_ms", "ms"),
    ("sched.solve_us_p99", "us"),
    ("milp.nodes", "count"),
    ("milp.pivots", "count"),
    ("milp.reuse_ratio", "ratio"),
    ("milp.resolve_ms", "ms"),
    ("milp.timeouts", "count"),
    ("sched.compile_ms", "ms"),
    ("sched.compile_us_p99", "us"),
    ("sched.generate_ms", "ms"),
    ("sched.extract_ms", "ms"),
    ("sched.milp_vars_mean", "count"),
    ("sched.milp_rows_mean", "count"),
    ("sched.options_enumerated", "count"),
    ("sched.options_placed_ratio", "ratio"),
    ("sched.cache_hit_ratio", "ratio"),
    ("engine.self_ms", "ms"),
    ("engine.self_us_p99", "us"),
    ("engine.cycles", "count"),
    ("engine.queue_depth_p99", "count"),
    ("predict.lookup_us_p50", "us"),
    ("predict.lookup_us_max", "us"),
    ("predict.observe_us_p50", "us"),
    ("predict.tracked_values", "count"),
    ("wal.append_us_p50", "us"),
    ("wal.append_us_p99", "us"),
    ("wal.records_per_sync", "ratio"),
    ("wal.bytes_per_record", "bytes"),
    ("wal.decode_ms", "ms"),
    ("wal.replay_ms", "ms"),
    ("wal.replayed_records", "count"),
    ("serve.admit_us_p50", "us"),
    ("serve.pump_us_p50", "us"),
    ("serve.pump_us_p99", "us"),
    ("serve.submit_us_p50", "us"),
    ("serve.live_jobs_peak", "count"),
    ("wire.gen_late_ms_p99", "ms"),
    ("fig12.cycle_ms_p95", "ms"),
    ("fig12.cycle_ms_max", "ms"),
    ("fig12.solver_ms_p95", "ms"),
    ("fig12.solver_ms_max", "ms"),
    ("trace.overhead_pct", "%"),
    ("self_ms.engine", "ms"),
    ("self_ms.sched", "ms"),
    ("self_ms.milp", "ms"),
    ("self_ms.serve", "ms"),
    ("self_ms.wal", "ms"),
    ("self_ms.wire", "ms"),
];

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The correctness gate.
    pub gate: Gate,
    /// Metrics listed in `BENCHMARK.json` (plus extras the run found).
    pub report: Report,
    /// The workload's own metrics, printed beside the result.
    pub detail: Report,
    /// Spans of a traced run.
    pub tracer: Tracer,
}

/// Command-line arguments of the benchmark binary.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
    /// The `threesigma` binary the serve workload starts.
    pub server: PathBuf,
    /// Directory for data dirs and span files.
    pub work: PathBuf,
    /// Provenance stamp (a JSON object) to print with the result.
    pub stamp: String,
}

impl Args {
    /// Parses `--key value` pairs.
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 0,
            seconds: 0.0,
            trace: false,
            server: PathBuf::from(".bench_build/release/threesigma"),
            work: PathBuf::from(".bench_work"),
            stamp: "{}".into(),
        };
        let mut it = argv.into_iter();
        while let Some(key) = it.next() {
            let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{key} {value}: {e}");
            match key.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => args.trace = value == "1",
                "--server" => args.server = value.into(),
                "--work" => args.work = value.into(),
                "--stamp" => args.stamp = value,
                _ => return Err(format!("unknown argument {key}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!("unknown workload {:?}", args.workload));
        }
        if args.seconds.is_nan() || args.seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(args)
    }
}

/// Runs one workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = match args.workload.as_str() {
        "batch-12k" => batch::run_batch(
            args.seed,
            batch::traces_for(args.seconds),
            batch::TRACE_HOURS,
            args.trace,
        ),
        _ => serve::run_serve(
            args.seed,
            (args.seconds * serve::LINES_PER_SECOND) as usize,
            &args.server,
            &args.work,
            args.trace,
        ),
    };
    if args.trace {
        add_self_times(&mut out);
    }
    out
}

/// Reports `self_ms.<layer>` for every layer in [`SELF_TIME_LAYERS`] from
/// the run's spans.
pub fn add_self_times(out: &mut Outcome) {
    let layers = out.tracer.self_ms_by_layer();
    for layer in SELF_TIME_LAYERS {
        let ms = layers
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0.0, |(_, v)| *v);
        out.report.put(
            &format!("self_ms.{layer}"),
            ms,
            "ms",
            out.tracer.spans.len(),
        );
    }
}

/// The metrics a run must report, by mode.
pub fn expected(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// The two output lines: the detail line and the result line. Checks that
/// every expected metric is present with its unit and finite.
pub fn render(args: &Args, out: &mut Outcome) -> (String, String) {
    let mut metrics = Report::default();
    for &(name, unit) in expected(args.trace) {
        let found = out
            .report
            .get(name)
            .filter(|m| m.unit == unit && m.value.is_finite())
            .cloned();
        out.gate
            .check(&format!("metric {name} [{unit}] reported"), found.is_some());
        let m = found.unwrap_or(stats::Metric {
            name: name.to_owned(),
            value: 0.0,
            unit,
            n: 0,
        });
        metrics.put(&m.name, m.value, m.unit, m.n);
    }
    let notes: Vec<String> = out.gate.notes.iter().map(|n| json_str(n)).collect();
    let detail = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"stamp\": {}, \
         \"checks\": {{\"attempted\": {}, \"failed\": {}, \"notes\": [{}]}}, \
         \"metrics\": {}, \"detail\": {}}}",
        json_str(&args.workload),
        args.seed,
        u8::from(args.trace),
        args.stamp,
        out.gate.attempted,
        out.gate.failed,
        notes.join(", "),
        out.report.to_json(true),
        out.detail.to_json(true),
    );
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.gate.ok(),
        out.gate.attempted.max(1),
        out.gate.failed,
        metrics.to_json(false),
    );
    (detail, result)
}
