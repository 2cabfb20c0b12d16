//! The benchmark's own checks, at tiny sizes: the metric lists agree with
//! `BENCHMARK.json`, every listed metric is emitted with its unit, and the
//! correctness gate goes red when it should.

use std::path::{Path, PathBuf};

use perfbench::gate::{forwards_partition_limit, Gate};
use perfbench::serve::{fresh_dir, in_process, make_stream, traced};
use perfbench::stats::Report;
use perfbench::wrap::{Timed, Tracer};
use perfbench::{batch, END_TO_END, PER_LAYER, WORKLOADS};
use threesigma::{EstimateSource, SchedConfig, ThreeSigmaScheduler};
use threesigma_cluster::{JobOutcome, JobSpec, Scheduler, SchedulingDecision, SimulationView};
use threesigma_predict::PredictorConfig;

fn benchmark_json() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// `(name, unit)` of every entry in one array of `BENCHMARK.json`.
fn entries(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split('{')
        .skip(1)
        .map(|e| {
            let field = |k: &str| {
                let at = e.find(&format!("\"{k}\"")).map(|i| i + k.len() + 2)?;
                let rest = e[at..].trim_start().strip_prefix(':')?.trim_start();
                let rest = rest.strip_prefix('"')?;
                Some(rest[..rest.find('"')?].to_owned())
            };
            (
                field("name").unwrap_or_default(),
                field("unit").unwrap_or_default(),
            )
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
        .collect()
}

fn assert_emits(report: &Report, list: &[(&str, &str)], what: &str) {
    for (name, unit) in list {
        let m = report
            .get(name)
            .unwrap_or_else(|| panic!("{what}: {name} not emitted"));
        assert_eq!(m.unit, *unit, "{what}: unit of {name}");
        assert!(m.value.is_finite(), "{what}: {name} = {}", m.value);
    }
}

fn work_dir(name: &str) -> PathBuf {
    fresh_dir(Path::new(env!("CARGO_TARGET_TMPDIR")), name).expect("scratch dir")
}

#[test]
fn benchmark_json_lists_the_emitted_metrics() {
    let json = benchmark_json();
    assert_eq!(entries(&json, "end_to_end"), owned(&END_TO_END));
    assert_eq!(entries(&json, "per_layer"), owned(&PER_LAYER));
    let workloads: Vec<String> = entries(&json, "workloads")
        .into_iter()
        .map(|e| e.0)
        .collect();
    assert_eq!(workloads, WORKLOADS);
    for (name, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(valid_name(name), "{name}");
    }
}

#[test]
fn batch_emits_every_metric_with_its_unit() {
    let untimed = batch::run_batch(3, 2, 0.02, false);
    assert_emits(&untimed.report, &END_TO_END, "batch untraced");
    let mut traced = batch::run_batch(3, 2, 0.02, true);
    perfbench::add_self_times(&mut traced);
    assert_emits(&traced.report, &PER_LAYER, "batch traced");
    assert!(!traced.tracer.spans.is_empty());
}

/// Forwards every trait method except `max_partitions`.
struct DropsPartitionLimit(ThreeSigmaScheduler);

impl Scheduler for DropsPartitionLimit {
    fn on_job_submitted(&mut self, spec: &JobSpec, now: f64) {
        self.0.on_job_submitted(spec, now);
    }
    fn on_job_completed(&mut self, spec: &JobSpec, outcome: &JobOutcome, now: f64) {
        self.0.on_job_completed(spec, outcome, now);
    }
    fn on_job_killed(&mut self, spec: &JobSpec, elapsed: f64, will_retry: bool, now: f64) {
        self.0.on_job_killed(spec, elapsed, will_retry, now);
    }
    fn schedule(&mut self, view: &SimulationView<'_>, now: f64) -> SchedulingDecision {
        self.0.schedule(view, now)
    }
}

fn sched() -> ThreeSigmaScheduler {
    ThreeSigmaScheduler::new(
        SchedConfig::default(),
        EstimateSource::Predicted,
        PredictorConfig::default(),
    )
}

#[test]
fn gate_catches_a_wrapper_that_drops_max_partitions() {
    assert!(forwards_partition_limit(
        &mut Timed::new(sched()),
        &mut sched()
    ));
    assert!(!forwards_partition_limit(
        &mut DropsPartitionLimit(sched()),
        &mut sched()
    ));
}

#[test]
fn gate_catches_a_wrong_expected_digest() {
    let jobs = make_stream(5, 300);
    let mut gate = Gate::default();
    let reference = in_process(&jobs, &mut gate, &mut Report::default());
    assert!(gate.ok(), "{:?}", gate.notes);

    let run = |digest: &str, dir: &str| {
        let mut gate = Gate::default();
        let (mut report, mut tracer) = (Report::default(), Tracer::new());
        traced(
            &jobs,
            &work_dir(dir),
            digest,
            &mut gate,
            &mut report,
            &mut tracer,
        )
        .expect("traced run");
        gate
    };
    let good = run(&reference.digest, "digest-good");
    assert!(good.ok(), "{:?}", good.notes);
    let bad = run("0000000000000000", "digest-bad");
    assert!(!bad.ok());
    assert!(
        bad.notes.iter().all(|n| n.contains("digest")),
        "{:?}",
        bad.notes
    );
}

/// The subprocess half of `serve-wal` needs the release `threesigma`
/// binary; `python3 perfbench/run.py --test` builds it and sets
/// `PERFBENCH_SERVER`.
#[test]
fn serve_emits_every_metric_with_its_unit() {
    let Some(server) = std::env::var_os("PERFBENCH_SERVER") else {
        eprintln!("PERFBENCH_SERVER unset: run through `python3 perfbench/run.py --test`");
        return;
    };
    let server = PathBuf::from(server);
    let untimed = perfbench::serve::run_serve(4, 1000, &server, &work_dir("serve0"), false);
    assert!(untimed.gate.ok(), "{:?}", untimed.gate.notes);
    assert_emits(&untimed.report, &END_TO_END, "serve untraced");
    let mut traced = perfbench::serve::run_serve(4, 1000, &server, &work_dir("serve1"), true);
    assert!(traced.gate.ok(), "{:?}", traced.gate.notes);
    perfbench::add_self_times(&mut traced);
    assert_emits(&traced.report, &PER_LAYER, "serve traced");
}
