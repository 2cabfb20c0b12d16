//! Measurement from outside the program: a delegating [`Scheduler`]
//! wrapper that times every `schedule` call, a [`CycleObserver`] that
//! stamps the end of every engine cycle, and an in-memory span recorder.

use std::time::{Duration, Instant};

use threesigma::{CycleTiming, ThreeSigmaScheduler};
use threesigma_cluster::{
    CycleObserver, EngineSnapshot, JobOutcome, JobSpec, Scheduler, SchedulingDecision,
    SimulationView,
};

/// One `schedule` call as seen from outside.
#[derive(Debug, Clone, Copy)]
pub struct CycleRec {
    /// When the call started.
    pub start: Instant,
    /// How long it took.
    pub took: Duration,
    /// Pending jobs the call was shown.
    pub pending: usize,
    /// The stage split the scheduler recorded for this call.
    pub stages: Option<CycleTiming>,
}

/// Wraps a [`ThreeSigmaScheduler`], forwarding every trait method and
/// timing `schedule`.
pub struct Timed {
    /// The scheduler under test.
    pub inner: ThreeSigmaScheduler,
    /// One record per `schedule` call, in order.
    pub cycles: Vec<CycleRec>,
}

impl Timed {
    /// Wraps `inner`.
    pub fn new(inner: ThreeSigmaScheduler) -> Self {
        Self {
            inner,
            cycles: Vec::new(),
        }
    }
}

impl Scheduler for Timed {
    fn on_job_submitted(&mut self, spec: &JobSpec, now: f64) {
        self.inner.on_job_submitted(spec, now);
    }

    fn on_job_completed(&mut self, spec: &JobSpec, outcome: &JobOutcome, now: f64) {
        self.inner.on_job_completed(spec, outcome, now);
    }

    fn on_job_killed(&mut self, spec: &JobSpec, elapsed: f64, will_retry: bool, now: f64) {
        self.inner.on_job_killed(spec, elapsed, will_retry, now);
    }

    fn schedule(&mut self, view: &SimulationView<'_>, now: f64) -> SchedulingDecision {
        let start = Instant::now();
        let decision = self.inner.schedule(view, now);
        let took = start.elapsed();
        self.cycles.push(CycleRec {
            start,
            took,
            pending: view.pending.len(),
            stages: self.inner.timings().last().copied(),
        });
        decision
    }

    fn max_partitions(&self) -> Option<usize> {
        self.inner.max_partitions()
    }
}

/// Stamps the end of every engine cycle.
#[derive(Debug, Default)]
pub struct CycleClock {
    /// When each cycle ended.
    pub ends: Vec<Instant>,
}

impl CycleObserver for CycleClock {
    fn on_cycle(&mut self, _snapshot: &EngineSnapshot<'_>) {
        self.ends.push(Instant::now());
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.operation`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Shared id of the cycle or input line the span belongs to.
    pub group: u64,
}

/// Spans kept in memory and written out when the benchmark ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// Recorded spans, in the order they were added.
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span from `start` to `end`, returning its index.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        group: u64,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            group,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Records one `schedule` call with its four stages laid end to end
    /// inside it, in the order the scheduler runs them.
    pub fn schedule_span(&mut self, rec: &CycleRec, parent: Option<usize>, group: u64) {
        let id = self.span(
            "sched.schedule",
            rec.start,
            rec.start + rec.took,
            parent,
            group,
        );
        if let Some(t) = rec.stages {
            let mut at = rec.start;
            for (name, d) in [
                ("sched.generate", t.generate),
                ("sched.compile", t.compile),
                ("milp.solve", t.solver),
                ("sched.extract", t.extract),
            ] {
                self.span(name, at, at + d, Some(id), group);
                at += d;
            }
        }
    }

    /// Self time per layer in ms: each span's duration minus the part its
    /// children cover, summed by the layer prefix of its name.
    pub fn self_ms_by_layer(&self) -> Vec<(&'static str, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut layers: Vec<(&'static str, f64)> = Vec::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(c) as f64 / 1e6;
            let layer = s.name.split('.').next().unwrap_or(s.name);
            match layers.iter_mut().find(|(l, _)| *l == layer) {
                Some((_, v)) => *v += own,
                None => layers.push((layer, own)),
            }
        }
        layers
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"group\":{}}}\n",
                s.name, s.start_ns, s.end_ns, s.group
            ));
        }
        out
    }
}
