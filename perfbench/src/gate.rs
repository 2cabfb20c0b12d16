//! The correctness gate: every check counts as one attempted operation,
//! and a failed check fails the run.

use threesigma::ThreeSigmaScheduler;
use threesigma_cluster::{
    ClusterSpec, Engine, EngineConfig, JobKind, JobSpec, JobState, Metrics, Scheduler,
};

/// Tally of attempted operations and failures, with a note per failure.
#[derive(Debug, Default)]
pub struct Gate {
    /// Operations attempted (jobs, input lines and checks).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure.
    pub notes: Vec<String>,
}

impl Gate {
    /// Records one check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what.to_owned());
        }
    }

    /// Records `attempted` operations of which `failed` failed.
    pub fn count(&mut self, what: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        if failed > 0 {
            self.failed += failed;
            self.notes
                .push(format!("{what}: {failed} of {attempted} failed"));
        }
    }

    /// True when nothing failed.
    pub fn ok(&self) -> bool {
        self.failed == 0
    }
}

/// Jobs of a batch run that the accounting cannot place: every submitted
/// job must end completed, cancelled, or still pending/running.
pub fn lost_jobs(m: &Metrics, submitted: usize) -> u64 {
    let accounted = [
        JobState::Completed,
        JobState::Canceled,
        JobState::Pending,
        JobState::Running,
    ]
    .iter()
    .map(|s| m.count(*s))
    .sum::<usize>();
    (submitted.abs_diff(m.outcomes.len()) + m.outcomes.len().abs_diff(accounted)) as u64
}

/// True when two runs produced the same metrics, bit for bit.
pub fn metrics_identical(a: &Metrics, b: &Metrics) -> bool {
    a.outcomes == b.outcomes
        && a.end_time.to_bits() == b.end_time.to_bits()
        && a.cycles == b.cycles
        && a.preemptions == b.preemptions
        && a.kills == b.kills
        && a.retry_cancellations == b.retry_cancellations
        && a.wasted_machine_seconds.to_bits() == b.wasted_machine_seconds.to_bits()
}

/// True when `wrapped` reports the same partition limit as `reference`
/// and the engine refuses an over-limit cluster for both with the same
/// error. A wrapper that falls back to the trait's default limit fails.
pub fn forwards_partition_limit(
    wrapped: &mut dyn Scheduler,
    reference: &mut ThreeSigmaScheduler,
) -> bool {
    let limit = reference.max_partitions();
    if wrapped.max_partitions() != limit {
        return false;
    }
    let Some(limit) = limit else { return true };
    let engine = Engine::new(ClusterSpec::uniform(limit + 1, 1), EngineConfig::default());
    let jobs = [JobSpec::new(1, 0.0, 1, 10.0, JobKind::BestEffort)];
    let a = engine.run(&jobs, wrapped).err();
    let b = engine.run(&jobs, reference).err();
    a.is_some() && a == b
}
