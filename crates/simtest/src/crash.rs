//! Crash-injection campaign for the durable serve stack.
//!
//! Each kill point runs the same deterministic job/fault stream twice:
//!
//! 1. **Reference** — straight through one durable session (journal +
//!    auto-snapshots in a scratch data directory), drained to quiescence.
//! 2. **Victim** — the stream is cut at a seeded step index and the
//!    session is dropped *without* a final snapshot or journal truncation
//!    (the in-process equivalent of `kill -9`). Kill points cycle through
//!    four modes: a clean cut between two acknowledged batches; the same
//!    cut with garbage bytes or a half-written frame after the last good
//!    frame (a write torn by the crash itself); and an *uncommitted batch
//!    lost* — the victim appended its last batch but died before the
//!    commit, and the journal is cut back to its last committed length (the
//!    most a crash can take). A fresh process then recovers from the data
//!    directory, replays the journal suffix, resends the stream from the
//!    first unacknowledged step, and finishes.
//!
//! The campaign fails unless, at every kill point, the recovered run's
//! [`ServeSummary`] (including its outcome digest) and its byte-stable
//! metrics dump equal the reference's. Only `wal_recovered_records` is
//! filtered before comparison — it is genuinely process-local (zero on a
//! straight-through run). Every other durability counter is lifetime-
//! valued by construction and must survive the crash exactly.
//!
//! The driver mirrors the CLI serve loop's ordering contract, one read
//! batch of [`BATCH`] steps at a time: per step admit → pump →
//! auto-snapshot (quiescent, *before* journaling the new record) → append
//! (unsynced) → apply; then one commit for the batch, and only then the
//! batch's acks. Faults and the final clock edge are journaled the same
//! way, so replay reconstructs the exact event history.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use threesigma::{EstimateSource, SchedConfig, SchedSnapshot, ThreeSigmaScheduler};
use threesigma_cluster::wal::{encode_frame, recover_data_dir, replay};
use threesigma_cluster::{
    Attributes, ClusterSpec, DataDir, FaultEvent, JobKind, JobSpec, PartitionId, ServeConfig,
    ServeSession, ServeSnapshot, ServeSummary, SnapshotFile, Wal, WalEntry, WalMetrics, WalRecord,
    SNAPSHOT_FORMAT_VERSION, WAL_MAGIC,
};
use threesigma_obs::Recorder;

/// Estimate-cache capacity (small, so eviction churn is part of the state
/// being checkpointed).
const CACHE_CAP: usize = 8;
/// Predictor per-feature-value state cap.
const PREDICTOR_CAP: usize = 512;
/// Distinct tenants in the stream.
const TENANTS: u64 = 60;
/// Jobs per arrival burst.
const BURST: usize = 12;
/// Seconds between bursts.
const BURST_GAP: f64 = 24.0;
/// Every 4th burst is preceded by a long idle gap — enough for every
/// in-flight job (runtime ≤ 60 s) to finish, so the session reaches
/// quiescence and the auto-snapshot policy can land a checkpoint.
const IDLE_GAP: f64 = 900.0;
/// Auto-snapshot threshold (journal records since the last snapshot).
const SNAP_EVERY: u64 = 20;
/// Steps per read batch: one journal commit, then one ack per step.
const BATCH: usize = 5;

/// Campaign parameters.
#[derive(Debug, Clone, Copy)]
pub struct CrashConfig {
    /// Jobs in the deterministic stream.
    pub total_jobs: u64,
    /// Seeded kill points to exercise (each is a full recovered run).
    pub kill_points: usize,
    /// Seed for both the stream and the kill-point choices.
    pub seed: u64,
}

impl Default for CrashConfig {
    fn default() -> Self {
        Self {
            total_jobs: 240,
            kill_points: 6,
            seed: 0x0003_516c_4a54,
        }
    }
}

/// One step of the deterministic input stream.
#[derive(Debug, Clone)]
enum Step {
    Job(JobSpec),
    Fault(FaultEvent),
}

/// How the journal tail is mangled after the kill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TailDamage {
    /// Clean cut between two acked batches — journal ends on a frame
    /// boundary.
    None,
    /// Garbage bytes after the last good frame (a torn header).
    Garbage,
    /// A valid frame cut mid-payload (a torn in-progress append).
    HalfFrame,
    /// The last batch was appended but never committed, and the journal
    /// is cut back to its last committed length.
    LostBatch,
}

impl TailDamage {
    fn label(self) -> &'static str {
        match self {
            TailDamage::None => "clean",
            TailDamage::Garbage => "garbage-tail",
            TailDamage::HalfFrame => "half-frame",
            TailDamage::LostBatch => "uncommitted-batch-lost",
        }
    }
}

/// The engine + policy state a campaign snapshot checkpoints. Mirrors the
/// CLI's full snapshot minus the wire counters (the campaign driver sits
/// below the wire layer).
#[derive(Debug, Serialize, Deserialize)]
struct CampaignSnapshot {
    engine: ServeSnapshot,
    sched: SchedSnapshot,
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        cycle_interval: 2.0,
        retention: 120.0,
        ..ServeConfig::default()
    }
}

fn build(recorder: &Recorder) -> (ServeSession, ThreeSigmaScheduler) {
    let sched_cfg = SchedConfig {
        cycle_hint: 2.0,
        cache_capacity: Some(CACHE_CAP),
        max_timings: Some(64),
        ..SchedConfig::default()
    };
    let pred_cfg = threesigma_predict::PredictorConfig {
        max_tracked_values: Some(PREDICTOR_CAP),
        ..threesigma_predict::PredictorConfig::default()
    };
    let sched = ThreeSigmaScheduler::new(sched_cfg, EstimateSource::Predicted, pred_cfg)
        .with_recorder(recorder);
    let session = ServeSession::new(ClusterSpec::uniform(4, 16), serve_config(), recorder)
        .expect("valid serve config");
    (session, sched)
}

fn wire_job(rng: &mut StdRng, id: u64, submit: f64) -> JobSpec {
    let tenant = rng.random::<u64>() % TENANTS;
    let name = rng.random::<u64>() % 7;
    let tasks = 1 + rng.random::<u32>() % 6;
    let runtime = 5.0 + rng.random::<f64>() * 55.0;
    let kind = if rng.random::<f64>() < 0.5 {
        JobKind::Slo {
            deadline: submit + runtime * (2.0 + rng.random::<f64>() * 3.0),
        }
    } else {
        JobKind::BestEffort
    };
    let attrs = Attributes::new()
        .with("tenant", format!("t{tenant}"))
        .with("user", format!("t{tenant}"))
        .with("job_name", format!("j{name}"));
    JobSpec::new(id, submit, tasks, runtime, kind).with_attributes(attrs)
}

/// Expands the seed into the full step stream: bursty arrivals, periodic
/// idle gaps (snapshot opportunities), and a partition-loss/restore pair
/// so fault records cross the journal too.
fn plan_stream(cfg: &CrashConfig) -> Vec<Step> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut steps = Vec::new();
    let mut t = 0.0;
    let mut id = 0u64;
    let mut bursts = 0u64;
    let fault_down_at = cfg.total_jobs / 3;
    let fault_up_at = 2 * cfg.total_jobs / 3;
    while id < cfg.total_jobs {
        if bursts > 0 && bursts.is_multiple_of(4) {
            t += IDLE_GAP;
        }
        for _ in 0..BURST.min((cfg.total_jobs - id) as usize) {
            if id == fault_down_at {
                steps.push(Step::Fault(FaultEvent::PartitionDown {
                    at: t + 6.0,
                    partition: PartitionId(1),
                    nodes: 8,
                }));
            }
            if id == fault_up_at {
                steps.push(Step::Fault(FaultEvent::PartitionUp {
                    at: t + 6.0,
                    partition: PartitionId(1),
                    nodes: 8,
                }));
            }
            steps.push(Step::Job(wire_job(&mut rng, id, t)));
            id += 1;
        }
        t += BURST_GAP;
        bursts += 1;
    }
    steps
}

/// The campaign's durable serve driver: the same journal/snapshot protocol
/// the CLI serve loop runs, minus the wire layer.
struct Driver {
    data: DataDir,
    wal: Wal,
    metrics: WalMetrics,
    truncated_total: u64,
    records_since_snap: u64,
}

impl Driver {
    /// Journals one record without syncing it; [`Driver::commit`] makes it
    /// durable.
    fn append(&mut self, record: WalRecord) -> Result<(), String> {
        self.wal
            .append_unsynced(record)
            .map_err(|e| format!("journal append: {e}"))?;
        self.records_since_snap += 1;
        self.metrics.publish(&self.wal, self.truncated_total);
        Ok(())
    }

    fn commit(&mut self) -> Result<(), String> {
        self.wal
            .commit()
            .map_err(|e| format!("journal commit: {e}"))
    }

    /// Snapshot-write-then-truncate, with the truncation counted at write
    /// time so the lifetime total is crash-consistent (the CLI protocol).
    fn take_snapshot(
        &mut self,
        session: &ServeSession,
        sched: &ThreeSigmaScheduler,
    ) -> Result<(), String> {
        let payload = CampaignSnapshot {
            engine: session.snapshot().map_err(|e| format!("snapshot: {e}"))?,
            sched: sched.serve_snapshot(),
        };
        let watermark = self.wal.next_seq().saturating_sub(1);
        let body = self.wal.len_bytes().saturating_sub(WAL_MAGIC.len() as u64);
        let total = self.truncated_total + body;
        let payload =
            serde_json::to_value(&payload).map_err(|e| format!("encode snapshot: {e}"))?;
        self.data
            .write_snapshot(&SnapshotFile {
                format_version: SNAPSHOT_FORMAT_VERSION,
                wal_seq: watermark,
                wal_truncated_bytes: total,
                payload,
            })
            .map_err(|e| format!("write snapshot: {e}"))?;
        self.truncated_total = total;
        self.wal
            .truncate_through(watermark)
            .map_err(|e| format!("truncate journal: {e}"))?;
        self.records_since_snap = 0;
        self.metrics.publish(&self.wal, self.truncated_total);
        Ok(())
    }

    /// Feeds one read batch: every step through the ordering contract,
    /// then one commit. With `commit` false the batch is left uncommitted
    /// — the victim dies before its commit, so none of it was acked.
    fn feed_batch(
        &mut self,
        batch: &[Step],
        commit: bool,
        session: &mut ServeSession,
        sched: &mut ThreeSigmaScheduler,
    ) -> Result<(), String> {
        for step in batch {
            self.feed(step, session, sched)?;
        }
        if commit {
            self.commit()?;
        }
        Ok(())
    }

    /// Feeds one stream step through the full ordering contract.
    fn feed(
        &mut self,
        step: &Step,
        session: &mut ServeSession,
        sched: &mut ThreeSigmaScheduler,
    ) -> Result<(), String> {
        match step {
            Step::Job(spec) => {
                session
                    .admit(spec)
                    .map_err(|e| format!("job {} rejected: {e}", spec.id.0))?;
                session
                    .pump_until(spec.submit_time, sched)
                    .map_err(|e| format!("pump: {e}"))?;
                if self.records_since_snap >= SNAP_EVERY && session.is_quiescent() {
                    self.take_snapshot(session, sched)?;
                }
                self.append(WalRecord::Job(spec.clone()))?;
                session
                    .submit(spec.clone())
                    .map_err(|e| format!("submit after admit: {e}"))?;
            }
            Step::Fault(fault) => {
                self.append(WalRecord::Fault(*fault))?;
                session
                    .inject_fault(*fault)
                    .map_err(|e| format!("inject fault: {e}"))?;
            }
        }
        Ok(())
    }

    /// Drains to quiescence, journals the final clock edge, and takes the
    /// shutdown snapshot — the clean-stop protocol.
    fn finish(
        &mut self,
        session: &mut ServeSession,
        sched: &mut ThreeSigmaScheduler,
    ) -> Result<(), String> {
        session
            .drain(f64::INFINITY, sched)
            .map_err(|e| format!("drain: {e}"))?;
        self.append(WalRecord::Clock { now: session.now() })?;
        self.commit()?;
        self.take_snapshot(session, sched)
    }
}

fn open_driver(dir: &Path, recorder: &Recorder) -> Result<Driver, String> {
    let data = DataDir::open(dir).map_err(|e| format!("open data dir: {e}"))?;
    let (wal, _) =
        Wal::open(&data.journal_path(), false).map_err(|e| format!("open journal: {e}"))?;
    Ok(Driver {
        data,
        wal,
        metrics: WalMetrics::register(recorder),
        truncated_total: 0,
        records_since_snap: 0,
    })
}

/// The comparison key of one finished run: the summary (with its outcome
/// digest) and the stable metrics dump minus the process-local
/// `wal_recovered_records` gauge.
fn finish_and_fingerprint(
    driver: &mut Driver,
    mut session: ServeSession,
    sched: &mut ThreeSigmaScheduler,
    recorder: &Recorder,
) -> Result<(ServeSummary, String), String> {
    driver.finish(&mut session, sched)?;
    let metrics: String = recorder
        .snapshot()
        .to_stable_json()
        .lines()
        .filter(|l| !l.contains("wal_recovered_records"))
        .collect::<Vec<_>>()
        .join("\n");
    Ok((session.summary(), metrics))
}

/// Runs the stream straight through one durable session.
fn reference_run(dir: &Path, steps: &[Step]) -> Result<(ServeSummary, String), String> {
    let recorder = Recorder::enabled();
    let (mut session, mut sched) = build(&recorder);
    let mut driver = open_driver(dir, &recorder)?;
    for batch in steps.chunks(BATCH) {
        driver.feed_batch(batch, true, &mut session, &mut sched)?;
    }
    finish_and_fingerprint(&mut driver, session, &mut sched, &recorder)
}

/// Applies the post-kill tail damage to the journal file;
/// `committed_len` is the victim journal's last committed length.
fn damage_tail(journal: &Path, damage: TailDamage, committed_len: u64) -> Result<(), String> {
    let mut bytes = std::fs::read(journal).map_err(|e| format!("read journal: {e}"))?;
    match damage {
        TailDamage::None => return Ok(()),
        TailDamage::LostBatch => {
            // The page cache never reached the disk: everything past the
            // last commit is gone.
            bytes.truncate(committed_len as usize);
        }
        TailDamage::Garbage => bytes.extend_from_slice(&[0xFF, 0x03, 0x51, 0x64, 0xFF]),
        TailDamage::HalfFrame => {
            // A plausible in-progress append, cut mid-payload. Recovery
            // must drop it: the record was never synced, so it was never
            // acknowledged.
            let frame = encode_frame(&WalEntry {
                seq: u64::MAX / 2,
                record: WalRecord::Clock { now: 1e9 },
            })
            .map_err(|e| format!("encode torn frame: {e}"))?;
            bytes.extend_from_slice(&frame[..frame.len() / 2]);
        }
    }
    std::fs::write(journal, bytes).map_err(|e| format!("write torn journal: {e}"))
}

/// Kills the stream after `kill_at` fed steps, damages the tail, recovers
/// in a "fresh process", resends from the first unacknowledged step,
/// finishes the stream, and fingerprints. Also returns the step the
/// stream resumed at.
fn recovered_run(
    dir: &Path,
    steps: &[Step],
    kill_at: usize,
    damage: TailDamage,
) -> Result<(ServeSummary, String, usize), String> {
    // Victim process: feeds `kill_at` steps in batches, then vanishes — no
    // drain, no final snapshot, no truncation. Its last batch is committed
    // (and acked) unless the kill lands before that commit.
    let batches: Vec<&[Step]> = steps[..kill_at].chunks(BATCH).collect();
    let lose_last = damage == TailDamage::LostBatch;
    let acked = match batches.last() {
        Some(last) if lose_last => kill_at - last.len(),
        _ => kill_at,
    };
    let committed_len = {
        let recorder = Recorder::enabled();
        let (mut session, mut sched) = build(&recorder);
        let mut driver = open_driver(dir, &recorder)?;
        for (i, batch) in batches.iter().enumerate() {
            let commit = !(lose_last && i + 1 == batches.len());
            driver.feed_batch(batch, commit, &mut session, &mut sched)?;
        }
        driver.wal.committed_len()
    };
    let data = DataDir::open(dir).map_err(|e| format!("open data dir: {e}"))?;
    damage_tail(&data.journal_path(), damage, committed_len)?;

    // Fresh process: recover, replay, resume.
    let recovered = recover_data_dir(&data, false).map_err(|e| format!("recover: {e}"))?;
    let torn_damage = matches!(damage, TailDamage::Garbage | TailDamage::HalfFrame);
    if torn_damage && recovered.torn_bytes == 0 {
        return Err("tail damage was not detected as torn bytes".into());
    }
    // Every step appends exactly one record, so the next sequence number
    // (continued past any snapshot watermark) counts the steps that
    // survived the crash.
    let durable = (recovered.wal.next_seq() - 1) as usize;
    if durable < acked || durable > kill_at {
        return Err(format!(
            "{durable} steps survived, but {acked} were acknowledged and {kill_at} fed"
        ));
    }
    if lose_last && durable == kill_at {
        return Err("the uncommitted batch left nothing to lose".into());
    }
    let recorder = Recorder::enabled();
    let (mut session, mut sched) = build(&recorder);
    if let Some(snap) = &recovered.snapshot {
        let payload: CampaignSnapshot =
            serde_json::from_value(&snap.payload).map_err(|e| format!("decode snapshot: {e}"))?;
        sched
            .serve_restore(payload.sched)
            .map_err(|e| format!("scheduler restore: {e}"))?;
        session = ServeSession::restore(
            ClusterSpec::uniform(4, 16),
            serve_config(),
            &recorder,
            &payload.engine,
        )
        .map_err(|e| format!("session restore: {e}"))?;
    }
    let mut driver = Driver {
        metrics: WalMetrics::register(&recorder),
        truncated_total: recovered
            .snapshot
            .as_ref()
            .map_or(0, |s| s.wal_truncated_bytes),
        records_since_snap: recovered.suffix.len() as u64,
        wal: recovered.wal,
        data,
    };
    // Complete an interrupted truncation (snapshot written, truncate lost)
    // without recounting: those bytes were counted at snapshot-write time.
    if recovered.covered > 0 || recovered.duplicates > 0 {
        let watermark = recovered.snapshot.as_ref().map_or(0, |s| s.wal_seq);
        driver
            .wal
            .truncate_through(watermark)
            .map_err(|e| format!("complete truncation: {e}"))?;
    }
    let replayed =
        replay(&mut session, &mut sched, &recovered.suffix).map_err(|e| format!("replay: {e}"))?;
    driver.metrics.recovered_records.set(replayed as f64);
    driver.metrics.publish(&driver.wal, driver.truncated_total);

    // No acknowledged step may be lost: state must equal exactly the
    // surviving prefix, which holds every acknowledged step.
    let durable_jobs = steps[..durable]
        .iter()
        .filter(|s| matches!(s, Step::Job(_)))
        .count() as u64;
    if session.summary().submitted != durable_jobs {
        return Err(format!(
            "recovered {} submitted jobs, but the {durable} surviving steps hold {durable_jobs}",
            session.summary().submitted,
        ));
    }
    // Resend from the first unacknowledged step. Unacked steps that
    // survived anyway (journaled, or folded into a snapshot, before the
    // kill) are already in the state — the wire answers a resent live job
    // with a `duplicate` rejection — so the stream picks up after them.
    for batch in steps[durable..].chunks(BATCH) {
        driver.feed_batch(batch, true, &mut session, &mut sched)?;
    }
    let (summary, metrics) = finish_and_fingerprint(&mut driver, session, &mut sched, &recorder)?;
    Ok((summary, metrics, durable))
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("threesigma_crash_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the campaign: one reference run plus `cfg.kill_points` recovered
/// runs at seeded offsets, each compared byte-for-byte. Returns the
/// rendered report, or a reproducible failure description.
///
/// # Errors
///
/// The first kill point whose recovered run diverges from (or fails
/// against) the reference, with the seed, offset, and damage mode needed
/// to replay it.
pub fn run_crash_campaign(cfg: &CrashConfig) -> Result<String, String> {
    let steps = plan_stream(cfg);
    if steps.len() < 2 {
        return Err("stream too short to kill".into());
    }
    let ref_dir = scratch_dir(&format!("{:x}_ref", cfg.seed));
    let reference = reference_run(&ref_dir, &steps);
    let _ = std::fs::remove_dir_all(&ref_dir);
    let (ref_summary, ref_metrics) = reference?;

    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xdead_2bad);
    let mut report = format!(
        "crash campaign: seed={} jobs={} steps={} kill_points={}\n",
        cfg.seed,
        cfg.total_jobs,
        steps.len(),
        cfg.kill_points
    );
    for point in 0..cfg.kill_points {
        let kill_at = 1 + (rng.random::<u64>() as usize) % (steps.len() - 1);
        let damage = match point % 4 {
            0 => TailDamage::None,
            1 => TailDamage::Garbage,
            2 => TailDamage::HalfFrame,
            _ => TailDamage::LostBatch,
        };
        let ctx = format!(
            "kill point {point}: offset={kill_at}/{} damage={} (seed {})",
            steps.len(),
            damage.label(),
            cfg.seed
        );
        let dir = scratch_dir(&format!("{:x}_k{point}", cfg.seed));
        let run = recovered_run(&dir, &steps, kill_at, damage);
        let _ = std::fs::remove_dir_all(&dir);
        let (summary, metrics, resumed) = run.map_err(|e| format!("{ctx}: {e}"))?;
        if summary != ref_summary {
            return Err(format!(
                "{ctx}: recovered summary diverged\nreference: {ref_summary:?}\nrecovered: {summary:?}"
            ));
        }
        if metrics != ref_metrics {
            let diff = first_diff(&ref_metrics, &metrics);
            return Err(format!(
                "{ctx}: recovered metrics diverged\nfirst differing line:\n{diff}"
            ));
        }
        report.push_str(&format!(
            "  {ctx}: equivalent (resumed at step {resumed})\n"
        ));
    }
    report.push_str("all kill points recovered to digest-identical state\n");
    Ok(report)
}

fn first_diff(a: &str, b: &str) -> String {
    for (la, lb) in a.lines().zip(b.lines()) {
        if la != lb {
            return format!("reference: {la}\nrecovered: {lb}");
        }
    }
    format!(
        "line counts differ: reference {} vs recovered {}",
        a.lines().count(),
        b.lines().count()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Always-on campaign: small stream, four kill points covering all
    /// four kill modes, the lost uncommitted batch included.
    #[test]
    fn crash_recovery_is_equivalent_small() {
        let cfg = CrashConfig {
            total_jobs: 96,
            kill_points: 4,
            seed: 0x0035_160b_ad01,
        };
        let report = run_crash_campaign(&cfg).expect("campaign passes");
        assert!(report.contains("all kill points recovered"), "{report}");
        assert!(report.contains("damage=uncommitted-batch-lost"), "{report}");
    }

    /// Full campaign (release only): 20+ seeded kill points across a
    /// longer stream, cycling through every damage mode.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "release-mode campaign: run with --release")]
    fn crash_recovery_is_equivalent_at_scale() {
        let cfg = CrashConfig {
            total_jobs: 600,
            kill_points: 21,
            seed: 0x0035_160b_ad02,
        };
        let report = run_crash_campaign(&cfg).expect("campaign passes");
        assert!(report.contains("all kill points recovered"), "{report}");
    }
}
