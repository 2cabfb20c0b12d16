//! `threesigma serve` — a long-running scheduling service over a JSONL
//! job stream.
//!
//! Jobs arrive one per line (stdin, a file, or a single TCP connection),
//! tagged with a `tenant`. The session schedules them with the full
//! 3σPredict → 3σSched pipeline under *bounded* memory: the predictor's
//! per-feature-value state, the estimate cache, and the per-job outcome
//! tables are all capped, and every cap is exported as an obs gauge.
//!
//! # Crash safety (`--data-dir`)
//!
//! With `--data-dir DIR` the session is crash-only. Every accepted job is
//! appended to a CRC32-framed write-ahead journal, and the journal is
//! committed (fsynced, unless `--no-fsync`) *before* the job is
//! acknowledged. Lines are handled in read batches: a batch ends when the
//! reader holds no further complete line, one commit then covers every
//! record the batch appended, and only after it do the batch's responses
//! leave, in line order and in one socket write. Quiescent moments
//! trigger automatic snapshots (`--snapshot-every-jobs` /
//! `--snapshot-every-secs`) that truncate the journal past their
//! watermark. On startup the newest valid snapshot is loaded (torn tails
//! and corrupt candidates are tolerated, never panicked on) and the
//! journal suffix is replayed through the same deterministic ingest
//! pipeline, so a `kill -9`'d process recovers to a state digest-identical
//! to a never-crashed run — the CI `crash-smoke` check.
//!
//! # Admission control and poison lines
//!
//! `--max-queue` bounds the non-terminal backlog and `--tenant-quota`
//! bounds each tenant's in-flight jobs; violations produce typed
//! `rejected` responses on the wire (reasons `queue_full`,
//! `tenant_quota`, `duplicate`, `out_of_order`) and counters, never a
//! process exit. Malformed lines are counted, sampled into a quarantine
//! file, and rejected with reason `malformed` — they do not kill the
//! connection. Abrupt client disconnects and mid-line EOF on `--listen`
//! are handled gracefully: complete lines are processed (and journaled),
//! the partial tail is discarded with a typed warning.
//!
//! `--snapshot-out` writes a quiescent [`FullSnapshot`] (engine session +
//! scheduler/predictor state); `--restore` resumes from one. A restored
//! process that streams the remainder of an input reproduces the
//! uninterrupted run's summary digest and stable metrics JSON byte for
//! byte — that equivalence is this mode's correctness contract (and the
//! CI `serve-smoke` check).

use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;

use serde::{Deserialize, Map, Serialize, Value};
use threesigma::{EstimateSource, SchedConfig, SchedSnapshot, ThreeSigmaScheduler};
use threesigma_cluster::wal::{recover_data_dir, replay};
use threesigma_cluster::{
    Attributes, ClusterSpec, DataDir, JobKind, JobSpec, ServeConfig, ServeSession, ServeSnapshot,
    SimError, SnapshotFile, Wal, WalError, WalMetrics, WalRecord, SNAPSHOT_FORMAT_VERSION,
    WAL_MAGIC,
};
use threesigma_obs::{Counter, Recorder};
use threesigma_predict::PredictorConfig;

use crate::args::{Args, CliError};

/// Format version written into [`FullSnapshot`] files. Legacy files
/// without the field read as version 1; newer versions are refused with
/// [`CliError::SnapshotVersion`].
pub const FULL_SNAPSHOT_VERSION: u32 = 2;

/// Wire-layer stream statistics. Persisted inside [`FullSnapshot`] so the
/// byte-stable rejection counters survive restarts and crashes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct WireStats {
    /// Jobs accepted (journaled, where durable) over the stream lifetime.
    pub accepted: u64,
    /// Lines rejected as malformed (bad JSON, bad fields, bad UTF-8).
    pub rejected_malformed: u64,
    /// Jobs rejected because the non-terminal backlog hit `--max-queue`.
    pub rejected_queue_full: u64,
    /// Jobs rejected because their tenant hit `--tenant-quota`.
    pub rejected_tenant_quota: u64,
    /// Jobs rejected for reusing a live job id.
    pub rejected_duplicate: u64,
    /// Jobs rejected for arriving out of `submit_time` order.
    pub rejected_out_of_order: u64,
    /// Malformed lines written to the quarantine file (sample-capped).
    pub quarantined: u64,
    /// Partial (unterminated) input tails discarded at EOF on `--listen`.
    pub partial_tails: u64,
    /// Abrupt client disconnects absorbed on `--listen`.
    pub disconnects: u64,
}

impl WireStats {
    fn rejected_total(&self) -> u64 {
        self.rejected_malformed
            + self.rejected_queue_full
            + self.rejected_tenant_quota
            + self.rejected_duplicate
            + self.rejected_out_of_order
    }
}

/// On-disk `--snapshot-out` / `--restore` format: the engine-side session
/// snapshot and the scheduler/predictor snapshot, composed at the CLI
/// layer so both halves restart from the same quiescent instant. The same
/// structure is the payload of every auto-snapshot in `--data-dir`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FullSnapshot {
    /// [`FULL_SNAPSHOT_VERSION`] when written by this build; `None` in
    /// legacy (version-1) files, which are still accepted.
    pub format_version: Option<u32>,
    /// Cluster/session state (`threesigma_cluster::serve`).
    pub engine: ServeSnapshot,
    /// Predictor sketches, expert scores, cache bookkeeping, totals.
    pub sched: SchedSnapshot,
    /// Wire-layer counters; `None` in legacy files (restored as zeros).
    pub wire: Option<WireStats>,
}

/// Keys of the wire format that are job fields rather than attributes.
const WIRE_FIELDS: &[&str] = &[
    "id",
    "tenant",
    "submit_time",
    "tasks",
    "duration",
    "deadline",
];

fn bad_line(line_no: u64, why: impl std::fmt::Display) -> CliError {
    CliError::Failed(format!("input line {line_no}: {why}"))
}

/// Parses one JSONL wire job into a [`JobSpec`].
///
/// Required fields: `id` (u64), `tenant` (string), `submit_time` (seconds,
/// finite ≥ 0), `tasks` (u32 ≥ 1), `duration` (seconds, finite > 0).
/// Optional: `deadline` (absolute seconds → SLO job; absent → best-effort)
/// and any further *string* fields, which become predictor attributes.
/// `tenant` is stored as the `tenant` attribute and also mirrored into
/// `user` (the feature set's per-principal key) unless the line sets an
/// explicit `user`.
fn parse_wire_job(line: &str, line_no: u64) -> Result<JobSpec, CliError> {
    let value: Value =
        serde_json::from_str(line).map_err(|e| bad_line(line_no, format!("not JSON: {e}")))?;
    let obj = value
        .as_object()
        .ok_or_else(|| bad_line(line_no, "expected a JSON object"))?;
    let field = |key: &'static str| {
        obj.get(key)
            .ok_or_else(|| bad_line(line_no, format!("missing required field `{key}`")))
    };
    let id = field("id")?
        .as_u64()
        .ok_or_else(|| bad_line(line_no, "`id` must be a non-negative integer"))?;
    let tenant = field("tenant")?
        .as_str()
        .ok_or_else(|| bad_line(line_no, "`tenant` must be a string"))?;
    let submit_time = field("submit_time")?
        .as_f64()
        .filter(|t| t.is_finite() && *t >= 0.0)
        .ok_or_else(|| bad_line(line_no, "`submit_time` must be a finite number >= 0"))?;
    let tasks = field("tasks")?
        .as_u64()
        .filter(|n| *n >= 1 && *n <= u64::from(u32::MAX))
        .ok_or_else(|| bad_line(line_no, "`tasks` must be an integer >= 1"))?;
    let duration = field("duration")?
        .as_f64()
        .filter(|d| d.is_finite() && *d > 0.0)
        .ok_or_else(|| bad_line(line_no, "`duration` must be a finite number > 0"))?;
    let kind = match obj.get("deadline") {
        Some(v) => {
            let deadline = v
                .as_f64()
                .filter(|d| d.is_finite() && *d > submit_time)
                .ok_or_else(|| {
                    bad_line(line_no, "`deadline` must be a finite number > submit_time")
                })?;
            JobKind::Slo { deadline }
        }
        None => JobKind::BestEffort,
    };
    let mut attrs = Attributes::new().with("tenant", tenant);
    for (key, value) in obj.iter() {
        if WIRE_FIELDS.contains(&key.as_str()) {
            continue;
        }
        let text = value
            .as_str()
            .ok_or_else(|| bad_line(line_no, format!("attribute `{key}` must be a string")))?;
        attrs.set(key, text);
    }
    if attrs.get("user").is_none() {
        attrs.set("user", tenant);
    }
    Ok(JobSpec::new(id, submit_time, tasks as u32, duration, kind).with_attributes(attrs))
}

fn positive_dim(args: &Args, key: &'static str, default: usize) -> Result<usize, CliError> {
    let n: usize = args.parse_or(key, default)?;
    if n == 0 {
        return Err(CliError::BadValue {
            option: key.into(),
            value: "0".into(),
            expected: "a count >= 1",
        });
    }
    Ok(n)
}

/// `0 = unbounded` knob convention shared by the serve caps.
fn cap(args: &Args, key: &str, default: usize) -> Result<Option<usize>, CliError> {
    let n: usize = args.parse_or(key, default)?;
    Ok((n > 0).then_some(n))
}

fn io_err(e: impl std::fmt::Display) -> CliError {
    CliError::Io(e.to_string())
}

fn sim_err(e: SimError) -> CliError {
    CliError::Failed(e.to_string())
}

fn wal_err(e: WalError) -> CliError {
    match e {
        WalError::UnsupportedSnapshotVersion {
            path,
            found,
            supported,
        } => CliError::SnapshotVersion {
            path: path.display().to_string(),
            found,
            supported,
        },
        other => CliError::Io(other.to_string()),
    }
}

/// Parses a [`FullSnapshot`] from a JSON value, refusing newer format
/// versions with a typed error *before* attempting the full decode (so a
/// newer build's layout changes surface as a version problem, not a
/// confusing parse failure). Files without `format_version` are legacy
/// version 1 and accepted.
fn full_snapshot_from_value(value: &Value, origin: &str) -> Result<FullSnapshot, CliError> {
    if let Some(found) = value.get("format_version").and_then(Value::as_u64) {
        if found > u64::from(FULL_SNAPSHOT_VERSION) {
            return Err(CliError::SnapshotVersion {
                path: origin.to_owned(),
                found: u32::try_from(found).unwrap_or(u32::MAX),
                supported: FULL_SNAPSHOT_VERSION,
            });
        }
    }
    serde_json::from_value(value).map_err(|e| CliError::Failed(format!("{origin}: {e}")))
}

fn restore_err(origin: &str) -> impl Fn(SimError) -> CliError + '_ {
    move |e| match e {
        SimError::UnsupportedSnapshotVersion { found, supported } => CliError::SnapshotVersion {
            path: origin.to_owned(),
            found,
            supported,
        },
        other => CliError::Failed(format!("{origin}: {other}")),
    }
}

/// Buffered line source. A concrete `BufReader` (not `dyn BufRead`) so the
/// loop can see whether a further complete line is already buffered,
/// which is where a batch ends.
type LineReader = BufReader<Box<dyn Read>>;

/// The line source: stdin, a file, or one accepted TCP connection (whose
/// write half, when available, carries the per-line JSON responses).
fn open_input(args: &Args) -> Result<(LineReader, Option<std::net::TcpStream>), CliError> {
    if let Some(addr) = args.get("listen") {
        let listener = std::net::TcpListener::bind(addr).map_err(io_err)?;
        // One connection per process: the client streams JSONL and closes;
        // EOF drains the session, writes the snapshot, and exits. A
        // supervisor restarting the binary with `--data-dir` gives the
        // continuous-service loop.
        let (conn, _peer) = listener.accept().map_err(io_err)?;
        // Each batch of responses goes out in one write; Nagle would hold
        // it back until the client's next segment acknowledges the last.
        // Failing to set the option costs latency only.
        let _ = conn.set_nodelay(true);
        let responses = conn.try_clone().ok();
        return Ok((BufReader::new(Box::new(conn)), responses));
    }
    let source: Box<dyn Read> = match args.get_or("input", "-") {
        "-" => Box::new(std::io::stdin()),
        path => Box::new(std::fs::File::open(path).map_err(io_err)?),
    };
    Ok((BufReader::new(source), None))
}

/// Typed rejection reasons echoed on the wire and counted per-reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RejectReason {
    Malformed,
    QueueFull,
    TenantQuota,
    Duplicate,
    OutOfOrder,
}

impl RejectReason {
    fn as_str(self) -> &'static str {
        match self {
            RejectReason::Malformed => "malformed",
            RejectReason::QueueFull => "queue_full",
            RejectReason::TenantQuota => "tenant_quota",
            RejectReason::Duplicate => "duplicate",
            RejectReason::OutOfOrder => "out_of_order",
        }
    }
}

/// Maps an admission rejection to its wire reason. `None` means the error
/// is not an admission rejection and must stay fatal.
fn reject_reason(e: &SimError) -> Option<RejectReason> {
    match e {
        SimError::MalformedJobSpec { .. } => Some(RejectReason::Malformed),
        SimError::QueueFull { .. } => Some(RejectReason::QueueFull),
        SimError::TenantQuotaExceeded { .. } => Some(RejectReason::TenantQuota),
        SimError::DuplicateJobId { .. } => Some(RejectReason::Duplicate),
        SimError::OutOfOrderSubmit { .. } => Some(RejectReason::OutOfOrder),
        _ => None,
    }
}

/// Per-line JSON responses on the TCP write half (no-op for file/stdin
/// input). Responses are queued, each with its newline, and a whole batch
/// leaves in one `write_all` once its journal commit is done. Write
/// failures are ignored: a vanished client must not take the session down.
struct Responder<W: Write> {
    conn: Option<W>,
    pending: Vec<u8>,
}

impl<W: Write> Responder<W> {
    fn new(conn: Option<W>) -> Self {
        Self {
            conn,
            pending: Vec::new(),
        }
    }

    fn send(&mut self, m: Map) {
        if self.conn.is_none() {
            return;
        }
        if let Ok(text) = serde_json::to_string(&Value::Object(m)) {
            self.pending.extend_from_slice(text.as_bytes());
            self.pending.push(b'\n');
        }
    }

    /// Puts every queued response on the wire in one write. Call only
    /// after the journal commit that covers the batch.
    fn send_batch(&mut self) {
        if let Some(conn) = &mut self.conn {
            if !self.pending.is_empty() {
                let _ = conn.write_all(&self.pending);
            }
        }
        self.pending.clear();
    }

    fn accepted(&mut self, line_no: u64, id: u64, seq: Option<u64>) {
        if self.conn.is_none() {
            return;
        }
        let mut m = Map::new();
        m.insert("status", Value::String("accepted".into()));
        m.insert("line", Value::UInt(line_no));
        m.insert("id", Value::UInt(id));
        if let Some(seq) = seq {
            m.insert("seq", Value::UInt(seq));
        }
        self.send(m);
    }

    fn rejected(&mut self, line_no: u64, id: Option<u64>, reason: RejectReason, detail: &str) {
        if self.conn.is_none() {
            return;
        }
        let mut m = Map::new();
        m.insert("status", Value::String("rejected".into()));
        m.insert("line", Value::UInt(line_no));
        if let Some(id) = id {
            m.insert("id", Value::UInt(id));
        }
        m.insert("reason", Value::String(reason.as_str().into()));
        m.insert("detail", Value::String(detail.into()));
        self.send(m);
    }
}

/// Sampled sink for poison input lines: up to `cap` raw lines (with their
/// line number and parse error) are appended as JSONL. Counting happens
/// regardless of the cap; write failures are swallowed — quarantine is an
/// aid, never a reason to stop serving.
struct Quarantine {
    path: Option<PathBuf>,
    cap: u64,
    written: u64,
}

impl Quarantine {
    fn record(&mut self, line_no: u64, raw: &str, error: &str) -> bool {
        let Some(path) = &self.path else { return false };
        if self.written >= self.cap {
            return false;
        }
        let mut m = Map::new();
        m.insert("line", Value::UInt(line_no));
        m.insert("error", Value::String(error.to_owned()));
        m.insert("raw", Value::String(raw.to_owned()));
        let Ok(text) = serde_json::to_string(&Value::Object(m)) else {
            return false;
        };
        let ok = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{text}"))
            .is_ok();
        if ok {
            self.written += 1;
        }
        ok
    }
}

/// Wire-layer counters, published with `set_total` from [`WireStats`] so a
/// recovered process reports stream-lifetime values in the byte-stable
/// metrics dump.
struct WireMetrics {
    rejected_total: Counter,
    malformed: Counter,
    queue_full: Counter,
    tenant_quota: Counter,
    duplicate: Counter,
    out_of_order: Counter,
    quarantined: Counter,
    partial_tails: Counter,
    disconnects: Counter,
}

impl WireMetrics {
    fn register(rec: &Recorder) -> Self {
        Self {
            rejected_total: rec.counter(
                "serve_rejected_total",
                "Input lines rejected by the serve admission layer (all reasons)",
            ),
            malformed: rec.counter(
                "serve_rejected_malformed_total",
                "Input lines rejected as malformed",
            ),
            queue_full: rec.counter(
                "serve_rejected_queue_full_total",
                "Jobs rejected because the non-terminal backlog hit --max-queue",
            ),
            tenant_quota: rec.counter(
                "serve_rejected_tenant_quota_total",
                "Jobs rejected because their tenant hit --tenant-quota",
            ),
            duplicate: rec.counter(
                "serve_rejected_duplicate_total",
                "Jobs rejected for reusing a live job id",
            ),
            out_of_order: rec.counter(
                "serve_rejected_out_of_order_total",
                "Jobs rejected for arriving out of submit_time order",
            ),
            quarantined: rec.counter(
                "serve_quarantined_lines_total",
                "Malformed input lines written to the quarantine file",
            ),
            partial_tails: rec.counter(
                "serve_partial_tail_discards_total",
                "Unterminated input tails discarded at connection EOF",
            ),
            disconnects: rec.counter(
                "serve_disconnects_total",
                "Abrupt client disconnects absorbed without ending the session",
            ),
        }
    }

    fn publish(&self, w: &WireStats) {
        self.rejected_total.set_total(w.rejected_total());
        self.malformed.set_total(w.rejected_malformed);
        self.queue_full.set_total(w.rejected_queue_full);
        self.tenant_quota.set_total(w.rejected_tenant_quota);
        self.duplicate.set_total(w.rejected_duplicate);
        self.out_of_order.set_total(w.rejected_out_of_order);
        self.quarantined.set_total(w.quarantined);
        self.partial_tails.set_total(w.partial_tails);
        self.disconnects.set_total(w.disconnects);
    }
}

/// The durability half of a `--data-dir` session: journal handle, metric
/// handles, the lifetime truncation total (carried through snapshots),
/// and the auto-snapshot policy state.
struct Durable {
    data: DataDir,
    wal: Wal,
    metrics: WalMetrics,
    truncated_total: u64,
    snap_jobs: u64,
    snap_secs: f64,
    records_since_snap: u64,
    last_snap_now: f64,
}

impl Durable {
    /// Journals one record without syncing it; the next
    /// [`Durable::commit`] makes it durable.
    fn append(&mut self, record: WalRecord) -> Result<u64, CliError> {
        let seq = self.wal.append_unsynced(record).map_err(wal_err)?;
        self.records_since_snap += 1;
        self.metrics.publish(&self.wal, self.truncated_total);
        Ok(seq)
    }

    /// Makes every record appended so far durable (one fsync at most).
    fn commit(&mut self) -> Result<(), CliError> {
        self.wal.commit().map_err(wal_err)
    }

    /// Whether the auto-snapshot policy wants a snapshot *now* (the caller
    /// still checks quiescence). Both triggers are deterministic functions
    /// of the accepted stream — journaled-records-since-snapshot and
    /// simulated seconds-since-snapshot — so a recovered run snapshots at
    /// the same stream positions as a never-crashed one.
    fn snapshot_due(&self, now: f64) -> bool {
        if self.records_since_snap == 0 {
            return false;
        }
        (self.snap_jobs > 0 && self.records_since_snap >= self.snap_jobs)
            || (self.snap_secs > 0.0 && now - self.last_snap_now >= self.snap_secs)
    }

    /// Writes a watermarked snapshot (temp file + rename, newest two
    /// generations kept), *then* truncates the journal through the
    /// watermark. A crash between the two steps only leaves covered
    /// records behind; recovery filters them by sequence number.
    fn take_snapshot(
        &mut self,
        session: &ServeSession,
        sched: &ThreeSigmaScheduler,
        wire: &WireStats,
    ) -> Result<(), CliError> {
        let full = FullSnapshot {
            format_version: Some(FULL_SNAPSHOT_VERSION),
            engine: session.snapshot().map_err(sim_err)?,
            sched: sched.serve_snapshot(),
            wire: Some(*wire),
        };
        let watermark = self.wal.next_seq().saturating_sub(1);
        // Count the truncation at snapshot-write time: the snapshot carries
        // the post-truncation lifetime total, so the counter is identical
        // whether or not the truncate below ever runs before a crash.
        let body = self.wal.len_bytes().saturating_sub(WAL_MAGIC.len() as u64);
        let total = self.truncated_total + body;
        let payload = serde_json::to_value(&full).map_err(io_err)?;
        self.data
            .write_snapshot(&SnapshotFile {
                format_version: SNAPSHOT_FORMAT_VERSION,
                wal_seq: watermark,
                wal_truncated_bytes: total,
                payload,
            })
            .map_err(wal_err)?;
        self.truncated_total = total;
        self.wal.truncate_through(watermark).map_err(wal_err)?;
        self.records_since_snap = 0;
        self.last_snap_now = session.now();
        self.metrics.publish(&self.wal, self.truncated_total);
        Ok(())
    }
}

/// Counts a rejection, samples it into quarantine (malformed lines only),
/// republishes the counters, and echoes the typed wire response.
#[allow(clippy::too_many_arguments)]
fn reject(
    line_no: u64,
    id: Option<u64>,
    reason: RejectReason,
    detail: &str,
    quarantine_raw: Option<&str>,
    wire: &mut WireStats,
    wire_metrics: &WireMetrics,
    responder: &mut Responder<impl Write>,
    quarantine: &mut Quarantine,
) {
    match reason {
        RejectReason::Malformed => wire.rejected_malformed += 1,
        RejectReason::QueueFull => wire.rejected_queue_full += 1,
        RejectReason::TenantQuota => wire.rejected_tenant_quota += 1,
        RejectReason::Duplicate => wire.rejected_duplicate += 1,
        RejectReason::OutOfOrder => wire.rejected_out_of_order += 1,
    }
    if let Some(raw) = quarantine_raw {
        if quarantine.record(line_no, raw, detail) {
            wire.quarantined += 1;
        }
    }
    wire_metrics.publish(wire);
    // Typed rejections admit nothing, so there is no record to replay;
    // only accepted jobs are journaled before their ack.
    // lint: no-journal
    responder.rejected(line_no, id, reason, detail);
}

/// Processes one complete input line: parse, admit, journal, submit, and
/// queue the ack (sent by [`end_batch`] after the journal commit).
/// Malformed lines and admission rejections are absorbed (counted,
/// quarantined, echoed); only internal failures are fatal.
#[allow(clippy::too_many_arguments)]
fn handle_line(
    raw: &[u8],
    line_no: u64,
    session: &mut ServeSession,
    sched: &mut ThreeSigmaScheduler,
    durable: &mut Option<Durable>,
    wire: &mut WireStats,
    wire_metrics: &WireMetrics,
    responder: &mut Responder<impl Write>,
    quarantine: &mut Quarantine,
) -> Result<(), CliError> {
    let text = match std::str::from_utf8(raw) {
        Ok(t) => t,
        Err(_) => {
            let lossy = String::from_utf8_lossy(raw).into_owned();
            reject(
                line_no,
                None,
                RejectReason::Malformed,
                "line is not valid UTF-8",
                Some(&lossy),
                wire,
                wire_metrics,
                responder,
                quarantine,
            );
            return Ok(());
        }
    };
    let line = text.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(());
    }
    let spec = match parse_wire_job(line, line_no) {
        Ok(s) => s,
        Err(e) => {
            reject(
                line_no,
                None,
                RejectReason::Malformed,
                &e.to_string(),
                Some(line),
                wire,
                wire_metrics,
                responder,
                quarantine,
            );
            return Ok(());
        }
    };
    // Admission runs against the *current* state, before any pump, so a
    // rejected line leaves the session untouched: replaying the journal
    // (accepted records only) reconstructs the identical state machine.
    if let Err(e) = session.admit(&spec) {
        let Some(reason) = reject_reason(&e) else {
            return Err(sim_err(e));
        };
        let raw = (reason == RejectReason::Malformed).then_some(line);
        reject(
            line_no,
            Some(spec.id.0),
            reason,
            &e.to_string(),
            raw,
            wire,
            wire_metrics,
            responder,
            quarantine,
        );
        return Ok(());
    }
    let id = spec.id.0;
    session
        .pump_until(spec.submit_time, sched)
        .map_err(sim_err)?;
    let seq = match durable {
        Some(d) => {
            // Quiescent idle gaps are the only legal snapshot points; take
            // one here if the policy says it is due, *before* journaling
            // the new job (so the snapshot watermark excludes it).
            if d.snapshot_due(session.now()) && session.is_quiescent() {
                d.take_snapshot(session, sched, wire)?;
            }
            // Journal before submitting; the ack queued below leaves only
            // after the batch's commit has made this record durable.
            Some(d.append(WalRecord::Job(spec.clone()))?)
        }
        None => None,
    };
    // Admission passed pre-pump and pumping only completes or cancels
    // work, so this submit cannot be rejected; any error here is internal.
    session.submit(spec).map_err(sim_err)?;
    wire.accepted += 1;
    wire_metrics.publish(wire);
    responder.accepted(line_no, id, seq);
    Ok(())
}

/// Ends a read batch: one journal commit makes every record the batch
/// appended durable, and only then do its queued responses leave.
fn end_batch(
    durable: &mut Option<Durable>,
    responder: &mut Responder<impl Write>,
) -> Result<(), CliError> {
    if let Some(d) = durable {
        d.commit()?;
    }
    responder.send_batch();
    Ok(())
}

/// `serve` — stream JSONL jobs through a bounded-memory scheduling session.
#[allow(clippy::too_many_lines)]
pub fn cmd_serve(args: &Args) -> Result<String, CliError> {
    let racks = positive_dim(args, "racks", 8)?;
    let nodes_per_rack = positive_dim(args, "nodes-per-rack", 32)?;
    let cluster = ClusterSpec::uniform(racks, nodes_per_rack as u32);

    let mut serve_cfg = ServeConfig::default();
    serve_cfg.cycle_interval = args.parse_or("cycle", serve_cfg.cycle_interval)?;
    serve_cfg.seed = args.parse_or("seed", serve_cfg.seed)?;
    serve_cfg.retention = args.parse_or("retention", 3600.0)?;
    if args.get("max-retries").is_some() {
        serve_cfg.retry.max_retries = args.parse_or("max-retries", 0u32)?;
    }
    serve_cfg.max_queue = cap(args, "max-queue", 0)?;
    serve_cfg.tenant_quota = cap(args, "tenant-quota", 0)?.map(|n| n as u64);

    let sched_cfg = SchedConfig {
        cycle_hint: serve_cfg.cycle_interval,
        cache_capacity: cap(args, "cache-cap", 4096)?,
        max_timings: cap(args, "max-timings", 256)?,
        ..SchedConfig::default()
    };
    let pred_cfg = PredictorConfig {
        max_tracked_values: cap(args, "predictor-cap", 4096)?,
        value_ttl: cap(args, "predictor-ttl", 0)?.map(|n| n as u64),
        ..PredictorConfig::default()
    };

    let recorder = Recorder::enabled();
    let mut sched = ThreeSigmaScheduler::new(sched_cfg, EstimateSource::Predicted, pred_cfg)
        .with_recorder(&recorder);
    let wire_metrics = WireMetrics::register(&recorder);
    let mut wire = WireStats::default();

    // Durable mode: recover the data directory (newest valid snapshot +
    // journal suffix) and replay the suffix through the same deterministic
    // ingest pipeline the live loop uses.
    let mut durable: Option<Durable> = None;
    let mut session = if let Some(dir) = args.get("data-dir") {
        if args.get("restore").is_some() {
            return Err(CliError::Failed(
                "--data-dir and --restore are mutually exclusive; the data directory \
                 carries its own snapshots"
                    .into(),
            ));
        }
        let sync = !args.switch("no-fsync");
        let data = DataDir::open(dir).map_err(wal_err)?;
        let mut recovered = recover_data_dir(&data, sync).map_err(wal_err)?;
        let metrics = WalMetrics::register(&recorder);
        let mut truncated_total = 0;
        let watermark = recovered.snapshot.as_ref().map_or(0, |s| s.wal_seq);
        let mut session = match &recovered.snapshot {
            Some(sf) => {
                truncated_total = sf.wal_truncated_bytes;
                let full = full_snapshot_from_value(&sf.payload, dir)?;
                wire = full.wire.unwrap_or_default();
                sched
                    .serve_restore(full.sched)
                    .map_err(|e| CliError::Failed(format!("data dir {dir}: {e}")))?;
                ServeSession::restore(cluster, serve_cfg, &recorder, &full.engine)
                    .map_err(restore_err(dir))?
            }
            None => ServeSession::new(cluster, serve_cfg, &recorder).map_err(sim_err)?,
        };
        // Finish an interrupted truncation: records at or below the
        // watermark were already counted into the snapshot's lifetime
        // truncation total, so this pass does not re-count them.
        if recovered.covered > 0 || recovered.duplicates > 0 {
            recovered.wal.truncate_through(watermark).map_err(wal_err)?;
        }
        let last_snap_now = session.now();
        let replayed = replay(&mut session, &mut sched, &recovered.suffix).map_err(sim_err)?;
        let jobs_replayed = recovered
            .suffix
            .iter()
            .filter(|e| matches!(e.record, WalRecord::Job(_)))
            .count() as u64;
        wire.accepted += jobs_replayed;
        metrics.recovered_records.set(replayed as f64);
        metrics.publish(&recovered.wal, truncated_total);
        durable = Some(Durable {
            data,
            wal: recovered.wal,
            metrics,
            truncated_total,
            snap_jobs: args.parse_or("snapshot-every-jobs", 256u64)?,
            snap_secs: args.parse_or("snapshot-every-secs", 0.0f64)?,
            records_since_snap: recovered.suffix.len() as u64,
            last_snap_now,
        });
        session
    } else {
        match args.get("restore") {
            Some(path) => {
                let text = std::fs::read_to_string(path).map_err(io_err)?;
                let value: Value = serde_json::from_str(&text)
                    .map_err(|e| CliError::Failed(format!("--restore {path}: {e}")))?;
                let origin = format!("--restore {path}");
                let full = full_snapshot_from_value(&value, &origin)?;
                wire = full.wire.unwrap_or_default();
                sched
                    .serve_restore(full.sched)
                    .map_err(|e| CliError::Failed(format!("{origin}: {e}")))?;
                ServeSession::restore(cluster, serve_cfg, &recorder, &full.engine)
                    .map_err(restore_err(&origin))?
            }
            None => ServeSession::new(cluster, serve_cfg, &recorder).map_err(sim_err)?,
        }
    };
    wire_metrics.publish(&wire);

    let (mut reader, conn) = open_input(args)?;
    let is_tcp = conn.is_some();
    let mut responder = Responder::new(conn);
    let quarantine_path = match args.get("quarantine") {
        Some(p) => Some(PathBuf::from(p)),
        None => durable.as_ref().map(|d| d.data.quarantine_path()),
    };
    let mut quarantine = Quarantine {
        path: quarantine_path,
        cap: args.parse_or("quarantine-sample", 100u64)?,
        written: 0,
    };

    // Byte-level read loop: `read_until` instead of `lines()` so a torn
    // final line (mid-line EOF on a dropped connection) is detectable and
    // a read error on TCP degrades to a warning instead of an exit. A
    // batch ends when no further complete line is buffered; the reader
    // only blocks, hits EOF or fails after such a boundary, so every
    // processed line is committed and answered before the loop exits.
    let mut line_no = 0u64;
    let mut buf: Vec<u8> = Vec::new();
    let warning = loop {
        buf.clear();
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => break None,
            Ok(_) => {
                if buf.last() != Some(&b'\n') && is_tcp {
                    // Mid-line EOF: the client died mid-send. Every
                    // complete line is already processed (and journaled);
                    // discard the torn tail with a typed warning.
                    wire.partial_tails += 1;
                    wire_metrics.publish(&wire);
                    break Some(format!(
                        "partial input tail discarded ({} bytes, mid-line EOF)",
                        buf.len()
                    ));
                }
                line_no += 1;
                handle_line(
                    &buf,
                    line_no,
                    &mut session,
                    &mut sched,
                    &mut durable,
                    &mut wire,
                    &wire_metrics,
                    &mut responder,
                    &mut quarantine,
                )?;
                if !reader.buffer().contains(&b'\n') {
                    end_batch(&mut durable, &mut responder)?;
                }
            }
            Err(e) => {
                if is_tcp {
                    wire.disconnects += 1;
                    wire_metrics.publish(&wire);
                    break Some(format!("client disconnected abruptly: {e}"));
                }
                return Err(io_err(e));
            }
        }
    };
    if let Some(w) = &warning {
        eprintln!("serve: warning: {w}");
    }

    // EOF: run the backlog to quiescence. `drain(∞)` always empties the
    // queue, so the snapshot below cannot fail the quiescence check. In
    // durable mode the drain is journaled as a clock advance first (so a
    // crash before the closing snapshot still recovers it), then the
    // closing snapshot truncates the journal.
    session.drain(f64::INFINITY, &mut sched).map_err(sim_err)?;
    if let Some(d) = &mut durable {
        d.append(WalRecord::Clock { now: session.now() })?;
        d.commit()?;
        d.take_snapshot(&session, &sched, &wire)?;
    }

    if let Some(path) = args.get("snapshot-out") {
        let snap = FullSnapshot {
            format_version: Some(FULL_SNAPSHOT_VERSION),
            engine: session.snapshot().map_err(sim_err)?,
            sched: sched.serve_snapshot(),
            wire: Some(wire),
        };
        let json = serde_json::to_string_pretty(&snap).map_err(io_err)?;
        std::fs::write(path, json).map_err(io_err)?;
    }
    let summary = session.summary();
    if let Some(path) = args.get("summary-json") {
        let json = serde_json::to_string_pretty(&summary).map_err(io_err)?;
        std::fs::write(path, json).map_err(io_err)?;
    }
    if let Some(path) = args.get("metrics-json") {
        std::fs::write(path, recorder.snapshot().to_stable_json()).map_err(io_err)?;
    }
    Ok(format!(
        "serve: submitted={} completed={} canceled={} retired={} live={} \
         cycles={} now={:.1}s slo_miss={:.1}% rejected={} quarantined={} digest={:016x}",
        summary.submitted,
        summary.completed,
        summary.canceled,
        summary.retired,
        summary.live,
        summary.cycles,
        summary.now,
        summary.slo_miss_pct,
        wire.rejected_total(),
        wire.quarantined,
        summary.digest,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::dispatch;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "threesigma_serve_{name}_{}.json",
            std::process::id()
        ))
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("threesigma_serve_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The checked-in serve-smoke fixtures: six jobs early (with comment
    /// and blank lines), an idle gap long enough for them all to finish
    /// and retire, then four more at t = 2000. CI streams these same
    /// files through the release binary and `cmp`s the outputs.
    fn part1() -> String {
        fixture("serve_part1.jsonl")
    }

    fn part2() -> String {
        fixture("serve_part2.jsonl")
    }

    fn fixture(name: &str) -> String {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(name);
        std::fs::read_to_string(path).unwrap()
    }

    fn serve(extra: &[&str]) -> Result<String, CliError> {
        let mut argv: Vec<String> = vec!["serve".into(), "--retention".into(), "50".into()];
        argv.extend(extra.iter().map(|s| (*s).to_owned()));
        dispatch(&Args::parse(argv).unwrap())
    }

    /// Drops the one genuinely process-local metric before comparing two
    /// runs' stable dumps (a straight-through run recovers nothing).
    fn filter_recovered(metrics: &str) -> String {
        metrics
            .lines()
            .filter(|l| !l.contains("wal_recovered_records"))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn serve_streams_jobs_and_reports_summary() {
        let input = tmp("stream_in");
        std::fs::write(&input, format!("{}{}", part1(), part2())).unwrap();
        let out = serve(&["--input", input.to_str().unwrap()]).unwrap();
        assert!(out.contains("submitted=10"), "{out}");
        assert!(out.contains("completed=10"), "{out}");
        assert!(out.contains("rejected=0"), "{out}");
        assert!(out.contains("digest="), "{out}");
        let _ = std::fs::remove_file(input);
    }

    #[test]
    fn serve_snapshot_restore_reproduces_the_uninterrupted_run() {
        let files: Vec<_> = [
            "full_in",
            "p1_in",
            "p2_in",
            "snap",
            "m_full",
            "m_resumed",
            "s_full",
            "s_resumed",
        ]
        .iter()
        .map(|n| tmp(&format!("equiv_{n}")))
        .collect();
        let [full_in, p1_in, p2_in, snap, m_full, m_resumed, s_full, s_resumed] =
            <[_; 8]>::try_from(files.clone()).unwrap();
        std::fs::write(&full_in, format!("{}{}", part1(), part2())).unwrap();
        std::fs::write(&p1_in, part1()).unwrap();
        std::fs::write(&p2_in, part2()).unwrap();

        // Uninterrupted run.
        serve(&[
            "--input",
            full_in.to_str().unwrap(),
            "--metrics-json",
            m_full.to_str().unwrap(),
            "--summary-json",
            s_full.to_str().unwrap(),
        ])
        .unwrap();
        // Stream part 1, snapshot at the idle gap, "crash".
        serve(&[
            "--input",
            p1_in.to_str().unwrap(),
            "--snapshot-out",
            snap.to_str().unwrap(),
        ])
        .unwrap();
        // Restore in a fresh process image and stream the remainder.
        serve(&[
            "--input",
            p2_in.to_str().unwrap(),
            "--restore",
            snap.to_str().unwrap(),
            "--metrics-json",
            m_resumed.to_str().unwrap(),
            "--summary-json",
            s_resumed.to_str().unwrap(),
        ])
        .unwrap();

        let metrics_full = std::fs::read(&m_full).unwrap();
        let metrics_resumed = std::fs::read(&m_resumed).unwrap();
        assert_eq!(
            metrics_full, metrics_resumed,
            "restored run must reproduce the uninterrupted metrics dump byte-for-byte"
        );
        let summary_full = std::fs::read(&s_full).unwrap();
        let summary_resumed = std::fs::read(&s_resumed).unwrap();
        assert_eq!(
            summary_full, summary_resumed,
            "restored run must reproduce the uninterrupted summary (incl. digest)"
        );
        for p in &files {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn malformed_lines_are_quarantined_with_line_numbers_not_fatal() {
        let input = tmp("poison_in");
        let qfile = tmp("poison_quarantine");
        let _ = std::fs::remove_file(&qfile);
        let lines = [
            "not json",
            "{\"id\":1,\"submit_time\":0,\"tasks\":1,\"duration\":5}",
            "{\"id\":1,\"tenant\":\"t\",\"submit_time\":0,\"tasks\":0,\"duration\":5}",
            "{\"id\":1,\"tenant\":\"t\",\"submit_time\":0,\"tasks\":1,\"duration\":5,\
             \"deadline\":-1}",
            "{\"id\":9,\"tenant\":\"t\",\"submit_time\":0,\"tasks\":1,\"duration\":5}",
        ];
        std::fs::write(&input, lines.join("\n") + "\n").unwrap();
        let out = serve(&[
            "--input",
            input.to_str().unwrap(),
            "--quarantine",
            qfile.to_str().unwrap(),
        ])
        .unwrap();
        // Poison lines never kill the stream: the one good job still runs.
        assert!(out.contains("submitted=1"), "{out}");
        assert!(out.contains("rejected=4"), "{out}");
        assert!(out.contains("quarantined=4"), "{out}");
        let quarantined = std::fs::read_to_string(&qfile).unwrap();
        assert_eq!(quarantined.lines().count(), 4, "{quarantined}");
        for needle in ["\"line\":1", "tenant", "tasks", "deadline"] {
            assert!(quarantined.contains(needle), "{needle}: {quarantined}");
        }
        let _ = std::fs::remove_file(input);
        let _ = std::fs::remove_file(qfile);
    }

    #[test]
    fn overload_burst_is_rejected_typed_and_the_session_stays_up() {
        let input = tmp("burst_in");
        let metrics = tmp("burst_metrics");
        // A 2x burst against --max-queue 4: twelve long jobs land while
        // nothing can finish, so eight are rejected as queue_full.
        let mut lines = String::new();
        for i in 0..12u64 {
            lines.push_str(&format!(
                "{{\"id\":{i},\"tenant\":\"acme\",\"submit_time\":{}.0,\"tasks\":1,\
                 \"duration\":500.0}}\n",
                i
            ));
        }
        std::fs::write(&input, lines).unwrap();
        let out = serve(&[
            "--input",
            input.to_str().unwrap(),
            "--max-queue",
            "4",
            "--metrics-json",
            metrics.to_str().unwrap(),
        ])
        .unwrap();
        // The process stayed up, every accepted job reached a terminal
        // outcome, and the rejections are typed and counted.
        assert!(out.contains("submitted=4"), "{out}");
        assert!(out.contains("completed=4"), "{out}");
        assert!(out.contains("rejected=8"), "{out}");
        let dump = std::fs::read_to_string(&metrics).unwrap();
        assert!(
            dump.contains("\"serve_rejected_queue_full_total\": 8"),
            "{dump}"
        );
        assert!(dump.contains("\"serve_rejected_total\": 8"), "{dump}");
        let _ = std::fs::remove_file(input);
        let _ = std::fs::remove_file(metrics);
    }

    #[test]
    fn tenant_quota_rejections_are_per_tenant() {
        let input = tmp("quota_in");
        // Tenants alternate; each may hold two jobs in flight.
        let mut lines = String::new();
        for i in 0..8u64 {
            let tenant = if i % 2 == 0 { "a" } else { "b" };
            lines.push_str(&format!(
                "{{\"id\":{i},\"tenant\":\"{tenant}\",\"submit_time\":{i}.0,\"tasks\":1,\
                 \"duration\":500.0}}\n"
            ));
        }
        std::fs::write(&input, lines).unwrap();
        let out = serve(&["--input", input.to_str().unwrap(), "--tenant-quota", "2"]).unwrap();
        assert!(out.contains("submitted=4"), "{out}");
        assert!(out.contains("rejected=4"), "{out}");
        let _ = std::fs::remove_file(input);
    }

    #[test]
    fn data_dir_crash_recovery_matches_the_straight_through_run() {
        let dir_straight = tmpdir("dd_straight");
        let dir_crashed = tmpdir("dd_crashed");
        let files: Vec<_> = ["full_in", "rest_in", "m_a", "m_b", "s_a", "s_b"]
            .iter()
            .map(|n| tmp(&format!("dd_{n}")))
            .collect();
        let [full_in, rest_in, m_a, m_b, s_a, s_b] = <[_; 6]>::try_from(files.clone()).unwrap();

        let stream = format!("{}{}", part1(), part2());
        let job_lines: Vec<&str> = stream
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect();
        std::fs::write(&full_in, job_lines.join("\n") + "\n").unwrap();

        // Straight-through durable run.
        serve(&[
            "--data-dir",
            dir_straight.to_str().unwrap(),
            "--snapshot-every-jobs",
            "3",
            "--input",
            full_in.to_str().unwrap(),
            "--metrics-json",
            m_a.to_str().unwrap(),
            "--summary-json",
            s_a.to_str().unwrap(),
        ])
        .unwrap();

        // Simulate a crash after the fourth acknowledged job: the journal
        // holds exactly those records, no snapshot was ever written, and
        // the process never reached EOF.
        const KILL_AT: usize = 4;
        let data = DataDir::open(&dir_crashed).unwrap();
        let (mut wal, _) = Wal::open(&data.journal_path(), true).unwrap();
        for line in &job_lines[..KILL_AT] {
            let spec = parse_wire_job(line, 1).unwrap();
            wal.append(WalRecord::Job(spec)).unwrap();
        }
        drop(wal);
        std::fs::write(&rest_in, job_lines[KILL_AT..].join("\n") + "\n").unwrap();

        // Recover and finish the stream.
        serve(&[
            "--data-dir",
            dir_crashed.to_str().unwrap(),
            "--snapshot-every-jobs",
            "3",
            "--input",
            rest_in.to_str().unwrap(),
            "--metrics-json",
            m_b.to_str().unwrap(),
            "--summary-json",
            s_b.to_str().unwrap(),
        ])
        .unwrap();

        let summary_a = std::fs::read(&s_a).unwrap();
        let summary_b = std::fs::read(&s_b).unwrap();
        assert_eq!(
            summary_a, summary_b,
            "recovered run must reproduce the straight-through summary (incl. digest)"
        );
        let metrics_a = filter_recovered(&std::fs::read_to_string(&m_a).unwrap());
        let metrics_b = filter_recovered(&std::fs::read_to_string(&m_b).unwrap());
        assert_eq!(
            metrics_a, metrics_b,
            "recovered run must reproduce the straight-through metrics (modulo \
             wal_recovered_records)"
        );
        assert!(
            metrics_b.contains("wal_appended_records_total"),
            "{metrics_b}"
        );
        for p in &files {
            let _ = std::fs::remove_file(p);
        }
        let _ = std::fs::remove_dir_all(dir_straight);
        let _ = std::fs::remove_dir_all(dir_crashed);
    }

    #[test]
    fn restore_refuses_newer_snapshot_versions_with_a_typed_error() {
        let p1_in = tmp("ver_p1");
        let snap = tmp("ver_snap");
        std::fs::write(&p1_in, part1()).unwrap();
        serve(&[
            "--input",
            p1_in.to_str().unwrap(),
            "--snapshot-out",
            snap.to_str().unwrap(),
        ])
        .unwrap();
        let text = std::fs::read_to_string(&snap).unwrap();
        assert!(text.contains("\"format_version\": 2"), "{text}");
        let newer = text.replace("\"format_version\": 2", "\"format_version\": 99");
        std::fs::write(&snap, newer).unwrap();
        let err = serve(&[
            "--input",
            p1_in.to_str().unwrap(),
            "--restore",
            snap.to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(
            matches!(
                err,
                CliError::SnapshotVersion {
                    found: 99,
                    supported: FULL_SNAPSHOT_VERSION,
                    ..
                }
            ),
            "{err}"
        );
        let _ = std::fs::remove_file(p1_in);
        let _ = std::fs::remove_file(snap);
    }

    #[test]
    fn restore_accepts_legacy_snapshots_without_a_format_version() {
        let p1_in = tmp("legacy_p1");
        let p2_in = tmp("legacy_p2");
        let snap = tmp("legacy_snap");
        std::fs::write(&p1_in, part1()).unwrap();
        std::fs::write(&p2_in, part2()).unwrap();
        serve(&[
            "--input",
            p1_in.to_str().unwrap(),
            "--snapshot-out",
            snap.to_str().unwrap(),
        ])
        .unwrap();
        // Rewrite the snapshot as a legacy (version-1) file: no
        // format_version, no wire block — exactly what an older build wrote.
        let text = std::fs::read_to_string(&snap).unwrap();
        let value: Value = serde_json::from_str(&text).unwrap();
        let full: FullSnapshot = serde_json::from_value(&value).unwrap();
        let legacy = FullSnapshot {
            format_version: None,
            wire: None,
            ..full
        };
        let compact = serde_json::to_string(&legacy).unwrap();
        let stripped = compact
            .replace("\"format_version\":null,", "")
            .replace(",\"wire\":null", "");
        assert!(!stripped.contains("format_version"), "{stripped}");
        std::fs::write(&snap, stripped).unwrap();
        let out = serve(&[
            "--input",
            p2_in.to_str().unwrap(),
            "--restore",
            snap.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("submitted=10"), "{out}");
        for p in [&p1_in, &p2_in, &snap] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn data_dir_and_restore_are_mutually_exclusive() {
        let dir = tmpdir("excl");
        let err = serve(&[
            "--data-dir",
            dir.to_str().unwrap(),
            "--restore",
            "/nonexistent.json",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"), "{err}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn wire_jobs_mirror_tenant_into_the_user_feature_unless_overridden() {
        let spec = parse_wire_job(
            "{\"id\":7,\"tenant\":\"acme\",\"submit_time\":1,\"tasks\":2,\"duration\":9}",
            1,
        )
        .unwrap();
        assert_eq!(spec.attributes.get("tenant"), Some("acme"));
        assert_eq!(spec.attributes.get("user"), Some("acme"));
        let spec = parse_wire_job(
            "{\"id\":8,\"tenant\":\"acme\",\"user\":\"alice\",\"submit_time\":1,\
             \"tasks\":2,\"duration\":9}",
            1,
        )
        .unwrap();
        assert_eq!(spec.attributes.get("tenant"), Some("acme"));
        assert_eq!(spec.attributes.get("user"), Some("alice"));
    }

    /// Connects to a `--listen` server started on another thread,
    /// retrying until it is accepting.
    fn connect_when_listening(addr: &str) -> std::net::TcpStream {
        for _ in 0..200 {
            match std::net::TcpStream::connect(addr) {
                Ok(c) => return c,
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        }
        panic!("server did not start listening on {addr}");
    }

    /// A `Write` that records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn responder_sends_a_whole_batch_in_one_write_with_newlines() {
        let mut responder = Responder::new(Some(CountingWriter::default()));
        responder.accepted(1, 10, Some(1));
        responder.rejected(2, Some(10), RejectReason::Duplicate, "dup");
        responder.accepted(3, 11, None);
        fn sink(r: &Responder<CountingWriter>) -> &CountingWriter {
            r.conn.as_ref().unwrap()
        }
        assert_eq!(
            sink(&responder).writes,
            0,
            "nothing leaves before the batch ends"
        );
        responder.send_batch();
        // One write carries every response with its newline: an ack split
        // from its newline would be a second segment that Nagle holds back.
        assert_eq!(sink(&responder).writes, 1);
        let text = String::from_utf8(sink(&responder).bytes.clone()).unwrap();
        assert!(text.ends_with('\n'), "{text}");
        let lines: Vec<Value> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(
            lines
                .iter()
                .map(|v| v.get("line").and_then(Value::as_u64))
                .collect::<Vec<_>>(),
            vec![Some(1), Some(2), Some(3)]
        );
        responder.send_batch();
        assert_eq!(sink(&responder).writes, 1, "an empty batch writes nothing");
        // Without a connection nothing is queued at all.
        let mut silent: Responder<CountingWriter> = Responder::new(None);
        silent.accepted(1, 1, None);
        assert!(silent.pending.is_empty());
    }

    #[test]
    fn tcp_burst_in_one_write_gets_one_response_per_line_in_order() {
        use std::io::Read;
        let dir = tmpdir("tcp_burst");
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap().to_string();
        drop(probe);
        let server = {
            let (addr, dir) = (addr.clone(), dir.to_str().unwrap().to_owned());
            std::thread::spawn(move || serve(&["--listen", &addr, "--data-dir", &dir]).unwrap())
        };
        let mut conn = connect_when_listening(&addr);
        let burst =
            "{\"id\":1,\"tenant\":\"t\",\"submit_time\":0.0,\"tasks\":1,\"duration\":400.0}\n\
            {\"id\":1,\"tenant\":\"t\",\"submit_time\":1.0,\"tasks\":1,\"duration\":400.0}\n\
            not json\n\
            {\"id\":2,\"tenant\":\"u\",\"submit_time\":2.0,\"tasks\":2,\"duration\":50.0}\n\
            {\"id\":3,\"tenant\":\"u\",\"submit_time\":3.0,\"tasks\":0,\"duration\":50.0}\n";
        conn.write_all(burst.as_bytes()).unwrap();
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        let mut responses = String::new();
        conn.read_to_string(&mut responses).unwrap();
        let out = server.join().unwrap();
        assert!(out.contains("submitted=2"), "{out}");
        assert!(responses.ends_with('\n'), "{responses}");
        let got: Vec<String> = responses
            .lines()
            .map(|l| {
                let v: Value = serde_json::from_str(l).expect("one complete JSON object per line");
                let field = |k: &str| v.get(k).and_then(Value::as_str).unwrap_or("").to_owned();
                let line = v.get("line").and_then(Value::as_u64).unwrap();
                format!("{line} {} {}", field("status"), field("reason"))
            })
            .collect();
        let want = [
            "1 accepted ",
            "2 rejected duplicate",
            "3 rejected malformed",
            "4 accepted ",
            "5 rejected malformed",
        ];
        assert_eq!(got, want, "{responses}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn serve_accepts_one_tcp_connection_and_echoes_typed_responses() {
        use std::io::Read;
        // Pick a free port, then hand it to --listen. The probe listener is
        // dropped first; nothing else in this process binds ports.
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap().to_string();
        drop(probe);
        let server = {
            let addr = addr.clone();
            std::thread::spawn(move || serve(&["--listen", &addr]).unwrap())
        };
        let mut conn = connect_when_listening(&addr);
        conn.write_all(part1().as_bytes()).unwrap();
        // Kill the client mid-line: the torn tail must be discarded, the
        // six complete jobs processed, and the session must still produce
        // its summary.
        conn.write_all(b"{\"id\":99,\"tenant\":\"torn").unwrap();
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        let mut responses = String::new();
        conn.read_to_string(&mut responses).unwrap();
        let out = server.join().unwrap();
        assert!(out.contains("submitted=6"), "{out}");
        assert_eq!(
            responses
                .lines()
                .filter(|l| l.contains("\"status\":\"accepted\""))
                .count(),
            6,
            "{responses}"
        );
        assert!(responses.contains("\"id\":1"), "{responses}");
    }

    #[test]
    fn tcp_rejections_carry_typed_reasons_on_the_wire() {
        use std::io::Read;
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap().to_string();
        drop(probe);
        let server = {
            let addr = addr.clone();
            std::thread::spawn(move || serve(&["--listen", &addr, "--max-queue", "1"]).unwrap())
        };
        let mut conn = connect_when_listening(&addr);
        let lines = "not json\n\
            {\"id\":1,\"tenant\":\"t\",\"submit_time\":0.0,\"tasks\":1,\"duration\":400.0}\n\
            {\"id\":2,\"tenant\":\"t\",\"submit_time\":1.0,\"tasks\":1,\"duration\":400.0}\n";
        conn.write_all(lines.as_bytes()).unwrap();
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        let mut responses = String::new();
        conn.read_to_string(&mut responses).unwrap();
        let out = server.join().unwrap();
        assert!(out.contains("submitted=1"), "{out}");
        assert!(out.contains("rejected=2"), "{out}");
        assert!(
            responses.contains("\"reason\":\"malformed\""),
            "{responses}"
        );
        assert!(
            responses.contains("\"reason\":\"queue_full\""),
            "{responses}"
        );
        assert!(responses.contains("\"status\":\"accepted\""), "{responses}");
    }
}

/// Property tests: the wire job parser is total. Every byte string a
/// client can put on one line must come back as `Ok` or a typed
/// `Malformed` rejection — never a panic, since a poison line must not
/// take down the serve process.
#[cfg(test)]
mod parser_props {
    use super::*;
    use proptest::prelude::*;

    /// A well-formed wire line built from flat samples.
    fn valid_line(id: u64, submit: f64, tasks: u64, duration: f64, slo: bool) -> String {
        let deadline = if slo {
            format!(",\"deadline\":{}", submit + duration * 4.0 + 1.0)
        } else {
            String::new()
        };
        format!(
            "{{\"id\":{id},\"tenant\":\"t{}\",\"submit_time\":{submit},\"tasks\":{tasks},\
             \"duration\":{duration},\"team\":\"x\"{deadline}}}",
            id % 9
        )
    }

    proptest! {
        /// Arbitrary bytes (lossily decoded, as the serve loop does)
        /// never panic the parser.
        #[test]
        fn arbitrary_lines_never_panic(raw in prop::collection::vec(0u16..256, 0..200)) {
            let bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
            let line = String::from_utf8_lossy(&bytes);
            let _ = parse_wire_job(&line, 1);
        }

        /// Well-formed lines parse to exactly the sampled fields.
        #[test]
        fn valid_lines_round_trip(
            id in 0u64..1_000_000,
            submit in 0.0f64..100_000.0,
            tasks in 1u64..4_096,
            duration in 0.001f64..100_000.0,
            slo in 0u8..2,
        ) {
            let line = valid_line(id, submit, tasks, duration, slo == 1);
            let spec = parse_wire_job(&line, 1).expect("well-formed line parses");
            prop_assert_eq!(spec.id.0, id);
            prop_assert_eq!(spec.tasks, tasks as u32);
            prop_assert_eq!(spec.attributes.get("team"), Some("x"));
            prop_assert_eq!(matches!(spec.kind, JobKind::Slo { .. }), slo == 1);
        }

        /// Mutations of a valid line — truncation, a flipped byte, or a
        /// duplicated span — never panic; whatever still parses satisfies
        /// the same field invariants admission relies on.
        #[test]
        fn mutated_lines_never_panic(
            id in 0u64..1_000_000,
            submit in 0.0f64..100_000.0,
            tasks in 1u64..4_096,
            duration in 0.001f64..100_000.0,
            mode in 0u8..3,
            pos_frac in 0.0f64..1.0,
            byte in 0u16..256,
        ) {
            let mut bytes = valid_line(id, submit, tasks, duration, true).into_bytes();
            let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
            match mode {
                0 => bytes.truncate(pos),
                1 => bytes[pos] = byte as u8,
                _ => {
                    let span = bytes[pos..].to_vec();
                    bytes.extend_from_slice(&span);
                }
            }
            let line = String::from_utf8_lossy(&bytes).into_owned();
            if let Ok(spec) = parse_wire_job(&line, 7) {
                prop_assert!(spec.tasks >= 1);
                prop_assert!(spec.duration.is_finite() && spec.duration > 0.0);
                prop_assert!(spec.submit_time.is_finite() && spec.submit_time >= 0.0);
                prop_assert!(spec.attributes.get("tenant").is_some());
            }
        }
    }
}
