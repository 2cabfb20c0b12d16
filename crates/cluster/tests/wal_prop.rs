//! Property tests: the journal frame decoder is total and torn-write
//! tolerant.
//!
//! [`decode_journal`] is the trust boundary between disk bytes and
//! recovered state, so its contract is checked against adversarial
//! inputs rather than examples:
//!
//! * it never panics, on *any* byte string;
//! * it never returns a record whose CRC did not match — after any
//!   single-bit flip, the decoded entries are a strict prefix of the
//!   originals (the flipped frame and everything after it are dropped,
//!   never silently altered);
//! * torn-write recovery is byte-equivalent to a clean stop: truncating
//!   the file to the reported `valid_len` re-decodes with no defect and
//!   the identical entries;
//! * duplicated frames (what an interrupted truncation leaves behind) are
//!   skipped by sequence number, not re-applied;
//! * group commit changes no byte: `append_unsynced` + `commit` in any
//!   batching writes the same journal as per-record `append`, and the
//!   journal cut back to its last committed length (what a crash keeps of
//!   an uncommitted batch at worst) decodes to exactly the committed
//!   records.

use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use threesigma_cluster::wal::{decode_journal, encode_frame};
use threesigma_cluster::{JobKind, JobSpec, Wal, WalEntry, WalRecord, WAL_MAGIC};

/// The `i`-th sampled record: clock edges, best-effort and SLO jobs.
fn record(i: usize, ids: &[u64], times: &[f64]) -> WalRecord {
    match i % 3 {
        0 => WalRecord::Clock { now: times[i] },
        1 => WalRecord::Job(
            JobSpec::new(
                ids[i],
                times[i],
                1 + (ids[i] % 7) as u32,
                10.0,
                JobKind::BestEffort,
            )
            .with_attributes(
                threesigma_cluster::Attributes::new().with("tenant", format!("t{}", ids[i] % 5)),
            ),
        ),
        _ => WalRecord::Job(JobSpec::new(
            ids[i],
            times[i],
            2,
            30.0,
            JobKind::Slo {
                deadline: times[i] + 120.0,
            },
        )),
    }
}

/// Builds a valid journal byte stream of `n` frames from flat samples.
fn journal(n: usize, ids: &[u64], times: &[f64]) -> (Vec<u8>, Vec<WalEntry>) {
    let mut bytes = WAL_MAGIC.to_vec();
    let mut entries = Vec::new();
    for i in 0..n {
        let entry = WalEntry {
            seq: (i + 1) as u64,
            record: record(i, ids, times),
        };
        bytes.extend_from_slice(&encode_frame(&entry).expect("small frame encodes"));
        entries.push(entry);
    }
    (bytes, entries)
}

/// Clean-stop equivalence: re-decoding the reported valid prefix must be
/// defect-free and reproduce exactly the same entries. This is the
/// property `Wal::open` relies on when it repairs a torn tail by
/// truncation.
fn assert_prefix_clean(bytes: &[u8]) {
    let first = decode_journal(bytes);
    let prefix = &bytes[..first.valid_len as usize];
    let again = decode_journal(prefix);
    prop_assert_eq!(again.defect, None, "valid prefix re-decodes cleanly");
    prop_assert_eq!(again.entries, first.entries);
    prop_assert_eq!(again.duplicates, first.duplicates);
    prop_assert_eq!(again.valid_len, first.valid_len);
}

/// A fresh, empty scratch directory unique to this process and call.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "threesigma_walprop_{}_{tag}_{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

proptest! {
    /// Group commit is invisible in the bytes: the same records appended
    /// one durable `append` at a time, or `append_unsynced` with a commit
    /// at arbitrary batch boundaries, give byte-identical journals. Cut
    /// back to the last committed length, the batched journal decodes to
    /// exactly the records of its committed batches.
    #[test]
    fn group_commit_is_byte_identical_and_cuts_to_the_committed_prefix(
        n in 1usize..12,
        ids in prop::collection::vec(1u64..1_000, 12),
        times in prop::collection::vec(0.0f64..10_000.0, 12),
        commit_after in prop::collection::vec(0u8..2, 12),
    ) {
        let dir = scratch_dir("group");
        let single = dir.join("single.wal");
        let grouped = dir.join("grouped.wal");
        let (mut a, _) = Wal::open(&single, false).expect("open");
        let (mut b, _) = Wal::open(&grouped, false).expect("open");
        let mut committed = 0usize;
        for (i, &commit) in commit_after.iter().enumerate().take(n) {
            let seq_a = a.append(record(i, &ids, &times)).expect("append");
            let seq_b = b.append_unsynced(record(i, &ids, &times)).expect("append");
            prop_assert_eq!(seq_a, seq_b);
            if commit == 1 {
                b.commit().expect("commit");
                committed = i + 1;
            }
            prop_assert_eq!(b.len_bytes(), a.len_bytes());
        }
        let cut_len = b.committed_len();
        drop((a, b));
        let bytes = std::fs::read(&grouped).expect("read");
        prop_assert_eq!(&bytes, &std::fs::read(&single).expect("read"));

        let cut = &bytes[..cut_len as usize];
        let decode = decode_journal(cut);
        prop_assert_eq!(decode.defect, None);
        prop_assert_eq!(decode.valid_len, cut_len);
        let (_, entries) = journal(committed, &ids, &times);
        prop_assert_eq!(decode.entries, entries);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Totality on garbage: arbitrary bytes never panic the decoder, the
    /// valid prefix never exceeds the input, and the prefix property
    /// holds even for junk that happens to start with the magic.
    #[test]
    fn arbitrary_bytes_never_panic(
        raw in prop::collection::vec(0u16..256, 0..400),
        with_magic in 0u8..2,
    ) {
        let mut bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
        if with_magic == 1 {
            let mut prefixed = WAL_MAGIC.to_vec();
            prefixed.append(&mut bytes);
            bytes = prefixed;
        }
        let decode = decode_journal(&bytes);
        prop_assert!(decode.valid_len as usize <= bytes.len());
        assert_prefix_clean(&bytes);
    }

    /// Truncation at any offset models a torn write: the decoded entries
    /// are a prefix of the originals and the repaired file is
    /// byte-equivalent to a clean stop.
    #[test]
    fn truncation_yields_a_clean_prefix(
        n in 1usize..12,
        ids in prop::collection::vec(1u64..1_000, 12),
        times in prop::collection::vec(0.0f64..10_000.0, 12),
        cut_frac in 0.0f64..1.0,
    ) {
        let (bytes, entries) = journal(n, &ids, &times);
        let cut = (bytes.len() as f64 * cut_frac) as usize;
        let torn = &bytes[..cut];
        let decode = decode_journal(torn);
        prop_assert!(decode.entries.len() <= entries.len());
        prop_assert_eq!(
            &decode.entries[..],
            &entries[..decode.entries.len()],
            "decoded entries must be a prefix of what was written"
        );
        prop_assert_eq!(decode.duplicates, 0);
        assert_prefix_clean(torn);
    }

    /// A single flipped bit anywhere in the stream never panics and never
    /// leaks a corrupt record: the output is still a prefix of the
    /// original entries (the CRC, length, or magic check stops decoding
    /// at the damaged frame).
    #[test]
    fn bit_flips_never_leak_corrupt_records(
        n in 1usize..12,
        ids in prop::collection::vec(1u64..1_000, 12),
        times in prop::collection::vec(0.0f64..10_000.0, 12),
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let (mut bytes, entries) = journal(n, &ids, &times);
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        let decode = decode_journal(&bytes);
        // Strictly fewer entries than written iff the flip landed in a
        // live frame; either way nothing corrupt is surfaced.
        prop_assert!(decode.entries.len() <= entries.len());
        prop_assert_eq!(
            &decode.entries[..],
            &entries[..decode.entries.len()],
            "a flipped bit must truncate, never alter, the recovered log"
        );
        assert_prefix_clean(&bytes);
    }

    /// Re-appended old frames (an interrupted truncation's leftovers) are
    /// skipped by their stale sequence numbers, not applied twice.
    #[test]
    fn duplicated_frames_are_skipped(
        n in 2usize..12,
        ids in prop::collection::vec(1u64..1_000, 12),
        times in prop::collection::vec(0.0f64..10_000.0, 12),
        dup_frac in 0.0f64..1.0,
    ) {
        let (mut bytes, entries) = journal(n, &ids, &times);
        let dup = (n as f64 * dup_frac) as usize % n;
        let frame = encode_frame(&entries[dup]).expect("frame re-encodes");
        bytes.extend_from_slice(&frame);
        let decode = decode_journal(&bytes);
        prop_assert_eq!(decode.defect, None);
        prop_assert_eq!(decode.entries, entries);
        prop_assert_eq!(decode.duplicates, 1);
        prop_assert_eq!(decode.valid_len as usize, bytes.len());
        assert_prefix_clean(&bytes);
    }
}
