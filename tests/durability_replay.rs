//! Journal replay is idempotent and torn-tail tolerant: replaying a
//! journal twice yields the same recovery set, a crash mid-append never
//! corrupts the surviving prefix, and — proptest — a crash at *any*
//! byte offset recovers exactly the records whose frames fit before it.

use proptest::prelude::*;
use std::path::PathBuf;
use ucp::cover::CoverMatrix;
use ucp::ucp_core::wire::{JobResultDto, JobSpec, WireError};
use ucp::ucp_core::Preset;
use ucp::ucp_durability::{read_journal, Journal, Record, RecoverySet};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ucp-replay-test-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_matrix() -> CoverMatrix {
    CoverMatrix::from_rows(3, vec![vec![0, 1], vec![1, 2], vec![2, 0]])
}

fn done_result() -> JobResultDto {
    JobResultDto {
        cost: 2.0,
        lower_bound: 1.5,
        proven_optimal: true,
        infeasible: false,
        columns: vec![0, 2],
        iterations: 1,
        subgradient_iterations: 10,
        total_seconds: 0.001,
        core_rows: 3,
        core_cols: 3,
    }
}

/// A journal's worth of lifecycle records across four jobs: one fully
/// resolved, one failed, one cancelled, one left incomplete.
fn lifecycle_records() -> Vec<Record> {
    let spec = JobSpec::new(Preset::Fast);
    vec![
        Record::Submitted {
            job: 1,
            t_ms: 100,
            spec: Some(spec.clone()),
            matrix: Some(small_matrix()),
            tenant: Some("acme".into()),
            deadline_ms: None,
        },
        Record::Started { job: 1, t_ms: 101 },
        Record::Submitted {
            job: 2,
            t_ms: 102,
            spec: Some(spec.clone()),
            matrix: Some(small_matrix()),
            tenant: None,
            deadline_ms: Some(5_000),
        },
        Record::Done {
            job: 1,
            t_ms: 110,
            result: done_result(),
        },
        Record::Started { job: 2, t_ms: 111 },
        Record::Failed {
            job: 2,
            t_ms: 112,
            error: WireError::new(ucp::ucp_core::wire::WireCode::Expired, "deadline exceeded"),
        },
        Record::Submitted {
            job: 3,
            t_ms: 113,
            spec: None,
            matrix: None,
            tenant: Some("zen".into()),
            deadline_ms: None,
        },
        Record::Cancelled { job: 3, t_ms: 114 },
        Record::Submitted {
            job: 4,
            t_ms: 115,
            spec: Some(spec),
            matrix: Some(small_matrix()),
            tenant: Some("acme".into()),
            deadline_ms: None,
        },
        Record::Started { job: 4, t_ms: 116 },
    ]
}

/// Writes `records` through the real append path and returns the raw
/// journal bytes.
fn journal_bytes(records: &[Record]) -> Vec<u8> {
    let dir = tmp_dir("bytes");
    let journal = Journal::open(&dir).unwrap().journal;
    for r in records {
        journal.append(r).unwrap();
    }
    let path = journal.path().to_path_buf();
    drop(journal);
    let bytes = std::fs::read(path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

/// Replays a raw byte image by writing it into a fresh journal dir.
fn replay_image(tag: &str, bytes: &[u8]) -> ucp::ucp_durability::Replay {
    let dir = tmp_dir(tag);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("ucp.journal"), bytes).unwrap();
    let replay = read_journal(&dir).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    replay
}

#[test]
fn replaying_twice_yields_the_same_recovery_set() {
    let records = lifecycle_records();
    let bytes = journal_bytes(&records);
    let first = replay_image("twice-a", &bytes);
    let second = replay_image("twice-b", &bytes);
    assert_eq!(first, second);
    let set_a = RecoverySet::from_records(&first.records);
    let set_b = RecoverySet::from_records(&second.records);
    assert_eq!(set_a.jobs.len(), set_b.jobs.len());
    assert_eq!(set_a.max_job_id, set_b.max_job_id);
    assert_eq!(
        set_a.incomplete().map(|j| j.job).collect::<Vec<_>>(),
        set_b.incomplete().map(|j| j.job).collect::<Vec<_>>()
    );
    // And opening the journal for writing (which truncates torn tails)
    // replays the identical record sequence.
    let dir = tmp_dir("twice-open");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("ucp.journal"), &bytes).unwrap();
    let opened = Journal::open(&dir).unwrap();
    assert_eq!(opened.replay.records, first.records);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_final_record_recovers_the_prefix() {
    let records = lifecycle_records();
    let bytes = journal_bytes(&records);
    // Tear the last frame: drop the final byte.
    let torn = &bytes[..bytes.len() - 1];
    let replay = replay_image("torn", torn);
    assert_eq!(replay.records.len(), records.len() - 1);
    assert!(replay.torn_bytes > 0);
    assert_eq!(&replay.records[..], &records[..records.len() - 1]);
    // The torn record was job 4's `started`; its submission survives,
    // so the job is still recovered.
    let set = RecoverySet::from_records(&replay.records);
    assert!(set.jobs[&4].incomplete());
    assert!(set.jobs[&4].recoverable());
}

#[test]
fn garbage_tail_never_invents_records() {
    let records = lifecycle_records();
    let mut bytes = journal_bytes(&records);
    bytes.extend_from_slice(b"\xff\xfe\x00garbage that is not a frame");
    let replay = replay_image("garbage", &bytes);
    assert_eq!(replay.records, records);
    assert!(replay.torn_bytes > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Crash at any byte offset: the replay of the truncated file is
    /// exactly the records whose frames are fully contained in the
    /// prefix — no invented records, no lost complete frames, and the
    /// recovery set matches the one computed from those records.
    #[test]
    fn crash_at_any_offset_recovers_exactly_the_contained_prefix(frac in 0.0f64..1.0) {
        let records = lifecycle_records();
        let bytes = journal_bytes(&records);
        let cut = (bytes.len() as f64 * frac) as usize;
        let replay = replay_image("prop", &bytes[..cut]);

        // Expected: walk the intact file's frame boundaries.
        let full = replay_image("prop-full", &bytes);
        prop_assert_eq!(full.records.len(), records.len());
        let mut expect = 0usize;
        let mut pos = 0usize;
        while pos + 8 <= cut {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            if pos + 8 + len > cut {
                break;
            }
            pos += 8 + len;
            expect += 1;
        }
        prop_assert_eq!(replay.records.len(), expect);
        prop_assert_eq!(&replay.records[..], &records[..expect]);

        // Replay is deterministic on the truncated image too.
        let again = replay_image("prop-again", &bytes[..cut]);
        prop_assert_eq!(replay, again);
    }
}
