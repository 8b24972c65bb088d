//! Engine ↔ journal integration: lifecycle records, crash recovery via
//! `Engine::recover`, checkpoint resume and the wall-clock deadline
//! contract for recovered jobs.

use cover::CoverMatrix;
use std::path::PathBuf;
use std::sync::Arc;
use ucp_core::wire::JobSpec;
use ucp_core::{Preset, Scg, SolveRequest, WireCode, WireError};
use ucp_durability::{crc32, read_journal, Journal, Record, RecoverySet, Terminal, JOURNAL_FILE};
use ucp_engine::{Engine, EngineConfig, JobError};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ucp-engine-durability-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// STS(9): lower bound 3 strictly below the optimum 5, so the solver
/// never certifies early and runs its whole restart schedule — every
/// run emits a checkpoint.
fn sts9() -> CoverMatrix {
    CoverMatrix::from_rows(
        9,
        vec![
            vec![0, 1, 2],
            vec![3, 4, 5],
            vec![6, 7, 8],
            vec![0, 3, 6],
            vec![1, 4, 7],
            vec![2, 5, 8],
            vec![0, 4, 8],
            vec![1, 5, 6],
            vec![2, 3, 7],
            vec![0, 5, 7],
            vec![1, 3, 8],
            vec![2, 4, 6],
        ],
    )
}

fn fast_spec(seed: u64) -> JobSpec {
    let mut spec = JobSpec::new(Preset::Fast);
    spec.seed = Some(seed);
    spec
}

fn start_journaled(dir: &std::path::Path) -> (Engine, RecoverySet) {
    let opened = Journal::open(dir).unwrap();
    let set = RecoverySet::from_records(&opened.replay.records);
    let engine = Engine::start_journaled(
        EngineConfig {
            workers: 1,
            queue_capacity: 16,
        },
        Arc::new(opened.journal),
    );
    (engine, set)
}

#[test]
fn journal_records_the_full_job_lifecycle() {
    let dir = tmp_dir("lifecycle");
    let (engine, set) = start_journaled(&dir);
    assert!(set.jobs.is_empty());

    let m = Arc::new(sts9());
    let request = fast_spec(1).to_request(Arc::clone(&m));
    let handle = engine.submit_tagged(request, Some("acme")).expect("submit");
    let id = handle.id().0;
    let out = handle.wait().expect("job completes");
    assert_eq!(out.cost, 5.0);
    engine.shutdown();

    let replay = read_journal(&dir).unwrap();
    assert_eq!(replay.torn_bytes, 0);
    let set = RecoverySet::from_records(&replay.records);
    let job = &set.jobs[&id];
    assert_eq!(job.tenant.as_deref(), Some("acme"));
    assert!(job.spec.is_some(), "submitted record carries the spec");
    assert!(job.matrix.is_some(), "submitted record carries the matrix");
    assert!(job.started);
    assert!(
        job.checkpoints > 0,
        "journaled jobs checkpoint every run by default"
    );
    match &job.terminal {
        Some(Terminal::Done(result)) => assert_eq!(result.cost, 5.0),
        other => panic!("expected Done, got {other:?}"),
    }
    assert!(!job.incomplete());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pooled restarts checkpoint exactly like inline ones: a job asking for
/// two workers journals one checkpoint per run, as the serial job does.
#[test]
fn pooled_jobs_journal_every_checkpoint() {
    let dir = tmp_dir("pooled");
    let (engine, _) = start_journaled(&dir);
    let m = Arc::new(sts9());
    let mut serial_spec = JobSpec::new(Preset::Paper);
    serial_spec.workers = Some(1);
    let mut pooled_spec = JobSpec::new(Preset::Paper);
    pooled_spec.workers = Some(2);
    let serial = engine
        .submit(serial_spec.to_request(Arc::clone(&m)))
        .expect("submit");
    let pooled = engine
        .submit(pooled_spec.to_request(Arc::clone(&m)))
        .expect("submit");
    let (serial_id, pooled_id) = (serial.id().0, pooled.id().0);
    let serial = serial.wait().expect("serial job completes");
    let pooled = pooled.wait().expect("pooled job completes");
    engine.shutdown();
    assert_eq!(serial.restart_workers, 1);
    assert_eq!(pooled.restart_workers, 2);
    assert_eq!(pooled.cost, serial.cost);

    let replay = read_journal(&dir).unwrap();
    let checkpoints = |id| {
        replay
            .records
            .iter()
            .filter(|r| matches!(r, Record::Checkpoint { job, .. } if *job == id))
            .count()
    };
    assert!(checkpoints(serial_id) > 1, "one checkpoint per run");
    assert_eq!(checkpoints(pooled_id), checkpoints(serial_id));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recover_reenqueues_incomplete_jobs_once() {
    let dir = tmp_dir("recover");
    // A previous life journaled a submission (and its start) but died
    // before any terminal record.
    {
        let opened = Journal::open(&dir).unwrap();
        let journal = opened.journal;
        journal
            .append(&Record::Submitted {
                job: 7,
                t_ms: 1_000,
                spec: Some(fast_spec(3)),
                matrix: Some(sts9()),
                tenant: Some("acme".into()),
                deadline_ms: None,
            })
            .unwrap();
        journal
            .append(&Record::Started {
                job: 7,
                t_ms: 1_001,
            })
            .unwrap();
    }

    let (engine, set) = start_journaled(&dir);
    let recovered = engine.recover(&set);
    assert_eq!(recovered.len(), 1);
    assert_eq!(recovered[0].id, 7);
    assert_eq!(recovered[0].tenant.as_deref(), Some("acme"));
    let recovered = recovered.into_iter().next().unwrap();
    let out = recovered.handle.wait().expect("recovered job completes");
    assert_eq!(out.cost, 5.0);

    // Ids stay stable across the restart: new submissions never collide
    // with a recovered id.
    let fresh = engine
        .submit(fast_spec(4).to_request(Arc::new(sts9())))
        .unwrap();
    assert!(fresh.id().0 > 7);
    fresh.wait().unwrap();
    engine.shutdown();

    // The journal now holds exactly one terminal record for job 7, so a
    // second restart has nothing left to recover.
    let replay = read_journal(&dir).unwrap();
    let done_for_7 = replay
        .records
        .iter()
        .filter(|r| matches!(r, Record::Done { job: 7, .. }))
        .count();
    assert_eq!(done_for_7, 1, "exactly-once resolution");
    let set = RecoverySet::from_records(&replay.records);
    assert_eq!(set.incomplete().count(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recover_resumes_from_the_newest_checkpoint() {
    let m = sts9();
    // Capture real checkpoints from an uninterrupted solve.
    let mut ckpts = Vec::new();
    let baseline = Scg::run(
        SolveRequest::for_matrix(&m)
            .preset(Preset::Fast)
            .checkpoint_every(1)
            .checkpoint_sink(|c| ckpts.push(c.clone())),
    )
    .unwrap();
    assert!(!ckpts.is_empty());
    let ckpt = ckpts.last().unwrap().clone();

    let dir = tmp_dir("resume");
    {
        let opened = Journal::open(&dir).unwrap();
        let journal = opened.journal;
        journal
            .append(&Record::Submitted {
                job: 2,
                t_ms: 1,
                spec: Some(JobSpec::new(Preset::Fast)),
                matrix: Some(m.clone()),
                tenant: None,
                deadline_ms: None,
            })
            .unwrap();
        journal
            .append(&Record::Checkpoint {
                job: 2,
                t_ms: 2,
                ckpt,
            })
            .unwrap();
    }

    let (engine, set) = start_journaled(&dir);
    let mut recovered = engine.recover(&set);
    assert_eq!(recovered.len(), 1);
    assert!(recovered[0].resumed, "valid checkpoint is picked up");
    let out = recovered.pop().unwrap().handle.wait().expect("completes");
    assert!(out.resumed > 0, "outcome reports the skipped restarts");
    assert!(
        out.cost <= baseline.cost,
        "resume never loses ground: {} > {}",
        out.cost,
        baseline.cost
    );
    let stats = engine.shutdown();
    assert_eq!(stats.resumed, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovered_job_with_expired_deadline_resolves_expired() {
    let dir = tmp_dir("expired");
    {
        let opened = Journal::open(&dir).unwrap();
        let mut spec = fast_spec(5);
        // The original submission had a deadline; by the time this
        // journal is replayed it is long past (epoch + 1 s).
        spec.deadline = Some(std::time::Duration::from_secs(1));
        opened
            .journal
            .append(&Record::Submitted {
                job: 3,
                t_ms: 0,
                spec: Some(spec),
                matrix: Some(sts9()),
                tenant: None,
                deadline_ms: Some(1_000),
            })
            .unwrap();
    }

    let (engine, set) = start_journaled(&dir);
    let recovered = engine.recover(&set);
    assert_eq!(recovered.len(), 1);
    let verdict = recovered.into_iter().next().unwrap().handle.wait();
    // The budget is absolute wall-clock time: a crash + replay cannot
    // extend it, so the job expires instead of re-running.
    assert!(
        matches!(verdict, Err(JobError::Expired)),
        "expected Expired, got {verdict:?}"
    );
    let stats = engine.shutdown();
    assert_eq!(stats.expired, 1);
    assert_eq!(stats.completed, 0);

    // The expiry is itself journaled, so the next restart will not
    // re-run the job either.
    let replay = read_journal(&dir).unwrap();
    let set = RecoverySet::from_records(&replay.records);
    assert_eq!(set.incomplete().count(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Records exactly as journals carried them while `use_implicit` and
/// `degrade` were options: every `Submitted` spec names both keys, and a
/// job that ran out of ZDD nodes failed with `resource_exhausted`. Later
/// journals carry a spec's `node_budget` and every result's `degraded`
/// flag.
const LEGACY_SUBMITTED: &str = r#"{"schema":"ucp-journal/1","record":"submitted","job":7,"t_ms":1000,"spec":{"preset":"paper","workers":0,"seed":3665698816,"trace_every":1,"num_iter":4,"best_col_growth":1,"alpha":2,"max_ascent_iters":300,"use_implicit":false,"degrade":false,"partition":true},"matrix":{"cols":3,"rows":[[0,1],[1,2],[0,2]]}}"#;
const LEGACY_FAILED: &str = r#"{"schema":"ucp-journal/1","record":"failed","job":8,"t_ms":1001,"error":{"code":"resource_exhausted","message":"job exhausted its resource budget, even after a degraded retry"}}"#;
const BUDGETED_SUBMITTED: &str = r#"{"schema":"ucp-journal/1","record":"submitted","job":9,"t_ms":1002,"spec":{"preset":"paper","workers":0,"seed":3665698816,"node_budget":4096,"trace_every":1,"num_iter":4,"best_col_growth":1,"alpha":2,"max_ascent_iters":300,"partition":true},"matrix":{"cols":3,"rows":[[0,1],[1,2],[0,2]]}}"#;
const DEGRADED_DONE: &str = r#"{"schema":"ucp-journal/1","record":"done","job":9,"t_ms":1003,"result":{"cost":2,"lower_bound":2,"proven_optimal":true,"infeasible":false,"columns":[0,1],"iterations":0,"subgradient_iterations":32,"degraded":true,"total_seconds":0.000125,"core_rows":3,"core_cols":3}}"#;

#[test]
fn legacy_records_still_replay() {
    let dir = tmp_dir("legacy");
    std::fs::create_dir_all(&dir).unwrap();
    // Raw frames (length, CRC-32, payload), so the payloads reach the
    // parser byte for byte as they were written.
    let mut bytes = Vec::new();
    for payload in [
        LEGACY_SUBMITTED,
        LEGACY_FAILED,
        BUDGETED_SUBMITTED,
        DEGRADED_DONE,
    ] {
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(payload.as_bytes()).to_le_bytes());
        bytes.extend_from_slice(payload.as_bytes());
    }
    std::fs::write(dir.join(JOURNAL_FILE), &bytes).unwrap();

    let (engine, set) = start_journaled(&dir);
    let failed = set.jobs[&8].terminal.as_ref().expect("job 8 is terminal");
    assert_eq!(
        *failed,
        Terminal::Failed(WireError::new(
            WireCode::ResourceExhausted,
            "job exhausted its resource budget, even after a degraded retry"
        ))
    );
    let job = &set.jobs[&7];
    let spec = job.spec.as_ref().expect("the legacy spec parses");
    assert_eq!(
        *spec,
        JobSpec::from_options(&Preset::Paper.options()).unwrap()
    );
    let matrix = Arc::new(job.matrix.clone().unwrap());
    assert_eq!(*spec.to_request(matrix).opts(), Preset::Paper.options());
    // The budgeted spec replays to the same options, and its degraded
    // result to the result the current encoder writes.
    let budgeted = &set.jobs[&9];
    assert_eq!(budgeted.spec.as_ref(), Some(spec));
    let Some(Terminal::Done(result)) = &budgeted.terminal else {
        panic!("job 9 is done: {:?}", budgeted.terminal);
    };
    assert_eq!(
        result.to_json(),
        r#"{"cost":2,"lower_bound":2,"proven_optimal":true,"infeasible":false,"columns":[0,1],"iterations":0,"subgradient_iterations":32,"total_seconds":0.000125,"core_rows":3,"core_cols":3}"#
    );

    let recovered = engine.recover(&set);
    assert_eq!(recovered.len(), 1);
    assert_eq!(recovered[0].id, 7);
    let out = recovered
        .into_iter()
        .next()
        .unwrap()
        .handle
        .wait()
        .expect("the recovered job completes");
    assert_eq!(out.cost, 2.0);
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
