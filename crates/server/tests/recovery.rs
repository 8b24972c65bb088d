//! Restart recovery over the real HTTP surface: a server pointed at a
//! journal left behind by a previous life re-publishes resolved jobs at
//! their original ids and re-enqueues unresolved ones.

use cover::CoverMatrix;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use ucp_core::wire::{JobResultDto, JobSpec, JobState, JobStatusDto, WireCode};
use ucp_core::Preset;
use ucp_durability::{Journal, Record};
use ucp_server::{HttpClient, Server, ServerConfig};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ucp-server-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

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

fn poll_until_terminal(client: &mut HttpClient, id: &str) -> JobStatusDto {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = client.poll(id).unwrap().unwrap();
        if status.state.is_terminal() {
            return status;
        }
        assert!(Instant::now() < deadline, "job {id} never turned terminal");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn restart_republishes_and_reenqueues_journaled_jobs() {
    let dir = tmp_dir("restart");
    let mut spec = JobSpec::new(Preset::Fast);
    spec.seed = Some(1);
    // The journal a crashed server left behind: job 1 was accepted and
    // started but never resolved; job 2 resolved to done.
    let done_result = JobResultDto {
        cost: 5.0,
        lower_bound: 3.0,
        proven_optimal: false,
        infeasible: false,
        columns: vec![0, 1, 2, 3, 4],
        iterations: 1,
        subgradient_iterations: 40,
        total_seconds: 0.01,
        core_rows: 12,
        core_cols: 9,
    };
    {
        let journal = Journal::open(&dir).unwrap().journal;
        journal
            .append(&Record::Submitted {
                job: 1,
                t_ms: 1_000,
                spec: Some(spec.clone()),
                matrix: Some(sts9()),
                tenant: Some("acme".into()),
                deadline_ms: None,
            })
            .unwrap();
        journal
            .append(&Record::Started {
                job: 1,
                t_ms: 1_001,
            })
            .unwrap();
        journal
            .append(&Record::Submitted {
                job: 2,
                t_ms: 1_002,
                spec: Some(spec.clone()),
                matrix: Some(sts9()),
                tenant: Some("acme".into()),
                deadline_ms: None,
            })
            .unwrap();
        journal
            .append(&Record::Done {
                job: 2,
                t_ms: 1_500,
                result: done_result.clone(),
            })
            .unwrap();
    }

    let server = Server::start(ServerConfig {
        workers: 1,
        journal_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = HttpClient::new(server.addr()).unwrap();

    // The resolved job answers immediately at its original id, flagged
    // as recovered, with the journaled result.
    let done = client.poll("j-2").unwrap().unwrap();
    assert_eq!(done.state, JobState::Done);
    assert!(done.recovered);
    assert_eq!(done.tenant, "acme");
    assert_eq!(done.result.as_ref().unwrap().cost, 5.0);
    assert_eq!(done.result.as_ref().unwrap().columns, vec![0, 1, 2, 3, 4]);

    // The unresolved job is re-running, not a 404; it reaches the same
    // terminal contract as any other job.
    let status = client.poll("j-1").unwrap().unwrap();
    assert!(status.recovered);
    let finished = poll_until_terminal(&mut client, "j-1");
    assert_eq!(finished.state, JobState::Done);
    assert!(finished.recovered);
    assert_eq!(finished.result.unwrap().cost, 5.0);

    // Recovery is visible on /v1/stats, and fresh submissions never
    // collide with recovered ids.
    let stats = client.get("/v1/stats").unwrap();
    assert_eq!(stats.status, 200);
    let body = stats.body_str();
    assert!(
        body.contains("\"jobs_recovered\":2"),
        "stats missing recovery count:\n{body}"
    );
    let fresh = client
        .submit(&ucp_core::wire::SubmitBody {
            matrix: sts9(),
            spec,
            tenant: Some("acme".into()),
            trace: false,
        })
        .unwrap()
        .unwrap();
    assert!(!fresh.recovered);
    let numeric: u64 = fresh.id.trim_start_matches("j-").parse().unwrap();
    assert!(
        numeric > 2,
        "fresh id {} collides with recovered ids",
        fresh.id
    );
    poll_until_terminal(&mut client, &fresh.id);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovered_failed_and_cancelled_jobs_keep_their_verdicts() {
    let dir = tmp_dir("verdicts");
    {
        let journal = Journal::open(&dir).unwrap().journal;
        journal
            .append(&Record::Submitted {
                job: 4,
                t_ms: 1,
                spec: None,
                matrix: None,
                tenant: None,
                deadline_ms: None,
            })
            .unwrap();
        journal
            .append(&Record::Failed {
                job: 4,
                t_ms: 2,
                error: ucp_core::wire::WireError::new(WireCode::Expired, "deadline exceeded"),
            })
            .unwrap();
        journal
            .append(&Record::Submitted {
                job: 5,
                t_ms: 3,
                spec: None,
                matrix: None,
                tenant: None,
                deadline_ms: None,
            })
            .unwrap();
        journal
            .append(&Record::Cancelled { job: 5, t_ms: 4 })
            .unwrap();
    }
    let server = Server::start(ServerConfig {
        workers: 1,
        journal_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = HttpClient::new(server.addr()).unwrap();

    let failed = client.poll("j-4").unwrap().unwrap();
    assert_eq!(failed.state, JobState::Failed);
    assert!(failed.recovered);
    assert_eq!(failed.error.unwrap().code, WireCode::Expired);

    let cancelled = client.poll("j-5").unwrap().unwrap();
    assert_eq!(cancelled.state, JobState::Failed);
    assert!(cancelled.recovered);
    assert!(cancelled.cancel_requested);
    assert_eq!(cancelled.error.unwrap().code, WireCode::Cancelled);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
