//! Checkpoint/resume equivalence: a solve resumed from any checkpoint
//! of an uninterrupted run finishes with a cost no worse than the
//! uninterrupted answer, and a disabled checkpoint path changes nothing.

use ucp::cover::CoverMatrix;
use ucp::ucp_core::{Preset, Scg, ScgOutcome, SolveRequest, SolverCheckpoint};

/// STS(9): the Lagrangian bound (3) sits strictly below the optimum
/// (5), so no restart schedule certifies early — every run executes and
/// every checkpoint is reachable.
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

fn cycle(n: usize) -> CoverMatrix {
    CoverMatrix::from_rows(n, (0..n).map(|i| vec![i, (i + 1) % n]).collect())
}

/// One uninterrupted solve, capturing every per-run checkpoint.
fn solve_with_checkpoints(m: &CoverMatrix, preset: Preset) -> (ScgOutcome, Vec<SolverCheckpoint>) {
    let mut ckpts = Vec::new();
    let out = Scg::run(
        SolveRequest::for_matrix(m)
            .preset(preset)
            .checkpoint_every(1)
            .checkpoint_sink(|c| ckpts.push(c.clone())),
    )
    .unwrap();
    (out, ckpts)
}

#[test]
fn resume_from_any_checkpoint_never_loses_ground() {
    let m = sts9();
    let baseline = Scg::run(SolveRequest::for_matrix(&m).preset(Preset::Thorough)).unwrap();
    let (ckpt_run, ckpts) = solve_with_checkpoints(&m, Preset::Thorough);
    assert_eq!(
        (ckpt_run.cost, ckpt_run.solution.cols()),
        (baseline.cost, baseline.solution.cols()),
        "emitting checkpoints must not change the answer"
    );
    assert!(
        ckpts.len() > 2,
        "Thorough runs many restarts; expected several checkpoints, got {}",
        ckpts.len()
    );
    for (i, ckpt) in ckpts.iter().enumerate() {
        let resumed = Scg::run(
            SolveRequest::for_matrix(&m)
                .preset(Preset::Thorough)
                .resume_from(ckpt.clone()),
        )
        .unwrap();
        assert!(
            resumed.cost <= baseline.cost,
            "checkpoint {i} (next_run {}) resumed to {} > uninterrupted {}",
            ckpt.next_run,
            resumed.cost,
            baseline.cost
        );
        assert_eq!(resumed.resumed, ckpt.next_run - 1);
        assert!(!resumed.infeasible);
    }
    // The last checkpoint carries the final incumbent: resuming from it
    // reproduces the uninterrupted answer exactly.
    let last = ckpts.last().unwrap();
    let resumed = Scg::run(
        SolveRequest::for_matrix(&m)
            .preset(Preset::Thorough)
            .resume_from(last.clone()),
    )
    .unwrap();
    assert_eq!(resumed.cost, baseline.cost);
}

#[test]
fn resume_ignores_checkpoints_from_another_instance() {
    let (_, ckpts) = solve_with_checkpoints(&sts9(), Preset::Fast);
    let foreign = ckpts.last().unwrap().clone();
    // A checkpoint for STS(9) offered to the 9-cycle: dimensions don't
    // match, so the solve silently starts cold and still answers.
    let out = Scg::run(
        SolveRequest::for_matrix(&cycle(9))
            .preset(Preset::Fast)
            .resume_from(foreign),
    )
    .unwrap();
    assert_eq!(out.resumed, 0, "mismatched checkpoint must be discarded");
    assert_eq!(out.cost, 5.0);
}

#[test]
fn resume_works_under_parallel_restarts() {
    let m = sts9();
    let (_, ckpts) = solve_with_checkpoints(&m, Preset::Thorough);
    let mid = ckpts[ckpts.len() / 2].clone();
    let serial = Scg::run(
        SolveRequest::for_matrix(&m)
            .preset(Preset::Thorough)
            .resume_from(mid.clone()),
    )
    .unwrap();
    let parallel = Scg::run(
        SolveRequest::for_matrix(&m)
            .preset(Preset::Thorough)
            .workers(4)
            .resume_from(mid),
    )
    .unwrap();
    assert_eq!(
        parallel.cost, serial.cost,
        "worker count must not change a resumed answer"
    );
    assert_eq!(parallel.resumed, serial.resumed);
}

/// Pooled restarts emit the inline checkpoint sequence: the checkpoint
/// after run `k` waits for runs up to `k` and carries their best.
#[test]
fn pooled_restarts_emit_the_inline_checkpoints() {
    let m = sts9();
    let run = |workers| {
        let mut ckpts = Vec::new();
        let out = Scg::run(
            SolveRequest::for_matrix(&m)
                .preset(Preset::Thorough)
                .workers(workers)
                .checkpoint_every(1)
                .checkpoint_sink(|c| ckpts.push(c.clone())),
        )
        .unwrap();
        // Wall clock is the one field allowed to differ.
        for c in &mut ckpts {
            c.elapsed_seconds = 0.0;
        }
        (out, ckpts)
    };
    let (serial, serial_ckpts) = run(1);
    let (pooled, pooled_ckpts) = run(2);
    assert_eq!(serial.restart_workers, 1);
    assert_eq!(pooled.restart_workers, 2);
    assert!(serial_ckpts.len() > 2);
    assert_eq!(pooled_ckpts, serial_ckpts);
}

#[test]
fn checkpoints_round_trip_through_json() {
    let (_, ckpts) = solve_with_checkpoints(&sts9(), Preset::Fast);
    for ckpt in &ckpts {
        let back = SolverCheckpoint::parse(&ckpt.to_json()).unwrap();
        assert_eq!(&back, ckpt);
    }
}

#[test]
fn multicover_solves_resume_too() {
    let m = sts9();
    let mut ckpts = Vec::new();
    let baseline = Scg::run(
        SolveRequest::for_matrix(&m)
            .preset(Preset::Paper)
            .coverage(vec![2; 12])
            .checkpoint_every(1)
            .checkpoint_sink(|c| ckpts.push(c.clone())),
    )
    .unwrap();
    assert!(!ckpts.is_empty(), "multicover path emits checkpoints");
    assert!(ckpts.iter().all(|c| c.multicover));
    let last = ckpts.last().unwrap().clone();
    let resumed = Scg::run(
        SolveRequest::for_matrix(&m)
            .preset(Preset::Paper)
            .coverage(vec![2; 12])
            .resume_from(last),
    )
    .unwrap();
    assert!(resumed.resumed > 0);
    assert!(
        resumed.cost <= baseline.cost,
        "multicover resume lost ground: {} > {}",
        resumed.cost,
        baseline.cost
    );
}
