//! Error-type contract: every public error enum in the workspace is a
//! real `std::error::Error` — nonempty `Display`, a `source()` chain
//! where a cause exists — so callers can box them, wrap them with
//! `anyhow`-style adapters, and walk the chain uniformly.

use std::error::Error;

use ucp::cover::{ConstraintError, ParseMatrixError};
use ucp::logic::{BuildCoveringError, ParsePlaError};
use ucp::lp::SolveLpError;
use ucp::ucp_core::wire::WireCode;
use ucp::ucp_core::{SolveError, WireError};
use ucp::ucp_engine::{JobError, SubmitError};

/// Walks a value through `&dyn Error`: Display must render nonempty,
/// and the source chain must terminate.
fn check(err: &dyn Error) {
    assert!(!err.to_string().is_empty(), "empty Display: {err:?}");
    let mut depth = 0usize;
    let mut cur = err.source();
    while let Some(e) = cur {
        assert!(!e.to_string().is_empty(), "empty Display in chain: {e:?}");
        depth += 1;
        assert!(depth < 8, "unterminated source chain");
        cur = e.source();
    }
}

fn bad_constraints() -> ConstraintError {
    ConstraintError::RowInfeasible {
        row: 2,
        demand: 3,
        max_supply: 1,
    }
}

#[test]
fn every_public_error_enum_implements_error_uniformly() {
    let errs: Vec<Box<dyn Error>> = vec![
        Box::new(ParseMatrixError::BadHeader("p ucp".into())),
        Box::new(ParseMatrixError::BadLine {
            line: 3,
            reason: "negative cost".into(),
        }),
        Box::new(ParseMatrixError::Inconsistent(
            "2 rows, header said 3".into(),
        )),
        Box::new(ParsePlaError::MissingHeader),
        Box::new(ParsePlaError::BadDirective(".i x".into())),
        Box::new(ParsePlaError::BadCube {
            line: 7,
            reason: "wrong width".into(),
        }),
        Box::new(ParsePlaError::TooLarge),
        Box::new(BuildCoveringError::TooManyInputs(99)),
        Box::new(SolveLpError::Infeasible),
        Box::new(SolveLpError::Unbounded),
        Box::new(SolveLpError::IterationLimit),
        Box::new(JobError::Cancelled),
        Box::new(JobError::Expired),
        Box::new(JobError::Panicked("boom".into())),
        Box::new(JobError::InvalidConstraints(bad_constraints())),
        Box::new(JobError::EngineClosed),
        Box::new(JobError::Shutdown),
        Box::new(WireError::new(WireCode::QueueFull, "queue is full")),
        Box::new(SubmitError::QueueFull),
        Box::new(SubmitError::Closed),
        Box::new(SolveError::Cancelled),
        Box::new(SolveError::Expired),
        Box::new(SolveError::InvalidConstraints(bad_constraints())),
        Box::new(bad_constraints()),
    ];
    for err in &errs {
        check(err.as_ref());
    }
}

#[test]
fn constraint_errors_chain_through_both_job_layers() {
    for err in [
        &SolveError::InvalidConstraints(bad_constraints()) as &dyn Error,
        &JobError::InvalidConstraints(bad_constraints()) as &dyn Error,
    ] {
        let src = err.source().expect("carries the constraint cause");
        assert_eq!(src.to_string(), bad_constraints().to_string());
        assert!(src.source().is_none(), "ConstraintError is the chain root");
    }
    let e: SolveError = bad_constraints().into();
    assert_eq!(e, SolveError::InvalidConstraints(bad_constraints()));
}

/// The wire-code taxonomy is the single error surface of the HTTP API:
/// every engine-facing error variant maps into it, the (code, status)
/// table has no duplicates, and every code the server can emit is
/// documented in the README's taxonomy table.
#[test]
fn every_error_variant_maps_to_a_documented_wire_code() {
    // Exhaustive variant → code walk (compile-breaks when a variant is
    // added without extending `wire_code()`).
    let job_errors = [
        (JobError::Cancelled, WireCode::Cancelled),
        (JobError::Expired, WireCode::Expired),
        (JobError::Panicked("boom".into()), WireCode::Panicked),
        (
            JobError::InvalidConstraints(bad_constraints()),
            WireCode::UnsupportedConstraints,
        ),
        (JobError::EngineClosed, WireCode::EngineClosed),
        (JobError::Shutdown, WireCode::Shutdown),
    ];
    for (err, code) in &job_errors {
        assert_eq!(err.wire_code(), *code, "{err}");
    }
    let submit_errors = [
        (SubmitError::QueueFull, WireCode::QueueFull),
        (SubmitError::Closed, WireCode::EngineClosed),
    ];
    for (err, code) in &submit_errors {
        assert_eq!(err.wire_code(), *code, "{err}");
    }
    let solve_errors = [
        (SolveError::Cancelled, WireCode::Cancelled),
        (SolveError::Expired, WireCode::Expired),
        (
            SolveError::InvalidConstraints(bad_constraints()),
            WireCode::UnsupportedConstraints,
        ),
    ];
    for (err, code) in &solve_errors {
        assert_eq!(err.wire_code(), *code, "{err}");
    }

    // One row per code: strings and the code itself are unique, the
    // HTTP status is in a sane range, and round-tripping holds.
    let mut seen = Vec::new();
    for code in WireCode::ALL {
        assert!(!seen.contains(&code.as_str()), "duplicate {code}");
        seen.push(code.as_str());
        assert!((400..=599).contains(&code.http_status()), "{code}");
        assert_eq!(WireCode::parse(code.as_str()), Some(code));
    }

    // Documentation is part of the contract: the README taxonomy table
    // must list every code string with its status.
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md is checked in");
    for code in WireCode::ALL {
        let cell = format!("`{}`", code.as_str());
        assert!(
            readme.contains(&cell),
            "README does not document wire code {}",
            code.as_str()
        );
        assert!(
            readme.contains(&code.http_status().to_string()),
            "README does not mention status {} for {}",
            code.http_status(),
            code.as_str()
        );
    }
}
