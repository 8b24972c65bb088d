//! Two-level logic minimisation end to end — the paper's motivating
//! application.
//!
//! A multi-output PLA with don't-cares is parsed, its prime implicants are
//! generated implicitly (BDD → ZDD Coudert–Madre recursion), the
//! Quine–McCluskey covering matrix is built, `ZDD_SCG` finds a minimum
//! cover, and the minimised PLA is verified against the specification.
//!
//! Run with: `cargo run --example two_level_minimization`

use ucp::logic::espresso::realizes;
use ucp::logic::{build_covering, Pla};
use ucp::ucp_core::{Scg, SolveRequest};

const SOURCE: &str = "\
# A 4-input, 2-output function with don't-cares.
.i 4
.o 2
.p 8
1100 10
1111 10
10-0 1-
0111 01
01-0 01
0000 -1
1-01 01
--11 1-
.e
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pla: Pla = SOURCE.parse()?;
    println!(
        "input PLA: {} terms, {} inputs, {} outputs",
        pla.terms().len(),
        pla.num_inputs(),
        pla.num_outputs()
    );

    // Quine–McCluskey reformulation.
    let inst = build_covering(&pla)?;
    println!(
        "covering matrix: {} ON-minterm rows × {} prime columns",
        inst.matrix.num_rows(),
        inst.matrix.num_cols()
    );

    // Solve the unate covering problem.
    let outcome = Scg::run(SolveRequest::for_matrix(&inst.matrix)).unwrap();
    println!(
        "minimum cover: {} products (lower bound {}, certified: {})",
        outcome.cost, outcome.lower_bound, outcome.proven_optimal
    );

    // Back to a PLA and verify ON ⊆ result ⊆ ON ∪ DC for every output.
    let minimised = inst.solution_to_pla(&outcome.solution);
    assert!(
        realizes(&pla, &minimised),
        "minimised PLA must realise the specification"
    );
    println!("\nminimised PLA (verified equivalent under don't-cares):");
    print!("{minimised}");
    Ok(())
}
