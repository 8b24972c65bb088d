//! End-to-end pipeline tests: PLA → primes → covering matrix → ZDD_SCG →
//! minimised, *verified* PLA — the full flow of the paper's system.

use ucp::logic::espresso::realizes;
use ucp::logic::{build_covering, Pla};
use ucp::solvers::{branch_and_bound, BnbOptions};
use ucp::ucp_core::{Scg, SolveRequest};
use ucp::workloads::random_pla;

fn minimise_and_verify(pla: &Pla) -> (f64, f64, bool) {
    let inst = build_covering(pla).expect("within input limits");
    let outcome = Scg::run(SolveRequest::for_matrix(&inst.matrix)).unwrap();
    assert!(
        outcome.solution.is_feasible(&inst.matrix),
        "cover must be feasible"
    );
    let minimised = inst.solution_to_pla(&outcome.solution);
    assert!(
        realizes(pla, &minimised),
        "minimised PLA must realise the spec"
    );
    (outcome.cost, outcome.lower_bound, outcome.proven_optimal)
}

#[test]
fn single_output_textbook_function() {
    // f = Σ m(4,8,10,11,12,15) with DC(9,14) — the classic QM example
    // (with don't-cares the cover drops to 3 products).
    let mut src = String::from(".i 4\n.o 1\n");
    for m in [4u64, 8, 10, 11, 12, 15] {
        src.push_str(&format!(
            "{} 1\n",
            ucp::logic::Cube::minterm(m, 4).to_string_width(4)
        ));
    }
    for m in [9u64, 14] {
        src.push_str(&format!(
            "{} -\n",
            ucp::logic::Cube::minterm(m, 4).to_string_width(4)
        ));
    }
    src.push_str(".e\n");
    let pla: Pla = src.parse().unwrap();
    let (cost, lb, proven) = minimise_and_verify(&pla);
    assert_eq!(cost, 3.0, "with DC(9,14) three products suffice");
    assert_eq!(lb, 3.0);
    assert!(proven);
}

#[test]
fn multi_output_sharing_is_exploited() {
    // Both outputs contain x0x1x2; a shared implementation uses it once.
    let pla: Pla = ".i 3\n.o 2\n11- 10\n1-1 01\n.e\n".parse().unwrap();
    let inst = build_covering(&pla).unwrap();
    let exact = branch_and_bound(&inst.matrix, &BnbOptions::default());
    assert!(exact.optimal);
    // 11x for f0 needs {110,111}; 1x1 for f1 needs {101,111}: two products
    // minimum (111 shared helps only if the remaining singles merge, they
    // don't) — the covering optimum must be 2.
    assert_eq!(exact.cost, 2.0);
    let (cost, _, _) = minimise_and_verify(&pla);
    assert_eq!(cost, 2.0);
}

#[test]
fn random_plas_end_to_end() {
    for seed in 0..8u64 {
        let pla = random_pla(6, 2, 14, 150, seed);
        let inst = build_covering(&pla).unwrap();
        if inst.matrix.num_rows() == 0 {
            continue; // degenerate: constant-false outputs
        }
        let (cost, lb, _) = minimise_and_verify(&pla);
        assert!(lb <= cost + 1e-9, "seed {seed}: LB {lb} > cost {cost}");
        // The minimum cover can never exceed the original term count after
        // single-cube containment — sanity ceiling.
        assert!(cost <= pla.terms().len() as f64 + 1e-9, "seed {seed}");
    }
}

#[test]
fn scg_matches_exact_on_random_pla_matrices() {
    for seed in 100..110u64 {
        let pla = random_pla(5, 1, 10, 100, seed);
        let inst = build_covering(&pla).unwrap();
        if inst.matrix.num_rows() == 0 {
            continue;
        }
        let exact = branch_and_bound(&inst.matrix, &BnbOptions::default());
        assert!(exact.optimal, "seed {seed}");
        let scg = Scg::run(SolveRequest::for_matrix(&inst.matrix)).unwrap();
        assert!(
            scg.cost >= exact.cost - 1e-9,
            "seed {seed}: heuristic beat the optimum?!"
        );
        assert!(
            scg.lower_bound <= exact.cost + 1e-9,
            "seed {seed}: LB {} exceeds optimum {}",
            scg.lower_bound,
            exact.cost
        );
        if scg.proven_optimal {
            assert_eq!(scg.cost, exact.cost, "seed {seed}: bad certificate");
        }
        // The paper's headline: the heuristic nearly always hits the optimum.
        assert!(
            scg.cost <= exact.cost + 1.0,
            "seed {seed}: SCG {} vs optimum {}",
            scg.cost,
            exact.cost
        );
    }
}

#[test]
fn dont_cares_reduce_cover_size() {
    // Without DC: checkerboard needs 2 products; with the complement as DC
    // one universal product suffices.
    let without: Pla = ".i 2\n.o 1\n11 1\n00 1\n.e\n".parse().unwrap();
    let with: Pla = ".i 2\n.o 1\n11 1\n00 1\n01 -\n10 -\n.e\n".parse().unwrap();
    let (c1, _, _) = minimise_and_verify(&without);
    let (c2, _, _) = minimise_and_verify(&with);
    assert_eq!(c1, 2.0);
    assert_eq!(c2, 1.0);
}

#[test]
fn cube_level_espresso_agrees_with_exact_covering() {
    // Two independent minimisers: the cube-level EXPAND/IRREDUNDANT/REDUCE
    // heuristic can never beat the exact covering optimum, and both must
    // realise the spec.
    use ucp::logic::espresso::minimize;
    for seed in 200..212u64 {
        let pla = random_pla(5, 2, 12, 150, seed);
        let cube_min = minimize(&pla, &Default::default());
        assert!(realizes(&pla, &cube_min), "seed {seed}");

        let inst = build_covering(&pla).unwrap();
        if inst.matrix.num_rows() == 0 {
            continue;
        }
        let exact = branch_and_bound(&inst.matrix, &BnbOptions::default());
        assert!(exact.optimal, "seed {seed}");
        assert!(
            cube_min.terms().len() as f64 >= exact.cost - 1e-9,
            "seed {seed}: cube-level {} beat exact covering {}",
            cube_min.terms().len(),
            exact.cost
        );
        // And the heuristic lands close (within 2 products on these sizes).
        assert!(
            cube_min.terms().len() as f64 <= exact.cost + 2.0,
            "seed {seed}: cube-level {} far from optimum {}",
            cube_min.terms().len(),
            exact.cost
        );
    }
}

#[test]
fn literal_objective_end_to_end() {
    use ucp::logic::{build_covering_with, TermCost};
    let pla: ucp::logic::Pla = ".i 3\n.o 1\n11- 1\n1-1 1\n011 1\n.e\n".parse().unwrap();
    let unit = build_covering(&pla).unwrap();
    let lex = build_covering_with(&pla, TermCost::ProductsThenLiterals).unwrap();
    let unit_out = Scg::run(SolveRequest::for_matrix(&unit.matrix)).unwrap();
    let lex_out = Scg::run(SolveRequest::for_matrix(&lex.matrix)).unwrap();
    // Same number of products (the primary objective survives the ε-costs).
    assert_eq!(unit_out.solution.len(), lex_out.solution.len());
    let min = lex.solution_to_pla(&lex_out.solution);
    assert!(realizes(&pla, &min));
}
