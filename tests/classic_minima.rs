//! Regression tests against *published* minima: the classic semantically
//! defined Berkeley functions have known minimum SOP sizes, and the full
//! pipeline (PLA → primes → covering → ZDD_SCG) must reproduce them with a
//! certificate.

use ucp::logic::build_covering;
use ucp::logic::espresso::realizes;
use ucp::ucp_core::{Scg, SolveRequest};
use ucp::workloads::classic;

fn solve_products(pla: &ucp::logic::Pla) -> (f64, bool) {
    let inst = build_covering(pla).expect("classics fit the pipeline");
    let out = Scg::run(SolveRequest::for_matrix(&inst.matrix)).unwrap();
    let minimised = inst.solution_to_pla(&out.solution);
    assert!(realizes(pla, &minimised));
    (out.cost, out.proven_optimal)
}

#[test]
fn xor5_minimum_is_sixteen() {
    // Parity admits no cube merging: minimum SOP = 2⁴ odd minterms.
    let (cost, proven) = solve_products(&classic::xor5());
    assert_eq!(cost, 16.0);
    assert!(proven);
}

#[test]
fn rd53_minimum_is_thirty_one() {
    // Published exact minimum for rd53.
    let (cost, proven) = solve_products(&classic::rd53());
    assert_eq!(cost, 31.0);
    assert!(proven);
}

#[test]
fn rd73_minimum_is_one_twenty_seven() {
    let (cost, proven) = solve_products(&classic::rd73());
    assert_eq!(cost, 127.0);
    assert!(proven);
}

#[test]
fn rd84_minimum_is_two_fifty_five() {
    let (cost, proven) = solve_products(&classic::rd84());
    assert_eq!(cost, 255.0);
    assert!(proven);
}

#[test]
fn majority_minima_are_the_threshold_subsets() {
    // Primes of majority-N are the ⌈N/2⌉-subsets; none is redundant.
    let (c5, p5) = solve_products(&classic::majority(5));
    assert_eq!(c5, 10.0); // C(5,3)
    assert!(p5);
    let (c7, p7) = solve_products(&classic::majority(7));
    assert_eq!(c7, 35.0); // C(7,4)
    assert!(p7);
}

#[test]
#[ignore = "≈15 s with default options; run with --ignored"]
fn nine_sym_minimum_is_eighty_four() {
    // The published exact minimum for 9sym is 84; ZDD_SCG certifies it
    // where the budgeted branch-and-bound cannot close the search.
    let (cost, proven) = solve_products(&classic::nine_sym());
    assert_eq!(cost, 84.0);
    assert!(proven);
}
