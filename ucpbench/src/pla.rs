//! `pla-minimize`: the paper's two-level pipeline on seeded random PLAs —
//! `build_covering` (BDD→ZDD primes, explicit rows), `Scg::run`, then
//! `solution_to_pla`, the work `ucp minimize` does. Prime generation and
//! the implicit ZDD reduction do nearly all the work; the cyclic cores
//! come out empty, so the subgradient does none.

use crate::check;
use crate::outcome::{mix, permutation};
use crate::solve::{phase_stages, timed, JobResult, JobSet, Layers, JOB_SPAN};
use crate::trace::Tracer;
use bdd::Bdd;
use cover::Constraints;
use logic::covering::build_covering;
use logic::espresso::realizes;
use logic::primes::prime_implicants;
use logic::{Cube, Pla};
use std::hint::black_box;
use std::time::Instant;
use ucp_core::{Preset, Scg, SolveRequest};
use zdd::Zdd;

/// PLAs per pass.
const PLAS: u64 = 24;

/// Share of terms that assert a don't-care instead of an ON output, per
/// mille.
const DC_PER_MILLE: u32 = 100;

/// The workload's inputs for `seed`: 24 random PLAs with 13–16 inputs,
/// 4–6 outputs and 100–200 terms, as drawn at seed 0. Other seeds give
/// each one its inputs' polarities flipped, its outputs and its terms
/// reordered, all seeded. That is the same function up to renaming, with
/// the same BDD sizes, primes and optimum, so the seed changes the input
/// without changing what a pass costs; freshly drawn PLAs would vary it
/// by about ±20%.
pub fn inputs(seed: u64) -> Vec<Pla> {
    (0..PLAS)
        .map(|k| {
            let r = mix(0, k);
            let inputs = 13 + (r % 4) as usize;
            let outputs = 4 + (r / 4 % 3) as usize;
            let terms = 100 + (r / 12 % 101) as usize;
            let pla = workloads::random_pla(inputs, outputs, terms, DC_PER_MILLE, mix(0, 1000 + k));
            if seed == 0 {
                pla
            } else {
                renamed(&pla, mix(seed, k))
            }
        })
        .collect()
}

/// `pla` with a seeded set of inputs complemented, its outputs permuted
/// and its terms reordered.
fn renamed(pla: &Pla, seed: u64) -> Pla {
    let flip = mix(seed, 0) & ((1u64 << pla.num_inputs()) - 1);
    let out_of = permutation(pla.num_outputs(), mix(seed, 1));
    let move_outputs = |mask: u64| -> u64 {
        (0..pla.num_outputs())
            .filter(|&o| mask >> o & 1 == 1)
            .map(|o| 1u64 << out_of[o])
            .sum()
    };
    let terms = pla.terms();
    let mut out = Pla::new(pla.num_inputs(), pla.num_outputs());
    for t in permutation(terms.len(), mix(seed, 2)) {
        let (cube, on, dc) = terms[t];
        let (p, n) = (cube.pos(), cube.neg());
        let flipped = Cube::new((p & !flip) | (n & flip), (n & !flip) | (p & flip));
        out.push_term(flipped, move_outputs(on), move_outputs(dc));
    }
    out
}

/// Seconds inside `prime_implicants` for every output of `pla` — the
/// first stage of `build_covering`, timed on its own.
fn primes_seconds(pla: &Pla) -> f64 {
    let mut mgr = Bdd::default();
    let mut secs = 0.0;
    for f in pla.output_functions(&mut mgr) {
        let upper = mgr.or(f.on, f.dc);
        let mut zdd = Zdd::default();
        let start = Instant::now();
        black_box(prime_implicants(&mut mgr, &mut zdd, upper));
        secs += start.elapsed().as_secs_f64();
    }
    secs
}

impl JobSet for Vec<Pla> {
    fn len(&self) -> usize {
        <[Pla]>::len(self)
    }

    fn run(&self, i: usize, job: u64, tracer: &mut Tracer, layers: &mut Layers) -> JobResult {
        let pla = &self[i];
        let fail = |wall_s: f64, why: String| JobResult {
            wall_s,
            checked: Err(format!("pla {i}: {why}")),
            lower_bound: f64::NAN,
            answer: (f64::NAN, Vec::new()),
        };
        let (built, b0, b1) = timed(|| build_covering(pla));
        let inst = match built {
            Ok(inst) => inst,
            Err(e) => return fail((b1 - b0).as_secs_f64(), format!("build_covering: {e}")),
        };
        let request = SolveRequest::for_matrix(&inst.matrix).preset(Preset::Paper);
        let (solved, s0, s1) = timed(|| Scg::run(request));
        let out = match solved {
            Ok(out) => out,
            Err(e) => return fail((s1 - b0).as_secs_f64(), format!("solve: {e}")),
        };
        let (minimized, p0, p1) = timed(|| inst.solution_to_pla(&out.solution));

        let root = tracer.record(JOB_SPAN, None, job, b0, p1);
        tracer.record("logic.build_covering", root, job, b0, b1);
        let run = tracer.record("core.run", root, job, s0, s1);
        tracer.stages(run, &phase_stages(&out));
        tracer.record("logic.solution_to_pla", root, job, p0, p1);
        layers.add(&out);
        layers.build_covering_s += (b1 - b0).as_secs_f64();
        if tracer.is_on() {
            let start = Instant::now();
            let secs = primes_seconds(pla);
            tracer.record("logic.primes", None, job, start, Instant::now());
            layers.primes_s += secs;
        }

        let checked = check::cover(
            &inst.matrix,
            &Constraints::unate(),
            out.solution.cols(),
            out.cost,
            out.lower_bound,
        )
        .and_then(|c| {
            if minimized.terms().len() != out.solution.len() {
                Err(format!(
                    "{} product terms for {} columns",
                    minimized.terms().len(),
                    out.solution.len()
                ))
            } else if !realizes(pla, &minimized) {
                Err("minimised PLA does not realise the original".into())
            } else {
                Ok(c)
            }
        });
        JobResult {
            wall_s: (p1 - b0).as_secs_f64(),
            checked: checked.map_err(|e| format!("pla {i}: {e}")),
            lower_bound: out.lower_bound,
            answer: (out.cost, out.solution.cols().to_vec()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_seeded_and_in_range() {
        let plas = inputs(1);
        assert_eq!(plas.len(), PLAS as usize);
        assert_eq!(plas, inputs(1));
        assert_ne!(plas, inputs(2));
        for p in &plas {
            assert!((13..=16).contains(&p.num_inputs()));
            assert!((4..=6).contains(&p.num_outputs()));
            assert!((100..=200).contains(&p.terms().len()));
        }
    }

    #[test]
    fn renaming_keeps_the_minimum() {
        let base = workloads::random_pla(8, 3, 30, DC_PER_MILLE, 5);
        let renamed = renamed(&base, 11);
        assert_ne!(base, renamed);
        let cost = |p: &Pla| {
            let inst = build_covering(p).unwrap();
            (inst.matrix.num_rows(), inst.matrix.num_cols(), {
                let out = Scg::run(SolveRequest::for_matrix(&inst.matrix)).unwrap();
                assert!(out.proven_optimal);
                out.cost
            })
        };
        assert_eq!(cost(&base), cost(&renamed));
    }
}
