//! `cyclic-paper`: the paper's difficult cyclic cores plus crew-scheduling
//! multicover+GUB instances, solved one after another with `Scg::run` at
//! the Paper preset. Subgradient and constructive search do nearly all
//! the work; it is the one workload that drives the core both unate and
//! constrained.

use crate::check;
use crate::outcome::{mix, permutation};
use crate::solve::{phase_stages, timed, JobResult, JobSet, Layers, JOB_SPAN};
use crate::trace::Tracer;
use cover::{Constraints, CoverMatrix};
use ucp_core::{Preset, Scg, SolveRequest};
use workloads::{crew_schedule, suite, CostModel, CrewScheduleConfig};

/// Crew instances per pass (generator seeds `0..CREW_INSTANCES`): about a
/// quarter of the pass's solve time. They are the same at every run seed.
/// A seeded sample would move `certified` by ±8% between seeds, and a
/// few crew instances in a thousand defeat the constrained solver (no
/// cover although one exists), so a sample could fail a run; these 300
/// all solve.
const CREW_INSTANCES: u64 = 300;

fn crew_config() -> CrewScheduleConfig {
    CrewScheduleConfig {
        periods: 96,
        crews: 20,
        rosters_per_crew: 4,
        max_demand: 2,
        costs: CostModel::Uniform { max: 5 },
    }
}

/// One instance and the constraints it is solved under.
pub struct Job {
    pub name: String,
    pub matrix: CoverMatrix,
    pub constraints: Constraints,
}

/// The difficult cyclic cores: exactly `suite::difficult_cyclic()` at
/// seed 0, and otherwise the same matrices with rows and columns shuffled.
/// A shuffled core has the same optimum and nearly the same work, so the
/// seed changes the search path without changing what a pass costs; fresh
/// random matrices of the same shapes would vary it by about ±10%.
fn unate(seed: u64) -> Vec<Job> {
    suite::difficult_cyclic()
        .into_iter()
        .enumerate()
        .map(|(k, inst)| Job {
            name: inst.name,
            matrix: if seed == 0 {
                inst.matrix
            } else {
                shuffled(&inst.matrix, mix(seed, k as u64))
            },
            constraints: Constraints::unate(),
        })
        .collect()
}

/// `m` with its rows and columns permuted: the same instance up to
/// naming, so the same optimum, reached along another search path.
pub fn shuffled(m: &CoverMatrix, seed: u64) -> CoverMatrix {
    let col_of = permutation(m.num_cols(), seed);
    let row_order = permutation(m.num_rows(), seed ^ 1);
    let rows = row_order
        .iter()
        .map(|&i| m.row(i).iter().map(|&j| col_of[j]).collect())
        .collect();
    let mut costs = vec![0.0; m.num_cols()];
    for (j, &c) in m.costs().iter().enumerate() {
        costs[col_of[j]] = c;
    }
    CoverMatrix::with_costs(m.num_cols(), rows, costs)
}

/// The crew-scheduling instances.
fn crew() -> impl Iterator<Item = Job> {
    (0..CREW_INSTANCES).map(|s| {
        let inst = crew_schedule(&crew_config(), s);
        Job {
            name: format!("crew-{s}"),
            matrix: inst.matrix,
            constraints: inst.constraints,
        }
    })
}

/// The workload's inputs for `seed`.
pub fn inputs(seed: u64) -> Vec<Job> {
    unate(seed).into_iter().chain(crew()).collect()
}

impl JobSet for Vec<Job> {
    fn len(&self) -> usize {
        <[Job]>::len(self)
    }

    fn run(&self, i: usize, job: u64, tracer: &mut Tracer, layers: &mut Layers) -> JobResult {
        let inst = &self[i];
        let request = SolveRequest::for_matrix(&inst.matrix)
            .preset(Preset::Paper)
            .constraints(inst.constraints.clone());
        let (solved, start, end) = timed(|| Scg::run(request));
        let root = tracer.record(JOB_SPAN, None, job, start, end);
        let span = tracer.record("core.run", root, job, start, end);
        let wall_s = (end - start).as_secs_f64();
        match solved {
            Ok(out) => {
                tracer.stages(span, &phase_stages(&out));
                layers.add(&out);
                let checked = check::cover(
                    &inst.matrix,
                    &inst.constraints,
                    out.solution.cols(),
                    out.cost,
                    out.lower_bound,
                );
                JobResult {
                    wall_s,
                    checked: checked.map_err(|e| format!("{}: {e}", inst.name)),
                    lower_bound: out.lower_bound,
                    answer: (out.cost, out.solution.cols().to_vec()),
                }
            }
            Err(e) => JobResult {
                wall_s,
                checked: Err(format!("{}: solve failed: {e}", inst.name)),
                lower_bound: f64::NAN,
                answer: (f64::NAN, Vec::new()),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_the_paper_suite() {
        let jobs = unate(0);
        let suite = suite::difficult_cyclic();
        assert_eq!(jobs.len(), 7);
        for (job, inst) in jobs.iter().zip(&suite) {
            assert_eq!(job.matrix, inst.matrix, "{}", inst.name);
        }
    }

    #[test]
    fn other_seeds_shuffle_the_same_cores() {
        let (a, b) = (unate(0), unate(5));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.matrix.num_rows(), y.matrix.num_rows());
            assert_eq!(x.matrix.num_cols(), y.matrix.num_cols());
            assert_eq!(x.matrix.nnz(), y.matrix.nnz());
            assert_ne!(x.matrix, y.matrix, "{}", x.name);
        }
        assert_eq!(unate(5)[6].matrix, unate(5)[6].matrix, "seeded");
    }
}
