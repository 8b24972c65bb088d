//! The restart scheduler and the state restarts share.
//!
//! [`Scg::run`](crate::Scg::run) runs in two
//! stages. The *reduce* stage — implicit + explicit reductions,
//! partitioning and the initial subgradient ascent — is deterministic and
//! runs exactly once per solve, whatever the worker count. The *restarts*
//! stage then runs the paper's `NumIter` randomised constructive runs (or,
//! for a partitioned core, the disconnected blocks) as indexed tasks on
//! `run_in_order`, the one scheduler of the solve.
//!
//! # Scheduling
//!
//! `workers` is the request. An explicit `N` gets a pool of exactly
//! `min(N, tasks pending)`, with no size cutoff. `0`, the default, sizes
//! the pool from the process-wide core budget: one slot per available
//! core. Every running [`Scg::run`](crate::Scg::run) holds one slot, and
//! an auto pool adds helpers only for the slots still free. A standalone
//! solve therefore uses every core, while solves that already fill the
//! cores (engine jobs, say) run their restarts inline.
//!
//! A pool of one runs every task on the calling thread and spawns
//! nothing; a larger one adds `pool − 1` threads on `std::thread::scope`,
//! the calling thread working alongside them. Either way each finished
//! task's result (and, when pooled, its buffered telemetry) comes back to
//! the calling thread in index order, so everything that must read like a
//! sequential solve — trace order, the running best, checkpoints — is
//! done there, once, by the same code for every pool size. Whether a pool
//! pays for its spawn and join depends on how long the restarts run, not
//! on the core's size, so no cutoff is guessed.
//!
//! # Stage times
//!
//! Pooled tasks overlap, so the seconds each measures on its own worker
//! add up to more than the wall clock. At hand-back each task is credited
//! with the wall time the calling thread saw since the previous hand-back
//! instead, and every duration the task measured — its buffered
//! `PhaseEnd` events and the seconds in its result — is rescaled by the
//! same factor, which keeps the task's own split between phases. A
//! pooled solve's stages then add up to its wall clock, and its trace
//! agrees with its outcome. (The restarts of a connected core go one step
//! further: their constructive phase is the stage's wall clock net of the
//! rescaled ascents, so hand-back work after the last task counts too.)
//!
//! # Determinism contract
//!
//! A solve's **cost, solution, lower bound and iteration count are
//! identical for every worker count and thread schedule** (given a seed
//! and no `time_limit`). That promise shapes the design:
//!
//! * Every restart is a pure function of the reduced core, the initial
//!   ascent and its own seed ([`restart_seed`], a SplitMix64 derivation):
//!   its constructive path never reads concurrent state. In particular a
//!   restart's Lagrangian pruning bound is `min(initial incumbent, its own
//!   offers so far)` — *not* its siblings' best. Using their best to
//!   shape the path looks like a harmless strengthening but is unsound for
//!   determinism: penalty tests and the warm-started ascents all take the
//!   bound as input, so the whole trajectory would depend on which worker
//!   finished first. It is also unsound to *abandon* a restart merely
//!   because a sibling's cover undercuts its branch bound: the final
//!   irredundancy strip can drop a cover below `chosen + LB(residual)`, so
//!   a "dominated" branch can still produce the winning cover.
//! * Each restart keeps its own best cover (`Incumbent`); the calling
//!   thread merges them in restart order, so the winner is the offer
//!   minimising `(cost, restart index)` whatever order they finished in.
//! * Workers do stop each other where it is provably safe: once any
//!   restart's cover reaches the core's bound floor (`cost ≤ ⌈LB⌉`, the
//!   certification condition), no later-indexed restart can win the
//!   selection — every cover costs at least the floor and ties lose by
//!   index. `CertifiedAt` publishes the smallest such index; restarts
//!   above it stop mid-run, and the in-order merge drops them, exactly as
//!   an inline loop never starts them.
//!
//! A `time_limit` deadline is also checked mid-run; it trades the
//! determinism promise for budget adherence, which is what a wall-clock
//! budget asks for.

use cover::{CoverMatrix, Halt, Solution};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, OnceLock};
use std::time::Instant;
use ucp_telemetry::{Event, Probe};

/// The SplitMix64 output function: maps `state` to a well-mixed 64-bit
/// value. Passing consecutive states yields the reference SplitMix64
/// stream (`splitmix64(0)` is the stream's first output for seed 0).
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// RNG seed for constructive restart `restart` (1-based) of a solve
/// seeded with `seed`.
///
/// The previous scheme, `seed.wrapping_add(k)`, made worker `k` of seed
/// `s` collide with worker `k−1` of seed `s+1` and kept the underlying
/// generator streams adjacent. Hashing through SplitMix64 decorrelates
/// both: nearby `(seed, restart)` pairs land on unrelated seeds.
pub fn restart_seed(seed: u64, restart: usize) -> u64 {
    splitmix64(splitmix64(seed).wrapping_add(restart as u64))
}

/// The best cover offered so far and its cost (`+∞` before any offer).
///
/// An offer replaces the incumbent only when strictly cheaper, so among
/// equal-cost covers the first offered wins. Offers arrive in restart
/// order — a restart offers its own covers in sequence, and the restarts'
/// bests are merged in index order — so the winner is the cover
/// minimising `(cost, restart index)`.
pub(crate) struct Incumbent {
    pub cost: f64,
    pub solution: Option<Solution>,
}

impl Incumbent {
    pub fn new() -> Self {
        Incumbent {
            cost: f64::INFINITY,
            solution: None,
        }
    }

    /// Offers a candidate cover of `ae`; returns its irredundant cost.
    pub fn offer(&mut self, ae: &CoverMatrix, mut sol: Solution) -> f64 {
        sol.make_irredundant(ae);
        let cost = sol.cost(ae);
        if cost < self.cost {
            self.cost = cost;
            self.solution = Some(sol);
        }
        cost
    }

    /// Adopts a later restart's best when it is strictly cheaper.
    pub fn merge(&mut self, later: Incumbent) {
        if later.cost < self.cost {
            *self = later;
        }
    }
}

/// The smallest restart index whose cover reached the core's bound floor
/// (`usize::MAX` until one does). Restarts with a larger index cannot win
/// the selection and stop early.
pub(crate) struct CertifiedAt(AtomicUsize);

impl CertifiedAt {
    pub fn new() -> Self {
        CertifiedAt(AtomicUsize::new(usize::MAX))
    }

    /// Records that `restart` reached the bound floor.
    pub fn certify(&self, restart: usize) {
        self.0.fetch_min(restart, Ordering::SeqCst);
    }

    /// `true` when a restart with a smaller index already reached the
    /// bound floor — `restart`'s offers can no longer win the selection.
    pub fn superseded(&self, restart: usize) -> bool {
        self.0.load(Ordering::SeqCst) < restart
    }
}

/// Everything one constructive restart needs to cooperate with its
/// siblings without compromising determinism (see the module docs).
pub(crate) struct RestartCtx<'a> {
    pub certified: &'a CertifiedAt,
    /// This restart's 1-based index.
    pub restart: usize,
    /// Cost of the initial ascent's heuristic cover (`+∞` if none): the
    /// deterministic base of the restart's pruning bound.
    pub base_ub: f64,
    /// The core's lower bound (`⌈LB⌉` under integer costs): any cover
    /// reaching it is optimal and stops the whole restart stage.
    pub core_lb: f64,
    /// Shared halt condition (one per solve, spanning all partition
    /// blocks and restarts).
    pub halt: &'a Halt,
}

impl RestartCtx<'_> {
    /// The deterministic pruning bound: best of the initial incumbent and
    /// this restart's own offers — never a sibling's.
    pub fn path_ub(&self, own_best: f64) -> f64 {
        self.base_ub.min(own_best)
    }

    /// Offers a cover to the restart's own incumbent, returning its
    /// irredundant cost, and publishes the early-stop index when it
    /// reaches the bound floor.
    pub fn offer(&self, ae: &CoverMatrix, sol: Solution, own: &mut Incumbent) -> f64 {
        let cost = own.offer(ae, sol);
        if cost <= self.core_lb + 1e-9 {
            self.certified.certify(self.restart);
        }
        cost
    }

    /// `true` when the restart should stop mid-run: a lower-indexed
    /// sibling reached the bound floor, or the solve's halt condition
    /// (deadline or cancellation) fired.
    pub fn should_abort(&self) -> bool {
        self.certified.superseded(self.restart) || self.halt.reached()
    }
}

/// The probe a scheduled task records into.
///
/// A pool of one hands tasks the solve's own probe, so an inline solve
/// streams its trace live. Pooled tasks buffer in memory instead; the
/// calling thread replays each buffer in index order, so traces stay
/// ordered and the solve's probe never crosses threads.
pub(crate) enum TaskProbe<'p, P> {
    Inline(&'p mut P),
    /// `None` when the solve's probe is disabled: nothing is buffered.
    Buffered(Option<&'p mut Vec<Event>>),
}

impl<P: Probe> Probe for TaskProbe<'_, P> {
    #[inline]
    fn record(&mut self, event: Event) {
        match self {
            TaskProbe::Inline(p) => p.record(event),
            TaskProbe::Buffered(Some(events)) => events.push(event),
            TaskProbe::Buffered(None) => {}
        }
    }

    #[inline]
    fn enabled(&self) -> bool {
        match self {
            TaskProbe::Inline(p) => p.enabled(),
            TaskProbe::Buffered(events) => events.is_some(),
        }
    }
}

/// The machine's available parallelism, read once per process (on Linux
/// each read consults the cgroup files). `1` when it cannot be read.
pub fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// Slots for the threads solves run on, one per core. Running solves and
/// pooled helpers hold slots; an auto-sized pool (`workers == 0`) adds
/// helpers only for the free ones (see the module docs).
pub(crate) struct CoreBudget {
    slots: usize,
    /// Slots held now. A count that publishes no other data, so every
    /// access is `Relaxed`.
    held: AtomicUsize,
}

impl CoreBudget {
    pub fn new(slots: usize) -> Self {
        CoreBudget {
            slots,
            held: AtomicUsize::new(0),
        }
    }

    /// The process-wide budget: [`available_cores`] slots.
    pub fn global() -> &'static CoreBudget {
        static BUDGET: OnceLock<CoreBudget> = OnceLock::new();
        BUDGET.get_or_init(|| CoreBudget::new(available_cores()))
    }

    /// Holds `n` slots, free or not: a running solve, or the helpers of an
    /// explicitly sized pool. Released when the guard drops.
    pub fn hold(&self, n: usize) -> Held<'_> {
        self.held.fetch_add(n, Ordering::Relaxed);
        Held { budget: self, n }
    }

    /// Holds as many free slots as there are, up to `want`.
    fn take_free(&self, want: usize) -> Held<'_> {
        let free = |held: usize| want.min(self.slots.saturating_sub(held));
        let n = self
            .held
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |held| {
                (free(held) > 0).then(|| held + free(held))
            })
            .map_or(0, free);
        Held { budget: self, n }
    }
}

/// Slots held in a [`CoreBudget`] until dropped.
pub(crate) struct Held<'b> {
    budget: &'b CoreBudget,
    n: usize,
}

impl Drop for Held<'_> {
    fn drop(&mut self) {
        self.budget.held.fetch_sub(self.n, Ordering::Relaxed);
    }
}

/// The wall-clock share of one handed-back task: `own` seconds it ran on
/// its worker, `wall` seconds of the calling thread's clock it is
/// credited with. Inline the two are equal; pooled, `wall` is the time
/// since the previous hand-back.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Share {
    pub own: f64,
    pub wall: f64,
}

impl Share {
    /// Rescales a duration the task measured itself to its wall share.
    pub fn scale(self, seconds: f64) -> f64 {
        if self.own > 0.0 {
            seconds * (self.wall / self.own)
        } else {
            seconds
        }
    }
}

/// Runs `task(i, worker, probe)` for every index `i` in `tasks` and hands
/// each result back to `done(i, result, events, share, probe)` on the
/// calling thread in index order. Returns the pool size.
///
/// The pool is `min(workers, tasks.len())` for an explicit `workers`; for
/// `0` it is the calling thread plus as many helpers as `budget` has free
/// slots, up to one per remaining task (see the module docs).
///
/// A pool of one runs the tasks on the calling thread, records straight
/// into `probe` and passes `done` no events. A larger pool spawns
/// `pool − 1` scoped threads; they and the calling thread pull indices in
/// order, and the calling thread hands results back between its own
/// tasks, so a result can wait for the task it is running. `events` is
/// then what the task buffered, its `PhaseEnd` seconds already rescaled
/// by `share`, and `done` decides whether to replay it. `worker` is the
/// pool slot that ran the task (`0` is the calling thread).
///
/// A task returning `None` — it did not run — ends the schedule, and so
/// does `done` returning `false`: no further task starts, and results of
/// later tasks already running are dropped unseen. Inline, a task's
/// events are out before `done` sees its result, so a task that must
/// leave no trace decides before it records anything.
pub(crate) fn run_in_order<P, T, F, D>(
    workers: usize,
    budget: &CoreBudget,
    tasks: Range<usize>,
    probe: &mut P,
    task: F,
    mut done: D,
) -> usize
where
    P: Probe,
    T: Send,
    F: Fn(usize, usize, &mut TaskProbe<'_, P>) -> Option<T> + Sync,
    D: FnMut(usize, T, Vec<Event>, Share, &mut P) -> bool,
{
    let helpers = match workers {
        0 => budget.take_free(tasks.len().saturating_sub(1)),
        n => budget.hold(n.min(tasks.len()).saturating_sub(1)),
    };
    let pool = helpers.n + 1;
    if pool == 1 {
        for i in tasks {
            let started = Instant::now();
            let Some(out) = task(i, 0, &mut TaskProbe::Inline(&mut *probe)) else {
                break;
            };
            let own = started.elapsed().as_secs_f64();
            if !done(i, out, Vec::new(), Share { own, wall: own }, probe) {
                break;
            }
        }
        return pool;
    }

    // Takes the next index and runs it into a buffer; `None` once the
    // schedule is exhausted or closed. Both atomics publish no other data
    // (results travel over the channel), so `Relaxed` suffices; `closed`
    // is only a hint that saves starting tasks whose results the
    // hand-back would drop anyway.
    let enabled = probe.enabled();
    let next = AtomicUsize::new(tasks.start);
    let closed = AtomicBool::new(false);
    let run_next = |worker: usize| {
        if closed.load(Ordering::Relaxed) {
            return None;
        }
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= tasks.end {
            return None;
        }
        let mut events = Vec::new();
        let started = Instant::now();
        let out = task(
            i,
            worker,
            &mut TaskProbe::Buffered(enabled.then_some(&mut events)),
        );
        let own = started.elapsed().as_secs_f64();
        if out.is_none() {
            closed.store(true, Ordering::Relaxed);
        }
        Some((i, out, events, own))
    };
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        let mut last_hand_back = Instant::now();
        for worker in 1..pool {
            let (run_next, tx) = (&run_next, tx.clone());
            scope.spawn(move || {
                while let Some(result) = run_next(worker) {
                    if tx.send(result).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        // Results arrive in completion order; hand them back in index
        // order, each credited with the wall time since the last one.
        // `false` once the schedule has ended.
        let mut pending = BTreeMap::new();
        let mut want = tasks.start;
        let mut hand_back = |(i, out, events, own): (usize, Option<T>, Vec<Event>, f64)| {
            pending.insert(i, (out, events, own));
            while let Some((out, mut events, own)) = pending.remove(&want) {
                let Some(out) = out else {
                    closed.store(true, Ordering::Relaxed);
                    return false;
                };
                let now = Instant::now();
                let share = Share {
                    own,
                    wall: (now - last_hand_back).as_secs_f64(),
                };
                last_hand_back = now;
                for event in &mut events {
                    if let Event::PhaseEnd { seconds, .. } = event {
                        *seconds = share.scale(*seconds);
                    }
                }
                if !done(want, out, events, share, &mut *probe) {
                    closed.store(true, Ordering::Relaxed);
                    return false;
                }
                want += 1;
            }
            true
        };
        // The calling thread is worker 0: between its own tasks it hands
        // back whatever the others finished. Once it runs out, it waits
        // for the rest. A worker that panics drops its sender, the loop
        // ends short, and the scope re-raises the panic.
        while let Some(result) = run_next(0) {
            for r in std::iter::once(result).chain(rx.try_iter()) {
                if !hand_back(r) {
                    return;
                }
            }
        }
        for r in rx {
            if !hand_back(r) {
                return;
            }
        }
    });
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucp_telemetry::{NoopProbe, RecordingProbe};

    #[test]
    fn splitmix64_matches_reference_stream() {
        // First three outputs of the reference SplitMix64 for seed 0
        // (whose internal state advances by the golden gamma per draw).
        const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(GAMMA), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(GAMMA.wrapping_mul(2)), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn restart_seeds_do_not_collide_across_adjacent_user_seeds() {
        // The old scheme had seed s, restart k ≡ seed s+1, restart k−1.
        for s in [0u64, 1, 42, 0xDA7E_2000] {
            for k in 1usize..=8 {
                assert_ne!(restart_seed(s, k), restart_seed(s + 1, k.saturating_sub(1)));
                assert_ne!(restart_seed(s, k), restart_seed(s, k + 1));
            }
        }
    }

    #[test]
    fn incumbent_keeps_the_first_of_equal_cost_covers() {
        // Two rows, two interchangeable unit-cost covers for each: every
        // 2-column cover ties at cost 2, so only the offer order decides.
        let m = CoverMatrix::from_rows(4, vec![vec![0, 1], vec![2, 3]]);
        let mut inc = Incumbent::new();
        assert_eq!(inc.offer(&m, Solution::from_cols(vec![1, 3])), 2.0);
        inc.offer(&m, Solution::from_cols(vec![0, 2]));
        // A later restart's tie loses to the earlier one too.
        let mut later = Incumbent::new();
        later.offer(&m, Solution::from_cols(vec![0, 3]));
        inc.merge(later);
        assert_eq!(inc.cost, 2.0);
        let mut cols = inc.solution.expect("offers were made").cols().to_vec();
        cols.sort_unstable();
        assert_eq!(cols, vec![1, 3]);
    }

    #[test]
    fn incumbent_prefers_a_cheaper_cover_from_any_restart() {
        let m = CoverMatrix::from_rows(3, vec![vec![0, 2], vec![1, 2]]);
        let mut inc = Incumbent::new();
        inc.offer(&m, Solution::from_cols(vec![0, 1]));
        assert_eq!(inc.cost, 2.0);
        // Column 2 alone covers both rows: cost 1 wins despite the index.
        let mut later = Incumbent::new();
        later.offer(&m, Solution::from_cols(vec![2]));
        inc.merge(later);
        assert_eq!(inc.cost, 1.0);
        // Merging a restart that found nothing changes nothing.
        inc.merge(Incumbent::new());
        assert_eq!(inc.cost, 1.0);
    }

    #[test]
    fn certification_stops_later_restarts_only() {
        let at = CertifiedAt::new();
        assert!(!at.superseded(5));
        at.certify(3);
        assert!(at.superseded(5));
        assert!(!at.superseded(3), "the certifying restart itself finishes");
        assert!(!at.superseded(2), "lower restarts keep running");
        at.certify(7); // a later certification never loosens the stop
        assert!(at.superseded(4));
    }

    /// Runs `0..n` on `workers` against `budget`, each task recording one
    /// event tagged with its index, and returns the pool size, the
    /// indices `done` saw and the event tags that reached the probe. Task
    /// `skip_at` does not run; `done` refuses the result of task
    /// `refuse_at`.
    fn schedule_on(
        budget: &CoreBudget,
        workers: usize,
        n: usize,
        skip_at: usize,
        refuse_at: usize,
    ) -> (usize, Vec<usize>, Vec<usize>) {
        let mut probe = RecordingProbe::new();
        let mut seen = Vec::new();
        let pool = run_in_order(
            workers,
            budget,
            0..n,
            &mut probe,
            |i, worker, p| {
                assert!(workers == 0 || worker < workers);
                if i >= skip_at {
                    return None;
                }
                p.record(Event::RestartBegin { run: i, worker });
                Some(i * 10)
            },
            |i, out, events, _, p| {
                assert_eq!(out, i * 10);
                if i == refuse_at {
                    return false;
                }
                seen.push(i);
                for e in events {
                    p.record(e);
                }
                true
            },
        );
        let tags = probe
            .events()
            .iter()
            .filter_map(|te| match te.event {
                Event::RestartBegin { run, .. } => Some(run),
                _ => None,
            })
            .collect();
        (pool, seen, tags)
    }

    /// [`schedule_on`] with an explicit `workers` and a budget of its own.
    fn schedule(
        workers: usize,
        n: usize,
        skip_at: usize,
        refuse_at: usize,
    ) -> (usize, Vec<usize>, Vec<usize>) {
        assert!(workers > 0, "auto pools are tested on a sized budget");
        schedule_on(&CoreBudget::new(1), workers, n, skip_at, refuse_at)
    }

    #[test]
    fn scheduler_hands_results_back_in_index_order() {
        const ALL: usize = usize::MAX;
        for workers in [1, 2, 3, 8] {
            let (pool, seen, tags) = schedule(workers, 40, ALL, ALL);
            assert_eq!(pool, workers, "pool is min(workers, tasks)");
            assert_eq!(seen, (0..40).collect::<Vec<_>>());
            assert_eq!(tags, seen, "events arrive with their task, in order");
        }
        assert_eq!(
            schedule(8, 3, ALL, ALL).0,
            3,
            "never more workers than tasks"
        );
        assert_eq!(schedule(4, 0, ALL, ALL), (1, vec![], vec![]));
    }

    #[test]
    fn auto_pools_take_only_free_slots() {
        const ALL: usize = usize::MAX;
        let inline = schedule(1, 40, ALL, ALL);
        let budget = CoreBudget::new(4);
        let _solve = budget.hold(1);
        // Three slots free: the calling thread and three helpers, never
        // more than the tasks, with the inline schedule's results.
        let (pool, seen, tags) = schedule_on(&budget, 0, 40, ALL, ALL);
        assert_eq!((pool, &seen, &tags), (4, &inline.1, &inline.2));
        assert_eq!(schedule_on(&budget, 0, 2, ALL, ALL).0, 2);
        assert_eq!(budget.held.load(Ordering::Relaxed), 1, "helpers released");
        // Every slot held: an auto pool runs inline, unchanged.
        let busy = budget.hold(3);
        assert_eq!(schedule_on(&budget, 0, 40, ALL, ALL), inline);
        // An explicit request ignores the budget.
        assert_eq!(schedule_on(&budget, 3, 40, ALL, ALL).0, 3);
        assert_eq!(schedule_on(&budget, 8, 3, ALL, ALL).0, 3);
        drop(busy);
        // A pool's helpers hold their slots: a nested auto pool inside
        // one that took the last free slot runs inline.
        let tight = CoreBudget::new(2);
        let _solve = tight.hold(1);
        let outer = run_in_order(
            0,
            &tight,
            0..4,
            &mut NoopProbe,
            |_, _, _| {
                Some(run_in_order(
                    0,
                    &tight,
                    0..4,
                    &mut NoopProbe,
                    |_, _, _| Some(()),
                    |_, (), _, _, _| true,
                ))
            },
            |_, inner, _, _, _| {
                assert_eq!(inner, 1, "no slot left for the nested pool");
                true
            },
        );
        assert_eq!(outer, 2);
    }

    #[test]
    fn pooled_shares_tile_the_wall_clock() {
        let mut probe = RecordingProbe::new();
        let mut walls = 0.0;
        let started = Instant::now();
        let pool = run_in_order(
            2,
            &CoreBudget::new(2),
            0..6,
            &mut probe,
            |_, _, p| {
                let t = Instant::now();
                std::thread::sleep(std::time::Duration::from_millis(5));
                let seconds = t.elapsed().as_secs_f64();
                p.record(Event::PhaseEnd {
                    phase: ucp_telemetry::Phase::Constructive,
                    seconds,
                });
                Some(seconds)
            },
            |_, seconds, events, share, p| {
                // The replayed event carries the task's rescaled time.
                for e in events {
                    let Event::PhaseEnd { seconds: s, .. } = e else {
                        unreachable!()
                    };
                    assert_eq!(s, share.scale(seconds));
                    assert!(s <= share.wall + 1e-12);
                    p.record(e);
                }
                walls += share.wall;
                true
            },
        );
        assert_eq!(pool, 2);
        assert!(walls <= started.elapsed().as_secs_f64());
        assert!((probe.phase_times().total() - walls).abs() <= 1e-3);
    }

    #[test]
    fn scheduler_stops_at_the_first_skipped_task() {
        for workers in [1, 2, 3, 8] {
            // Task 7 onwards would not run: nothing from them shows.
            let (_, seen, tags) = schedule(workers, 100_000, 7, usize::MAX);
            assert_eq!(seen, (0..7).collect::<Vec<_>>(), "workers = {workers}");
            assert_eq!(tags, seen);
        }
    }

    #[test]
    fn scheduler_stops_at_the_first_refused_result() {
        for workers in [1, 2, 3, 8] {
            let (_, seen, tags) = schedule(workers, 40, usize::MAX, 7);
            assert_eq!(seen, (0..7).collect::<Vec<_>>(), "workers = {workers}");
            // Inline, the refused task already recorded as it ran; pooled,
            // its buffer is dropped with the result.
            let shown = if workers == 1 { 8 } else { 7 };
            assert_eq!(tags, (0..shown).collect::<Vec<_>>(), "workers = {workers}");
        }
    }

    #[test]
    fn buffered_task_probe_respects_enablement() {
        let mut events = Vec::new();
        let mut on = TaskProbe::<NoopProbe>::Buffered(Some(&mut events));
        let mut off = TaskProbe::<NoopProbe>::Buffered(None);
        assert!(on.enabled() && !off.enabled());
        for p in [&mut on, &mut off] {
            p.record(Event::RestartBegin { run: 1, worker: 0 });
        }
        assert_eq!(events.len(), 1);
    }
}
