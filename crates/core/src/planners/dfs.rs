//! Depth-first search over sender assignments with lower-bound pruning.

use super::load_balance::lpt_schedule;
use super::table::{Cand, HostTable, Pick};
use super::{Planner, PlannerConfig};
use crate::plan::Plan;
use crate::task::ReshardingTask;
use crossmesh_obs as obs;
use rayon::prelude::*;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Registry handles for the DFS search, resolved once. The hot search loop
/// counts into plain locals; each branch flushes its totals with a handful
/// of sharded-counter adds, so observation never perturbs search order.
struct DfsMetrics {
    plans: obs::Counter,
    branches: obs::Counter,
    branch_skips: obs::Counter,
    nodes: obs::Counter,
    pruned: obs::Counter,
}

fn dfs_metrics() -> &'static DfsMetrics {
    static METRICS: OnceLock<DfsMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let m = obs::metrics();
        DfsMetrics {
            plans: m.counter("planner.dfs.plans"),
            branches: m.counter("planner.dfs.branches"),
            branch_skips: m.counter("planner.dfs.branch_skips"),
            nodes: m.counter("planner.dfs.nodes"),
            pruned: m.counter("planner.dfs.pruned"),
        }
    })
}

/// The paper's "DFS with pruning" (§3.2): a depth-first search over sender
/// assignments. Partial assignments are pruned when the heaviest sender
/// load already reaches the best known makespan (the Eq. 4 lower bound);
/// each complete assignment is turned into a schedule with an
/// earliest-start list scheduler and evaluated analytically.
///
/// The search is bounded by a node budget; the paper notes the exact search
/// stops being useful beyond ~20 unit tasks, which is why the ensemble also
/// runs the randomized greedy.
///
/// # Parallelism and determinism
///
/// The search splits at the shallowest tree levels into independent
/// *branches* (fixed sender choices for the first one or two items) that
/// run on the current rayon pool. Each branch gets a fixed share of the
/// node budget and its own bound, seeded from the LPT estimate, so its
/// result depends only on the branch — never on thread timing. A shared
/// atomic best-makespan is consulted *only* to skip a whole branch whose
/// load lower bound strictly exceeds another branch's published result;
/// such a branch can never win the final `(estimate, branch index)`
/// reduction, so skipping it is invisible in the output. The plan is
/// therefore byte-identical across thread counts.
#[derive(Debug, Clone)]
pub struct DfsPlanner {
    config: PlannerConfig,
    node_budget: usize,
}

impl Default for DfsPlanner {
    fn default() -> Self {
        DfsPlanner {
            config: PlannerConfig::default(),
            node_budget: 100_000,
        }
    }
}

impl DfsPlanner {
    /// Creates the planner with the default node budget (100 000 nodes).
    pub fn new(config: PlannerConfig) -> Self {
        DfsPlanner {
            config,
            node_budget: 100_000,
        }
    }

    /// Returns a copy with the node budget replaced.
    #[must_use]
    pub fn with_node_budget(mut self, budget: usize) -> Self {
        self.node_budget = budget.max(1);
        self
    }
}

/// How many top-of-tree branches the search is split into (at least — the
/// last expanded level may overshoot). A constant rather than the pool
/// size: the decomposition must not depend on how many threads happen to
/// run it. 16 gives an 8-thread pool two branches per thread to balance
/// uneven subtree costs.
const BRANCH_TARGET: usize = 16;

/// One unit task in search order with its candidate senders.
struct Item<'a> {
    unit: usize,
    cands: &'a [Cand],
}

/// Immutable search context shared by every branch. A *choice* holds one
/// candidate index per item.
struct SearchCtx<'a> {
    /// The table's rows, longest first: prunes earlier.
    items: Vec<Item<'a>>,
    n_slots: usize,
    seed_est: f64,
}

impl<'a> SearchCtx<'a> {
    fn new(table: &'a HostTable, longest_first: &[usize], seed_est: f64) -> Self {
        SearchCtx {
            items: longest_first
                .iter()
                .map(|&unit| Item {
                    unit,
                    cands: &table.rows[unit].cands,
                })
                .collect(),
            n_slots: table.n_slots,
            seed_est,
        }
    }

    /// Enumerates the top-of-tree branches: every candidate combination for
    /// a prefix of items, the prefix grown until there are at least
    /// [`BRANCH_TARGET`] branches (or the items run out). The target is a
    /// constant — NOT the pool size — so the decomposition, the per-branch
    /// budget shares, and therefore the search result are identical at
    /// every thread count; the pool only decides how many branches run
    /// concurrently.
    fn branches(&self) -> Vec<Vec<u32>> {
        let target = BRANCH_TARGET;
        let mut depth = 0usize;
        let mut count = 1usize;
        while depth < self.items.len() && count < target {
            count = count.saturating_mul(self.items[depth].cands.len().max(1));
            depth += 1;
        }
        let mut branches: Vec<Vec<u32>> = vec![Vec::new()];
        for item in 0..depth {
            let n_cands = self.items[item].cands.len();
            let mut next = Vec::with_capacity(branches.len() * n_cands);
            for prefix in &branches {
                for ci in 0..n_cands as u32 {
                    let mut p = prefix.clone();
                    p.push(ci);
                    next.push(p);
                }
            }
            branches = next;
        }
        branches
    }

    /// Runs one branch to completion with its own budget share. Returns the
    /// branch's best `(makespan estimate, per-item candidate choice)` if it
    /// improved on the LPT seed.
    fn run_branch(
        &self,
        prefix: &[u32],
        budget: usize,
        shared_best: &AtomicU64,
    ) -> Option<(f64, Vec<u32>)> {
        let metrics = dfs_metrics();
        let mut load = vec![0.0f64; self.n_slots];
        let mut branch_lb = 0.0f64;
        for (depth, &ci) in prefix.iter().enumerate() {
            let c = &self.items[depth].cands[ci as usize];
            load[c.slot as usize] += c.duration;
            if load[c.slot as usize] >= self.seed_est {
                // The sequential bound (which every branch starts from)
                // already prunes this prefix — deterministic skip.
                metrics.branch_skips.inc();
                return None;
            }
            branch_lb = branch_lb.max(load[c.slot as usize]);
        }
        // Opportunistic skip: every leaf under this prefix has makespan
        // >= branch_lb, so a *strictly* smaller published result from some
        // other branch proves this branch cannot win the reduction. Timing
        // only decides whether we skip, never what the reduction returns.
        if branch_lb > f64::from_bits(shared_best.load(Ordering::Relaxed)) {
            metrics.branch_skips.inc();
            return None;
        }
        let n = self.items.len();
        let mut search = BranchSearch {
            ctx: self,
            load,
            chosen: {
                let mut v = vec![0u32; n];
                v[..prefix.len()].copy_from_slice(prefix);
                v
            },
            nodes_left: budget,
            best_est: self.seed_est,
            best_choice: None,
            order_scratch: vec![Vec::new(); n],
            cursor: vec![0.0f64; self.n_slots],
            remaining: Vec::with_capacity(n),
            pruned: 0,
        };
        search.dfs(prefix.len());
        metrics.nodes.add((budget - search.nodes_left) as u64);
        metrics.pruned.add(search.pruned);
        let best_est = search.best_est;
        search.best_choice.map(|choice| {
            shared_best.fetch_min(best_est.to_bits(), Ordering::Relaxed);
            (best_est, choice)
        })
    }

    /// Builds the schedule for a complete choice using an earliest-start
    /// list schedule over host availability, returning it and its
    /// makespan. Each candidate's start is computed once per selection
    /// scan.
    fn schedule_choice(&self, choice: &[u32]) -> (Vec<Pick>, f64) {
        let mut cursor = vec![0.0f64; self.n_slots];
        let mut remaining: Vec<u32> = (0..self.items.len() as u32).collect();
        let mut out = Vec::with_capacity(self.items.len());
        let mut makespan = 0.0f64;
        while !remaining.is_empty() {
            let (pos, start) = self.next_scheduled(&cursor, &remaining, choice);
            let it = remaining.swap_remove(pos) as usize;
            let item = &self.items[it];
            let c = &item.cands[choice[it] as usize];
            let finish = start + c.duration;
            for &s in &c.involved {
                cursor[s as usize] = finish;
            }
            makespan = makespan.max(finish);
            out.push((item.unit, choice[it]));
        }
        (out, makespan)
    }

    /// Selects the next list-schedule entry: minimal `(earliest start,
    /// -duration, unit)`. Returns its position in `remaining` and its
    /// start time.
    fn next_scheduled(&self, cursor: &[f64], remaining: &[u32], choice: &[u32]) -> (usize, f64) {
        let mut best_pos = 0usize;
        let mut best: Option<(f64, f64, usize)> = None;
        for (pos, &it) in remaining.iter().enumerate() {
            let item = &self.items[it as usize];
            let c = &item.cands[choice[it as usize] as usize];
            let start = c
                .involved
                .iter()
                .map(|&s| cursor[s as usize])
                .fold(0.0, f64::max);
            let key = (start, -c.duration, item.unit);
            let better = match &best {
                None => true,
                Some(b) => key
                    .0
                    .total_cmp(&b.0)
                    .then(key.1.total_cmp(&b.1))
                    .then(key.2.cmp(&b.2))
                    .is_lt(),
            };
            if better {
                best = Some(key);
                best_pos = pos;
            }
        }
        (best_pos, best.expect("remaining is non-empty").0)
    }
}

/// Mutable per-branch search state; all buffers are reused across nodes.
struct BranchSearch<'a> {
    ctx: &'a SearchCtx<'a>,
    /// Accumulated duration per host slot.
    load: Vec<f64>,
    /// Candidate index per item (prefix fixed, rest in flux).
    chosen: Vec<u32>,
    nodes_left: usize,
    best_est: f64,
    best_choice: Option<Vec<u32>>,
    /// Per-depth candidate-order buffers (avoids per-node allocation).
    order_scratch: Vec<Vec<u32>>,
    /// Leaf-evaluation host cursors.
    cursor: Vec<f64>,
    /// Leaf-evaluation worklist.
    remaining: Vec<u32>,
    /// Eq. 4 lower-bound prune edges taken, flushed to the metrics
    /// registry when the branch finishes.
    pruned: u64,
}

impl BranchSearch<'_> {
    fn dfs(&mut self, depth: usize) {
        if self.nodes_left == 0 {
            return;
        }
        self.nodes_left -= 1;

        if depth == self.ctx.items.len() {
            let est = self.eval_leaf();
            if est < self.best_est {
                self.best_est = est;
                self.best_choice = Some(self.chosen.clone());
            }
            return;
        }

        // Try lighter hosts first to reach good leaves early.
        let cands = self.ctx.items[depth].cands;
        let mut order = std::mem::take(&mut self.order_scratch[depth]);
        order.clear();
        order.extend(0..cands.len() as u32);
        order.sort_by(|&a, &b| {
            let ca = &cands[a as usize];
            let cb = &cands[b as usize];
            let la = self.load[ca.slot as usize] + ca.duration;
            let lb = self.load[cb.slot as usize] + cb.duration;
            la.total_cmp(&lb).then(ca.host.cmp(&cb.host))
        });
        for &ci in &order {
            let (slot, duration) = {
                let c = &cands[ci as usize];
                (c.slot as usize, c.duration)
            };
            let new_load = self.load[slot] + duration;
            if new_load >= self.best_est {
                self.pruned += 1;
                continue; // Eq. 4 lower bound: this host alone busts the best.
            }
            self.load[slot] += duration;
            self.chosen[depth] = ci;
            self.dfs(depth + 1);
            self.load[slot] -= duration;
        }
        self.order_scratch[depth] = order;
    }

    /// Evaluates the current complete choice: the makespan of its
    /// earliest-start list schedule, computed incrementally over the reused
    /// cursor buffer — no plan construction, no candidate rescans.
    fn eval_leaf(&mut self) -> f64 {
        self.cursor.fill(0.0);
        self.remaining.clear();
        self.remaining.extend(0..self.ctx.items.len() as u32);
        let mut makespan = 0.0f64;
        while !self.remaining.is_empty() {
            let (pos, start) = self
                .ctx
                .next_scheduled(&self.cursor, &self.remaining, &self.chosen);
            let it = self.remaining.swap_remove(pos) as usize;
            let c = &self.ctx.items[it].cands[self.chosen[it] as usize];
            let finish = start + c.duration;
            for &s in &c.involved {
                self.cursor[s as usize] = finish;
            }
            makespan = makespan.max(finish);
        }
        makespan
    }
}

impl Planner for DfsPlanner {
    fn plan<'t>(&self, task: &'t ReshardingTask) -> Plan<'t> {
        let span = obs::Span::enter(
            obs::Level::Debug,
            "planner.dfs",
            "plan",
            &[obs::Field::u64("units", task.units().len() as u64)],
        );
        // Start from the LPT solution: the search can only improve on it.
        let table = HostTable::build(task, &self.config);
        let order = table.longest_first();
        let seed = lpt_schedule(&table, &order);
        let seed_plan = || Plan::new(task, table.assignments(&seed), self.config.params);
        if task.units().is_empty() {
            return seed_plan();
        }

        let metrics = dfs_metrics();
        metrics.plans.inc();
        let ctx = SearchCtx::new(&table, &order, table.estimate(&seed));
        let branches = ctx.branches();
        let k = branches.len();
        metrics.branches.add(k as u64);
        span.record(&[obs::Field::u64("branches", k as u64)]);
        let shared_best = AtomicU64::new(ctx.seed_est.to_bits());
        let budget = self.node_budget;
        let jobs: Vec<(usize, Vec<u32>)> = branches.into_iter().enumerate().collect();
        let results: Vec<Option<(f64, Vec<u32>)>> = jobs
            .par_iter()
            .map(|(i, prefix)| {
                // Fixed, thread-count-independent budget share per branch.
                let share = budget / k + usize::from(*i < budget % k);
                ctx.run_branch(prefix, share, &shared_best)
            })
            .collect();

        // Deterministic reduction: min (estimate, branch index), strict, so
        // the earliest branch wins ties.
        let mut best: Option<(f64, Vec<u32>)> = None;
        for result in results.into_iter().flatten() {
            let better = match &best {
                None => true,
                Some((est, _)) => result.0 < *est,
            };
            if better {
                best = Some(result);
            }
        }
        match best {
            Some((est, choice)) => {
                let (schedule, makespan) = ctx.schedule_choice(&choice);
                debug_assert!(
                    (makespan - est).abs() <= 1e-12 * est.abs().max(1.0),
                    "leaf evaluation diverged from the materialized schedule"
                );
                Plan::new(task, table.assignments(&schedule), self.config.params)
            }
            None => seed_plan(),
        }
    }

    fn name(&self) -> &'static str {
        "dfs"
    }

    fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.name().hash(&mut h);
        super::hash_planner_config(&mut h, &self.config);
        self.node_budget.hash(&mut h);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::super::{replica_on, LoadBalancePlanner, NaivePlanner};
    use super::*;
    use crate::plan::{involved_hosts, Assignment};
    use crossmesh_netsim::HostId;
    use std::collections::BTreeMap;

    #[test]
    fn never_worse_than_lpt() {
        for (src, dst) in [("RRR", "S0RR"), ("S0RR", "S1RR"), ("RS0R", "S0RR")] {
            let t = task(src, dst, &[16, 8, 8]);
            let dfs = DfsPlanner::new(config()).plan(&t).estimate();
            let lpt = LoadBalancePlanner::new(config()).plan(&t).estimate();
            assert!(dfs <= lpt + 1e-9, "{src}->{dst}: dfs {dfs} vs lpt {lpt}");
        }
    }

    #[test]
    fn improves_on_naive_for_replicated_sources() {
        let c = cluster();
        let t = task("RRR", "S1RR", &[16, 8, 8]);
        let dfs = DfsPlanner::new(config()).plan(&t).execute(&c).unwrap();
        let naive = NaivePlanner::new(config()).plan(&t).execute(&c).unwrap();
        assert!(dfs.simulated_seconds <= naive.simulated_seconds + 1e-9);
    }

    #[test]
    fn budget_of_one_still_returns_a_valid_plan() {
        let t = task("S0RR", "S01RR", &[8, 8, 8]);
        let planner = DfsPlanner::new(config()).with_node_budget(1);
        let plan = planner.plan(&t);
        assert_eq!(plan.assignments().len(), t.units().len());
    }

    #[test]
    fn respects_estimate_lower_bound() {
        let t = task("RS0R", "S0RR", &[8, 8, 8]);
        let plan = DfsPlanner::new(config()).plan(&t);
        assert!(plan.lower_bound() <= plan.estimate() + 1e-9);
    }

    /// The pre-optimization `leaf_assignments`: recomputes each candidate's
    /// involved hosts and start twice per placement. Kept as the reference
    /// the incremental scheduler must match exactly.
    fn reference_leaf_assignments(
        task: &crate::ReshardingTask,
        config: &PlannerConfig,
        entries: Vec<(usize, HostId, f64)>,
    ) -> Vec<Assignment> {
        let mut cursor: BTreeMap<HostId, f64> = BTreeMap::new();
        let mut remaining = entries;
        let mut out = Vec::with_capacity(remaining.len());
        while !remaining.is_empty() {
            let (pos, _) = remaining
                .iter()
                .enumerate()
                .map(|(pos, &(unit, host, duration))| {
                    let hosts = involved_hosts(&task.units()[unit], host);
                    let start = hosts
                        .iter()
                        .map(|h| cursor.get(h).copied().unwrap_or(0.0))
                        .fold(0.0, f64::max);
                    (pos, (start, -duration, unit))
                })
                .min_by(|a, b| {
                    a.1 .0
                        .total_cmp(&b.1 .0)
                        .then(a.1 .1.total_cmp(&b.1 .1))
                        .then(a.1 .2.cmp(&b.1 .2))
                })
                .expect("remaining is non-empty");
            let (unit, host, duration) = remaining.swap_remove(pos);
            let hosts = involved_hosts(&task.units()[unit], host);
            let start = hosts
                .iter()
                .map(|h| cursor.get(h).copied().unwrap_or(0.0))
                .fold(0.0, f64::max);
            for h in hosts {
                cursor.insert(h, start + duration);
            }
            let u = &task.units()[unit];
            out.push(Assignment {
                unit,
                sender: replica_on(u, host),
                sender_host: host,
                strategy: config.strategy.resolve(u),
            });
        }
        out
    }

    #[test]
    fn incremental_schedule_matches_the_old_rescanning_one() {
        for (src, dst, shape) in [
            ("RRR", "S0RR", [16u64, 8, 8]),
            ("RS0R", "S0RR", [8, 8, 8]),
            ("S0RR", "S01RR", [16, 8, 8]),
            ("RS1R", "S0RR", [8, 8, 8]),
        ] {
            let t = task(src, dst, &shape);
            let cfg = config();
            let table = HostTable::build(&t, &cfg);
            let order = table.longest_first();
            let ctx = SearchCtx::new(&table, &order, f64::INFINITY);
            // Exercise every first-candidate choice plus a rotated one.
            for rot in 0..2usize {
                let choice: Vec<u32> = ctx
                    .items
                    .iter()
                    .map(|it| (rot % it.cands.len()) as u32)
                    .collect();
                let entries: Vec<(usize, HostId, f64)> = ctx
                    .items
                    .iter()
                    .zip(&choice)
                    .map(|(it, &ci)| {
                        let c = &it.cands[ci as usize];
                        (it.unit, c.host, c.duration)
                    })
                    .collect();
                let expected = reference_leaf_assignments(&t, &cfg, entries);
                let (schedule, makespan) = ctx.schedule_choice(&choice);
                let got = table.assignments(&schedule);
                assert_eq!(got, expected, "{src}->{dst} rot {rot}");
                let plan_est = Plan::new(&t, got, cfg.params).estimate();
                assert_eq!(
                    makespan.to_bits(),
                    plan_est.to_bits(),
                    "incremental makespan must equal the plan estimate"
                );
            }
        }
    }

    #[test]
    fn identical_across_thread_counts() {
        let t = task("RS1R", "S01RR", &[16, 8, 8]);
        let planner = DfsPlanner::new(config());
        let baseline = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| planner.plan(&t));
        for threads in [2, 4, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let plan = pool.install(|| planner.plan(&t));
            assert_eq!(
                plan.assignments(),
                baseline.assignments(),
                "threads = {threads}"
            );
        }
    }
}
