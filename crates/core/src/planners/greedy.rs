//! Greedy search with randomization (paper §3.2).

use super::table::{HostTable, Pick};
use super::{Planner, PlannerConfig};
use crate::plan::Plan;
use crate::task::ReshardingTask;
use crossmesh_obs as obs;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

/// Registry handles for the greedy search, resolved once. Rounds and
/// visits (units examined by [`Round::select`]) are counted locally per
/// restart and flushed in one add each.
struct GreedyMetrics {
    plans: obs::Counter,
    restarts: obs::Counter,
    rounds: obs::Counter,
    visits: obs::Counter,
}

fn greedy_metrics() -> &'static GreedyMetrics {
    static METRICS: OnceLock<GreedyMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let m = obs::metrics();
        GreedyMetrics {
            plans: m.counter("planner.greedy.plans"),
            restarts: m.counter("planner.greedy.restarts"),
            rounds: m.counter("planner.greedy.rounds"),
            visits: m.counter("planner.greedy.visits"),
        }
    })
}

/// The paper's randomized greedy: iteratively pack *rounds* of mutually
/// non-conflicting unit tasks (no shared sender or receiver host). Each
/// round is found by trying several random task orderings and keeping the
/// candidate set that involves the most devices. Because a resharding
/// task's unit tasks are mostly identical and uniformly spread over
/// devices, a few random permutations routinely find optimal rounds.
///
/// The planner runs several independent *restarts*, each with its own
/// seeded RNG stream, fanned out over the current rayon pool; the best
/// plan wins, ties broken by restart index, so the result is byte-identical
/// at every thread count. Restart 0 reuses `seed` directly, which makes a
/// single-restart planner behave exactly like the historical
/// single-stream one.
///
/// Deterministic for a fixed `seed`.
#[derive(Debug, Clone)]
pub struct RandomizedGreedyPlanner {
    config: PlannerConfig,
    permutations: usize,
    seed: u64,
    restarts: usize,
}

impl Default for RandomizedGreedyPlanner {
    fn default() -> Self {
        RandomizedGreedyPlanner {
            config: PlannerConfig::default(),
            permutations: 16,
            seed: 0x5eed,
            restarts: 4,
        }
    }
}

impl RandomizedGreedyPlanner {
    /// Creates the planner with 16 permutations per round and a fixed seed.
    pub fn new(config: PlannerConfig) -> Self {
        RandomizedGreedyPlanner {
            config,
            ..Default::default()
        }
    }

    /// Returns a copy with the number of random permutations per round
    /// replaced.
    ///
    /// # Panics
    ///
    /// Panics if `permutations` is zero.
    #[must_use]
    pub fn with_permutations(mut self, permutations: usize) -> Self {
        assert!(permutations > 0, "need at least one permutation per round");
        self.permutations = permutations;
        self
    }

    /// Returns a copy with the RNG seed replaced.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with the number of independent restarts replaced.
    /// Restarts are the planner's parallel grain: each runs the full
    /// round-packing loop with its own RNG stream.
    ///
    /// # Panics
    ///
    /// Panics if `restarts` is zero.
    #[must_use]
    pub fn with_restarts(mut self, restarts: usize) -> Self {
        assert!(restarts > 0, "need at least one restart");
        self.restarts = restarts;
        self
    }

    /// The seed of restart `r`: the configured seed verbatim for restart 0
    /// (preserving the historical stream), a golden-ratio-mixed variant for
    /// the rest (`SmallRng` splitmixes it further, decorrelating streams).
    fn restart_seed(&self, r: usize) -> u64 {
        self.seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(r as u64)
    }

    /// One full restart: the historical single-stream round-packing loop,
    /// over the shared table and with every buffer reused.
    fn run_restart(&self, table: &HostTable, seed: u64) -> Vec<Pick> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = table.rows.len();
        let mut remaining: Vec<usize> = (0..n).collect();
        let mut order: Vec<usize> = Vec::with_capacity(n);
        let mut selected = vec![false; n];
        let mut schedule: Vec<Pick> = Vec::with_capacity(n);
        let mut round = Round::new(table);
        let mut best: Vec<Pick> = Vec::new();
        let mut rounds = 0u64;
        while !remaining.is_empty() {
            rounds += 1;
            round.open(&remaining);
            let mut best_score = None;
            for p in 0..self.permutations {
                order.clear();
                order.extend_from_slice(&remaining);
                // First permutation is the deterministic index order; the
                // rest are random. Every shuffle runs even when the scan
                // below stops early: the RNG stream is part of the plan.
                if p > 0 {
                    order.shuffle(&mut rng);
                }
                let score = round.select(&order);
                if best_score.is_none_or(|s| score > s) {
                    best_score = Some(score);
                    std::mem::swap(&mut best, &mut round.picked);
                }
            }
            debug_assert!(!best.is_empty(), "a round always fits one task");
            // Deterministic intra-round order.
            best.sort_unstable_by_key(|&(u, _)| u);
            for &(u, _) in &best {
                selected[u] = true;
            }
            schedule.extend_from_slice(&best);
            remaining.retain(|&u| !selected[u]);
        }
        let metrics = greedy_metrics();
        metrics.restarts.inc();
        metrics.rounds.add(rounds);
        metrics.visits.add(round.visits);
        schedule
    }
}

/// Round selection state of one restart, indexed by the table's host
/// slots and reused across rounds and permutations.
struct Round<'a> {
    table: &'a HostTable,
    busy: Vec<bool>,
    /// Per slot: [`SENDS`] if a unit still to be scheduled can send from
    /// it, [`RECEIVES`] if one receives on it.
    open: Vec<u8>,
    open_senders: usize,
    open_receivers: usize,
    /// The last selection, in scan order.
    picked: Vec<Pick>,
    /// Units examined by [`select`](Round::select) so far.
    visits: u64,
}

const SENDS: u8 = 1;
const RECEIVES: u8 = 2;

impl<'a> Round<'a> {
    fn new(table: &'a HostTable) -> Self {
        Round {
            table,
            busy: vec![false; table.n_slots],
            open: vec![0; table.n_slots],
            open_senders: 0,
            open_receivers: 0,
            picked: Vec::new(),
            visits: 0,
        }
    }

    /// Starts a round over the units still to be scheduled: records which
    /// slots any of them can send from or receives on.
    fn open(&mut self, remaining: &[usize]) {
        self.open.fill(0);
        for &u in remaining {
            let row = &self.table.rows[u];
            for c in &row.cands {
                self.open[c.slot as usize] |= SENDS;
            }
            for &s in &row.receivers {
                self.open[s as usize] |= RECEIVES;
            }
        }
        let count = |flag: u8| self.open.iter().filter(|&&o| o & flag != 0).count();
        self.open_senders = count(SENDS);
        self.open_receivers = count(RECEIVES);
    }

    /// Greedily selects a conflict-free set following `order` into
    /// `picked`, preferring for each task a sender host that is still
    /// free, and returns its involved-device score.
    ///
    /// The scan stops once every slot a remaining unit could send from is
    /// busy, or every slot one receives on is: a unit is picked only with
    /// a free sender and all its receivers (every unit task has one) free,
    /// so no later unit of `order` can be, and the selection is what the
    /// full scan would return.
    fn select(&mut self, order: &[usize]) -> usize {
        let table = self.table;
        self.busy.fill(false);
        self.picked.clear();
        let (mut free_senders, mut free_receivers) = (self.open_senders, self.open_receivers);
        let mut score = 0usize;
        let mut visited = 0u64;
        for &u in order {
            visited += 1;
            let row = &table.rows[u];
            if row.receivers.iter().any(|&s| self.busy[s as usize]) {
                continue;
            }
            let Some(ci) = row.cands.iter().position(|c| !self.busy[c.slot as usize]) else {
                continue;
            };
            for &s in &row.cands[ci].involved {
                let s = s as usize;
                if !self.busy[s] {
                    self.busy[s] = true;
                    free_senders -= usize::from(self.open[s] & SENDS != 0);
                    free_receivers -= usize::from(self.open[s] & RECEIVES != 0);
                }
            }
            score += row.weight;
            self.picked.push((u, ci as u32));
            if free_senders == 0 || free_receivers == 0 {
                break;
            }
        }
        self.visits += visited;
        score
    }
}

impl Planner for RandomizedGreedyPlanner {
    fn plan<'t>(&self, task: &'t ReshardingTask) -> Plan<'t> {
        let _span = obs::Span::enter(
            obs::Level::Debug,
            "planner.greedy",
            "plan",
            &[
                obs::Field::u64("units", task.units().len() as u64),
                obs::Field::u64("restarts", self.restarts as u64),
            ],
        );
        greedy_metrics().plans.inc();
        let table = HostTable::build(task, &self.config);
        let seeds: Vec<u64> = (0..self.restarts).map(|r| self.restart_seed(r)).collect();
        let candidates: Vec<(f64, Vec<Pick>)> = seeds
            .par_iter()
            .map(|&seed| {
                let schedule = self.run_restart(&table, seed);
                (table.estimate(&schedule), schedule)
            })
            .collect();
        // Deterministic reduction: min (estimate, restart index), strict,
        // so the earliest restart wins ties at every thread count.
        let best = candidates
            .into_iter()
            .reduce(|best, next| if next.0 < best.0 { next } else { best })
            .expect("at least one restart ran");
        Plan::new(task, table.assignments(&best.1), self.config.params)
    }

    fn name(&self) -> &'static str {
        "randomized_greedy"
    }

    fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.name().hash(&mut h);
        super::hash_planner_config(&mut h, &self.config);
        (self.permutations, self.seed, self.restarts).hash(&mut h);
        h.finish()
    }
}

#[cfg(test)]
#[allow(clippy::single_range_in_vec_init)]
mod tests {
    use super::super::testutil::*;
    use super::super::{replica_on, LoadBalancePlanner, NaivePlanner};
    use super::*;
    use crate::exclusions::SenderExclusions;
    use crate::plan::Assignment;
    use crossmesh_mesh::{DeviceMesh, DimSharding, Receiver, ShardingSpec, Tile, UnitTask};
    use crossmesh_netsim::{ClusterSpec, HostId, LinkParams};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The loop this planner ran before it moved onto the shared table,
    /// verbatim (less its metric flushes): host sets rebuilt per visit, a
    /// `BTreeSet` of busy hosts, every remaining unit visited by every
    /// permutation. The oracle the table-driven loop must match exactly.
    impl RandomizedGreedyPlanner {
        fn oracle_run_restart(&self, task: &ReshardingTask, seed: u64) -> Vec<Assignment> {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut remaining: Vec<usize> = (0..task.units().len()).collect();
            let mut assignments = Vec::with_capacity(remaining.len());
            while !remaining.is_empty() {
                let mut best: Option<(Vec<(usize, HostId)>, usize)> = None;
                for p in 0..self.permutations {
                    let mut order = remaining.clone();
                    // First permutation is the deterministic index order; the
                    // rest are random.
                    if p > 0 {
                        order.shuffle(&mut rng);
                    }
                    let (picked, score) = self.oracle_select_round(task, &order);
                    if best.as_ref().is_none_or(|(_, s)| score > *s) {
                        best = Some((picked, score));
                    }
                }
                let (mut picked, _) = best.expect("at least one permutation ran");
                debug_assert!(!picked.is_empty(), "a round always fits one task");
                // Deterministic intra-round order.
                picked.sort_by_key(|&(u, _)| u);
                let selected: BTreeSet<usize> = picked.iter().map(|&(u, _)| u).collect();
                for (u, host) in picked {
                    let unit = &task.units()[u];
                    assignments.push(Assignment {
                        unit: u,
                        sender: replica_on(unit, host),
                        sender_host: host,
                        strategy: self.config.strategy.resolve(unit),
                    });
                }
                remaining.retain(|u| !selected.contains(u));
            }
            assignments
        }

        fn oracle_select_round(
            &self,
            task: &ReshardingTask,
            order: &[usize],
        ) -> (Vec<(usize, HostId)>, usize) {
            let mut busy: BTreeSet<HostId> = BTreeSet::new();
            let mut picked = Vec::new();
            let mut score = 0usize;
            'units: for &u in order {
                let unit = &task.units()[u];
                let recv_hosts = unit.receiver_hosts();
                if recv_hosts.iter().any(|h| busy.contains(h)) {
                    continue;
                }
                for h in unit.sender_hosts() {
                    if !busy.contains(&h) {
                        busy.insert(h);
                        busy.extend(recv_hosts.iter().copied());
                        score += 1 + unit.receivers.len();
                        picked.push((u, h));
                        continue 'units;
                    }
                }
            }
            (picked, score)
        }

        /// The old `plan()`: every restart's estimate through `Plan::new`.
        fn oracle_plan(&self, task: &ReshardingTask) -> Vec<Assignment> {
            (0..self.restarts)
                .map(|r| {
                    let assignments = self.oracle_run_restart(task, self.restart_seed(r));
                    let est = Plan::new(task, assignments.clone(), self.config.params).estimate();
                    (est, assignments)
                })
                .reduce(|best, next| if next.0 < best.0 { next } else { best })
                .expect("at least one restart ran")
                .1
        }
    }

    fn pool(threads: usize) -> rayon::ThreadPool {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
    }

    /// Every restart of `planner` schedules `task` exactly as the old
    /// loop, its table estimate is the plan's to the bit, and the plan it
    /// returns is the old plan at pool widths 1 and 4.
    fn assert_matches_old_loop(planner: &RandomizedGreedyPlanner, task: &ReshardingTask) {
        let table = HostTable::build(task, &planner.config);
        for r in 0..planner.restarts {
            let seed = planner.restart_seed(r);
            let schedule = planner.run_restart(&table, seed);
            let new = table.assignments(&schedule);
            assert_eq!(
                new,
                planner.oracle_run_restart(task, seed),
                "restart {r} of {planner:?} on {task}"
            );
            assert_eq!(
                table.estimate(&schedule).to_bits(),
                Plan::new(task, new, planner.config.params)
                    .estimate()
                    .to_bits(),
                "restart {r}: table estimate is not the plan estimate"
            );
        }
        let old = planner.oracle_plan(task);
        for threads in [1, 4] {
            let plan = pool(threads).install(|| planner.plan(task));
            assert_eq!(plan.assignments(), old, "{planner:?} at {threads} threads");
        }
    }

    /// `src_spec` on an `src`-shaped mesh to `dst_spec` on a `dst`-shaped
    /// one, the meshes on consecutive hosts of one cluster.
    fn task_on(
        src: (usize, usize),
        src_spec: ShardingSpec,
        dst: (usize, usize),
        dst_spec: ShardingSpec,
        shape: &[u64],
    ) -> ReshardingTask {
        let per_host = src.1.max(dst.1) as u32;
        let c = ClusterSpec::homogeneous(
            (src.0 + dst.0) as u32,
            per_host,
            LinkParams::new(100.0, 1.0),
        );
        let a = DeviceMesh::from_cluster(&c, 0, src, "A").unwrap();
        let b = DeviceMesh::from_cluster(&c, src.0, dst, "B").unwrap();
        ReshardingTask::new(a, src_spec, b, dst_spec, shape, 4).unwrap()
    }

    /// A random valid sharding spec of the given rank (each mesh axis
    /// shards at most one tensor dimension) — as `tests/planner_parallel.rs`.
    fn spec_strategy(rank: usize) -> impl Strategy<Value = ShardingSpec> {
        (
            prop::option::of(0..rank),
            prop::option::of(0..rank),
            any::<bool>(),
        )
            .prop_map(move |(a0, a1, swap)| {
                let mut dims = vec![DimSharding::Replicated; rank];
                match (a0, a1) {
                    (Some(d0), Some(d1)) if d0 == d1 => {
                        let axes = if swap { vec![0, 1] } else { vec![1, 0] };
                        dims[d0] = DimSharding::Sharded(axes);
                    }
                    (a0, a1) => {
                        if let Some(d) = a0 {
                            dims[d] = DimSharding::Sharded(vec![0]);
                        }
                        if let Some(d) = a1 {
                            dims[d] = DimSharding::Sharded(vec![1]);
                        }
                    }
                }
                ShardingSpec::new(dims).expect("construction is valid by design")
            })
    }

    fn problem_strategy() -> impl Strategy<Value = ReshardingTask> {
        (2usize..=3)
            .prop_flat_map(|rank| {
                (
                    (1usize..=2, 1usize..=4),
                    (1usize..=3, 1usize..=4),
                    spec_strategy(rank),
                    spec_strategy(rank),
                    prop::collection::vec(1u64..=12, rank),
                )
            })
            .prop_map(|(src, dst, src_spec, dst_spec, shape)| {
                task_on(src, src_spec, dst, dst_spec, &shape)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn matches_the_old_loop_on_random_problems(
            task in problem_strategy(),
            seed in any::<u64>(),
        ) {
            for permutations in [1, 16] {
                for restarts in [1, 4, 8] {
                    let planner = RandomizedGreedyPlanner::new(config())
                        .with_seed(seed)
                        .with_permutations(permutations)
                        .with_restarts(restarts);
                    assert_matches_old_loop(&planner, &task);
                }
            }
        }
    }

    /// The benchmark's `serve_miss` class (`DENSE_PAIRS` in
    /// `benchmark/src/gen.rs`): 128 unit tasks from a 2x4 to a 4x4 mesh.
    const DENSE_PAIRS: [(&str, &str); 15] = [
        ("RRS01", "S01RR"),
        ("S1S0R", "RRS01"),
        ("RRS01", "S1S0R"),
        ("RS01R", "S1RS0"),
        ("RS01R", "RRS01"),
        ("S0S1R", "RRS01"),
        ("RRS01", "RS01R"),
        ("RS01R", "S01RR"),
        ("S01RR", "RS0S1"),
        ("RS01R", "S0RS1"),
        ("S01RR", "RS1S0"),
        ("RRS01", "S0S1R"),
        ("S01RR", "RS01R"),
        ("RS1S0", "S01RR"),
        ("S01RR", "RRS01"),
    ];

    #[test]
    fn matches_the_old_loop_on_the_dense_128_unit_tasks() {
        for (i, (src, dst)) in DENSE_PAIRS.into_iter().enumerate() {
            let t = task_on(
                (2, 4),
                src.parse().unwrap(),
                (4, 4),
                dst.parse().unwrap(),
                &[16, 16, 64],
            );
            assert_eq!(t.units().len(), 128);
            let planner = RandomizedGreedyPlanner::default().with_seed(i as u64);
            assert_matches_old_loop(&planner, &t);
        }
    }

    #[test]
    fn matches_the_old_loop_on_the_256_unit_bench_case() {
        // `bench::planner::case(256)`.
        let t = task_on(
            (2, 16),
            "RRR".parse().unwrap(),
            (16, 16),
            "S01RR".parse().unwrap(),
            &[1024, 64, 64],
        );
        assert_eq!(t.units().len(), 256);
        assert_matches_old_loop(&RandomizedGreedyPlanner::default(), &t);
    }

    #[test]
    fn matches_the_old_loop_on_an_all_to_all() {
        // One unit per (source device, destination device) pair with
        // traffic: the shape `moe::A2aTask::dispatch` builds. Half the
        // pairs, irregularly, carry none, so the index-order scan packs
        // rounds a shuffled one beats and the RNG stream decides the plan.
        let c = ClusterSpec::homogeneous(8, 3, LinkParams::new(100.0, 1.0));
        let a = DeviceMesh::from_cluster(&c, 0, (4, 3), "A").unwrap();
        let b = DeviceMesh::from_cluster(&c, 4, (4, 3), "B").unwrap();
        let mut traffic = SmallRng::seed_from_u64(1);
        let mut units = Vec::new();
        for (j, &dst) in b.devices().iter().enumerate() {
            for (s, &src) in a.devices().iter().enumerate() {
                if rand::RngCore::next_u64(&mut traffic) >> 63 == 0 {
                    continue;
                }
                let at = units.len() as u64 * 64;
                // Uneven sizes, so restarts differ in estimate.
                let slice = Tile::new([at..at + 8 + ((s * 5 + j * 3) % 7) as u64]);
                units.push(UnitTask {
                    index: units.len(),
                    bytes: slice.volume(),
                    senders: vec![(src, a.host_of_device(src).unwrap())],
                    receivers: vec![Receiver {
                        device: dst,
                        host: b.host_of_device(dst).unwrap(),
                    }],
                    slice,
                });
            }
        }
        let total = units.len() as u64 * 64;
        let t = ReshardingTask::from_units(
            a,
            ShardingSpec::replicated(1),
            b,
            ShardingSpec::replicated(1),
            &[total],
            1,
            units,
        );
        // The first permutation is index order; a plan that differs from
        // the one-permutation plan was decided by a shuffle.
        let unshuffled = RandomizedGreedyPlanner::default().with_permutations(1);
        assert!(
            RandomizedGreedyPlanner::default().plan(&t).assignments()
                != unshuffled.plan(&t).assignments(),
            "no shuffled permutation ever won a round"
        );
        for seed in [0x5eed, 7] {
            assert_matches_old_loop(&RandomizedGreedyPlanner::default().with_seed(seed), &t);
        }
    }

    #[test]
    fn matches_the_old_loop_after_excluding_a_sender_host() {
        let full = task_on(
            (2, 4),
            "RS1R".parse().unwrap(),
            (3, 4),
            "S01RR".parse().unwrap(),
            &[24, 8, 8],
        );
        let t = full
            .excluding(&SenderExclusions::for_hosts([HostId(0)]))
            .unwrap();
        assert!(t.units().iter().all(|u| u.sender_hosts() == [HostId(1)]));
        assert_matches_old_loop(&RandomizedGreedyPlanner::default(), &t);
    }

    #[test]
    fn matches_the_old_loop_beyond_64_hosts() {
        // 66 hosts: busy flags cannot be one machine word.
        let t = task_on(
            (2, 2),
            "RS1".parse().unwrap(),
            (64, 2),
            "S0R".parse().unwrap(),
            &[128, 8],
        );
        let hosts: BTreeSet<HostId> = t
            .units()
            .iter()
            .flat_map(|u| [u.sender_hosts(), u.receiver_hosts()].concat())
            .collect();
        assert_eq!(hosts.len(), 66);
        assert_matches_old_loop(&RandomizedGreedyPlanner::default(), &t);
    }

    #[test]
    fn covers_all_units_once() {
        let t = task("S0RR", "S01RR", &[16, 8, 8]);
        let plan = RandomizedGreedyPlanner::new(config()).plan(&t);
        assert_eq!(plan.assignments().len(), t.units().len());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let t = task("RS0R", "S0RR", &[16, 8, 8]);
        let p = RandomizedGreedyPlanner::new(config()).with_seed(7);
        let a = p.plan(&t);
        let b = p.plan(&t);
        assert_eq!(a.assignments(), b.assignments());
    }

    #[test]
    fn rounds_are_conflict_free() {
        // Within the schedule, consecutive assignments picked in the same
        // round share no host; verify via estimate <= serial sum.
        let t = task("RS0R", "S0RR", &[16, 16, 8]);
        let plan = RandomizedGreedyPlanner::new(config()).plan(&t);
        let serial: f64 = plan
            .assignments()
            .iter()
            .map(|a| {
                crossmesh_collectives::estimate_unit_task(
                    &config().params,
                    &t.units()[a.unit],
                    a.sender_host,
                    a.strategy,
                )
            })
            .sum();
        assert!(plan.estimate() <= serial + 1e-9);
    }

    #[test]
    fn beats_or_matches_naive_and_lpt_on_case3_like_workloads() {
        // Case 3 of Table 2 (RS^0R -> S^0RR) is where the paper's ordering
        // wins: reordering lets both sender nodes transmit concurrently.
        let c = cluster();
        let t = task("RS0R", "S0RR", &[32, 32, 8]);
        let greedy = RandomizedGreedyPlanner::new(config())
            .plan(&t)
            .execute(&c)
            .unwrap()
            .simulated_seconds;
        let naive = NaivePlanner::new(config())
            .plan(&t)
            .execute(&c)
            .unwrap()
            .simulated_seconds;
        let lpt = LoadBalancePlanner::new(config())
            .plan(&t)
            .execute(&c)
            .unwrap()
            .simulated_seconds;
        assert!(greedy <= naive * 1.01, "greedy {greedy} vs naive {naive}");
        assert!(greedy <= lpt * 1.01, "greedy {greedy} vs lpt {lpt}");
    }

    #[test]
    #[should_panic(expected = "at least one permutation")]
    fn zero_permutations_panics() {
        let _ = RandomizedGreedyPlanner::new(config()).with_permutations(0);
    }

    #[test]
    #[should_panic(expected = "at least one restart")]
    fn zero_restarts_panics() {
        let _ = RandomizedGreedyPlanner::new(config()).with_restarts(0);
    }

    #[test]
    fn more_restarts_never_hurt() {
        let t = task("RS0R", "S01RR", &[16, 8, 8]);
        let one = RandomizedGreedyPlanner::new(config())
            .with_restarts(1)
            .plan(&t)
            .estimate();
        let eight = RandomizedGreedyPlanner::new(config())
            .with_restarts(8)
            .plan(&t)
            .estimate();
        assert!(eight <= one + 1e-9, "restarts made the plan worse");
    }

    #[test]
    fn identical_across_thread_counts() {
        let t = task("RS1R", "S01RR", &[16, 8, 8]);
        let planner = RandomizedGreedyPlanner::new(config()).with_restarts(8);
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
