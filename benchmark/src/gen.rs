//! Request lists and arrival schedules, generated from `--seed` here and
//! nowhere else: the program only ever sees the generated frames.
//!
//! Every workload draws from fixed template tables (spec pair + mesh
//! pair), so its ops stay in one size class whatever the seed; the seed
//! picks the order, the tenants, the arrival schedule and a small jitter
//! on the one unsharded-size knob (the last tensor dimension), which
//! changes the simulated transfer size by well under a thousandth and the
//! work the program does per op not at all.

use crate::rng::Rng;
use crossmesh::serve::proto::{self, Request, RequestBody, ReshardRequest};
use std::time::Duration;

/// The greedy planner's seed, fixed so a first-seen task costs the same
/// on every run.
pub const GREEDY_SEED: u64 = 7;

/// The last tensor dimension is `64 × blocks`; tensors are `16×16×(64·
/// blocks)` fp32, ≈ 1 GiB at the base — the paper's Figure 5 message size.
pub const BASE_BLOCKS: u64 = 16_384;

/// One reshard problem shape: spec pair and mesh pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Template {
    pub src_spec: &'static str,
    pub dst_spec: &'static str,
    pub src_mesh: &'static str,
    pub dst_mesh: &'static str,
}

const fn t(
    src_spec: &'static str,
    dst_spec: &'static str,
    src_mesh: &'static str,
    dst_mesh: &'static str,
) -> Template {
    Template {
        src_spec,
        dst_spec,
        src_mesh,
        dst_mesh,
    }
}

/// `serve_hit`'s 32 small problems: 8 of 8 unit tasks, 10 of 16, 10 of 32
/// and 4 of 64 (the unit test pins the counts), every one planned in well
/// under 5 ms so the warm-up stays short.
pub const HIT_TEMPLATES: [Template; 32] = [
    t("S0RS1", "RRS0", "2x4", "4x2"),
    t("RRS01", "RRS0", "2x4", "4x2"),
    t("S1S0R", "S1RR", "2x4", "2x4"),
    t("RRS01", "RRS1", "2x4", "2x4"),
    t("S01RR", "S1RR", "4x2", "2x4"),
    t("RS0R", "S1RR", "2x4", "2x4"),
    t("S0RS1", "RRS1", "2x4", "2x4"),
    t("S0RS1", "S1RR", "4x2", "2x4"),
    t("S0RR", "S0RS1", "4x2", "2x4"),
    t("RS0R", "RS0S1", "4x2", "2x4"),
    t("RS0R", "RRS01", "2x4", "2x4"),
    t("RS1S0", "RS1S0", "4x2", "2x4"),
    t("RRS0", "S01RR", "2x4", "2x4"),
    t("S1S0R", "S1RS0", "2x4", "2x4"),
    t("RS0R", "S01RR", "2x4", "2x4"),
    t("RS0R", "S01RR", "2x4", "4x2"),
    t("RS0R", "S1RS0", "2x4", "2x4"),
    t("S0RR", "RS1S0", "2x4", "4x2"),
    t("RRS1", "RS01R", "2x4", "2x4"),
    t("RS0R", "S0RS1", "4x2", "2x4"),
    t("S0RR", "RS0S1", "4x2", "2x4"),
    t("S1RS0", "S0S1R", "2x4", "2x4"),
    t("RRS0", "S1S0R", "4x2", "2x4"),
    t("S1RR", "RS01R", "2x4", "2x4"),
    t("S1RS0", "RS1S0", "4x2", "2x4"),
    t("S1S0R", "RS01R", "2x4", "2x4"),
    t("RS1S0", "S1S0R", "4x2", "2x4"),
    t("S1S0R", "RS1S0", "2x4", "4x2"),
    t("S1RS0", "RS01R", "2x4", "2x4"),
    t("S01RR", "RS1S0", "2x4", "2x4"),
    t("S1S0R", "RRS01", "2x4", "2x4"),
    t("RRS01", "S01RR", "2x4", "2x4"),
];

/// `serve_miss`'s class: spec pairs where both sides shard over all their
/// devices along different axes, 128 unit tasks from a 2x4 to a 4x4 mesh,
/// each planned by the ensemble in ≈ 20 ms (the three such pairs that take
/// a fifth longer are left out, to keep the class narrow).
pub const DENSE_PAIRS: [(&str, &str); 15] = [
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

/// `serve_open`'s medium class: 32 unit tasks between two 2x4 meshes,
/// planned in ≈ 1 ms and executed in 2–3 ms, so that at 100 req/s the
/// daemon's two workers are busy about a tenth of the time.
pub const MEDIUM_PAIRS: [(&str, &str); 16] = [
    ("S1RR", "RS0S1"),
    ("RS1R", "RRS01"),
    ("S0RS1", "S0S1R"),
    ("RS01R", "S1S0R"),
    ("RS1R", "S01RR"),
    ("S0S1R", "S1RS0"),
    ("RS1S0", "S1S0R"),
    ("RS1S0", "RRS01"),
    ("S1RS0", "S0S1R"),
    ("RRS1", "S01RR"),
    ("S01RR", "S0RS1"),
    ("S0S1R", "RS0S1"),
    ("S1RR", "RRS01"),
    ("S0RS1", "RS1S0"),
    ("S01RR", "S0S1R"),
    ("S1RS0", "RRS01"),
];

fn dense(i: usize) -> Template {
    let (src_spec, dst_spec) = DENSE_PAIRS[i % DENSE_PAIRS.len()];
    t(src_spec, dst_spec, "2x4", "4x4")
}

fn medium(i: usize) -> Template {
    let (src_spec, dst_spec) = MEDIUM_PAIRS[i % MEDIUM_PAIRS.len()];
    t(src_spec, dst_spec, "2x4", "2x4")
}

pub fn reshard(t: &Template, blocks: u64) -> ReshardRequest {
    ReshardRequest {
        src_spec: t.src_spec.into(),
        dst_spec: t.dst_spec.into(),
        src_mesh: t.src_mesh.into(),
        dst_mesh: t.dst_mesh.into(),
        shape: format!("16x16x{}", 64 * blocks),
        elem_bytes: 4,
        planner: "ours".into(),
        seed: Some(GREEDY_SEED),
        faults: None,
    }
}

/// One request of a list: what is asked, by whom, and the exact bytes
/// that go on the wire (encoded once, here, with the program's own
/// `proto::write_frame`, so the timed loop sends it with a single write).
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    pub id: u64,
    pub tenant: &'static str,
    pub req: ReshardRequest,
    pub frame: Vec<u8>,
}

fn planned(id: u64, tenant: &'static str, req: ReshardRequest) -> Planned {
    let mut frame = Vec::with_capacity(384);
    let request = Request {
        id,
        tenant: tenant.into(),
        body: RequestBody::Reshard(req),
    };
    proto::write_frame(&mut frame, &request).expect("encoding into a Vec cannot fail");
    let RequestBody::Reshard(req) = request.body else {
        unreachable!()
    };
    Planned {
        id,
        tenant,
        req,
        frame,
    }
}

/// A workload's inputs: the warm-up (a fixed op count, sent before the
/// clock starts) and the timed list. Ids are list positions.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestList {
    pub warmup: Vec<Planned>,
    pub timed: Vec<Planned>,
    /// Closed loops wrap around a cyclic list; the others stop at its end.
    pub cyclic: bool,
    /// Open loop only: when each timed request is due, per connection, as
    /// `(offset from the start of the timed phase, index into timed)`.
    pub schedule: Vec<Vec<(Duration, usize)>>,
}

const JOBS: [&str; 2] = ["job-0", "job-1"];
/// Warm-up traffic has its own tenants (one per connection) so that the
/// timed tenants start with full token buckets.
const WARMUP_TENANTS: [&str; 2] = ["warmup-0", "warmup-1"];

/// `serve_hit`: the 32 small problems in seeded order, each with a seeded
/// size jitter of under a thousandth; the warm-up plans every one, so the
/// timed phase is all plan-cache hits.
pub fn serve_hit(seed: u64) -> RequestList {
    let mut rng = Rng::new(seed, 1);
    let mut templates = HIT_TEMPLATES.to_vec();
    rng.shuffle(&mut templates);
    let reqs: Vec<ReshardRequest> = templates
        .iter()
        .map(|t| reshard(t, BASE_BLOCKS + rng.below(16)))
        .collect();
    let list = |tenants: [&'static str; 2]| {
        reqs.iter()
            .enumerate()
            .map(|(i, r)| planned(i as u64, tenants[i % 2], r.clone()))
            .collect()
    };
    RequestList {
        warmup: list(WARMUP_TENANTS),
        timed: list(JOBS),
        cyclic: true,
        schedule: Vec::new(),
    }
}

/// Warm-up ops of `serve_miss` (a fixed count, all first-seen).
pub const MISS_WARMUP: usize = 16;

/// `serve_miss`: `n` problems of the 128-unit class, no two alike: request
/// `i` has its own tensor size, a seeded window of never-repeated sizes
/// starting at the base. Each block of 15 holds every spec pair once, in
/// seeded order, so any prefix has the same mix.
pub fn serve_miss(seed: u64, n: usize) -> RequestList {
    let mut rng = Rng::new(seed, 2);
    let offset = rng.below(8);
    let mut order: Vec<usize> = (0..DENSE_PAIRS.len()).collect();
    let mut timed = Vec::with_capacity(n);
    for i in 0..n {
        let slot = i % order.len();
        if slot == 0 {
            rng.shuffle(&mut order);
        }
        let blocks = BASE_BLOCKS + offset + i as u64;
        timed.push(planned(
            i as u64,
            JOBS[i % 2],
            reshard(&dense(order[slot]), blocks),
        ));
    }
    let warmup = (0..MISS_WARMUP)
        .map(|i| {
            let blocks = BASE_BLOCKS - 1 - i as u64;
            planned(i as u64, WARMUP_TENANTS[i % 2], reshard(&dense(i), blocks))
        })
        .collect();
    RequestList {
        warmup,
        timed,
        cyclic: false,
        schedule: Vec::new(),
    }
}

/// `serve_open`'s tenants: two inside the admission rate, one at twice it.
pub const STEADY: [&str; 2] = ["steady-a", "steady-b"];
pub const BURSTY: &str = "bursty";
/// Arrivals per second over both connections.
pub const OPEN_RATE: f64 = 100.0;
/// Connections (and load threads) of every daemon workload.
pub const CONNS: usize = 2;

/// `serve_open`: `n` arrivals split over two connections, each a seeded
/// Poisson-like stream at 50 req/s. The gaps are the `n/2` mid-quantiles
/// of the exponential distribution in seeded order, so every seed has the
/// same gap distribution and the same duration, and only the order
/// differs. Per connection, every tenth arrival is a first-seen task sent
/// by a steady tenant (never shed, so the set of served tasks is fixed);
/// the rest hit the pool the warm-up planned. Over the whole schedule each
/// steady tenant sends a fifth of the arrivals and the bursty one three
/// fifths.
pub fn serve_open(seed: u64, n: usize) -> RequestList {
    let mut rng = Rng::new(seed, 3);
    let offset = rng.below(8);
    let pool: Vec<ReshardRequest> = (0..MEDIUM_PAIRS.len())
        .map(|i| reshard(&medium(i), BASE_BLOCKS + rng.below(32)))
        .collect();
    // Twice through the pool: once to plan it, once more so the warm-up
    // is long enough to time.
    let warmup = pool
        .iter()
        .chain(&pool)
        .enumerate()
        .map(|(i, r)| planned(i as u64, WARMUP_TENANTS[i % 2], r.clone()))
        .collect();

    let per_conn = n / CONNS;
    let fresh_total = per_conn / 10 * CONNS;
    // Tenants of the pool hits: exact shares over the whole schedule
    // (steady 20 % each counting their first-seen tasks, bursty the
    // rest), in seeded order.
    let hits = per_conn * CONNS - fresh_total;
    let steady_hits = (per_conn * CONNS / 5).saturating_sub(fresh_total / 2);
    let mut tenants: Vec<&'static str> = (0..hits)
        .map(|i| match i / steady_hits.max(1) {
            0 => STEADY[0],
            1 => STEADY[1],
            _ => BURSTY,
        })
        .collect();
    rng.shuffle(&mut tenants);
    let mut tenants = tenants.into_iter();

    let mut timed = Vec::with_capacity(per_conn * CONNS);
    let mut schedule = Vec::with_capacity(CONNS);
    let mut first_seen = 0u64;
    for _conn in 0..CONNS {
        let mean_gap = CONNS as f64 / OPEN_RATE;
        let mut gaps: Vec<f64> = (0..per_conn)
            .map(|k| -(1.0 - (k as f64 + 0.5) / per_conn as f64).ln() * mean_gap)
            .collect();
        rng.shuffle(&mut gaps);

        let mut due = 0.0;
        let mut arrivals = Vec::with_capacity(per_conn);
        for (k, gap) in gaps.into_iter().enumerate() {
            due += gap;
            let id = timed.len();
            let (tenant, req) = if k % 10 == 5 && k / 10 < per_conn / 10 {
                first_seen += 1;
                let blocks = BASE_BLOCKS + 32 + offset + first_seen;
                (
                    STEADY[first_seen as usize % 2],
                    reshard(&medium(first_seen as usize), blocks),
                )
            } else {
                let tenant = tenants.next().unwrap_or(BURSTY);
                (tenant, pool[rng.below(pool.len() as u64) as usize].clone())
            };
            timed.push(planned(id as u64, tenant, req));
            arrivals.push((Duration::from_secs_f64(due), id));
        }
        schedule.push(arrivals);
    }
    RequestList {
        warmup,
        timed,
        cyclic: false,
        schedule,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers;

    fn bytes(list: &RequestList) -> Vec<u8> {
        list.warmup
            .iter()
            .chain(&list.timed)
            .flat_map(|p| p.frame.clone())
            .collect()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let gens: [fn(u64) -> RequestList; 3] =
            [serve_hit, |s| serve_miss(s, 200), |s| serve_open(s, 400)];
        for gen in gens {
            let (a, b, c) = (gen(11), gen(11), gen(12));
            assert_eq!(bytes(&a), bytes(&b));
            assert_eq!(a.schedule, b.schedule);
            assert_ne!(bytes(&a), bytes(&c));
        }
        assert_ne!(serve_open(11, 400).schedule, serve_open(12, 400).schedule);
    }

    #[test]
    fn templates_are_in_their_size_classes() {
        let units = |t: &Template| {
            layers::build_task(&reshard(t, BASE_BLOCKS))
                .expect("template builds")
                .task
                .units()
                .len()
        };
        let mut counts = std::collections::BTreeMap::new();
        for t in &HIT_TEMPLATES {
            *counts.entry(units(t)).or_insert(0) += 1;
        }
        assert_eq!(
            counts.into_iter().collect::<Vec<_>>(),
            vec![(8, 8), (16, 10), (32, 10), (64, 4)]
        );
        for i in 0..DENSE_PAIRS.len().max(MEDIUM_PAIRS.len()) {
            assert_eq!(units(&dense(i)), 128);
            assert_eq!(units(&medium(i)), 32);
        }
    }

    #[test]
    fn miss_list_never_repeats_a_task() {
        let list = serve_miss(3, 500);
        let mut keys: Vec<String> = list
            .warmup
            .iter()
            .chain(&list.timed)
            .map(|p| layers::key(&p.req))
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 500 + MISS_WARMUP);
    }

    #[test]
    fn open_schedule_has_exact_shares_and_fixed_length() {
        let n = 1000;
        let (a, b) = (serve_open(1, n), serve_open(2, n));
        for list in [&a, &b] {
            assert_eq!(list.timed.len(), n);
            let count = |t: &str| list.timed.iter().filter(|p| p.tenant == t).count();
            assert_eq!(count(STEADY[0]), n / 5);
            assert_eq!(count(STEADY[1]), n / 5);
            assert_eq!(count(BURSTY), n * 3 / 5);
            // First-seen tasks: a tenth, all from steady tenants.
            let pool: Vec<String> = list.warmup.iter().map(|p| layers::key(&p.req)).collect();
            let fresh: Vec<&Planned> = list
                .timed
                .iter()
                .filter(|p| !pool.contains(&layers::key(&p.req)))
                .collect();
            assert_eq!(fresh.len(), n / 10);
            assert!(fresh.iter().all(|p| p.tenant != BURSTY));
            for conn in &list.schedule {
                assert!(conn.windows(2).all(|w| w[0].0 <= w[1].0));
            }
        }
        // Same gap multiset, so the same duration to the microsecond.
        let end = |l: &RequestList| l.schedule[0].last().unwrap().0.as_micros();
        assert!(end(&a).abs_diff(end(&b)) <= 1);
    }
}
