//! Incremental max–min fair-share rate solver.
//!
//! The engine's flows form a bipartite graph with the resources they
//! occupy (device send/recv, host NICs, fabric slots). Max–min fair rates
//! decompose over the *connected components* of that graph: progressive
//! filling inside one component never reads or writes another. This
//! solver exploits that: it keeps per-resource flow counts and a
//! resource→flows index, and on any change (flow added, flow removed,
//! capacity rescaled by a fault) re-solves only the components reachable
//! from the changed resources. Flows in untouched components keep their
//! cached rates bit-for-bit.
//!
//! One [`resolve`](FairShare::resolve) solves each affected component
//! **once**, however many of its resources are dirty: a new inter-host
//! flow dirties four (device send/recv, NIC send/recv) of one component,
//! and since a component's rates are a pure function of its flows and
//! capacities, solving it again would change nothing. The visited marks
//! therefore persist across all dirty seeds of a resolve and are cleared
//! once at its end. The per-slot resource and position lists are cleared
//! rather than freed on removal, so a recycled slot reuses them: once the
//! slot table and the per-resource lists have grown to the run's peak, a
//! flow costs no allocation.
//!
//! Inside a component the solve is the classic water-filling loop: all
//! unfrozen flows fill uniformly; when a resource saturates (headroom ≤
//! `REL_EPS` relative), the flows touching it freeze at the current fill
//! level and release their claim on further filling. The arithmetic per
//! component is identical to the pre-refactor global loop restricted to
//! that component, so results are a pure function of (component flows,
//! capacities) — the incremental solution always equals the from-scratch
//! one exactly, and matches the old *global* loop to ~1 ulp (the old loop
//! coupled independent components through the summation order of its
//! global fill level).
//!
//! A flow with an **empty resource list** (nothing constrains it — e.g. a
//! hypothetical fabric that routes some pair over no slots) is assigned
//! `f64::INFINITY` up front and never enters a component. The old loop
//! would never freeze such a flow: `delta` went infinite, tripping a
//! `debug_assert` in debug builds and spinning forever in release.

/// Relative headroom below which a resource counts as saturated, and the
/// engine treats event times as simultaneous.
pub(crate) const REL_EPS: f64 = 1e-9;

/// Counters the solver accumulates for [`SimStats`](crate::SimStats).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SolverStats {
    /// Component re-solves performed.
    pub recomputes: u64,
    /// Total flows whose rate was recomputed across all re-solves.
    pub flows_resolved: u64,
    /// Largest saturation frontier (bottleneck resources of one re-solve).
    pub frontier_peak: usize,
}

/// The incremental fair-share solver. Flows are identified by the
/// engine's slot indices; the solver keeps arrays parallel to the
/// engine's slot table.
#[derive(Debug)]
pub(crate) struct FairShare {
    /// Capacity of each resource (mutable under NIC-scale faults).
    caps: Vec<f64>,
    /// Active flows crossing each resource.
    count: Vec<u32>,
    /// Slot lists per resource (alive flows only, eagerly maintained).
    res_flows: Vec<Vec<u32>>,
    /// Per slot: the resources the flow occupies (empty when slot free).
    /// Cleared, not freed, on removal, so a recycled slot reuses it.
    flow_res: Vec<Vec<usize>>,
    /// Per slot: this flow's position inside `res_flows[r]` for each of
    /// its resources (kept in sync so removal is O(degree)); reused like
    /// `flow_res`.
    flow_pos: Vec<Vec<u32>>,
    /// Per slot: the solved rate. `NAN` for freshly added slots so the
    /// first solve always reports them as changed.
    rates: Vec<f64>,
    /// Seed resources whose component must be re-solved.
    dirty_res: Vec<usize>,
    dirty_mark: Vec<bool>,
    /// Slots assigned `INFINITY` at add time (unconstrained flows),
    /// reported as changed on the next resolve.
    pending_unconstrained: Vec<u32>,

    // Scratch reused across resolves (cleared via the touched lists).
    visited_res: Vec<bool>,
    visited_flow: Vec<bool>,
    comp_res: Vec<usize>,
    comp_flows: Vec<u32>,
    comp_frozen: Vec<bool>,
    used: Vec<f64>,
    live: Vec<u32>,

    pub stats: SolverStats,
}

impl FairShare {
    pub fn new(caps: Vec<f64>) -> Self {
        let r = caps.len();
        FairShare {
            caps,
            count: vec![0; r],
            res_flows: vec![Vec::new(); r],
            flow_res: Vec::new(),
            flow_pos: Vec::new(),
            rates: Vec::new(),
            dirty_res: Vec::new(),
            dirty_mark: vec![false; r],
            pending_unconstrained: Vec::new(),
            visited_res: vec![false; r],
            visited_flow: Vec::new(),
            comp_res: Vec::new(),
            comp_flows: Vec::new(),
            comp_frozen: Vec::new(),
            used: vec![0.0; r],
            live: vec![0; r],
            stats: SolverStats::default(),
        }
    }

    /// The current solved rate of `slot`.
    pub fn rate(&self, slot: u32) -> f64 {
        self.rates[slot as usize]
    }

    fn mark_res_dirty(&mut self, r: usize) {
        if !self.dirty_mark[r] {
            self.dirty_mark[r] = true;
            self.dirty_res.push(r);
        }
    }

    /// Rescales resource `r`'s capacity; its component re-solves on the
    /// next [`resolve`](Self::resolve).
    pub fn set_capacity(&mut self, r: usize, cap: f64) {
        if self.caps[r] != cap {
            self.caps[r] = cap;
            self.mark_res_dirty(r);
        }
    }

    fn ensure_slot(&mut self, slot: u32) {
        let need = slot as usize + 1;
        if self.flow_res.len() < need {
            self.flow_res.resize_with(need, Vec::new);
            self.flow_pos.resize_with(need, Vec::new);
            self.rates.resize(need, f64::NAN);
            self.visited_flow.resize(need, false);
        }
    }

    /// Registers a new flow occupying `resources`. An empty list means the
    /// flow is unconstrained: it gets `f64::INFINITY` immediately (the fix
    /// for the old engine's infinite-loop hazard) and is still reported
    /// through `changed` on the next resolve.
    pub fn add_flow(&mut self, slot: u32, resources: &[usize]) {
        self.ensure_slot(slot);
        let s = slot as usize;
        debug_assert!(self.flow_res[s].is_empty(), "slot already occupied");
        if resources.is_empty() {
            self.rates[s] = f64::INFINITY;
            self.pending_unconstrained.push(slot);
            return;
        }
        for &r in resources {
            self.flow_pos[s].push(self.res_flows[r].len() as u32);
            self.res_flows[r].push(slot);
            self.count[r] += 1;
            self.mark_res_dirty(r);
        }
        self.flow_res[s].extend_from_slice(resources);
        self.rates[s] = f64::NAN;
    }

    /// Unregisters `slot`; the components it touched re-solve on the next
    /// [`resolve`](Self::resolve).
    pub fn remove_flow(&mut self, slot: u32) {
        let s = slot as usize;
        for i in 0..self.flow_res[s].len() {
            let (r, p) = (self.flow_res[s][i], self.flow_pos[s][i] as usize);
            self.res_flows[r].swap_remove(p);
            if let Some(&moved) = self.res_flows[r].get(p) {
                // Fix the moved flow's recorded position for resource r.
                let m = moved as usize;
                let k = self.flow_res[m]
                    .iter()
                    .position(|&mr| mr == r)
                    .expect("moved flow lists r");
                self.flow_pos[m][k] = p as u32;
            }
            self.count[r] -= 1;
            self.mark_res_dirty(r);
        }
        self.flow_res[s].clear();
        self.flow_pos[s].clear();
        self.rates[s] = f64::NAN;
    }

    /// Re-solves every component reachable from a dirty resource and
    /// appends to `changed` the slots whose rate differs from the cached
    /// value. Touching nothing is free: with no dirty state this is a
    /// no-op.
    pub fn resolve(&mut self, changed: &mut Vec<u32>) {
        changed.append(&mut self.pending_unconstrained);
        if self.dirty_res.is_empty() {
            return;
        }
        // Components are laid out back to back in `comp_res`/`comp_flows`;
        // their visited marks stay set until every seed is handled, so a
        // seed inside an already solved component is skipped.
        self.comp_res.clear();
        self.comp_flows.clear();
        for seed_i in 0..self.dirty_res.len() {
            let seed = self.dirty_res[seed_i];
            if self.visited_res[seed] {
                continue;
            }
            // BFS the component containing `seed` over the flow↔resource
            // bipartite graph. Resources with no flows are still marked
            // visited so repeated seeds stay cheap.
            let (res_start, flow_start) = (self.comp_res.len(), self.comp_flows.len());
            self.visited_res[seed] = true;
            self.comp_res.push(seed);
            let mut head = res_start;
            while head < self.comp_res.len() {
                let r = self.comp_res[head];
                head += 1;
                for fi in 0..self.res_flows[r].len() {
                    let slot = self.res_flows[r][fi];
                    let s = slot as usize;
                    if self.visited_flow[s] {
                        continue;
                    }
                    self.visited_flow[s] = true;
                    self.comp_flows.push(slot);
                    for ri in 0..self.flow_res[s].len() {
                        let r2 = self.flow_res[s][ri];
                        if !self.visited_res[r2] {
                            self.visited_res[r2] = true;
                            self.comp_res.push(r2);
                        }
                    }
                }
            }
            if self.comp_flows.len() > flow_start {
                self.solve_component(res_start, flow_start, changed);
            }
        }
        for i in 0..self.comp_res.len() {
            self.visited_res[self.comp_res[i]] = false;
        }
        for i in 0..self.comp_flows.len() {
            self.visited_flow[self.comp_flows[i] as usize] = false;
        }
        for i in 0..self.dirty_res.len() {
            self.dirty_mark[self.dirty_res[i]] = false;
        }
        self.dirty_res.clear();
    }

    /// Progressive filling over the component at the tail of
    /// `comp_res`/`comp_flows` (from `res_start`/`flow_start` on). The
    /// loop body mirrors the reference engine's `recompute_rates`
    /// restricted to one component, so the arithmetic (and therefore the
    /// solved rates) is order-independent and reproducible.
    fn solve_component(&mut self, res_start: usize, flow_start: usize, changed: &mut Vec<u32>) {
        let n = self.comp_flows.len() - flow_start;
        self.stats.recomputes += 1;
        self.stats.flows_resolved += n as u64;
        for &r in &self.comp_res[res_start..] {
            self.used[r] = 0.0;
            self.live[r] = self.count[r];
        }
        self.comp_frozen.clear();
        self.comp_frozen.resize(n, false);
        let mut remaining = n;
        let mut fill = 0.0f64;
        while remaining > 0 {
            let mut delta = f64::INFINITY;
            for &r in &self.comp_res[res_start..] {
                let c = self.live[r];
                if c > 0 {
                    let head = (self.caps[r] - self.used[r]) / f64::from(c);
                    if head < delta {
                        delta = head;
                    }
                }
            }
            if !delta.is_finite() {
                // Every remaining flow sees only infinite-capacity
                // resources: they are effectively unconstrained.
                for i in 0..n {
                    if !self.comp_frozen[i] {
                        self.set_rate(self.comp_flows[flow_start + i], f64::INFINITY, changed);
                    }
                }
                break;
            }
            fill += delta;
            for &r in &self.comp_res[res_start..] {
                let c = self.live[r];
                if c > 0 {
                    self.used[r] += delta * f64::from(c);
                }
            }
            let mut froze_any = false;
            for i in 0..n {
                if self.comp_frozen[i] {
                    continue;
                }
                let slot = self.comp_flows[flow_start + i];
                let s = slot as usize;
                let saturated = self.flow_res[s]
                    .iter()
                    .any(|&r| self.caps[r] - self.used[r] <= REL_EPS * self.caps[r]);
                if saturated {
                    self.comp_frozen[i] = true;
                    remaining -= 1;
                    froze_any = true;
                    for ri in 0..self.flow_res[s].len() {
                        let r = self.flow_res[s][ri];
                        self.live[r] -= 1;
                    }
                    self.set_rate(slot, fill, changed);
                }
            }
            if !froze_any {
                // Defensive: floating-point kept the argmin resource a hair
                // above the saturation threshold. Force-freeze its flows so
                // the loop always terminates (the old engine would spin).
                debug_assert!(false, "progressive filling failed to converge");
                let mut argmin = usize::MAX;
                let mut best = f64::INFINITY;
                for &r in &self.comp_res[res_start..] {
                    if self.live[r] > 0 {
                        let head = (self.caps[r] - self.used[r]) / f64::from(self.live[r]);
                        if head < best {
                            best = head;
                            argmin = r;
                        }
                    }
                }
                for fi in 0..self.res_flows[argmin].len() {
                    let slot = self.res_flows[argmin][fi];
                    let i = self.comp_flows[flow_start..]
                        .iter()
                        .position(|&f| f == slot)
                        .expect("flow on component resource is in component");
                    if !self.comp_frozen[i] {
                        self.comp_frozen[i] = true;
                        remaining -= 1;
                        for ri in 0..self.flow_res[slot as usize].len() {
                            let r = self.flow_res[slot as usize][ri];
                            self.live[r] -= 1;
                        }
                        self.set_rate(slot, fill, changed);
                    }
                }
            }
        }
        // The saturation frontier: bottleneck resources of this component.
        let frontier = self.comp_res[res_start..]
            .iter()
            .filter(|&&r| {
                self.count[r] > 0 && self.caps[r] - self.used[r] <= REL_EPS * self.caps[r]
            })
            .count();
        if frontier > self.stats.frontier_peak {
            self.stats.frontier_peak = frontier;
        }
    }

    fn set_rate(&mut self, slot: u32, rate: f64, changed: &mut Vec<u32>) {
        let s = slot as usize;
        // NaN (fresh slot) compares unequal to everything, so new flows are
        // always reported.
        if self.rates[s] != rate {
            self.rates[s] = rate;
            changed.push(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rates_of(fs: &FairShare, n: u32) -> Vec<f64> {
        (0..n).map(|s| fs.rate(s)).collect()
    }

    #[test]
    fn two_flows_share_one_resource() {
        let mut fs = FairShare::new(vec![1.0]);
        let mut ch = Vec::new();
        fs.add_flow(0, &[0]);
        fs.add_flow(1, &[0]);
        fs.resolve(&mut ch);
        assert_eq!(rates_of(&fs, 2), vec![0.5, 0.5]);
        assert_eq!(ch.len(), 2);
    }

    #[test]
    fn removal_restores_full_rate() {
        let mut fs = FairShare::new(vec![1.0]);
        let mut ch = Vec::new();
        fs.add_flow(0, &[0]);
        fs.add_flow(1, &[0]);
        fs.resolve(&mut ch);
        ch.clear();
        fs.remove_flow(0);
        fs.resolve(&mut ch);
        assert_eq!(ch, vec![1]);
        assert_eq!(fs.rate(1), 1.0);
    }

    #[test]
    fn untouched_component_keeps_cached_rate_bit_for_bit() {
        // Resources 0 and 1 host disjoint components; churning component 1
        // must not touch component 0's solved rate (or report it changed).
        let mut fs = FairShare::new(vec![3.0, 1.0]);
        let mut ch = Vec::new();
        fs.add_flow(0, &[0]);
        fs.add_flow(1, &[0]);
        fs.add_flow(2, &[1]);
        fs.resolve(&mut ch);
        let cached = fs.rate(0);
        ch.clear();
        fs.remove_flow(2);
        fs.add_flow(3, &[1]);
        fs.add_flow(4, &[1]);
        fs.resolve(&mut ch);
        assert!(!ch.contains(&0) && !ch.contains(&1), "{ch:?}");
        assert_eq!(fs.rate(0).to_bits(), cached.to_bits());
        assert_eq!(fs.rate(3), 0.5);
    }

    #[test]
    fn incremental_matches_from_scratch_exactly() {
        // Build a coupled component incrementally and compare against a
        // fresh solver given the same final flow set: the per-component
        // canonical solve must make them bit-identical.
        let caps = vec![1.0, 2.0, 0.5, 4.0];
        let flows: Vec<Vec<usize>> = vec![
            vec![0, 1],
            vec![1, 2],
            vec![2, 3],
            vec![0, 3],
            vec![1],
            vec![3],
        ];
        let mut inc = FairShare::new(caps.clone());
        let mut ch = Vec::new();
        for (s, r) in flows.iter().enumerate() {
            inc.add_flow(s as u32, r);
            inc.resolve(&mut ch); // resolve after every single change
        }
        // Churn: remove and re-add flow 2.
        inc.remove_flow(2);
        inc.resolve(&mut ch);
        inc.add_flow(2, &flows[2]);
        inc.resolve(&mut ch);

        let mut scratch = FairShare::new(caps);
        for (s, r) in flows.iter().enumerate() {
            scratch.add_flow(s as u32, r);
        }
        scratch.resolve(&mut ch);
        for s in 0..flows.len() as u32 {
            assert_eq!(
                inc.rate(s).to_bits(),
                scratch.rate(s).to_bits(),
                "flow {s}: {} vs {}",
                inc.rate(s),
                scratch.rate(s)
            );
        }
    }

    #[test]
    fn empty_resources_flow_gets_infinite_rate_immediately() {
        // Regression for the pre-refactor hazard: an unconstrained flow
        // made the global loop's delta go infinite (debug assert death in
        // debug builds, infinite loop in release). It now solves instantly.
        let mut fs = FairShare::new(vec![1.0]);
        let mut ch = Vec::new();
        fs.add_flow(0, &[]);
        fs.add_flow(1, &[0]);
        fs.resolve(&mut ch);
        assert_eq!(fs.rate(0), f64::INFINITY);
        assert_eq!(fs.rate(1), 1.0);
        assert!(ch.contains(&0) && ch.contains(&1));
        // Removal is a no-op structurally but must not panic.
        fs.remove_flow(0);
        ch.clear();
        fs.resolve(&mut ch);
        assert_eq!(ch, Vec::<u32>::new());
    }

    #[test]
    fn capacity_change_rescales_component() {
        let mut fs = FairShare::new(vec![2.0]);
        let mut ch = Vec::new();
        fs.add_flow(0, &[0]);
        fs.add_flow(1, &[0]);
        fs.resolve(&mut ch);
        assert_eq!(fs.rate(0), 1.0);
        ch.clear();
        fs.set_capacity(0, 0.5);
        fs.resolve(&mut ch);
        assert_eq!(fs.rate(0), 0.25);
        assert_eq!(fs.rate(1), 0.25);
        assert_eq!(ch.len(), 2);
    }

    #[test]
    fn max_min_redistributes_released_bandwidth() {
        // Flows: a on {0}, b on {0,1}, c on {1}. cap0 = 1, cap1 = 10.
        // b freezes at 0.5 with a; c then fills to 9.5.
        let mut fs = FairShare::new(vec![1.0, 10.0]);
        let mut ch = Vec::new();
        fs.add_flow(0, &[0]);
        fs.add_flow(1, &[0, 1]);
        fs.add_flow(2, &[1]);
        fs.resolve(&mut ch);
        assert!((fs.rate(0) - 0.5).abs() < 1e-12);
        assert!((fs.rate(1) - 0.5).abs() < 1e-12);
        assert!((fs.rate(2) - 9.5).abs() < 1e-12);
        assert_eq!(fs.stats.frontier_peak, 2, "both resources saturate");
    }

    #[test]
    fn removal_re_solves_the_whole_component() {
        // Chain 0-1-2 over resources {a},{a,b},{b}: removing flow 0 dirties
        // only resource a, but flow 1 couples it to b, so flow 2 is re-rated
        // too (and keeps its 0.5: it still shares b with flow 1).
        let mut fs = FairShare::new(vec![1.0, 1.0]);
        let mut ch = Vec::new();
        fs.add_flow(0, &[0]);
        fs.add_flow(1, &[0, 1]);
        fs.add_flow(2, &[1]);
        fs.resolve(&mut ch);
        ch.clear();
        let before = fs.stats.flows_resolved;
        fs.remove_flow(0);
        fs.resolve(&mut ch);
        assert_eq!(fs.stats.flows_resolved - before, 2);
        assert!(ch.is_empty(), "both rates stay capped by shared resource b");
        assert_eq!(rates_of(&fs, 3)[1..], [0.5, 0.5]);
    }

    #[test]
    fn one_solve_per_component_however_many_seeds_are_dirty() {
        // One inter-host flow dirties all four of its resources; they form
        // one component, which solves once.
        let mut fs = FairShare::new(vec![1.0, 1.0, 0.5, 0.5]);
        let mut ch = Vec::new();
        fs.add_flow(0, &[0, 1, 2, 3]);
        fs.resolve(&mut ch);
        assert_eq!(ch, vec![0]);
        assert_eq!(fs.rate(0), 0.5);
        assert_eq!((fs.stats.recomputes, fs.stats.flows_resolved), (1, 1));
    }

    #[test]
    fn disjoint_components_dirtied_in_one_batch_solve_once_each() {
        let mut fs = FairShare::new(vec![1.0, 1.0, 2.0, 2.0]);
        let mut ch = Vec::new();
        fs.add_flow(0, &[0, 1]);
        fs.add_flow(1, &[0, 1]);
        fs.add_flow(2, &[2, 3]);
        fs.resolve(&mut ch);
        assert_eq!(rates_of(&fs, 3), vec![0.5, 0.5, 2.0]);
        assert_eq!((fs.stats.recomputes, fs.stats.flows_resolved), (2, 3));
        // The marks were cleared: the next batch solves its component again.
        fs.remove_flow(1);
        fs.resolve(&mut ch);
        assert_eq!(fs.rate(0), 1.0);
        assert_eq!(fs.stats.recomputes, 3);
    }

    #[test]
    fn slot_reuse_after_removal() {
        let mut fs = FairShare::new(vec![1.0]);
        let mut ch = Vec::new();
        fs.add_flow(0, &[0]);
        fs.resolve(&mut ch);
        fs.remove_flow(0);
        fs.add_flow(0, &[0]);
        ch.clear();
        fs.resolve(&mut ch);
        assert_eq!(ch, vec![0]);
        assert_eq!(fs.rate(0), 1.0);
    }
}
