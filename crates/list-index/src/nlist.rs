//! Neighbor Lists (N-List) and Reduced Neighbor Lists (RN-List).
//!
//! An N-List stores, for each object `p`, every other object together with
//! its distance to `p`, sorted by non-decreasing distance (Algorithm 1 of the
//! paper). The RN-List of §3.3 is the same structure truncated at a neighbour
//! threshold `τ`: only objects with `dist < τ` are kept, which reduces the
//! quadratic memory cost to whatever the local neighbourhoods contain.
//!
//! Entries store the *squared* distance and are sorted by `(fl(d²), id)`,
//! the µ order of the distance contract (see [`dpc_core::metric`]): ρ is a
//! partition on `d² < dc²`, truncation keeps `d² < τ²`, and the first denser
//! entry of a list is exactly the brute-force `µ`.
//!
//! # Group-at-a-time queries
//!
//! Every list is its own heap block (16 bytes an entry, 80 KB at n = 5 000),
//! so one object's binary search is a chain of about `log₂ n` dependent
//! cache and TLB misses, and one object's δ scan starts with a miss on the
//! head of its list. The objects' queries are independent of each other, so
//! both kernels work on a group of 32 objects at a time:
//!
//! * ρ advances the group's binary searches in lockstep. Each round halves
//!   every search's range with a branchless step, so the round issues one
//!   load per search and none depends on another: their misses overlap
//!   instead of queuing. A search whose range is down to one entry keeps
//!   re-reading it, so the group runs as many rounds as its longest list
//!   needs. The same kernel answers the CH Index's ρ over each object's
//!   histogram section.
//! * δ first reads the head entry of every list in the group, which is
//!   where most objects find their dependent neighbour, and then finishes
//!   each object's scan.
//!
//! Both run inside each worker's chunk, so they overlap misses within one
//! thread whatever the thread count, and every result is the one the
//! one-object-at-a-time algorithm gives.

use std::ops::Range;

use dpc_core::obs::{NoopRecorder, Recorder};
use dpc_core::stats::vec_bytes;
use dpc_core::{exec, Dataset, DeltaResult, DensityOrder, ExecPolicy, PointId, Query, Rho};

/// Objects per group of the grouped ρ and δ kernels. Of 8, 16 and 32, 32
/// was the fastest on S1's 5 000 points.
const GROUP: usize = 32;

/// One entry of a neighbour list: a neighbour id and its squared distance
/// to the list's owner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Squared distance from the list owner to this neighbour
    /// ([`Point::distance_squared`](dpc_core::Point::distance_squared)).
    pub dist_sq: f64,
    /// Id of the neighbour (u32 keeps the entry at 16 bytes; datasets above
    /// 4 G points are far outside the scope of this index).
    pub id: u32,
}

impl Neighbor {
    /// Creates an entry.
    pub fn new(dist_sq: f64, id: PointId) -> Self {
        Neighbor {
            dist_sq,
            id: id as u32,
        }
    }

    /// Neighbour id as a [`PointId`].
    pub fn point_id(&self) -> PointId {
        self.id as usize
    }
}

/// The per-object neighbour lists of a dataset (N-List, or RN-List when a
/// threshold `τ` was applied at construction time).
#[derive(Debug, Clone)]
pub struct NeighborLists {
    lists: Vec<Vec<Neighbor>>,
    tau: Option<f64>,
}

impl NeighborLists {
    /// Builds the lists, using all available CPU parallelism for the
    /// per-object sort (the result is identical to the serial build).
    ///
    /// `tau = None` builds full N-Lists (every other object appears in every
    /// list); `tau = Some(t)` builds RN-Lists containing only neighbours with
    /// `d² < t²`.
    pub fn build(dataset: &Dataset, tau: Option<f64>) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::build_with_threads(dataset, tau, threads)
    }

    /// Builds the lists single-threaded. Mostly useful for tests comparing
    /// against the parallel build.
    pub fn build_serial(dataset: &Dataset, tau: Option<f64>) -> Self {
        Self::build_with_threads(dataset, tau, 1)
    }

    /// Builds the lists with an explicit number of worker threads, on top of
    /// the chunked engine of [`dpc_core::exec`].
    ///
    /// # Panics
    /// Panics if `threads == 0` or if `tau` is not a positive finite number.
    pub fn build_with_threads(dataset: &Dataset, tau: Option<f64>, threads: usize) -> Self {
        assert!(threads > 0, "NeighborLists: need at least one thread");
        if let Some(t) = tau {
            assert!(
                t.is_finite() && t > 0.0,
                "NeighborLists: tau must be positive and finite, got {t}"
            );
        }
        let n = dataset.len();
        let mut lists: Vec<Vec<Neighbor>> = vec![Vec::new(); n];
        if n == 0 {
            return NeighborLists { lists, tau };
        }
        let (xs, ys) = dataset.coord_slices();
        let tau2 = tau.map(|t| t * t);
        exec::fill_slice(
            &mut lists,
            ExecPolicy::Threads(threads),
            &NoopRecorder,
            "",
            || (),
            |p, ()| {
                let mut entries: Vec<Neighbor> =
                    Vec::with_capacity(if tau.is_some() { 16 } else { n - 1 });
                let (xp, yp) = (xs[p], ys[p]);
                for (q, (&xq, &yq)) in xs.iter().zip(ys.iter()).enumerate() {
                    if q == p {
                        continue;
                    }
                    let (dx, dy) = (xq - xp, yq - yp);
                    let d2 = dx * dx + dy * dy;
                    if tau2.is_none_or(|t2| d2 < t2) {
                        entries.push(Neighbor::new(d2, q));
                    }
                }
                // Ids are unique within a list, so the (d², id) keys are too
                // and an unstable sort is deterministic.
                entries
                    .sort_unstable_by(|a, b| a.dist_sq.total_cmp(&b.dist_sq).then(a.id.cmp(&b.id)));
                entries.shrink_to_fit();
                entries
            },
        );
        NeighborLists { lists, tau }
    }

    /// Number of objects (owners of a list).
    pub fn len(&self) -> usize {
        self.lists.len()
    }

    /// True when there are no objects.
    pub fn is_empty(&self) -> bool {
        self.lists.is_empty()
    }

    /// The neighbour threshold the lists were truncated at (`None` = full
    /// N-Lists).
    pub fn tau(&self) -> Option<f64> {
        self.tau
    }

    /// The (R)N-List of one object, sorted by `(d², id)`.
    pub fn list(&self, p: PointId) -> &[Neighbor] {
        &self.lists[p]
    }

    /// Number of neighbours of `p` with `d² < dc²` (a binary search over the
    /// sorted list).
    ///
    /// For RN-Lists this is exact whenever `dc <= τ` and a lower bound
    /// otherwise (everything stored is counted, anything beyond `τ` is
    /// missed) — exactly the approximation the paper describes.
    pub fn count_within(&self, p: PointId, dc: f64) -> usize {
        let mut count = [0];
        count_below(&[self.list(p)], dc * dc, &mut count);
        count[0]
    }

    /// The cut-off ρ of every object, [`count_within`](Self::count_within)
    /// for a group of objects at a time, on the query's workers (one
    /// `query.rho.chunk` span each).
    ///
    /// `section(p, len)` narrows object `p`'s search to the entries
    /// `list(p)[section]`: every entry before it must lie within `dc` and
    /// every entry after it outside. ρ(p) is the section's start plus the
    /// number of its entries with `d² < dc²`. The List Index searches the
    /// whole list (`0..len`), the CH Index one histogram section.
    pub(crate) fn rho_by_search<F>(&self, query: &Query<'_>, section: F) -> Vec<Rho>
    where
        F: Fn(PointId, usize) -> Range<usize> + Sync,
    {
        let dc2 = query.dc * query.dc;
        let mut rho = vec![0.0; self.lists.len()];
        exec::fill_chunks(
            &mut rho[..],
            query.exec,
            query.recorder,
            "query.rho.chunk",
            || (),
            |start, chunk: &mut [Rho], ()| {
                for (first, group) in (start..).step_by(GROUP).zip(chunk.chunks_mut(GROUP)) {
                    // Every section is read before any search starts, so
                    // the group's histogram misses overlap as well.
                    let mut before = [0usize; GROUP];
                    let mut sections: [&[Neighbor]; GROUP] = [&[]; GROUP];
                    for ((p, list), (before, slice)) in (first..)
                        .zip(&self.lists[first..first + group.len()])
                        .zip(before.iter_mut().zip(sections.iter_mut()))
                    {
                        let range = section(p, list.len());
                        *before = range.start;
                        *slice = &list[range];
                    }
                    let mut counts = [0usize; GROUP];
                    count_below(&sections[..group.len()], dc2, &mut counts);
                    for (rho, (before, count)) in group.iter_mut().zip(before.iter().zip(&counts)) {
                        *rho = (before + count) as Rho;
                    }
                }
            },
        );
        rho
    }

    /// Total number of stored entries across all lists.
    pub fn total_entries(&self) -> usize {
        self.lists.iter().map(Vec::len).sum()
    }

    /// Length of the longest stored list.
    pub fn max_list_len(&self) -> usize {
        self.lists.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Analytic heap footprint in bytes (spine + entries).
    pub fn memory_bytes(&self) -> usize {
        vec_bytes(&self.lists) + self.lists.iter().map(vec_bytes).sum::<usize>()
    }

    /// The δ-query of Algorithm 2 (lines 7–13): for every object, scan its
    /// list from nearest to farthest and stop at the first neighbour that is
    /// denser under `order`. Also returns the total number of list entries
    /// probed, the quantity behind the paper's remark that *"less than 1% of
    /// the total number of objects were probed"*, and publishes it to `rec`
    /// as the `query.delta.probes` counter (beside one `query.delta.chunk`
    /// span per worker).
    ///
    /// * With full N-Lists the only object for which the scan can fail is the
    ///   global peak; its `δ` is set to its maximum stored distance (the
    ///   distance to the farthest object), as the paper prescribes.
    /// * With RN-Lists the scan can also fail for a point whose dependent
    ///   neighbour lies beyond `τ`; such points get the sentinel
    ///   `δ = +∞`, `µ = None` ("set to a large value" in §3.3).
    ///
    /// The scans run a group of objects at a time (see the module docs),
    /// partitioned across the policy's worker threads; each worker counts
    /// its own probes and the counters are summed after the join, so
    /// results and probe counts are bit-identical at every thread count.
    pub fn delta_by_scan(
        &self,
        order: &DensityOrder<'_>,
        policy: ExecPolicy,
        rec: &dyn Recorder,
    ) -> (DeltaResult, u64) {
        let n = self.lists.len();
        debug_assert_eq!(order.len(), n, "density order must cover every object");
        let mut result = DeltaResult::unset(n);
        let probes_per_worker = exec::fill_chunks(
            (&mut result.delta[..], &mut result.mu[..]),
            policy,
            rec,
            "query.delta.chunk",
            || 0u64,
            |start, (delta, mu): (&mut [f64], &mut [Option<PointId>]), probes| {
                for ((first, delta), mu) in (start..)
                    .step_by(GROUP)
                    .zip(delta.chunks_mut(GROUP))
                    .zip(mu.chunks_mut(GROUP))
                {
                    *probes += self.delta_group(first, order, delta, mu);
                }
            },
        );
        let probes = probes_per_worker.into_iter().sum();
        rec.counter("query.delta.probes", probes);
        (result, probes)
    }

    /// δ and µ of the objects `first..first + delta.len()` (at most
    /// [`GROUP`]); returns the number of list entries probed.
    fn delta_group(
        &self,
        first: PointId,
        order: &DensityOrder<'_>,
        delta: &mut [f64],
        mu: &mut [Option<PointId>],
    ) -> u64 {
        let lists = &self.lists[first..first + delta.len()];
        let denser = |p: PointId| move |nb: &Neighbor| order.is_denser(nb.point_id(), p);
        // The head entries first, in one pass: they are where most objects
        // find µ, and the group's misses on them overlap.
        let mut head = [None; GROUP];
        for ((p, list), head) in (first..).zip(lists).zip(&mut head) {
            *head = list.first().is_some_and(denser(p)).then_some(0);
        }
        let mut probes = 0;
        for ((p, list), (head, (delta, mu))) in (first..)
            .zip(lists)
            .zip(head.iter().zip(delta.iter_mut().zip(mu)))
        {
            let found = head.or_else(|| list.iter().skip(1).position(denser(p)).map(|i| i + 1));
            probes += found.map_or(list.len(), |i| i + 1) as u64;
            (*delta, *mu) = match found {
                Some(i) => (list[i].dist_sq.sqrt(), Some(list[i].point_id())),
                // Global peak: δ = maximum distance to any other object,
                // which is the last entry of its full N-List.
                None if self.tau.is_none() => {
                    (list.last().map_or(0.0, |nb| nb.dist_sq.sqrt()), None)
                }
                // Truncated list: the neighbour (if any) lies beyond τ.
                None => (f64::INFINITY, None),
            };
        }
        probes
    }
}

/// For every section, the number of its leading entries with `d² < dc2`
/// (at most [`GROUP`] sections): one lower-bound search per section, all
/// advanced in lockstep.
///
/// A search keeps the range `[base, base + size)` that holds its answer's
/// last candidate. A round halves every range at once, moving `base` up by
/// the half when the entry there lies within `dc`; it is branchless, so the
/// round's loads are all in flight together. A range of one entry is left
/// as it is, so the group runs `⌈log₂ longest⌉` rounds and then checks each
/// search's last entry.
fn count_below(sections: &[&[Neighbor]], dc2: f64, counts: &mut [usize]) {
    let mut base = [0usize; GROUP];
    let mut size = [0usize; GROUP];
    let mut longest = 0;
    for (section, size) in sections.iter().zip(&mut size) {
        *size = section.len();
        longest = longest.max(*size);
    }
    let rounds = usize::BITS - longest.saturating_sub(1).leading_zeros();
    // An empty section has no entry at `base`; `get` reads none for it.
    let within = |section: &[Neighbor], i: usize| section.get(i).is_some_and(|nb| nb.dist_sq < dc2);
    for _ in 0..rounds {
        for (section, (base, size)) in sections.iter().zip(base.iter_mut().zip(&mut size)) {
            let half = *size / 2;
            *base += half * usize::from(within(section, *base + half));
            *size -= half;
        }
    }
    for (count, (section, base)) in counts.iter_mut().zip(sections.iter().zip(&base)) {
        *count = base + usize::from(within(section, *base));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_core::Point;
    use dpc_datasets::generators::s1;

    fn small() -> Dataset {
        Dataset::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(3.0, 0.0),
            Point::new(0.0, 2.0),
        ])
    }

    #[test]
    fn full_lists_contain_all_other_objects_sorted() {
        let lists = NeighborLists::build_serial(&small(), None);
        assert_eq!(lists.len(), 4);
        for p in 0..4 {
            let l = lists.list(p);
            assert_eq!(l.len(), 3, "point {p}");
            for w in l.windows(2) {
                assert!(w[0].dist_sq <= w[1].dist_sq);
            }
            assert!(l.iter().all(|nb| nb.point_id() != p));
        }
        // Point 0's nearest neighbour is point 1 at distance 1.
        assert_eq!(lists.list(0)[0].point_id(), 1);
        assert_eq!(lists.list(0)[0].dist_sq, 1.0);
    }

    #[test]
    fn count_within_is_strict() {
        let lists = NeighborLists::build_serial(&small(), None);
        // Distances from point 0: 1.0, 2.0, 3.0.
        assert_eq!(lists.count_within(0, 1.0), 0);
        assert_eq!(lists.count_within(0, 1.5), 1);
        assert_eq!(lists.count_within(0, 2.5), 2);
        assert_eq!(lists.count_within(0, 100.0), 3);
    }

    #[test]
    fn rn_list_truncates_at_tau() {
        let lists = NeighborLists::build_serial(&small(), Some(2.5));
        assert_eq!(lists.tau(), Some(2.5));
        // Point 0 keeps neighbours at distance 1.0 and 2.0 only.
        assert_eq!(lists.list(0).len(), 2);
        // Point 2 (at x=3) keeps only point 1 (distance 2) .
        assert_eq!(lists.list(2).len(), 1);
        assert_eq!(lists.list(2)[0].point_id(), 1);
        assert!(lists.memory_bytes() < NeighborLists::build_serial(&small(), None).memory_bytes());
    }

    #[test]
    fn parallel_build_matches_serial_build() {
        let data = s1(17, 0.05).into_dataset(); // 250 points
        let serial = NeighborLists::build_serial(&data, None);
        let parallel = NeighborLists::build_with_threads(&data, None, 4);
        for p in 0..data.len() {
            assert_eq!(serial.list(p), parallel.list(p), "point {p}");
        }
        let serial_t = NeighborLists::build_serial(&data, Some(50_000.0));
        let parallel_t = NeighborLists::build_with_threads(&data, Some(50_000.0), 3);
        for p in 0..data.len() {
            assert_eq!(serial_t.list(p), parallel_t.list(p), "point {p}");
        }
    }

    #[test]
    fn parallel_delta_scan_is_bit_identical_to_sequential() {
        let data = s1(19, 0.05).into_dataset(); // 250 points
        for tau in [None, Some(40_000.0)] {
            let lists = NeighborLists::build_serial(&data, tau);
            let rho: Vec<f64> = (0..data.len() as u32).map(|i| f64::from(i % 7)).collect();
            let order = DensityOrder::new(&rho);
            let (seq, seq_probes) =
                lists.delta_by_scan(&order, ExecPolicy::Sequential, &NoopRecorder);
            for threads in [1usize, 2, 3, 7] {
                let policy = ExecPolicy::Threads(threads);
                let (par, par_probes) = lists.delta_by_scan(&order, policy, &NoopRecorder);
                assert_eq!(par.delta, seq.delta, "threads = {threads}, tau = {tau:?}");
                assert_eq!(par.mu, seq.mu, "threads = {threads}, tau = {tau:?}");
                assert_eq!(par_probes, seq_probes, "threads = {threads}, tau = {tau:?}");
            }
        }
    }

    #[test]
    fn total_entries_and_max_len() {
        let lists = NeighborLists::build_serial(&small(), None);
        assert_eq!(lists.total_entries(), 12);
        assert_eq!(lists.max_list_len(), 3);
    }

    #[test]
    fn empty_dataset() {
        let lists = NeighborLists::build(&Dataset::new(vec![]), None);
        assert!(lists.is_empty());
        assert_eq!(lists.total_entries(), 0);
        assert_eq!(lists.max_list_len(), 0);
    }

    #[test]
    fn memory_grows_quadratically_for_full_lists() {
        let d1 = s1(5, 0.02).into_dataset(); // 100 points
        let d2 = s1(5, 0.08).into_dataset(); // 400 points
        let m1 = NeighborLists::build(&d1, None).memory_bytes();
        let m2 = NeighborLists::build(&d2, None).memory_bytes();
        assert!(m2 > 10 * m1, "m1 = {m1}, m2 = {m2}");
    }

    #[test]
    #[should_panic(expected = "tau must be positive")]
    fn invalid_tau_panics() {
        NeighborLists::build_serial(&small(), Some(0.0));
    }
}
