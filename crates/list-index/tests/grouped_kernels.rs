//! The grouped ρ and δ kernels of the list indexes against one-object-at-a-
//! time references.
//!
//! The kernels answer 32 objects at a time, so the interesting sizes sit
//! around a group (0, 1, 31, 32, 33) and beyond a few groups (101), and the
//! interesting thread counts cut a group at a chunk edge (101 objects over
//! 2, 3 or 7 workers). Points sit on a unit lattice, so many pairs lie at
//! exactly `dc` and the strict `d² < dc²` decides them.

use dpc_core::naive_reference::NaiveReferenceIndex;
use dpc_core::obs::{MetricsRecorder, NoopRecorder};
use dpc_core::{Dataset, DensityOrder, DpcIndex, ExecPolicy, PointId, Query, Rho};
use dpc_list_index::{ChIndex, ListIndex, Neighbor, NeighborLists};
use proptest::prelude::*;

const SIZES: [usize; 6] = [0, 1, 31, 32, 33, 101];
const THREADS: [usize; 4] = [1, 2, 3, 7];
/// Neighbour thresholds: full N-Lists, RN-Lists that are all empty (below
/// the lattice spacing), and RN-Lists of unequal lengths.
const TAUS: [Option<f64>; 4] = [None, Some(0.5), Some(1.5), Some(2.5)];
/// Cut-offs: below every lattice distance, exactly on lattice distances,
/// between them, and above every distance.
const DCS: [f64; 7] = [0.5, 1.0, 2.0, 3.0, 5.0, 2.3, 1.0e6];
/// Side of the lattice the points are drawn from.
const SIDE: u64 = 12;

/// `n` points on a `SIDE × SIDE` unit lattice, distinct cells unless
/// `duplicates`, in an order shuffled by `seed`.
fn lattice(n: usize, seed: u64, duplicates: bool) -> Dataset {
    let mut state = seed;
    let mut next = move || {
        // SplitMix64.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let cells: Vec<u64> = if duplicates {
        (0..n).map(|_| next() % (SIDE * SIDE)).collect()
    } else {
        let mut keyed: Vec<(u64, u64)> = (0..SIDE * SIDE).map(|c| (next(), c)).collect();
        keyed.sort_unstable();
        keyed.into_iter().take(n).map(|(_, c)| c).collect()
    };
    Dataset::from_coords(
        cells
            .into_iter()
            .map(|c| ((c % SIDE) as f64, (c / SIDE) as f64)),
    )
}

fn list_index(data: &Dataset, tau: Option<f64>) -> ListIndex {
    match tau {
        None => ListIndex::build(data),
        Some(t) => ListIndex::build_approx(data, t),
    }
}

fn ch_index(data: &Dataset, w: f64, tau: Option<f64>) -> ChIndex {
    match tau {
        None => ChIndex::build(data, w),
        Some(t) => ChIndex::build_approx(data, w, t),
    }
}

/// ρ of one object the way the paper states it: one binary search.
fn searched_rho(list: &[Neighbor], dc: f64) -> Rho {
    list.partition_point(|nb| nb.dist_sq < dc * dc) as Rho
}

/// ρ by brute force over the pairs a list with threshold `tau` stores.
fn brute_rho(data: &Dataset, dc: f64, tau: Option<f64>) -> Vec<Rho> {
    (0..data.len())
        .map(|p| {
            (0..data.len())
                .filter(|&q| {
                    let d2 = data.point(p).distance_squared(&data.point(q));
                    q != p && d2 < dc * dc && tau.is_none_or(|t| d2 < t * t)
                })
                .count() as Rho
        })
        .collect()
}

/// `(δ, µ, probes)` of one object the way Algorithm 2 states it: scan the
/// list until the first denser entry.
fn scanned_delta(
    lists: &NeighborLists,
    order: &DensityOrder<'_>,
    p: PointId,
) -> (f64, Option<PointId>, u64) {
    let list = lists.list(p);
    match list.iter().position(|nb| order.is_denser(nb.point_id(), p)) {
        Some(i) => (
            list[i].dist_sq.sqrt(),
            Some(list[i].point_id()),
            i as u64 + 1,
        ),
        None if lists.tau().is_none() => (
            list.last().map_or(0.0, |nb| nb.dist_sq.sqrt()),
            None,
            list.len() as u64,
        ),
        None => (f64::INFINITY, None, list.len() as u64),
    }
}

/// Bit patterns, so that equal means bit-identical.
fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn grouped_list_rho_equals_one_search_per_object(
        size in 0usize..SIZES.len(),
        seed in any::<u64>(),
        duplicates in any::<bool>(),
        tau in 0usize..TAUS.len(),
    ) {
        let (n, tau) = (SIZES[size], TAUS[tau]);
        let data = lattice(n, seed, duplicates);
        let index = list_index(&data, tau);
        let naive = NaiveReferenceIndex::build(&data);
        for dc in DCS {
            let rho = index.rho(&Query::new(dc)).unwrap();
            let searched: Vec<Rho> =
                (0..n).map(|p| searched_rho(index.lists().list(p), dc)).collect();
            prop_assert_eq!(&rho, &searched, "dc = {}, tau = {:?}", dc, tau);
            prop_assert_eq!(&rho, &brute_rho(&data, dc, tau), "dc = {}, tau = {:?}", dc, tau);
            if tau.is_none() {
                prop_assert_eq!(&rho, &naive.rho(&Query::new(dc)).unwrap(), "dc = {}", dc);
            }
            for (p, &r) in rho.iter().enumerate() {
                prop_assert_eq!(index.lists().count_within(p, dc) as Rho, r);
                if dc == 1.0e6 {
                    prop_assert_eq!(r, index.lists().list(p).len() as Rho);
                }
            }
            if dc == 0.5 && !duplicates {
                prop_assert!(rho.iter().all(|&r| r == 0.0));
            }
            for t in THREADS {
                let metrics = MetricsRecorder::new();
                let query = Query::new(dc)
                    .with_exec(ExecPolicy::Threads(t))
                    .with_recorder(&metrics);
                let threaded = index.rho(&query).unwrap();
                prop_assert_eq!(bits(&threaded), bits(&rho), "threads = {}, dc = {}", t, dc);
                // Every object lies in exactly one worker's chunk span.
                let items = metrics.snapshot().histogram("query.rho.chunk.items").map(|h| h.sum());
                prop_assert_eq!(items, Some(n as u64), "threads = {}", t);
            }
        }
    }

    #[test]
    fn grouped_ch_rho_equals_the_list_rho_on_and_off_bin_edges(
        size in 0usize..SIZES.len(),
        seed in any::<u64>(),
        duplicates in any::<bool>(),
        tau in 0usize..TAUS.len(),
    ) {
        let (n, tau) = (SIZES[size], TAUS[tau]);
        let data = lattice(n, seed, duplicates);
        let list = list_index(&data, tau);
        for w in [0.25, 0.5, 1.0, 1.5, 3.0, 100.0] {
            let ch = ch_index(&data, w, tau);
            // Exact bin edges k·w (the histogram's own edges), points between
            // them, and a dc beyond every histogram (`bin ≥ hist.len()`).
            let dcs = (1..=6)
                .map(|k| k as f64 * w)
                .chain([0.6 * w, 2.5 * w, 1.0e6])
                .chain(DCS);
            for dc in dcs {
                let rho = ch.rho(&Query::new(dc)).unwrap();
                prop_assert_eq!(&rho, &list.rho(&Query::new(dc)).unwrap(), "w = {}, dc = {}", w, dc);
                prop_assert_eq!(&rho, &brute_rho(&data, dc, tau), "w = {}, dc = {}", w, dc);
                for t in THREADS {
                    let query = Query::new(dc).with_exec(ExecPolicy::Threads(t));
                    prop_assert_eq!(bits(&ch.rho(&query).unwrap()), bits(&rho), "threads = {}", t);
                }
            }
        }
    }

    #[test]
    fn grouped_delta_scan_equals_one_scan_per_object(
        size in 0usize..SIZES.len(),
        seed in any::<u64>(),
        duplicates in any::<bool>(),
        tau in 0usize..TAUS.len(),
        levels in 1u64..6,
    ) {
        let (n, tau) = (SIZES[size], TAUS[tau]);
        let data = lattice(n, seed, duplicates);
        let index = list_index(&data, tau);
        // A few density levels: many ties, broken by id.
        let rho: Vec<Rho> = (0..n as u64)
            .map(|p| ((p.wrapping_mul(seed | 1) >> 32) % levels) as Rho)
            .collect();
        let order = DensityOrder::new(&rho);
        let (delta, probes) =
            index.lists().delta_by_scan(&order, ExecPolicy::Sequential, &NoopRecorder);
        let mut scanned_probes = 0;
        for p in 0..n {
            let (d, mu, probes) = scanned_delta(index.lists(), &order, p);
            prop_assert_eq!(delta.delta(p).to_bits(), d.to_bits(), "p = {}", p);
            prop_assert_eq!(delta.mu(p), mu, "p = {}", p);
            scanned_probes += probes;
        }
        prop_assert_eq!(probes, scanned_probes);
        if tau.is_none() {
            let naive = NaiveReferenceIndex::build(&data).delta(&Query::new(1.0), &rho).unwrap();
            prop_assert_eq!(bits(&delta.delta), bits(&naive.delta));
            prop_assert_eq!(&delta.mu, &naive.mu);
        }
        for t in THREADS {
            let metrics = MetricsRecorder::new();
            let query = Query::new(1.0)
                .with_exec(ExecPolicy::Threads(t))
                .with_recorder(&metrics);
            let threaded = index.delta(&query, &rho).unwrap();
            prop_assert_eq!(bits(&threaded.delta), bits(&delta.delta), "threads = {}", t);
            prop_assert_eq!(&threaded.mu, &delta.mu, "threads = {}", t);
            let counted = metrics.snapshot().counter("query.delta.probes").unwrap();
            prop_assert_eq!(counted, probes, "threads = {}", t);
        }
    }
}

/// One group of 32 objects holds the global peak, objects whose dependent
/// neighbour lies beyond τ, objects whose head entry is denser, and objects
/// that scan past a less dense head.
#[test]
fn one_group_mixes_the_peak_truncated_misses_and_head_hits() {
    // Two 5 × 5 lattice blobs 100 apart. At dc 1.5 the nine interior
    // points of each blob tie at ρ = 8 and the smaller id is denser, so the
    // global peak is a left-blob point, and the right blob's densest point
    // has every denser point 100 away.
    let blob = |x0: f64| (0..25).map(move |c| (x0 + (c % 5) as f64, (c / 5) as f64));
    let coords: Vec<(f64, f64)> = blob(0.0).chain(blob(100.0)).collect();
    // Interleave the blobs so the first group holds members of both.
    let order_of: Vec<usize> = (0..25).flat_map(|i| [i, 25 + i]).collect();
    let data = Dataset::from_coords(order_of.iter().map(|&i| coords[i]));
    let dc = 1.5;
    for tau in [None, Some(10.0)] {
        let index = list_index(&data, tau);
        let rho = index.rho(&Query::new(dc)).unwrap();
        let order = DensityOrder::new(&rho);
        let (delta, probes) =
            index
                .lists()
                .delta_by_scan(&order, ExecPolicy::Sequential, &NoopRecorder);
        let mut scanned_probes = 0;
        let (mut peaks, mut misses, mut head_hits, mut scans) = (0, 0, 0, 0);
        for p in 0..data.len() {
            let (d, mu, probes) = scanned_delta(index.lists(), &order, p);
            assert_eq!(
                delta.delta(p).to_bits(),
                d.to_bits(),
                "p = {p}, tau = {tau:?}"
            );
            assert_eq!(delta.mu(p), mu, "p = {p}, tau = {tau:?}");
            scanned_probes += probes;
            if p < 32 {
                match (mu, d.is_finite(), probes) {
                    (None, true, _) => peaks += 1,
                    (None, false, _) => misses += 1,
                    (Some(_), _, 1) => head_hits += 1,
                    (Some(_), _, _) => scans += 1,
                }
            }
        }
        assert_eq!(probes, scanned_probes, "tau = {tau:?}");
        // Without τ the right blob's densest point finds µ in the left
        // blob; with τ it misses, and so does the global peak.
        match tau {
            None => assert_eq!((peaks, misses), (1, 0)),
            Some(_) => assert_eq!((peaks, misses), (0, 2)),
        }
        assert!(
            head_hits > 0 && scans > 0,
            "{head_hits} head hits, {scans} scans"
        );
        for t in THREADS {
            let threaded = index
                .delta(&Query::new(dc).with_exec(ExecPolicy::Threads(t)), &rho)
                .unwrap();
            assert_eq!(bits(&threaded.delta), bits(&delta.delta), "threads = {t}");
            assert_eq!(threaded.mu, delta.mu, "threads = {t}");
        }
    }
}
