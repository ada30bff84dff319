//! The shared parallel query engine: chunked work partitioning over scoped
//! threads.
//!
//! Every per-point DPC query is embarrassingly parallel: point `p`'s ρ and δ
//! depend only on the dataset and the (read-only) index, never on another
//! point's result. "Faster Parallel Exact Density Peaks Clustering" (Huang,
//! Yu & Shun, 2023) shows exact DPC scales near-linearly with cores on
//! exactly this decomposition, so this module provides it once for the whole
//! workspace: an [`ExecPolicy`] knob plus one chunked executor that splits
//! the output into contiguous per-worker chunks, runs one scoped thread per
//! chunk, and hands every worker its own scratch state (query statistics,
//! reusable traversal stacks/heaps) that the caller merges after the join.
//! [`fill_slice`] fills one output slice, [`fill_slice_pair`] two (the shape
//! of the δ-query), one point at a time; [`fill_chunks`] hands the body a
//! whole chunk, for kernels that work on a group of points at once. All
//! three take a [`Recorder`] and time each chunk only when it is enabled.
//!
//! Determinism is by construction: each output slot is written by exactly one
//! worker running exactly the same per-point code as the sequential path, so
//! parallel results are bit-identical to sequential results at every thread
//! count (a chunk-level body must give each slot the same value wherever
//! the chunk edges fall). The chunk partitioning logic lives here and
//! nowhere else — the brute-force kernels, the neighbour-list builder and
//! every index's query all go through it.

use dpc_obs::Recorder;
use std::time::Instant;

/// How per-point query work is partitioned across worker threads.
///
/// The default is [`Sequential`](ExecPolicy::Sequential): the paper's
/// measurements are single-threaded, so parallelism is strictly opt-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecPolicy {
    /// Run in the calling thread, no workers spawned (paper-faithful
    /// default).
    #[default]
    Sequential,
    /// Use this many worker threads (clamped to the number of work items;
    /// `0` and `1` behave like `Sequential`).
    Threads(usize),
}

impl ExecPolicy {
    /// The workspace-wide convention for mapping a user-facing thread count
    /// to a policy: `0` and `1` mean [`Sequential`](ExecPolicy::Sequential),
    /// anything larger means that many workers. This is the single home of
    /// the mapping used by `DpcParams::with_threads`, the CLI `--threads`
    /// flag and the experiment harness.
    pub fn from_threads(n: usize) -> Self {
        if n <= 1 {
            ExecPolicy::Sequential
        } else {
            ExecPolicy::Threads(n)
        }
    }

    /// Number of workers a query over `items` work items will actually use
    /// (always at least 1, never more than `items.max(1)`).
    pub fn workers(&self, items: usize) -> usize {
        let requested = match *self {
            ExecPolicy::Sequential => 1,
            ExecPolicy::Threads(t) => t.max(1),
        };
        requested.min(items).max(1)
    }
}

/// Length of each contiguous chunk when `items` work items are split across
/// `workers` threads. This is the single source of truth for the chunk
/// geometry.
fn chunk_len(items: usize, workers: usize) -> usize {
    items.div_ceil(workers.max(1)).max(1)
}

/// Output storage the executor can cut into contiguous per-worker chunks:
/// one slice, two slices of equal length split at the same point, or a
/// caller's own storage of indivisible groups.
pub trait Slots: Send + Sized {
    /// Number of output slots.
    fn len(&self) -> usize;
    /// True when there are no output slots.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Splits the storage into slots `[0, mid)` and `[mid, len)`. Storage
    /// made of indivisible groups of slots may cut at the first group edge
    /// at or after `mid` instead; the executor starts the next chunk where
    /// the head ends.
    fn split_at(self, mid: usize) -> (Self, Self);
}

impl<T: Send> Slots for &mut [T] {
    fn len(&self) -> usize {
        <[T]>::len(self)
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        self.split_at_mut(mid)
    }
}

impl<A: Send, B: Send> Slots for (&mut [A], &mut [B]) {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a0, a1) = self.0.split_at_mut(mid);
        let (b0, b1) = self.1.split_at_mut(mid);
        ((a0, b0), (a1, b1))
    }
}

/// The one chunked executor: cuts `out` into contiguous chunks, one per
/// worker, and runs `run(start, chunk, scratch)` on each (in the calling
/// thread when there is a single worker, on scoped threads otherwise), where
/// `start` is the index of the chunk's first slot. Returns the per-worker
/// scratches in chunk order.
///
/// [`fill_slice`] and [`fill_slice_pair`] are this executor with a
/// per-point loop as `run`. Call it directly when the body works on several
/// points at once. With plain slices, as in the list indexes' grouped
/// searches, the chunk edges fall wherever the thread count puts them, so
/// the body must not let them change a result. Storage whose
/// [`Slots::split_at`] cuts only between groups, as in the tree queries'
/// leaf groups, keeps every group whole in one chunk.
///
/// With an enabled recorder every chunk reports one `label` span and one
/// `<label>.items` histogram sample; a disabled recorder costs one branch
/// per chunk — no clock reads, no allocation.
pub fn fill_chunks<O, S, M, R>(
    out: O,
    policy: ExecPolicy,
    rec: &dyn Recorder,
    label: &str,
    make_scratch: M,
    run: R,
) -> Vec<S>
where
    O: Slots,
    S: Send,
    M: Fn() -> S + Sync,
    R: Fn(usize, O, &mut S) + Sync,
{
    let n = out.len();
    let workers = policy.workers(n);
    let items_label = if rec.enabled() {
        format!("{label}.items")
    } else {
        String::new()
    };
    let worker = |start: usize, chunk: O| {
        let started = rec.enabled().then(Instant::now);
        let items = chunk.len() as u64;
        let mut scratch = make_scratch();
        run(start, chunk, &mut scratch);
        if let Some(started) = started {
            rec.record(&items_label, items);
            rec.span(label, started, started.elapsed());
        }
        scratch
    };
    if workers <= 1 {
        return vec![worker(0, out)];
    }
    // Chunk `i` ends at the first edge the storage allows at or after
    // `(i + 1) · chunk`, so the number of chunks never depends on where the
    // storage lets them end; a chunk may be empty.
    let chunk = chunk_len(n, workers);
    let mut chunks = Vec::with_capacity(workers);
    let (mut rest, mut start) = (out, 0);
    for edge in (chunk..n).step_by(chunk) {
        let (head, tail) = rest.split_at(edge.saturating_sub(start));
        let len = head.len();
        chunks.push((start, head));
        (rest, start) = (tail, start + len);
    }
    chunks.push((start, rest));
    let worker = &worker;
    crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|(start, chunk)| scope.spawn(move |_| worker(start, chunk)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("query worker thread panicked"))
            .collect()
    })
    .expect("query worker thread panicked")
}

/// Fills `out[i] = body(i, scratch)` for every index `i`, partitioning
/// contiguous chunks of `out` across the policy's workers.
///
/// `make_scratch` creates one scratch value per worker; the scratch lives for
/// the worker's whole chunk, so per-point state (traversal stacks, heaps,
/// statistics counters) is reused instead of re-allocated. The per-worker
/// scratches are returned in chunk order so the caller can merge them
/// deterministically. With an enabled `rec`, each chunk reports one `label`
/// span and one `<label>.items` sample, so a trace shows every worker's
/// lane and a metrics snapshot shows chunk-size balance.
pub fn fill_slice<T, S, M, B>(
    out: &mut [T],
    policy: ExecPolicy,
    rec: &dyn Recorder,
    label: &str,
    make_scratch: M,
    body: B,
) -> Vec<S>
where
    T: Send,
    S: Send,
    M: Fn() -> S + Sync,
    B: Fn(usize, &mut S) -> T + Sync,
{
    fill_chunks(
        out,
        policy,
        rec,
        label,
        make_scratch,
        |start, chunk: &mut [T], scratch| {
            for (offset, slot) in chunk.iter_mut().enumerate() {
                *slot = body(start + offset, scratch);
            }
        },
    )
}

/// Like [`fill_slice`], but fills two parallel output slices at once:
/// `body(i, &mut a[i], &mut b[i], scratch)`.
///
/// This is the shape of the δ-query, which produces the dependent distance
/// and the dependent neighbour per point.
///
/// # Panics
/// Panics if `a` and `b` have different lengths.
pub fn fill_slice_pair<A, B, S, M, F>(
    a: &mut [A],
    b: &mut [B],
    policy: ExecPolicy,
    rec: &dyn Recorder,
    label: &str,
    make_scratch: M,
    body: F,
) -> Vec<S>
where
    A: Send,
    B: Send,
    S: Send,
    M: Fn() -> S + Sync,
    F: Fn(usize, &mut A, &mut B, &mut S) + Sync,
{
    assert_eq!(
        a.len(),
        b.len(),
        "fill_slice_pair: output slices must have the same length"
    );
    fill_chunks(
        (a, b),
        policy,
        rec,
        label,
        make_scratch,
        |start, (a, b): (&mut [A], &mut [B]), scratch| {
            for (offset, (slot_a, slot_b)) in a.iter_mut().zip(b.iter_mut()).enumerate() {
                body(start + offset, slot_a, slot_b, scratch);
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_obs::{MetricsRecorder, NoopRecorder};

    #[test]
    fn from_threads_maps_zero_and_one_to_sequential() {
        assert_eq!(ExecPolicy::from_threads(0), ExecPolicy::Sequential);
        assert_eq!(ExecPolicy::from_threads(1), ExecPolicy::Sequential);
        assert_eq!(ExecPolicy::from_threads(5), ExecPolicy::Threads(5));
    }

    #[test]
    fn workers_clamp_to_items_and_at_least_one() {
        assert_eq!(ExecPolicy::Sequential.workers(100), 1);
        assert_eq!(ExecPolicy::Threads(4).workers(100), 4);
        assert_eq!(ExecPolicy::Threads(4).workers(3), 3);
        assert_eq!(ExecPolicy::Threads(0).workers(10), 1);
        assert_eq!(ExecPolicy::Threads(8).workers(0), 1);
    }

    #[test]
    fn chunk_len_covers_all_items() {
        for items in 0..50 {
            for workers in 1..10 {
                let chunk = chunk_len(items, workers);
                assert!(chunk >= 1);
                // chunks of this size cover `items` with at most `workers`
                // chunks.
                assert!(chunk * workers >= items, "{items} items, {workers} workers");
            }
        }
    }

    #[test]
    fn fill_slice_matches_sequential_at_every_thread_count() {
        let expected: Vec<u64> = (0..97u64).map(|i| i * i + 1).collect();
        for threads in [1, 2, 3, 7, 16, 200] {
            let mut out = vec![0u64; 97];
            let scratches = fill_slice(
                &mut out,
                ExecPolicy::Threads(threads),
                &NoopRecorder,
                "",
                || 0u64,
                |i, calls| {
                    *calls += 1;
                    (i as u64) * (i as u64) + 1
                },
            );
            assert_eq!(out, expected, "threads = {threads}");
            // Every item was processed exactly once across all workers.
            assert_eq!(scratches.iter().sum::<u64>(), 97, "threads = {threads}");
        }
    }

    #[test]
    fn fill_slice_pair_writes_both_outputs() {
        let mut a = vec![0usize; 23];
        let mut b = vec![0i64; 23];
        fill_slice_pair(
            &mut a,
            &mut b,
            ExecPolicy::Threads(5),
            &NoopRecorder,
            "",
            || (),
            |i, slot_a, slot_b, ()| {
                *slot_a = i + 1;
                *slot_b = -(i as i64);
            },
        );
        assert!(a.iter().enumerate().all(|(i, &v)| v == i + 1));
        assert!(b.iter().enumerate().all(|(i, &v)| v == -(i as i64)));
    }

    #[test]
    fn empty_outputs_are_fine() {
        let mut out: Vec<u32> = vec![];
        let scratches = fill_slice(
            &mut out,
            ExecPolicy::Threads(8),
            &NoopRecorder,
            "",
            || (),
            |_, ()| 0,
        );
        assert_eq!(scratches.len(), 1);
        let (mut a, mut b): (Vec<u32>, Vec<u32>) = (vec![], vec![]);
        fill_slice_pair(
            &mut a,
            &mut b,
            ExecPolicy::Threads(8),
            &NoopRecorder,
            "",
            || (),
            |_, _, _, ()| {},
        );
    }

    #[test]
    fn fill_chunks_hands_out_contiguous_chunks_covering_every_slot() {
        for threads in [1, 2, 3, 7, 200] {
            let (mut a, mut b) = (vec![0usize; 23], vec![0usize; 23]);
            let starts = fill_chunks(
                (&mut a[..], &mut b[..]),
                ExecPolicy::Threads(threads),
                &NoopRecorder,
                "",
                Vec::new,
                |start, (a, b): (&mut [usize], &mut [usize]), starts| {
                    starts.push((start, a.len()));
                    for (offset, (slot_a, slot_b)) in a.iter_mut().zip(b).enumerate() {
                        (*slot_a, *slot_b) = (start + offset, start);
                    }
                },
            );
            let starts: Vec<(usize, usize)> = starts.into_iter().flatten().collect();
            assert!(starts.len() <= ExecPolicy::Threads(threads).workers(23));
            assert_eq!(starts[0].0, 0);
            assert_eq!(starts.iter().map(|&(_, len)| len).sum::<usize>(), 23);
            assert!(starts.windows(2).all(|w| w[0].0 + w[0].1 == w[1].0));
            assert!(a.iter().enumerate().all(|(i, &v)| v == i), "{threads}");
            assert!(b
                .iter()
                .all(|&s| starts.iter().any(|&(start, _)| start == s)));
        }
    }

    /// Slots in groups of `width` that cut only between groups.
    struct Grouped<'a> {
        slots: &'a mut [usize],
        width: usize,
    }

    impl Slots for Grouped<'_> {
        fn len(&self) -> usize {
            self.slots.len()
        }

        fn split_at(self, mid: usize) -> (Self, Self) {
            let cut = mid.next_multiple_of(self.width).min(self.slots.len());
            let (head, tail) = self.slots.split_at_mut(cut);
            let width = self.width;
            (
                Grouped { slots: head, width },
                Grouped { slots: tail, width },
            )
        }
    }

    #[test]
    fn group_storage_keeps_groups_whole_and_the_chunk_count() {
        for (n, width) in [(23, 5), (30, 7), (12, 20), (40, 1)] {
            for threads in [1, 2, 3, 7] {
                let mut slots = vec![usize::MAX; n];
                let chunks = fill_chunks(
                    Grouped {
                        slots: &mut slots,
                        width,
                    },
                    ExecPolicy::Threads(threads),
                    &NoopRecorder,
                    "",
                    Vec::new,
                    |start, chunk: Grouped, seen| {
                        seen.push((start, chunk.slots.len()));
                        for (offset, slot) in chunk.slots.iter_mut().enumerate() {
                            *slot = start + offset;
                        }
                    },
                );
                let what = format!("n = {n}, width = {width}, threads = {threads}");
                let workers = ExecPolicy::Threads(threads).workers(n);
                assert_eq!(chunks.len(), n.div_ceil(chunk_len(n, workers)), "{what}");
                let seen: Vec<(usize, usize)> = chunks.into_iter().flatten().collect();
                assert!(seen.windows(2).all(|w| w[0].0 + w[0].1 == w[1].0), "{what}");
                let on_edges = seen
                    .iter()
                    .all(|&(start, _)| start % width == 0 || start == n);
                assert!(on_edges, "{what}");
                assert!(slots.iter().enumerate().all(|(i, &v)| v == i), "{what}");
            }
        }
    }

    #[test]
    fn scratch_is_reused_within_a_worker_chunk() {
        // With 2 workers over 10 items each worker sees 5 items; the scratch
        // counts how many items it served.
        let mut out = vec![0u32; 10];
        let scratches = fill_slice(
            &mut out,
            ExecPolicy::Threads(2),
            &NoopRecorder,
            "",
            || 0u32,
            |_, served| {
                *served += 1;
                *served
            },
        );
        assert_eq!(scratches, vec![5, 5]);
        // Items within a chunk saw the same scratch growing 1..=5.
        assert_eq!(out, vec![1, 2, 3, 4, 5, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn recorded_fill_matches_plain_fill_and_reports_chunks() {
        let expected: Vec<u64> = (0..41u64).map(|i| i * 3).collect();
        for (policy, chunks) in [(ExecPolicy::Threads(4), 4), (ExecPolicy::Sequential, 1)] {
            let metrics = MetricsRecorder::new();
            let mut out = vec![0u64; 41];
            fill_slice(
                &mut out,
                policy,
                &metrics,
                "exec.test",
                || (),
                |i, ()| (i as u64) * 3,
            );
            assert_eq!(out, expected);
            let snap = metrics.snapshot();
            // One chunk span and one item sample per worker, covering all
            // 41 items.
            let spans = snap.histogram("exec.test_us").expect("chunk spans");
            assert_eq!(spans.count(), chunks, "{policy:?}");
            let items = snap.histogram("exec.test.items").expect("chunk items");
            assert_eq!(items.sum(), 41, "{policy:?}");
        }
    }

    #[test]
    fn recorded_pair_fills_both_outputs_and_reports() {
        let metrics = MetricsRecorder::new();
        let mut a = vec![0usize; 10];
        let mut b = vec![0i64; 10];
        fill_slice_pair(
            &mut a,
            &mut b,
            ExecPolicy::Threads(2),
            &metrics,
            "exec.pair",
            || (),
            |i, slot_a, slot_b, ()| {
                *slot_a = i;
                *slot_b = i as i64 * 2;
            },
        );
        assert!(a.iter().enumerate().all(|(i, &v)| v == i));
        assert!(b.iter().enumerate().all(|(i, &v)| v == i as i64 * 2));
        let snap = metrics.snapshot();
        assert_eq!(snap.histogram("exec.pair.items").map(|h| h.sum()), Some(10));
        assert_eq!(snap.histogram("exec.pair_us").map(|h| h.count()), Some(2));
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn mismatched_pair_lengths_panic() {
        let mut a = vec![0u8; 3];
        let mut b = vec![0u8; 4];
        fill_slice_pair(
            &mut a,
            &mut b,
            ExecPolicy::Sequential,
            &NoopRecorder,
            "",
            || (),
            |_, _, _, ()| {},
        );
    }
}
