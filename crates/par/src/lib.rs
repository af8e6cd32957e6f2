#![warn(missing_docs)]
//! # mlcg-par — performance-portable parallel primitives
//!
//! This crate is the reproduction's substitute for the Kokkos programming
//! model used by the paper. It provides:
//!
//! - an [`ExecPolicy`] describing *where and how* a kernel runs: a serial
//!   backend, a `Host` backend (dynamic chunking, as on a multicore CPU),
//!   and a `DeviceSim` backend (flat fine-grained scheduling emulating a
//!   GPU's massively-threaded execution on CPU threads);
//! - parallel primitives over index ranges: [`parallel_for`],
//!   [`parallel_reduce`], [`scan::exclusive_scan`] and friends;
//! - safe disjoint writes into a slice ([`parallel_for_mut`],
//!   [`parallel_for_chunks_mut`], [`parallel_for_weighted_mut`]), so
//!   kernels fill per-index outputs without `unsafe`;
//! - parallel sorts ([`sort::par_radix_sort_pairs`], a bitonic sort used by
//!   the device-sim deduplication path) and a sort-based parallel random
//!   permutation ([`perm::random_permutation`]), mirroring the paper's
//!   `ParGenPerm`;
//! - deterministic, seedable RNG ([`rng::SplitMix64`], [`rng::Xoshiro256pp`]);
//! - safe atomic views over `&mut [u32]` / `&mut [u64]` slices
//!   ([`atomic::as_atomic_u32`]) so lock-free kernels such as the paper's
//!   Algorithm 4 can be written against plain buffers.
//!
//! All primitives take an explicit [`ExecPolicy`]; nothing consults global
//! mutable state except the lazily-created global worker pool, whose size can
//! be pinned with the `MLCG_THREADS` environment variable before first use.
//! The pool wakes workers through a spin-then-park broadcast path (workers
//! busy-poll an epoch word for a bounded window before parking on a
//! condvar), so sub-millisecond dispatches round-trip without syscalls when
//! the pool is hot; the window is tunable with `MLCG_SPIN_US` (`0` = always
//! park, the right setting for CI or oversubscribed machines). See
//! [`pool`] and DESIGN.md §2b.

pub mod atomic;
pub mod exec;
pub mod filter;
pub mod mem;
pub mod perm;
pub mod pool;
pub mod profile;
pub mod proplite;
pub mod reduce;
pub mod rng;
pub mod scan;
pub mod sort;
pub mod timer;
pub mod trace;

pub use exec::{Backend, ExecPolicy};
pub use pool::ThreadPool;
pub use profile::{DispatchRecord, WorkerLane};
pub use reduce::{
    parallel_count, parallel_reduce, parallel_reduce_max, parallel_reduce_min, parallel_reduce_sum,
};
pub use timer::Timer;
pub use trace::{TraceCollector, TraceConfig, TraceReport};

/// Workspace-wide allocation-tracking allocator — every binary linking this
/// crate gets heap telemetry (see [`mem`]). The untraced cost is a handful
/// of relaxed atomics per allocation, gated in `bench_primitives`.
#[global_allocator]
static GLOBAL_ALLOC: mem::TrackingAllocator = mem::TrackingAllocator;

use std::ops::Range;

/// Run `f(i)` for every `i in 0..n` under the given execution policy.
///
/// The closure must be safe to call concurrently for distinct indices.
/// Iteration order is unspecified for parallel backends.
///
/// ```
/// use mlcg_par::{parallel_for, ExecPolicy};
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let total = AtomicU64::new(0);
/// parallel_for(&ExecPolicy::host(), 1000, |i| {
///     total.fetch_add(i as u64, Ordering::Relaxed);
/// });
/// assert_eq!(total.into_inner(), 999 * 1000 / 2);
/// ```
pub fn parallel_for<F>(policy: &ExecPolicy, n: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    parallel_for_chunks(policy, n, |r| {
        for i in r {
            f(i);
        }
    });
}

/// Run `f(range)` over disjoint chunks covering `0..n` under the policy.
///
/// This is the building block for all other primitives: the policy decides
/// chunk granularity and scheduling (dynamic claiming for `Host`, fine
/// interleaved claiming for `DeviceSim`, a single chunk for `Serial`).
pub fn parallel_for_chunks<F>(policy: &ExecPolicy, n: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    parallel_for_chunks_op(policy, n, "par_for", f);
}

/// Shared implementation behind [`parallel_for_chunks`] and
/// [`parallel_reduce`]: `op` tags the dispatch for the profiler (e.g.
/// `par_for`, `par_reduce`), composed with any [`profile::kernel`] labels
/// the caller pushed. With no profiling session installed, the extra cost
/// over the pre-profiler code is a single relaxed load and branch.
pub(crate) fn parallel_for_chunks_op<F>(policy: &ExecPolicy, n: usize, op: &'static str, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    if n == 0 {
        return;
    }
    let threads = policy.effective_threads(n);
    let chunk = policy.chunk_size(n, threads);
    let body = |_wid: usize, claim: &dyn Fn(usize) -> usize| loop {
        // Each participant claims chunks until the range is exhausted.
        let start = claim(chunk);
        if start >= n {
            break;
        }
        f(start..(start + chunk).min(n));
    };
    run_team(policy, threads, op, n, chunk, || f(0..n), &body);
}

/// The one dispatch decision behind every team primitive: run `inline` on
/// the calling thread, or `body` as each of `threads` pool participants.
///
/// Nested regions (inside a worker) run inline and fold into the parent
/// dispatch's busy time. A top-level region with a one-worker team runs
/// inline too, recorded under a profiling session as a one-lane dispatch
/// so small-corpus runs still report every kernel. Otherwise the pool runs
/// `body`, observed by the session if one is installed; `units` and
/// `chunk` describe the claim loop to the profiler, and `op` tags it.
/// Returns `inline`'s result, or `None` when the pool ran the region.
fn run_team<R>(
    policy: &ExecPolicy,
    threads: usize,
    op: &'static str,
    units: usize,
    chunk: usize,
    inline: impl FnOnce() -> R,
    body: &pool::JobFn<'_>,
) -> Option<R> {
    if pool::in_worker() {
        return Some(inline());
    }
    let session = profile::session();
    if threads <= 1 {
        return Some(match session {
            None => inline(),
            Some(s) => s.run_inline(op, units, inline),
        });
    }
    match session {
        None => pool::global().dispatch(threads, body),
        Some(s) => s.run_dispatch(op, policy.backend.name(), units, chunk, threads, body),
    }
    None
}

/// Fold disjoint chunks of `0..n` into **per-participant** accumulators
/// and return them for the caller to merge.
///
/// This is the contention-free counterpart of atomic histogramming: each
/// team member creates one accumulator with `init` (typically a dense
/// count array) and folds every chunk it claims into it, so the hot loop
/// touches only thread-private memory. The caller merges the returned
/// accumulators — usually with a [`parallel_for`] over the histogram
/// domain. Unlike [`parallel_reduce`], which materializes one partial per
/// *chunk*, this creates one accumulator per *participant* — the right
/// shape when the accumulator itself is large (an `n_coarse`-sized count
/// array must not be reallocated per chunk).
///
/// `init` runs on the participant's own thread (so allocations land
/// there) and may be called for a participant that ends up claiming no
/// chunks; such untouched accumulators are still returned. The fold order
/// of chunks within an accumulator and the order of accumulators in the
/// result are unspecified — merges must be commutative for deterministic
/// output (integer sums are).
///
/// Under the profiler the dispatch is tagged `par_for`, composing with
/// any [`profile::kernel`] labels the caller pushed.
///
/// ```
/// use mlcg_par::{parallel_fold_chunks, ExecPolicy};
///
/// // Histogram of i % 5 without atomics.
/// let parts = parallel_fold_chunks(
///     &ExecPolicy::host(),
///     10_000,
///     || vec![0u32; 5],
///     |h, r| {
///         for i in r {
///             h[i % 5] += 1;
///         }
///     },
/// );
/// let mut total = vec![0u32; 5];
/// for p in parts {
///     for (t, v) in total.iter_mut().zip(p) {
///         *t += v;
///     }
/// }
/// assert_eq!(total, vec![2000; 5]);
/// ```
pub fn parallel_fold_chunks<S, I, F>(policy: &ExecPolicy, n: usize, init: I, fold: F) -> Vec<S>
where
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, Range<usize>) + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let threads = policy.effective_threads(n);
    let chunk = policy.chunk_size(n, threads);
    let out = std::sync::Mutex::new(Vec::with_capacity(threads));
    let body = |_wid: usize, claim: &dyn Fn(usize) -> usize| {
        let mut s = init();
        loop {
            let start = claim(chunk);
            if start >= n {
                break;
            }
            fold(&mut s, start..(start + chunk).min(n));
        }
        out.lock().unwrap().push(s);
    };
    let inline = || {
        let mut s = init();
        fold(&mut s, 0..n);
        s
    };
    match run_team(policy, threads, "par_for", n, chunk, inline, &body) {
        Some(s) => vec![s],
        None => out.into_inner().unwrap(),
    }
}

/// Run `f(i)` for every `i in 0..k` where each index is a *large*
/// independent task, sizing the worker team by `items` — the amount of
/// underlying work — rather than by the tiny task count.
///
/// The stitch/merge passes of sharded kernels iterate over a handful of
/// per-worker partial results that each cover many elements; routing them
/// through [`parallel_for`] would size the team by `k` and run the whole
/// loop inline. Indices are claimed one at a time for dynamic balancing.
/// Under the profiler the dispatch is tagged `par_for` (it is the same
/// index-space shape, just weighted), composing with any
/// [`profile::kernel`] labels.
pub fn parallel_for_weighted<F>(policy: &ExecPolicy, items: usize, k: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    parallel_for_weighted_op(policy, items, k, "par_for", f);
}

/// [`parallel_for_weighted`] under the profiler tag `op`: the blocked
/// kernels (scan, radix sort) tag their fixed-block loops `par_blocks`.
pub(crate) fn parallel_for_weighted_op<F>(
    policy: &ExecPolicy,
    items: usize,
    k: usize,
    op: &'static str,
    f: F,
) where
    F: Fn(usize) + Sync,
{
    if k == 0 {
        return;
    }
    let threads = policy.effective_threads(items).min(k);
    let body = |_wid: usize, claim: &dyn Fn(usize) -> usize| loop {
        let i = claim(1);
        if i >= k {
            break;
        }
        f(i);
    };
    let inline = || (0..k).for_each(&f);
    run_team(policy, threads, op, k, 1, inline, &body);
}

/// An exclusively borrowed slice that one dispatch's participants share,
/// each taking only the disjoint index ranges it claimed — the one place
/// the substrate turns a claim into a `&mut`.
struct Disjoint<'a, T> {
    ptr: *mut T,
    len: usize,
    _borrow: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: shared threads only read `ptr` and `len`, which never change,
// and reach the elements only through `range`, whose contract gives each
// `&mut` view to one thread at a time: sound when `T` may move between
// threads, hence `T: Send`.
unsafe impl<T: Send> Sync for Disjoint<'_, T> {}

impl<'a, T> Disjoint<'a, T> {
    fn new(s: &'a mut [T]) -> Self {
        Self {
            ptr: s.as_mut_ptr(),
            len: s.len(),
            _borrow: std::marker::PhantomData,
        }
    }

    /// The view of `r`.
    ///
    /// # Safety
    /// `r` must lie within the slice, and no other live view may overlap
    /// it.
    #[allow(clippy::mut_from_ref)]
    unsafe fn range(&self, r: Range<usize>) -> &mut [T] {
        debug_assert!(r.start <= r.end && r.end <= self.len);
        // SAFETY: in bounds and unaliased by the caller's contract; the
        // borrow `'a` keeps the slice alive and otherwise unused.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(r.start), r.len()) }
    }
}

/// Run `f(range, &mut out[range])` over disjoint chunks covering `out`,
/// chunked like [`parallel_for_chunks`] — the per-chunk form of the safe
/// disjoint write, for kernels that keep scratch per chunk (SpGEMM's
/// symbolic marker).
///
/// ```
/// use mlcg_par::{parallel_for_chunks_mut, ExecPolicy};
///
/// let mut squares = vec![0u64; 1000];
/// parallel_for_chunks_mut(&ExecPolicy::host(), &mut squares, |r, out| {
///     for (i, x) in r.zip(out) {
///         *x = (i * i) as u64;
///     }
/// });
/// assert_eq!(squares[31], 961);
/// ```
pub fn parallel_for_chunks_mut<T, F>(policy: &ExecPolicy, out: &mut [T], f: F)
where
    T: Send,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    let n = out.len();
    let out = Disjoint::new(out);
    parallel_for_chunks(policy, n, |r| {
        // SAFETY: the chunks of one dispatch are disjoint.
        f(r.clone(), unsafe { out.range(r) })
    });
}

/// Run `f(i, &mut out[i])` for every index of `out`, chunked like
/// [`parallel_for`] — the per-index form of the safe disjoint write that
/// replaces hand-rolled `unsafe` pointer writes in per-vertex kernels.
///
/// ```
/// use mlcg_par::{parallel_for_mut, ExecPolicy};
///
/// let mut ids = vec![0u32; 1000];
/// parallel_for_mut(&ExecPolicy::host(), &mut ids, |i, x| *x = i as u32);
/// assert!(ids.iter().enumerate().all(|(i, &x)| x == i as u32));
/// ```
pub fn parallel_for_mut<T, F>(policy: &ExecPolicy, out: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    parallel_for_chunks_mut(policy, out, |r, chunk| {
        for (i, x) in r.zip(chunk) {
            f(i, x);
        }
    });
}

/// Run `f(i, &mut items[i])` for every index, one claim per item, sizing
/// the team by `work` (the underlying element count) like
/// [`parallel_for_weighted`] — the form for a few large items such as
/// per-block histogram rows or per-task output runs.
pub fn parallel_for_weighted_mut<T, F>(policy: &ExecPolicy, work: usize, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    parallel_for_weighted_mut_op(policy, work, items, "par_for", f);
}

/// [`parallel_for_weighted_mut`] under the profiler tag `op`.
pub(crate) fn parallel_for_weighted_mut_op<T, F>(
    policy: &ExecPolicy,
    work: usize,
    items: &mut [T],
    op: &'static str,
    f: F,
) where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let k = items.len();
    let items = Disjoint::new(items);
    parallel_for_weighted_op(policy, work, k, op, |i| {
        // SAFETY: every index is claimed exactly once per dispatch.
        f(i, unsafe { &mut items.range(i..i + 1)[0] })
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn for_visits_every_index_once() {
        for policy in ExecPolicy::all_test_policies() {
            let n = 10_007;
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            parallel_for(&policy, n, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "policy {policy:?} missed or duplicated an index"
            );
        }
    }

    #[test]
    fn for_zero_len_is_noop() {
        for policy in ExecPolicy::all_test_policies() {
            parallel_for(&policy, 0, |_| panic!("must not be called"));
        }
    }

    #[test]
    fn chunks_cover_range_disjointly() {
        for policy in ExecPolicy::all_test_policies() {
            let n = 65_537;
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            parallel_for_chunks(&policy, n, |r| {
                for i in r {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    /// Run each safe disjoint-write form over fresh `(hits, index)` slots
    /// and check every slot was written exactly once, by its own index.
    fn check_disjoint_writes(policy: &ExecPolicy) {
        let once = |v: &[(u32, usize)], form: &str| {
            assert!(
                v.iter()
                    .enumerate()
                    .all(|(i, &(hits, at))| hits == 1 && at == i),
                "{form} under {policy:?} missed or duplicated a slot"
            );
        };
        let fresh = |n: usize| vec![(0u32, usize::MAX); n];

        let mut v = fresh(12_345);
        parallel_for_mut(policy, &mut v, |i, x| *x = (x.0 + 1, i));
        once(&v, "parallel_for_mut");

        let mut v = fresh(12_345);
        parallel_for_chunks_mut(policy, &mut v, |r, out| {
            assert_eq!(r.len(), out.len());
            for (i, x) in r.zip(out) {
                *x = (x.0 + 1, i);
            }
        });
        once(&v, "parallel_for_chunks_mut");

        // A few items over much work: a real team under every policy.
        let mut v = fresh(13);
        parallel_for_weighted_mut(policy, 1 << 16, &mut v, |i, x| *x = (x.0 + 1, i));
        once(&v, "parallel_for_weighted_mut");

        parallel_for_mut(policy, &mut [0u8; 0], |_, _| panic!("must not be called"));
    }

    #[test]
    fn disjoint_writes_touch_every_slot_once() {
        for policy in ExecPolicy::all_test_policies() {
            check_disjoint_writes(&policy);
        }
    }

    #[test]
    fn disjoint_writes_inside_a_worker_touch_every_slot_once() {
        let outer = ExecPolicy {
            backend: Backend::Host,
            threads: 4,
            grain: 1,
        };
        let ran = AtomicUsize::new(0);
        parallel_for(&outer, 8, |_| {
            assert!(pool::in_worker());
            for policy in ExecPolicy::all_test_policies() {
                check_disjoint_writes(&policy);
            }
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn fold_chunks_histograms_exactly() {
        for policy in ExecPolicy::all_test_policies() {
            let n = 40_123;
            let parts = parallel_fold_chunks(
                &policy,
                n,
                || vec![0u64; 7],
                |h, r| {
                    for i in r {
                        h[i % 7] += 1;
                    }
                },
            );
            let mut total = vec![0u64; 7];
            for p in &parts {
                for (t, v) in total.iter_mut().zip(p) {
                    *t += v;
                }
            }
            let expect: Vec<u64> = (0..7).map(|k| ((n - k - 1) / 7 + 1) as u64).collect();
            assert_eq!(total, expect, "policy {policy:?}");
        }
    }

    #[test]
    fn fold_chunks_zero_len_returns_nothing() {
        for policy in ExecPolicy::all_test_policies() {
            let parts =
                parallel_fold_chunks(&policy, 0, || 0u32, |_, _| panic!("must not be called"));
            assert!(parts.is_empty());
        }
    }

    #[test]
    fn fold_chunks_nested_runs_inline() {
        let policy = ExecPolicy::host();
        let total = AtomicUsize::new(0);
        parallel_for(&policy, 16, |_| {
            let parts = parallel_fold_chunks(&policy, 100, || 0usize, |s, r| *s += r.len());
            assert_eq!(parts.iter().sum::<usize>(), 100);
            total.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn for_weighted_visits_every_index_once() {
        for policy in ExecPolicy::all_test_policies() {
            let k = 13;
            let hits: Vec<AtomicUsize> = (0..k).map(|_| AtomicUsize::new(0)).collect();
            // items large enough to engage a real team under every policy.
            parallel_for_weighted(&policy, 1 << 16, k, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn nested_parallel_for_runs_inline() {
        let policy = ExecPolicy::host();
        let total = AtomicUsize::new(0);
        parallel_for(&policy, 64, |_| {
            // A nested call from within a worker must not deadlock.
            parallel_for(&policy, 8, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 64 * 8);
    }
}
