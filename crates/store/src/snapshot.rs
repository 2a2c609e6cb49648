//! The concurrent read path: immutable [`Snapshot`]s published by the
//! writer, cheap to clone, searched without any lock held.
//!
//! ## Shape
//!
//! A snapshot is the pair (frozen memtable view, `Arc`'d segment list).
//! The writer rebuilds it after **every** mutation and swaps it into a
//! shared slot; readers load the current `Arc<Snapshot>` (a read-lock held
//! only long enough to clone the `Arc`) and then run the entire query on
//! that frozen state. Seal and compaction do their expensive work — IVF
//! builds, file writes — on the writer's private state and only then swap,
//! so **writers never block readers**: the longest a reader can wait is
//! the nanoseconds of an `Arc` pointer swap.
//!
//! The memtable view is a *persistent* (structurally shared) operation
//! list: each insert/delete prepends one node, so publishing a new
//! snapshot is O(1) and older snapshots keep seeing exactly the rows they
//! were created with. Segments are immutable by construction; their only
//! mutation — tombstoning — is an atomic bitmap write that is safe (and
//! immediately visible) under concurrent readers.
//!
//! Memory reclamation is `Arc`-drop: a sealed-away memtable chain or a
//! compacted-away segment lives exactly as long as the last snapshot that
//! references it, then frees without any epoch or GC machinery.
//!
//! ## Parallel execution
//!
//! Two executors run every search: [`Snapshot::search_batch`] (a query
//! batch) and [`Snapshot::search_parallel`] (one query, segment-parallel);
//! [`Snapshot::search`] is the second on the calling thread under one seed
//! drawn from the caller's RNG. Both fan work out over the process-wide
//! persistent [`WorkerPool`] — threads are created once and parked
//! between calls, so a batch never pays thread startup (the cost that
//! made the first scoped-spawn implementation scale flat). Each thread
//! keeps a thread-local [`SearchScratch`] that is reused across
//! segments, queries *and* batches, preserving the allocation-free
//! steady state. Both executors take cancellation tokens polled at every
//! probed bucket, derive one RNG per (query, segment) task from a caller
//! seed, and merge segments in order, so the results are
//! **bit-identical for every thread count and every token** — neither
//! the scheduler nor a deadline can change an answer.

use crate::error::HealthReport;
use crate::error::HealthState;
use crate::memview::MemView;
use crate::observe::StoreMetrics;
use crate::pool::WorkerPool;
use crate::segment::Segment;
use rabitq_ivf::{CancelToken, RerankStrategy, SearchRequest, SearchResult, SearchScratch, TopK};
use rabitq_metrics::{Stage, StageNanos};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::{RefCell, UnsafeCell};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Nanoseconds since `t0`, saturated to `u64` (the stage-trace unit).
#[inline]
fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

thread_local! {
    /// Per-thread reusable scratch: pool workers are persistent, so this
    /// amortizes to zero allocations per query at steady state.
    static SCRATCH: RefCell<SearchScratch> = RefCell::new(SearchScratch::new());
}

/// Write-once result slots shared with pool workers. Disjointness is
/// guaranteed by the pool's item claiming: each index is handed to exactly
/// one task invocation, and the pool's completion barrier orders all
/// writes before the submitter reads.
struct ResultSlots<T>(Vec<UnsafeCell<Option<T>>>);

// SAFETY: see above — indices are written by their unique claimant only.
unsafe impl<T: Send> Sync for ResultSlots<T> {}

impl<T> ResultSlots<T> {
    fn new(n: usize) -> Self {
        Self((0..n).map(|_| UnsafeCell::new(None)).collect())
    }

    /// # Safety
    /// Must be called at most once per index, with no concurrent access
    /// to the same index.
    unsafe fn put(&self, i: usize, value: T) {
        *self.0[i].get() = Some(value);
    }

    fn into_results(self) -> Vec<T> {
        self.0
            .into_iter()
            .map(|c| c.into_inner().expect("every slot filled"))
            .collect()
    }
}

/// Thread-count and determinism knobs for the parallel search paths.
#[derive(Clone, Copy, Debug)]
pub struct ParallelOptions {
    /// Worker threads (clamped to the available work; `0` and `1` both
    /// mean serial).
    pub threads: usize,
    /// Seed from which every (query, segment) task RNG is derived. Two
    /// runs with the same seed return bit-identical results regardless of
    /// `threads`.
    pub seed: u64,
}

impl Default for ParallelOptions {
    fn default() -> Self {
        Self {
            threads: 1,
            seed: 0x5EED_FA17,
        }
    }
}

impl ParallelOptions {
    /// Serial execution with the default seed.
    pub fn serial() -> Self {
        Self::default()
    }

    /// `threads` workers with the default seed.
    pub fn threaded(threads: usize) -> Self {
        Self {
            threads,
            ..Self::default()
        }
    }
}

/// How one query of an executor call ended: with a result, or
/// abandoned at a cancellation checkpoint. Cancellation is per query —
/// one expired deadline never poisons its batchmates, whose outcomes
/// (and bits) are identical to an all-healthy batch thanks to the
/// per-(query, segment) RNG seeding.
#[derive(Debug)]
pub enum SearchOutcome {
    /// The query ran to completion.
    Done(SearchResult),
    /// The query's token cancelled mid-scan; partial candidates were
    /// discarded (never returned).
    Cancelled,
}

impl SearchOutcome {
    /// Whether this query was abandoned.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, SearchOutcome::Cancelled)
    }

    /// The completed result, if any.
    pub fn into_result(self) -> Option<SearchResult> {
        match self {
            SearchOutcome::Done(res) => Some(res),
            SearchOutcome::Cancelled => None,
        }
    }
}

/// An immutable, searchable view of a collection at one instant.
pub struct Snapshot {
    dim: usize,
    memtable: MemView,
    segments: Vec<Arc<Segment>>,
}

/// The SplitMix64-style finalizer deriving one task seed per
/// (query, segment) pair. Execution order and thread placement therefore
/// cannot change any RNG stream.
fn task_seed(seed: u64, query: usize, segment: usize) -> u64 {
    let mut z = seed
        ^ (query as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (segment as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One query of an executor call: the query row, its index in the batch
/// and the call's seed (together they derive every segment's RNG), and the
/// request each segment scan runs.
struct Task<'a> {
    query: &'a [f32],
    qi: usize,
    seed: u64,
    req: SearchRequest<'a>,
}

impl Snapshot {
    pub(crate) fn new(dim: usize, memtable: MemView, segments: Vec<Arc<Segment>>) -> Self {
        Self {
            dim,
            memtable,
            segments,
        }
    }

    /// Vector dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Live vectors across the frozen memtable view and all segments.
    pub fn len(&self) -> usize {
        self.memtable.len() + self.segments.iter().map(|s| s.n_live()).sum::<usize>()
    }

    /// Whether no live vectors exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of sealed segments in this view.
    #[inline]
    pub fn n_segments(&self) -> usize {
        self.segments.len()
    }

    /// Rows visible in the frozen memtable view.
    #[inline]
    pub fn memtable_len(&self) -> usize {
        self.memtable.len()
    }

    /// Serial search with a caller-provided RNG — the
    /// [`crate::Collection::search`] contract: exact squared distances,
    /// ascending. Draws one `u64` seed from `rng` and runs the seeded
    /// executor on the calling thread, so the answer equals
    /// [`Snapshot::search_parallel`] under that seed at any thread count.
    pub fn search<R: Rng + ?Sized>(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
        rng: &mut R,
    ) -> SearchResult {
        let opts = ParallelOptions {
            threads: 1,
            seed: rng.next_u64(),
        };
        self.search_parallel(query, k, nprobe, opts, &CancelToken::none())
            .into_result()
            .expect("a never-cancelling token cannot cancel")
    }

    /// One query, segments scanned **in parallel** by the persistent
    /// worker pool (serially on the calling thread when `opts.threads`
    /// ≤ 1). Per-segment results are merged in segment order, so the
    /// answer is bit-identical for every `opts.threads`.
    ///
    /// Every segment scan polls `cancel` at its probed-bucket boundaries;
    /// a single query is all-or-nothing, so one abandoned segment makes
    /// the whole query [`SearchOutcome::Cancelled`]. A completed query is
    /// bit-identical for every token.
    pub fn search_parallel(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
        opts: ParallelOptions,
        cancel: &CancelToken,
    ) -> SearchOutcome {
        assert_eq!(query.len(), self.dim, "query dimensionality");
        let task = Task {
            query,
            qi: 0,
            seed: opts.seed,
            req: SearchRequest {
                k,
                nprobe,
                strategy: RerankStrategy::ErrorBound,
                cancel,
            },
        };
        let n_segments = self.segments.len();
        let threads = opts.threads.max(1).min(n_segments);
        if threads <= 1 {
            return SCRATCH.with(|s| self.fan_out(&task, &mut s.borrow_mut()));
        }
        let slots = ResultSlots::new(n_segments);
        WorkerPool::global().run(n_segments, threads - 1, |si| {
            let res = SCRATCH.with(|s| {
                let mut scratch = s.borrow_mut();
                let (n_estimated, n_reranked) = self.search_segment(si, &task, &mut scratch)?;
                Some(SearchResult {
                    neighbors: scratch.neighbors.clone(),
                    n_estimated,
                    n_reranked,
                    stages: scratch.stages,
                })
            });
            // SAFETY: the pool claims each `si` exactly once.
            unsafe { slots.put(si, res) };
        });
        let per_segment = slots.into_results();
        self.merge(&task, |si, top| {
            let res = per_segment[si].as_ref()?;
            for &(id, dist) in &res.neighbors {
                top.push(id, dist);
            }
            Some((res.stages, res.n_estimated, res.n_reranked))
        })
    }

    /// Batch search: `queries` is a flat `n × dim` buffer and `tokens[qi]`
    /// guards query `qi` alone; returns one [`SearchOutcome`] per query,
    /// in query order. Queries are claimed dynamically by up to
    /// `opts.threads` participants of the persistent [`WorkerPool`]
    /// (submitter included), each reusing its thread-local
    /// [`SearchScratch`] across all queries, segments, and batches — the
    /// allocation-free path without per-call thread startup.
    ///
    /// A query whose token cancels (deadline passed, client gone) bails at
    /// the next probed-bucket or segment boundary; its batchmates are
    /// untouched. Every (query, segment) task derives its own RNG and
    /// segments merge in order, so results are bit-identical for every
    /// thread count and every token.
    pub fn search_batch(
        &self,
        queries: &[f32],
        k: usize,
        nprobe: usize,
        opts: ParallelOptions,
        tokens: &[CancelToken],
    ) -> Vec<SearchOutcome> {
        assert!(
            queries.len().is_multiple_of(self.dim),
            "queries buffer must be n × dim"
        );
        let n = queries.len() / self.dim;
        assert_eq!(tokens.len(), n, "one token per query");
        let run = |qi: usize| {
            let task = Task {
                query: &queries[qi * self.dim..(qi + 1) * self.dim],
                qi,
                seed: opts.seed,
                req: SearchRequest {
                    k,
                    nprobe,
                    strategy: RerankStrategy::ErrorBound,
                    cancel: &tokens[qi],
                },
            };
            SCRATCH.with(|s| self.fan_out(&task, &mut s.borrow_mut()))
        };
        let threads = opts.threads.max(1).min(n);
        if threads <= 1 {
            return (0..n).map(run).collect();
        }
        let slots = ResultSlots::new(n);
        WorkerPool::global().run(n, threads - 1, |qi| {
            // SAFETY: the pool claims each `qi` exactly once.
            unsafe { slots.put(qi, run(qi)) };
        });
        slots.into_results()
    }

    /// The per-query fan-out on one thread: every segment scanned in turn
    /// through `scratch`, its hits folded straight into the merge — no
    /// per-segment allocation.
    fn fan_out(&self, task: &Task, scratch: &mut SearchScratch) -> SearchOutcome {
        self.merge(task, |si, top| {
            let (n_estimated, n_reranked) = self.search_segment(si, task, scratch)?;
            for &(id, dist) in &scratch.neighbors {
                top.push(id, dist);
            }
            Some((scratch.stages, n_estimated, n_reranked))
        })
    }

    /// The per-segment task: scans segment `si` for `task` under the
    /// RNG derived from its (query, segment) seed. `None` means the token
    /// cancelled mid-scan.
    fn search_segment(
        &self,
        si: usize,
        task: &Task,
        scratch: &mut SearchScratch,
    ) -> Option<(usize, usize)> {
        let mut rng = StdRng::seed_from_u64(task_seed(task.seed, task.qi, si));
        self.segments[si].search(task.query, &task.req, scratch, &mut rng)
    }

    /// Merges one query's hits in the order every executor shares — the
    /// memtable scan first, then segments in segment order — so where a
    /// segment scan ran can never change the answer. `segment(si, top)`
    /// pushes segment `si`'s hits into `top` and returns its stage trace
    /// and `(n_estimated, n_reranked)`, or `None` to abandon the query.
    /// The token is polled once before the memtable scan.
    fn merge(
        &self,
        task: &Task,
        mut segment: impl FnMut(usize, &mut TopK) -> Option<(StageNanos, usize, usize)>,
    ) -> SearchOutcome {
        let mut top = TopK::new(task.req.k);
        let mut stages = StageNanos::new();
        let mut n_estimated = 0usize;
        let mut n_reranked = 0usize;
        if task.req.k > 0 {
            if task.req.cancel.is_cancelled() {
                return SearchOutcome::Cancelled;
            }
            let t0 = Instant::now();
            n_reranked += self.memtable.scan_into(task.query, &mut top);
            stages.add_ns(Stage::Rerank, ns_since(t0));
            for si in 0..self.segments.len() {
                let Some((seg_stages, e, r)) = segment(si, &mut top) else {
                    return SearchOutcome::Cancelled;
                };
                stages.merge(&seg_stages);
                n_estimated += e;
                n_reranked += r;
            }
        }
        let t0 = Instant::now();
        let neighbors = top.into_sorted();
        stages.add_ns(Stage::Merge, ns_since(t0));
        SearchOutcome::Done(SearchResult {
            neighbors,
            n_estimated,
            n_reranked,
            stages,
        })
    }
}

/// The shared slot a collection publishes snapshots through. Writers
/// replace the `Arc` under a write lock held for one pointer store;
/// readers clone it under a read lock held just as briefly.
pub(crate) struct SnapshotSlot {
    current: RwLock<Arc<Snapshot>>,
}

impl SnapshotSlot {
    pub(crate) fn new(snapshot: Snapshot) -> Self {
        Self {
            current: RwLock::new(Arc::new(snapshot)),
        }
    }

    pub(crate) fn load(&self) -> Arc<Snapshot> {
        self.current
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    pub(crate) fn store(&self, snapshot: Snapshot) {
        *self.current.write().unwrap_or_else(|e| e.into_inner()) = Arc::new(snapshot);
    }
}

/// A detached read handle: clones freely, lives independently of the
/// writer's `&mut Collection` borrow, and always observes the latest
/// published snapshot. This is how reader threads search concurrently
/// with insert/seal/compact.
#[derive(Clone)]
pub struct CollectionReader {
    pub(crate) slot: Arc<SnapshotSlot>,
    pub(crate) dim: usize,
    pub(crate) health: Arc<HealthState>,
    pub(crate) metrics: Arc<StoreMetrics>,
}

impl CollectionReader {
    /// Vector dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// A point-in-time copy of the collection's health flags (degraded /
    /// read-only / quarantined segments), shared live with the writer —
    /// the serving layer reads this without any writer lock.
    pub fn health(&self) -> HealthReport {
        self.health.report()
    }

    /// The collection's operational metrics and event journal — shared
    /// live with the writer, so the serving layer renders store counters
    /// (and pushes slow-query events) through this handle alone.
    pub fn metrics(&self) -> &Arc<StoreMetrics> {
        &self.metrics
    }

    /// The latest published snapshot (an `Arc` clone — O(1)).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.slot.load()
    }

    /// Live vectors in the latest snapshot (memtable + segments). The
    /// serving layer's `/stats` accessor — no writer lock involved.
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// Whether the latest snapshot holds no live vectors.
    pub fn is_empty(&self) -> bool {
        self.snapshot().is_empty()
    }

    /// Sealed segments in the latest snapshot.
    pub fn n_segments(&self) -> usize {
        self.snapshot().n_segments()
    }

    /// Rows visible in the latest snapshot's frozen memtable view.
    pub fn memtable_len(&self) -> usize {
        self.snapshot().memtable_len()
    }

    /// Serial search over the latest snapshot (the
    /// [`crate::Collection::search`] contract).
    pub fn search<R: Rng + ?Sized>(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
        rng: &mut R,
    ) -> SearchResult {
        self.snapshot().search(query, k, nprobe, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_seeds_are_distinct_across_queries_and_segments() {
        let mut seen = std::collections::HashSet::new();
        for qi in 0..50 {
            for si in 0..8 {
                assert!(
                    seen.insert(task_seed(42, qi, si)),
                    "collision at ({qi},{si})"
                );
            }
        }
        // And the derivation is pure: same inputs, same seed.
        assert_eq!(task_seed(7, 3, 1), task_seed(7, 3, 1));
        assert_ne!(task_seed(7, 3, 1), task_seed(8, 3, 1));
    }
}
