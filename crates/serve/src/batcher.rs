//! The batching queue: concurrent search requests are coalesced into
//! `Snapshot::search_batch` calls, with admission control in front.
//!
//! ## Shape
//!
//! Connection workers call [`Batcher::submit`], which enqueues the query
//! into a **bounded** queue and blocks on a per-request response slot. A
//! dedicated batch worker drains up to `max_batch` requests at a time —
//! waiting up to `linger` for stragglers when the queue is shallower than
//! a full batch — groups them by `(k, nprobe)`, and executes each group
//! as **one** `search_batch` call over the persistent store worker pool
//! (thread-local `QueryScratch`/`SearchScratch` reuse, zero steady-state
//! allocations).
//!
//! ## Backpressure invariants
//!
//! * The queue never holds more than `queue_depth` requests: admission is
//!   checked under the queue lock, and overflow is answered immediately
//!   with [`SubmitError::Overloaded`] (HTTP `429`) — queue memory and
//!   queueing delay are both bounded by configuration, never by load.
//! * After [`Batcher::initiate_shutdown`], new submissions fail fast with
//!   [`SubmitError::ShuttingDown`] (HTTP `503`), but everything already
//!   admitted **is still executed and answered**: the shutdown flag and
//!   the queue live under one mutex, so a request is either rejected or
//!   fully served — never silently dropped.
//! * A panic while executing a batch is confined to that batch: it is
//!   caught, every slot in the batch is answered with
//!   [`SubmitError::Failed`] (HTTP `500`), and the worker keeps serving.
//!   Should the worker thread die anyway, a drop guard answers every
//!   queued request with `Failed` and flags the worker dead so later
//!   submissions fail fast — a submitter never blocks on a worker that
//!   can no longer answer.
//!
//! ## Deadlines
//!
//! A submission may carry a deadline (stamped by the router at
//! admission). Expired entries are answered [`SubmitError::Expired`]
//! (HTTP `504`) **before** dispatch — queue time counts against the
//! deadline, and a request nobody is waiting for never spends a batch
//! slot. Entries whose deadline passes mid-scan are cooperatively
//! cancelled inside `search_batch` at per-probe checkpoints;
//! cancellation is per-query, so an expired request never perturbs its
//! batchmates (their results stay bit-identical to an all-healthy run).

use crate::metrics::ServerMetrics;
use rabitq_ivf::SearchResult;
use rabitq_store::{CancelToken, CollectionReader, ParallelOptions, SearchOutcome};
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Tuning for one collection's batcher.
#[derive(Clone, Debug)]
pub struct BatchConfig {
    /// Most searches coalesced into one `search_batch` call.
    pub max_batch: usize,
    /// How long to wait for a fuller batch once at least one request is
    /// queued. Zero disables lingering.
    pub linger: Duration,
    /// Admission bound: queued-but-unexecuted requests beyond this are
    /// shed with `429`.
    pub queue_depth: usize,
    /// Thread budget handed to `search_batch` per executed batch.
    pub search_threads: usize,
    /// Seed for the deterministic per-(query, segment) RNG derivation.
    pub seed: u64,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            max_batch: 64,
            linger: Duration::from_micros(100),
            queue_depth: 256,
            search_threads: std::thread::available_parallelism().map_or(2, |p| p.get()),
            seed: 0xBA7C_4ED5,
        }
    }
}

/// Why a submission was rejected or failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// Admission queue is at `queue_depth` — shed, retry later (`429`).
    Overloaded,
    /// The server is draining for shutdown (`503`).
    ShuttingDown,
    /// Batch execution panicked, or the batch worker died (`500`). The
    /// request was admitted but could not be answered with a result.
    Failed,
    /// The request's deadline passed before a result was produced
    /// (`504`) — at admission, while queued, or mid-scan.
    Expired,
}

/// One admitted search waiting for its batch.
struct Pending {
    query: Vec<f32>,
    k: usize,
    nprobe: usize,
    /// Trips when the request's deadline passes; checked before dispatch
    /// and at every scan checkpoint.
    token: CancelToken,
    slot: Arc<Slot>,
}

/// The rendezvous a submitter blocks on.
struct Slot {
    result: Mutex<Option<Result<SearchResult, SubmitError>>>,
    ready: Condvar,
}

impl Slot {
    /// Fills the slot (first write wins) and wakes the submitter.
    fn answer(&self, value: Result<SearchResult, SubmitError>) {
        let mut guard = self.result.lock().unwrap_or_else(|e| e.into_inner());
        if guard.is_none() {
            *guard = Some(value);
            self.ready.notify_one();
        }
    }

    /// Whether the slot is still waiting for an answer.
    fn is_empty(&self) -> bool {
        self.result
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_none()
    }
}

struct State {
    queue: VecDeque<Pending>,
    shutdown: bool,
    /// The batch worker exited (normally or by panic); nothing will drain
    /// the queue anymore.
    worker_dead: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Wakes the batch worker (new work or shutdown).
    work: Condvar,
    config: BatchConfig,
    reader: CollectionReader,
    metrics: Arc<ServerMetrics>,
}

/// The per-collection coalescing engine. Dropping without
/// [`Batcher::shutdown`] also drains cleanly.
pub struct Batcher {
    shared: Arc<Shared>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl Batcher {
    /// Starts the batch worker for `reader`.
    pub fn start(
        reader: CollectionReader,
        config: BatchConfig,
        metrics: Arc<ServerMetrics>,
    ) -> Self {
        assert!(config.max_batch > 0, "max_batch must be positive");
        assert!(config.queue_depth > 0, "queue_depth must be positive");
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                shutdown: false,
                worker_dead: false,
            }),
            work: Condvar::new(),
            config,
            reader,
            metrics,
        });
        let worker = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("rabitq-batcher".into())
                .spawn(move || batch_loop(&shared))
                .expect("spawn batch worker")
        };
        Self {
            shared,
            worker: Some(worker),
        }
    }

    /// Submits one search and blocks until its batch executes. Fails fast
    /// (without blocking) when the queue is full, shutdown has begun, or
    /// `deadline` has already passed.
    pub fn submit(
        &self,
        query: Vec<f32>,
        k: usize,
        nprobe: usize,
        deadline: Option<Instant>,
    ) -> Result<SearchResult, SubmitError> {
        let token = deadline.map_or_else(CancelToken::none, CancelToken::with_deadline);
        if token.is_cancelled() {
            self.shared
                .metrics
                .expired_in_queue
                .fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Expired);
        }
        let slot = Arc::new(Slot {
            result: Mutex::new(None),
            ready: Condvar::new(),
        });
        {
            let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            if state.shutdown {
                return Err(SubmitError::ShuttingDown);
            }
            if state.worker_dead {
                return Err(SubmitError::Failed);
            }
            if state.queue.len() >= self.shared.config.queue_depth {
                return Err(SubmitError::Overloaded);
            }
            state.queue.push_back(Pending {
                query,
                k,
                nprobe,
                token,
                slot: slot.clone(),
            });
        }
        self.shared.work.notify_one();

        let mut result = slot.result.lock().unwrap_or_else(|e| e.into_inner());
        while result.is_none() {
            result = slot.ready.wait(result).unwrap_or_else(|e| e.into_inner());
        }
        result.take().expect("slot filled")
    }

    /// Requests queued right now (test/stats hook).
    pub fn queue_len(&self) -> usize {
        self.shared
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .queue
            .len()
    }

    /// Flags shutdown: subsequent submissions are rejected, everything
    /// already admitted still executes. Does not block.
    pub fn initiate_shutdown(&self) {
        let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        state.shutdown = true;
        drop(state);
        self.shared.work.notify_all();
    }

    /// Initiates shutdown and joins the batch worker after it drains the
    /// queue.
    pub fn shutdown(mut self) {
        self.initiate_shutdown();
        if let Some(worker) = self.worker.take() {
            worker.join().ok();
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.initiate_shutdown();
        if let Some(worker) = self.worker.take() {
            worker.join().ok();
        }
    }
}

/// Answers every queued request with `Failed` and flags the worker dead
/// when the batch worker exits — by clean shutdown (queue already empty)
/// or by a panic that escaped the per-batch isolation. Without this, a
/// submitter blocked on its slot would wait forever.
struct DeadWorkerGuard<'a>(&'a Shared);

impl Drop for DeadWorkerGuard<'_> {
    fn drop(&mut self) {
        let mut state = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
        state.worker_dead = true;
        let orphans: Vec<Pending> = state.queue.drain(..).collect();
        drop(state);
        for p in orphans {
            p.slot.answer(Err(SubmitError::Failed));
        }
    }
}

/// The batch worker: drain → linger → group → execute, until shutdown
/// with an empty queue.
fn batch_loop(shared: &Shared) {
    let _guard = DeadWorkerGuard(shared);
    let config = &shared.config;
    let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        // Wait for work (or shutdown).
        while state.queue.is_empty() && !state.shutdown {
            state = shared.work.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        if state.queue.is_empty() && state.shutdown {
            return;
        }

        // Linger for a fuller batch — but never during shutdown, and only
        // while the batch is not already full.
        if !state.shutdown && !config.linger.is_zero() && state.queue.len() < config.max_batch {
            let deadline = Instant::now() + config.linger;
            while state.queue.len() < config.max_batch && !state.shutdown {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    break;
                }
                let (next, timeout) = shared
                    .work
                    .wait_timeout(state, remaining)
                    .unwrap_or_else(|e| e.into_inner());
                state = next;
                if timeout.timed_out() {
                    break;
                }
            }
        }

        let take = state.queue.len().min(config.max_batch);
        let drained: Vec<Pending> = state.queue.drain(..take).collect();
        drop(state);

        // Queue time counted against the deadline: entries that expired
        // while waiting are answered 504 here, before dispatch, so no
        // scan work is spent on an answer nobody is waiting for.
        let (batch, expired): (Vec<Pending>, Vec<Pending>) =
            drained.into_iter().partition(|p| !p.token.is_cancelled());
        for p in &expired {
            shared
                .metrics
                .expired_in_queue
                .fetch_add(1, Ordering::Relaxed);
            p.slot.answer(Err(SubmitError::Expired));
        }

        // Panic isolation: a panic inside search execution (bad index
        // state, assertion in search_batch, …) must not kill the worker —
        // that would strand every queued and future submitter.
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| execute(shared, &batch)));
        if outcome.is_err() {
            eprintln!(
                "rabitq-batcher: batch of {} panicked; answering with Failed",
                batch.len()
            );
        }
        // Whatever happened — panic mid-batch or a result-count mismatch —
        // every slot gets answered; unfilled ones with `Failed`.
        for p in &batch {
            if p.slot.is_empty() {
                p.slot.answer(Err(SubmitError::Failed));
            }
        }

        state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
    }
}

/// Runs one drained batch: group by `(k, nprobe)`, one
/// `search_batch` per group, answer every slot. A query whose deadline
/// passes mid-scan comes back `Cancelled` and is answered `Expired`,
/// without perturbing its batchmates.
fn execute(shared: &Shared, batch: &[Pending]) {
    if batch.is_empty() {
        return;
    }
    shared.metrics.record_batch(batch.len());
    let dim = shared.reader.dim();
    let snapshot = shared.reader.snapshot();

    // Group indices by (k, nprobe); batches are small, linear scan is fine.
    let mut groups: Vec<((usize, usize), Vec<usize>)> = Vec::new();
    for (i, p) in batch.iter().enumerate() {
        let key = (p.k, p.nprobe);
        match groups.iter_mut().find(|(g, _)| *g == key) {
            Some((_, members)) => members.push(i),
            None => groups.push((key, vec![i])),
        }
    }

    for ((k, nprobe), members) in groups {
        let mut queries = Vec::with_capacity(members.len() * dim);
        let mut tokens = Vec::with_capacity(members.len());
        for &i in &members {
            queries.extend_from_slice(&batch[i].query);
            tokens.push(batch[i].token.clone());
        }
        let opts = ParallelOptions {
            threads: shared.config.search_threads,
            seed: shared.config.seed,
        };
        let outcomes = snapshot.search_batch(&queries, k, nprobe, opts, &tokens);
        for (&i, outcome) in members.iter().zip(outcomes) {
            match outcome {
                SearchOutcome::Done(result) => batch[i].slot.answer(Ok(result)),
                SearchOutcome::Cancelled => {
                    shared
                        .metrics
                        .cancelled_mid_scan
                        .fetch_add(1, Ordering::Relaxed);
                    batch[i].slot.answer(Err(SubmitError::Expired));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rabitq_store::{Collection, CollectionConfig};

    fn test_reader(
        dir: &std::path::Path,
        dim: usize,
        rows: usize,
    ) -> (Collection, CollectionReader) {
        std::fs::remove_dir_all(dir).ok();
        let mut config = CollectionConfig::new(dim);
        config.memtable_capacity = rows.max(2) / 2; // force at least one seal
        let mut collection = Collection::open(dir, config).unwrap();
        for i in 0..rows {
            let v: Vec<f32> = (0..dim).map(|d| (i * dim + d) as f32 * 0.01).collect();
            collection.insert(&v).unwrap();
        }
        let reader = collection.reader();
        (collection, reader)
    }

    #[test]
    fn coalesces_and_answers_every_request() {
        let dir = std::env::temp_dir().join(format!("batcher-basic-{}", std::process::id()));
        let (_collection, reader) = test_reader(&dir, 4, 64);
        let batcher = Arc::new(Batcher::start(
            reader,
            BatchConfig {
                linger: Duration::from_millis(5),
                ..BatchConfig::default()
            },
            Arc::new(ServerMetrics::new()),
        ));
        let clients: Vec<_> = (0..16)
            .map(|i| {
                let batcher = batcher.clone();
                std::thread::spawn(move || {
                    let q: Vec<f32> = (0..4).map(|d| (i * 4 + d) as f32 * 0.01).collect();
                    batcher.submit(q, 3, 4, None).unwrap()
                })
            })
            .collect();
        for (i, c) in clients.into_iter().enumerate() {
            let res = c.join().unwrap();
            assert_eq!(res.neighbors.len(), 3);
            // Self-lookup: query i equals row i exactly.
            assert_eq!(res.neighbors[0].0, i as u32, "client {i}");
            assert!(res.neighbors[0].1 < 1e-9);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overflow_is_shed_not_queued() {
        let dir = std::env::temp_dir().join(format!("batcher-shed-{}", std::process::id()));
        let (_collection, reader) = test_reader(&dir, 4, 16);
        let batcher = Arc::new(Batcher::start(
            reader,
            BatchConfig {
                max_batch: 1,
                linger: Duration::from_millis(50),
                queue_depth: 2,
                search_threads: 1,
                seed: 1,
            },
            Arc::new(ServerMetrics::new()),
        ));
        // Saturate from many threads; with depth 2 and a 50ms linger per
        // singleton batch, some submissions must shed.
        let clients: Vec<_> = (0..12)
            .map(|_| {
                let batcher = batcher.clone();
                std::thread::spawn(move || batcher.submit(vec![0.0; 4], 1, 2, None))
            })
            .collect();
        let outcomes: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        let shed = outcomes
            .iter()
            .filter(|o| matches!(o, Err(SubmitError::Overloaded)))
            .count();
        let served = outcomes.iter().filter(|o| o.is_ok()).count();
        assert!(shed > 0, "expected at least one shed, got {outcomes:?}");
        assert!(served > 0, "expected at least one served");
        assert_eq!(shed + served, 12);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn panicking_batch_answers_failed_and_worker_survives() {
        let dir = std::env::temp_dir().join(format!("batcher-panic-{}", std::process::id()));
        let (_collection, reader) = test_reader(&dir, 4, 16);
        let batcher = Batcher::start(
            reader,
            BatchConfig {
                linger: Duration::ZERO,
                search_threads: 1,
                ..BatchConfig::default()
            },
            Arc::new(ServerMetrics::new()),
        );
        // A 3-float query against a dim-4 collection trips search_batch's
        // "n × dim" assertion inside the batch worker.
        assert!(matches!(
            batcher.submit(vec![0.0; 3], 1, 2, None),
            Err(SubmitError::Failed)
        ));
        // The worker survived the panic: a valid submission still works.
        let res = batcher.submit(vec![0.0; 4], 1, 2, None).unwrap();
        assert_eq!(res.neighbors.len(), 1);
        batcher.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn expired_deadlines_answer_504_without_dispatch() {
        let dir = std::env::temp_dir().join(format!("batcher-deadline-{}", std::process::id()));
        let (_collection, reader) = test_reader(&dir, 4, 16);
        let metrics = Arc::new(ServerMetrics::new());
        let batcher = Batcher::start(
            reader,
            BatchConfig {
                linger: Duration::from_millis(50),
                search_threads: 1,
                ..BatchConfig::default()
            },
            metrics.clone(),
        );
        // Already dead at admission: rejected before touching the queue.
        assert!(matches!(
            batcher.submit(
                vec![0.0; 4],
                1,
                2,
                Some(Instant::now() - Duration::from_millis(1)),
            ),
            Err(SubmitError::Expired)
        ));
        // Dies while lingering in the queue: dropped before dispatch.
        assert!(matches!(
            batcher.submit(
                vec![0.0; 4],
                1,
                2,
                Some(Instant::now() + Duration::from_millis(2)),
            ),
            Err(SubmitError::Expired)
        ));
        assert_eq!(metrics.expired_in_queue.load(Ordering::Relaxed), 2);
        assert_eq!(metrics.cancelled_mid_scan.load(Ordering::Relaxed), 0);
        // A generous deadline still gets a real answer.
        let res = batcher
            .submit(
                vec![0.0; 4],
                1,
                2,
                Some(Instant::now() + Duration::from_secs(60)),
            )
            .unwrap();
        assert_eq!(res.neighbors.len(), 1);
        batcher.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shutdown_drains_admitted_requests() {
        let dir = std::env::temp_dir().join(format!("batcher-drain-{}", std::process::id()));
        let (_collection, reader) = test_reader(&dir, 4, 16);
        let batcher = Arc::new(Batcher::start(
            reader,
            BatchConfig {
                max_batch: 4,
                linger: Duration::from_millis(200),
                queue_depth: 64,
                search_threads: 1,
                seed: 1,
            },
            Arc::new(ServerMetrics::new()),
        ));
        let clients: Vec<_> = (0..8)
            .map(|_| {
                let batcher = batcher.clone();
                std::thread::spawn(move || batcher.submit(vec![0.0; 4], 1, 2, None))
            })
            .collect();
        // Let them enqueue into the lingering batch, then shut down.
        while batcher.queue_len() == 0 {
            std::thread::yield_now();
        }
        batcher.initiate_shutdown();
        for c in clients {
            let res = c.join().unwrap();
            match res {
                Ok(r) => assert_eq!(r.neighbors.len(), 1),
                // A client that lost the race to the shutdown flag gets a
                // clean rejection, never a hang.
                Err(e) => assert_eq!(e, SubmitError::ShuttingDown),
            }
        }
        // Post-shutdown submissions are rejected.
        assert!(matches!(
            batcher.submit(vec![0.0; 4], 1, 2, None),
            Err(SubmitError::ShuttingDown)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
