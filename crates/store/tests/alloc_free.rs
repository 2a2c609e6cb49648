//! Counting-allocator proof that the snapshot read path allocates per
//! query, not per segment.
//!
//! Every segment scan runs through the thread-local `SearchScratch`, whose
//! steady state is allocation-free (see `rabitq-ivf`'s `alloc_free.rs`).
//! What is left per query — the merge heap and the result vector — does
//! not depend on the segment count. So after one warm-up pass, the serial
//! `Snapshot::search` and the batch executor at one thread must make the
//! **same** number of allocations per query on a 1-segment and a
//! 4-segment collection holding the same rows.
//!
//! This file holds exactly one test: the counter is process-global, so a
//! concurrently running test could allocate on another thread and skew
//! the count.

use rabitq_store::{CancelToken, Collection, CollectionConfig, ParallelOptions, Snapshot};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

struct CountingAllocator;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const DIM: usize = 16;
const ROWS: usize = 2000;
const QUERIES: usize = 8;
const K: usize = 10;
const NPROBE: usize = 16;

/// Allocations made while `f` runs.
fn count_allocs(f: impl FnOnce()) -> usize {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

/// `(serial search, batch executor)` allocations over `queries` on `snapshot`.
fn allocs_per_pass(snapshot: &Snapshot, queries: &[f32], tokens: &[CancelToken]) -> (usize, usize) {
    let mut rng = StdRng::seed_from_u64(3);
    let serial = count_allocs(|| {
        for q in queries.chunks_exact(DIM) {
            assert_eq!(snapshot.search(q, K, NPROBE, &mut rng).neighbors.len(), K);
        }
    });
    let batch = count_allocs(|| {
        let outcomes = snapshot.search_batch(queries, K, NPROBE, ParallelOptions::serial(), tokens);
        assert!(outcomes.iter().all(|o| !o.is_cancelled()));
    });
    (serial, batch)
}

#[test]
fn per_query_allocations_do_not_grow_with_segment_count() {
    let mut rng = StdRng::seed_from_u64(0xA110C);
    let rows = rabitq_math::rng::standard_normal_vec(&mut rng, ROWS * DIM);
    let queries = rabitq_math::rng::standard_normal_vec(&mut rng, QUERIES * DIM);
    let tokens = vec![CancelToken::none(); QUERIES];

    // The same rows sealed into one segment and into four; the memtable
    // seals at capacity, so both end up empty.
    let mut snapshots = Vec::new();
    let mut dirs = Vec::new();
    for segments in [1usize, 4] {
        let dir = std::env::temp_dir().join(format!(
            "rabitq-alloc-free-{segments}seg-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let mut config = CollectionConfig::new(DIM);
        config.memtable_capacity = ROWS / segments;
        config.auto_compact = false;
        let mut collection = Collection::open(&dir, config).unwrap();
        for row in rows.chunks_exact(DIM) {
            collection.insert(row).unwrap();
        }
        assert_eq!(collection.n_segments(), segments);
        assert_eq!(collection.snapshot().memtable_len(), 0);
        snapshots.push(collection.snapshot());
        dirs.push(dir);
    }

    // Warm-up: the thread-local scratch grows to the largest bucket and
    // probe list of either collection.
    for snapshot in &snapshots {
        allocs_per_pass(snapshot, &queries, &tokens);
    }

    let one = allocs_per_pass(&snapshots[0], &queries, &tokens);
    let four = allocs_per_pass(&snapshots[1], &queries, &tokens);
    assert_eq!(
        one.0, four.0,
        "serial search: {} allocations over {QUERIES} queries on 1 segment, {} on 4",
        one.0, four.0
    );
    assert_eq!(
        one.1, four.1,
        "batch executor: {} allocations over {QUERIES} queries on 1 segment, {} on 4",
        one.1, four.1
    );

    for dir in dirs {
        std::fs::remove_dir_all(&dir).ok();
    }
}
