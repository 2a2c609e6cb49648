//! **Extension benchmark** — query throughput of the concurrent read path
//! and the allocation discipline of the scratch-based query engine.
//!
//! Builds a multi-segment collection (the "4-segment benchmark
//! collection" of the read-path work), then measures:
//!
//! * serial QPS through the legacy `Collection::search` loop;
//! * batch QPS through `search_many` at 1 thread and at `--threads`
//!   (auto-detected when 0), verifying the two are **bit-identical**;
//! * heap allocations per query on a monolithic `IvfRabitq`, before
//!   (allocating `search_with`) and after (reused-`SearchScratch`
//!   `search_into`) — the latter must be 0 at steady state.
//!
//! Results are printed as a table and written as one JSON object (default
//! `BENCH_search.json`) so CI can archive throughput over time.
//!
//! ```text
//! cargo run --release -p rabitq-bench --bin search_qps -- \
//!     --n 20000 --queries 200 --k 10 --nprobe 32 --threads 0 \
//!     --out BENCH_search.json
//! ```

use rabitq_bench::{Args, Table};
use rabitq_core::RabitqConfig;
use rabitq_ivf::{IvfConfig, IvfRabitq, RerankStrategy, SearchScratch};
use rabitq_metrics::Stopwatch;
use rabitq_store::{Collection, CollectionConfig, ParallelOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Counts every `alloc`/`realloc` while armed, so allocations-per-query
/// is a measured number, not a claim.
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

fn count_allocs(f: impl FnOnce()) -> usize {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

fn main() {
    let args = Args::parse();
    let n = args.usize("n", 20_000);
    let n_queries = args.usize("queries", 100);
    let k = args.usize("k", 10);
    let nprobe = args.usize("nprobe", 32);
    let segments = args.usize("segments", 4).max(1);
    let seed = args.u64("seed", 42);
    let mut threads = args.usize("threads", 0);
    if threads == 0 {
        threads = std::thread::available_parallelism().map_or(2, |p| p.get());
    }
    let out_path = args.str("out", "BENCH_search.json");

    let mut rng = StdRng::seed_from_u64(seed);
    let dim = 64usize;
    let data = rabitq_math::rng::standard_normal_vec(&mut rng, n * dim);
    let queries = rabitq_math::rng::standard_normal_vec(&mut rng, n_queries * dim);

    println!("# Extension: concurrent snapshot read path QPS + allocation discipline");
    println!(
        "# n = {n}, dim = {dim}, queries = {n_queries}, k = {k}, nprobe = {nprobe}, \
         target segments = {segments}, threads = {threads}\n"
    );

    // --- The multi-segment benchmark collection ---------------------------
    let dir = std::env::temp_dir().join(format!("bench-search-qps-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut config = CollectionConfig::new(dim);
    config.memtable_capacity = n.div_ceil(segments);
    config.auto_compact = false;
    let mut collection = Collection::open(&dir, config).expect("open collection");
    for row in data.chunks_exact(dim) {
        collection.insert(row).expect("insert");
    }
    collection.seal().expect("seal");
    println!(
        "ingested {n} rows -> {} segments\n",
        collection.n_segments()
    );

    // --- QPS: serial loop vs batch engine ---------------------------------
    let measure_serial = || {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51);
        let mut sw = Stopwatch::new();
        sw.start();
        for q in queries.chunks_exact(dim) {
            std::hint::black_box(collection.search(q, k, nprobe, &mut rng));
        }
        sw.stop();
        sw.per_second(n_queries as u64)
    };
    let measure_many = |t: usize| {
        let opts = ParallelOptions { threads: t, seed };
        let mut sw = Stopwatch::new();
        sw.start();
        let res = collection.search_many(&queries, k, nprobe, opts);
        sw.stop();
        (sw.per_second(n_queries as u64), res)
    };

    // Warm-up pass, then measure.
    measure_serial();
    let qps_serial = measure_serial();
    measure_many(1);
    let (qps_many_1, res_1) = measure_many(1);
    let (qps_many_t, res_t) = measure_many(threads);
    let bit_identical = res_1
        .iter()
        .zip(res_t.iter())
        .all(|(a, b)| a.neighbors == b.neighbors);
    assert!(
        bit_identical,
        "search_many must be bit-identical across thread counts"
    );
    let speedup = qps_many_t / qps_many_1;

    let mut table = Table::new(&["engine", "threads", "QPS", "vs serial"]);
    table.row(&[
        "Collection::search (serial loop)".into(),
        "1".into(),
        format!("{qps_serial:.0}"),
        "1.00x".into(),
    ]);
    table.row(&[
        "Collection::search_many".into(),
        "1".into(),
        format!("{qps_many_1:.0}"),
        format!("{:.2}x", qps_many_1 / qps_serial),
    ]);
    table.row(&[
        "Collection::search_many".into(),
        format!("{threads}"),
        format!("{qps_many_t:.0}"),
        format!("{:.2}x", qps_many_t / qps_serial),
    ]);
    table.print();
    println!(
        "\nmulti-thread vs single-thread search_many: {speedup:.2}x \
         (bit-identical: {bit_identical})"
    );
    if threads > 1 && speedup < 2.0 {
        println!(
            "note: < 2x speedup — expected on machines with few free cores \
             (available parallelism here: {})",
            std::thread::available_parallelism().map_or(1, |p| p.get())
        );
    }

    // --- Allocations per query: before vs after scratch reuse -------------
    let index = IvfRabitq::build(
        &data,
        dim,
        &IvfConfig::new(segments * 8),
        RabitqConfig::default(),
    );
    let mut scratch = SearchScratch::new();
    let mut rng_a = StdRng::seed_from_u64(seed ^ 0x71);
    let mut rng_b = StdRng::seed_from_u64(seed ^ 0x71);
    // Warm both paths (grows the scratch to its steady-state shape).
    for q in queries.chunks_exact(dim) {
        std::hint::black_box(index.search(q, k, nprobe, &mut rng_a));
        index.search_into(
            q,
            k,
            nprobe,
            RerankStrategy::ErrorBound,
            &mut scratch,
            &mut rng_b,
        );
    }
    let allocs_before = count_allocs(|| {
        for q in queries.chunks_exact(dim) {
            std::hint::black_box(index.search(q, k, nprobe, &mut rng_a));
        }
    }) as f64
        / n_queries as f64;
    let allocs_after = count_allocs(|| {
        for q in queries.chunks_exact(dim) {
            index.search_into(
                q,
                k,
                nprobe,
                RerankStrategy::ErrorBound,
                &mut scratch,
                &mut rng_b,
            );
        }
    }) as f64
        / n_queries as f64;
    println!(
        "\nallocations per query (monolithic IvfRabitq, nprobe = {nprobe}): \
         {allocs_before:.1} allocating path -> {allocs_after:.1} scratch path"
    );
    assert_eq!(
        allocs_after, 0.0,
        "steady-state scratch path must not allocate"
    );

    // --- JSON artifact -----------------------------------------------------
    let json = format!(
        "{{\n  \"bench\": \"search_qps\",\n  \"n\": {n},\n  \"dim\": {dim},\n  \
         \"queries\": {n_queries},\n  \"k\": {k},\n  \"nprobe\": {nprobe},\n  \
         \"segments\": {segs},\n  \"threads\": {threads},\n  {hw},\n  \
         \"qps_serial\": {qps_serial:.2},\n  \"qps_search_many_1t\": {qps_many_1:.2},\n  \
         \"qps_search_many_mt\": {qps_many_t:.2},\n  \"speedup_mt_over_1t\": {speedup:.3},\n  \
         \"bit_identical\": {bit_identical},\n  \
         \"allocs_per_query_before_scratch\": {allocs_before:.2},\n  \
         \"allocs_per_query_after_scratch\": {allocs_after:.2}\n}}\n",
        segs = collection.n_segments(),
        hw = rabitq_bench::hw::json_fields(),
    );
    let mut file = std::fs::File::create(&out_path).expect("create bench json");
    file.write_all(json.as_bytes()).expect("write bench json");
    println!("\nwrote {out_path}");

    std::fs::remove_dir_all(&dir).ok();
}
