//! Direct per-layer probes for the traced run: the `kmeans`, `core` and
//! `ivf` calls a segment seal and a segment search make, replayed from
//! outside on one segment's worth of the workload's rows and timed
//! call by call.

use crate::spec::Spec;
use crate::stats::{mean, us, Metrics};
use crate::trace::Tracer;
use rabitq_core::{CodeSet, Lut, PackedCodes, QueryScratch, Rabitq, RabitqConfig};
use rabitq_ivf::{IvfConfig, IvfRabitq, RerankStrategy, SearchScratch};
use rabitq_kmeans::{train, KMeansConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Queries replayed through each per-call probe.
pub const PROBE_QUERIES: usize = 200;

/// Runs the `kmeans`, `core` and `ivf` probes over `rows` (one
/// memtable's worth, so the shapes match a sealed segment) and records
/// their per-layer metrics.
pub fn layers(
    spec: &Spec,
    rows: &[f32],
    queries: &[f32],
    seed: u64,
    tracer: &Tracer,
    out: &mut Metrics,
) {
    let dim = spec.dataset.dim();
    let n = rows.len() / dim;
    let nq = (queries.len() / dim).min(PROBE_QUERIES);
    let queries = &queries[..nq * dim];
    // The segment build's template (`CollectionConfig::new`), with the
    // cluster count a segment of `n` rows derives.
    let mut ivf_cfg = IvfConfig::new(1);
    ivf_cfg.n_clusters = IvfConfig::clusters_for(n).min(n);

    // kmeans: train on the memtable-sized sample, then probe selection.
    let mut km_cfg = KMeansConfig::new(ivf_cfg.n_clusters);
    km_cfg.max_iters = ivf_cfg.kmeans_iters;
    km_cfg.seed = ivf_cfg.seed;
    km_cfg.training_sample = ivf_cfg.kmeans_sample;
    km_cfg.threads = ivf_cfg.threads;
    let req = tracer.next_req();
    let t0 = Instant::now();
    let km = train(rows, dim, &km_cfg);
    let t1 = Instant::now();
    tracer.measured("kmeans.train", req, None, t0, t1);
    out.set("kmeans.train_ms", (t1 - t0).as_secs_f64() * 1e3, "ms");

    let mut probes = Vec::new();
    let mut probe_us = Vec::with_capacity(nq);
    for q in queries.chunks_exact(dim) {
        let t0 = Instant::now();
        km.assign_top_n_into(q, spec.nprobe, &mut probes);
        let t1 = Instant::now();
        tracer.measured("kmeans.assign_top_n", tracer.next_req(), None, t0, t1);
        probe_us.push(us(t1 - t0));
    }
    out.set("kmeans.probe_us", mean(&probe_us), "us");

    // core: encode every row against its centroid, pack each bucket.
    let quantizer = Rabitq::new(dim, RabitqConfig::default());
    let padded = quantizer.padded_dim();
    let assignment = km.assign_all(rows, 1);
    let mut codes: Vec<CodeSet> = (0..km.k()).map(|_| quantizer.new_code_set()).collect();
    let mut encode = Duration::ZERO;
    for (row, &c) in rows.chunks_exact(dim).zip(&assignment) {
        let t0 = Instant::now();
        quantizer.encode_into(row, km.centroid(c as usize), &mut codes[c as usize]);
        let t1 = Instant::now();
        tracer.measured("core.encode_into", tracer.next_req(), None, t0, t1);
        encode += t1 - t0;
    }
    out.set("core.encode_us_per_vector", us(encode) / n as f64, "us");
    let packed: Vec<PackedCodes> = codes.iter().map(PackedCodes::pack).collect();
    let mut rotated_centroids = Vec::with_capacity(km.k());
    for c in 0..km.k() {
        let mut rc = Vec::new();
        quantizer.rotate_into(km.centroid(c), &mut rc);
        rotated_centroids.push(rc);
    }

    // core: per query, rotate once; per probed bucket, prepare the
    // quantized query (which rebuilds its LUT), rebuild a LUT alone, and
    // fast-scan the bucket's packed codes.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0DE);
    let mut rotated = Vec::new();
    let mut scratch = QueryScratch::new();
    let mut lut = Lut::empty();
    let mut block = [0u32; 32];
    let (mut rotate_us, mut prepare_us, mut lut_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut scan, mut scanned) = (Duration::ZERO, 0usize);
    for q in queries.chunks_exact(dim) {
        let req = tracer.next_req();
        let t0 = Instant::now();
        quantizer.rotate_into(q, &mut rotated);
        let t1 = Instant::now();
        tracer.measured("core.rotate_into", req, None, t0, t1);
        rotate_us.push(us(t1 - t0));
        km.assign_top_n_into(q, spec.nprobe, &mut probes);
        for &(c, _) in &probes {
            let t0 = Instant::now();
            quantizer.prepare_query_prerotated_into(
                &rotated,
                &rotated_centroids[c],
                &mut scratch,
                &mut rng,
            );
            let t1 = Instant::now();
            lut.rebuild(scratch.query());
            let t2 = Instant::now();
            let scanner = packed[c].scanner(&lut);
            for b in 0..packed[c].n_blocks() {
                scanner.scan_block(b, &mut block);
                black_box(&block);
            }
            let t3 = Instant::now();
            tracer.measured("core.prepare_query", req, None, t0, t1);
            tracer.measured("core.lut_rebuild", req, None, t1, t2);
            tracer.measured("core.scan_bucket", req, None, t2, t3);
            prepare_us.push(us(t1 - t0));
            lut_us.push(us(t2 - t1));
            scan += t3 - t2;
            scanned += packed[c].len();
        }
    }
    debug_assert_eq!(rotated.len(), padded);
    let lut_mean = mean(&lut_us);
    out.set("core.rotate_us", mean(&rotate_us), "us");
    out.set("core.lut_build_us", lut_mean, "us");
    out.set(
        "core.quantize_us",
        (mean(&prepare_us) - lut_mean).max(0.0),
        "us",
    );
    out.set(
        "core.scan_ns_per_code",
        scan.as_nanos() as f64 / scanned.max(1) as f64,
        "ns",
    );

    // ivf: the segment-shaped index, searched through the
    // allocation-free entry point.
    let index = IvfRabitq::build(rows, dim, &ivf_cfg, RabitqConfig::default());
    let mut scratch = SearchScratch::new();
    let (mut search_us, mut estimated, mut reranked) = (Vec::new(), 0usize, 0usize);
    for q in queries.chunks_exact(dim) {
        let req = tracer.next_req();
        let t0 = Instant::now();
        let (est, rr) = index.search_into(
            q,
            spec.k,
            spec.nprobe,
            RerankStrategy::ErrorBound,
            &mut scratch,
            &mut rng,
        );
        let t1 = Instant::now();
        tracer.measured("ivf.search_into", req, None, t0, t1);
        black_box(&scratch.neighbors);
        search_us.push(us(t1 - t0));
        estimated += est;
        reranked += rr;
    }
    let nq_f = nq.max(1) as f64;
    out.set("ivf.search_us", mean(&search_us), "us");
    out.set(
        "ivf.buckets_probed",
        spec.nprobe.min(index.n_buckets()) as f64,
        "count",
    );
    out.set("ivf.candidates_estimated", estimated as f64 / nq_f, "count");
    out.set("ivf.candidates_reranked", reranked as f64 / nq_f, "count");
    out.set(
        "ivf.rerank_ratio",
        reranked as f64 / estimated.max(1) as f64,
        "1",
    );
}
