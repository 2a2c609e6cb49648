//! IVF + RaBitQ — the in-memory ANN index of Section 4.
//!
//! **Index phase**: KMeans buckets the raw vectors; within each bucket the
//! vectors are normalized against the bucket centroid and RaBitQ-encoded;
//! codes are additionally packed for the batch fast-scan kernel.
//!
//! **Query phase**: the query is rotated *once* (`P⁻¹q_r`); each probed
//! bucket then derives its residual in rotated space from a pre-rotated
//! centroid (an O(B) subtraction instead of an O(B²) rotation), quantizes
//! it, fast-scans the bucket's packed codes, and re-ranks by the paper's
//! error-bound rule: a candidate's exact distance is computed iff its
//! distance lower bound beats the current K-th best exact distance. With
//! `ε₀ = 1.9` the true nearest neighbors of the probed buckets reach
//! re-ranking with near-certainty — no tuning parameter exists.

use crate::cancel::CancelToken;
use crate::common::{IvfConfig, RerankStrategy, SearchResult, TopK};
use rabitq_core::{CodeSet, DistanceEstimate, PackedCodes, QueryScratch, Rabitq, RabitqConfig};
use rabitq_kmeans::{train as kmeans_train, KMeans, KMeansConfig};
use rabitq_math::vecs;
use rabitq_metrics::{Stage, StageNanos};
use rand::Rng;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// One IVF bucket: original vector ids plus their RaBitQ codes.
struct Bucket {
    ids: Vec<u32>,
    codes: CodeSet,
    packed: PackedCodes,
}

/// The IVF-RaBitQ index.
pub struct IvfRabitq {
    dim: usize,
    quantizer: Rabitq,
    coarse: KMeans,
    /// `P⁻¹·c` per centroid, enabling the rotate-once query path.
    rotated_centroids: Vec<f32>,
    buckets: Vec<Bucket>,
    /// Owned copy of the raw vectors for exact re-ranking.
    data: Vec<f32>,
    /// Tombstone bitmap, one bit per id. Deleted ids stay encoded in their
    /// buckets (so the fast-scan pack is untouched) but are skipped by every
    /// search path; compaction (in `rabitq-store`) reclaims the space.
    ///
    /// The words are atomic so [`IvfRabitq::remove`] takes `&self`: a
    /// sealed segment shared behind an `Arc` can tombstone rows while
    /// concurrent readers search it. Setting a bit is monotonic, so a racy
    /// read just sees the state a moment earlier or later — both valid.
    deleted: Vec<AtomicU64>,
    /// Number of set bits in `deleted`.
    n_deleted: AtomicUsize,
}

/// Reusable per-thread buffers for [`IvfRabitq::search_request`]: every heap
/// allocation the query path would otherwise make per call (or worse, per
/// probed bucket) lives here and is overwritten in place. One scratch
/// serves one search thread; at steady state (after the buffers have grown
/// to the workload's shape) a search performs **zero heap allocations**.
pub struct SearchScratch {
    /// `P⁻¹·q`, computed once per query.
    rotated_query: Vec<f32>,
    /// Per-probe residual + quantized query + LUT (see
    /// [`rabitq_core::QueryScratch`]).
    query: QueryScratch,
    /// The `nprobe` nearest coarse centroids.
    probes: Vec<(usize, f32)>,
    /// Per-bucket batch estimates.
    estimates: Vec<DistanceEstimate>,
    /// Candidate pool for [`RerankStrategy::TopCandidates`].
    pool: Vec<(u32, f32)>,
    /// Bounded top-K tracker (heap storage reused across queries).
    top: TopK,
    /// Neighbors of the most recent [`IvfRabitq::search_request`] call:
    /// `(id, squared distance)` ascending, same contract as
    /// [`SearchResult::neighbors`]. Public so engine layers (e.g. segment
    /// id remapping in `rabitq-store`) can rewrite ids in place.
    pub neighbors: Vec<(u32, f32)>,
    /// Stage breakdown of the most recent [`IvfRabitq::search_request`] call
    /// (`Copy`, fixed-size — no allocation). Engine layers accumulate it
    /// per query across segments and feed the global stage timers.
    pub stages: StageNanos,
}

impl SearchScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self {
            rotated_query: Vec::new(),
            query: QueryScratch::new(),
            probes: Vec::new(),
            estimates: Vec::new(),
            pool: Vec::new(),
            top: TopK::new(0),
            neighbors: Vec::new(),
            stages: StageNanos::new(),
        }
    }
}

impl Default for SearchScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// One query's parameters for [`IvfRabitq::search_request`]: how many
/// neighbors, how many buckets to probe, how candidates are re-ranked,
/// and the token polled at every probed-bucket boundary.
#[derive(Clone, Copy, Debug)]
pub struct SearchRequest<'a> {
    /// Neighbors to return.
    pub k: usize,
    /// Buckets to probe (clamped to `1..=n_buckets`).
    pub nprobe: usize,
    /// How scanned candidates become results.
    pub strategy: RerankStrategy,
    /// Cancellation checkpoint; [`CancelToken::none`] never cancels.
    pub cancel: &'a CancelToken,
}

/// Closes one traced stage: charges the time since `since` to `stage` and
/// returns the boundary instant for the next stage. Two clock reads per
/// stage transition, nothing else — the only cost tracing adds to the hot
/// path.
#[inline]
fn lap(stages: &mut StageNanos, stage: Stage, since: Instant) -> Instant {
    let now = Instant::now();
    stages.add_ns(
        stage,
        now.duration_since(since)
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64,
    );
    now
}

impl IvfRabitq {
    /// Builds the index over a flat `n × dim` buffer.
    pub fn build(data: &[f32], dim: usize, ivf: &IvfConfig, rabitq: RabitqConfig) -> Self {
        assert!(dim > 0 && data.len().is_multiple_of(dim), "data shape");
        let n = data.len() / dim;
        assert!(n > 0, "cannot index an empty dataset");

        let mut km_cfg = KMeansConfig::new(ivf.n_clusters.min(n));
        km_cfg.max_iters = ivf.kmeans_iters;
        km_cfg.seed = ivf.seed;
        km_cfg.training_sample = ivf.kmeans_sample;
        km_cfg.threads = ivf.threads;
        let coarse = kmeans_train(data, dim, &km_cfg);

        let quantizer = Rabitq::new(dim, rabitq);
        let padded = quantizer.padded_dim();

        // Pre-rotate every centroid once.
        let mut rotated_centroids = vec![0.0f32; coarse.k() * padded];
        for c in 0..coarse.k() {
            let rc = quantizer.rotate(coarse.centroid(c));
            rotated_centroids[c * padded..(c + 1) * padded].copy_from_slice(&rc);
        }

        // Assign and encode per bucket. Encoding dominates the build (one
        // O(D·B) rotation per vector), so buckets are distributed over the
        // configured worker threads.
        let assignment = coarse.assign_all(data, ivf.threads);
        let mut ids_per_bucket: Vec<Vec<u32>> = vec![Vec::new(); coarse.k()];
        for (i, &c) in assignment.iter().enumerate() {
            ids_per_bucket[c as usize].push(i as u32);
        }
        let encode_bucket = |c: usize, ids: Vec<u32>| -> Bucket {
            let centroid = coarse.centroid(c);
            let mut codes = quantizer.new_code_set();
            for &id in &ids {
                quantizer.encode_into(
                    &data[id as usize * dim..(id as usize + 1) * dim],
                    centroid,
                    &mut codes,
                );
            }
            let packed = quantizer.pack(&codes);
            Bucket { ids, codes, packed }
        };
        let buckets: Vec<Bucket> = if ivf.threads <= 1 || coarse.k() < 2 {
            ids_per_bucket
                .into_iter()
                .enumerate()
                .map(|(c, ids)| encode_bucket(c, ids))
                .collect()
        } else {
            // Round-robin bucket batches across threads; order restored by
            // indexed writes.
            let jobs: Vec<(usize, Vec<u32>)> = ids_per_bucket.into_iter().enumerate().collect();
            let mut slots: Vec<Option<Bucket>> = (0..jobs.len()).map(|_| None).collect();
            let threads = ivf.threads.min(jobs.len());
            std::thread::scope(|scope| {
                let mut remaining_jobs: &[(usize, Vec<u32>)] = &jobs;
                let mut remaining_slots: &mut [Option<Bucket>] = &mut slots;
                let per = jobs.len().div_ceil(threads);
                for _ in 0..threads {
                    let take = per.min(remaining_jobs.len());
                    if take == 0 {
                        break;
                    }
                    let (my_jobs, rest_jobs) = remaining_jobs.split_at(take);
                    remaining_jobs = rest_jobs;
                    let (my_slots, rest_slots) = remaining_slots.split_at_mut(take);
                    remaining_slots = rest_slots;
                    let encode_ref = &encode_bucket;
                    scope.spawn(move || {
                        for ((c, ids), slot) in my_jobs.iter().zip(my_slots.iter_mut()) {
                            *slot = Some(encode_ref(*c, ids.clone()));
                        }
                    });
                }
            });
            slots
                .into_iter()
                .map(|b| b.expect("every bucket encoded"))
                .collect()
        };

        Self {
            dim,
            quantizer,
            coarse,
            rotated_centroids,
            buckets,
            data: data.to_vec(),
            deleted: (0..n.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
            n_deleted: AtomicUsize::new(0),
        }
    }

    /// Number of indexed vector slots, live and tombstoned alike. Ids are
    /// never reused, so this is also one past the largest assigned id.
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of live (non-tombstoned) vectors.
    #[inline]
    pub fn n_live(&self) -> usize {
        self.len() - self.n_deleted()
    }

    /// Number of tombstoned vectors.
    #[inline]
    pub fn n_deleted(&self) -> usize {
        self.n_deleted.load(Ordering::Relaxed)
    }

    /// Whether `id` is tombstoned. Ids past the end count as deleted so
    /// callers can treat "never existed" and "removed" uniformly.
    #[inline]
    pub fn is_deleted(&self, id: u32) -> bool {
        let idx = id as usize;
        if idx >= self.len() {
            return true;
        }
        self.deleted[idx / 64].load(Ordering::Relaxed) >> (idx % 64) & 1 == 1
    }

    /// Tombstones one vector. Its code stays in place (the fast-scan pack
    /// is untouched) but every search path skips it from now on; the space
    /// is reclaimed when the index is rebuilt (e.g. by `rabitq-store`
    /// compaction). Returns `false` if the id is out of range or already
    /// tombstoned.
    ///
    /// Takes `&self`: the bitmap is atomic, so an index shared behind an
    /// `Arc` (a sealed `rabitq-store` segment) can be tombstoned while
    /// other threads search it.
    pub fn remove(&self, id: u32) -> bool {
        let idx = id as usize;
        if idx >= self.len() {
            return false;
        }
        let mask = 1u64 << (idx % 64);
        let prev = self.deleted[idx / 64].fetch_or(mask, Ordering::Relaxed);
        if prev & mask != 0 {
            return false; // already tombstoned (possibly by a racing caller)
        }
        self.n_deleted.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// The raw vector stored under `id` (tombstoned or not).
    #[inline]
    pub fn vector(&self, id: u32) -> &[f32] {
        let base = id as usize * self.dim;
        &self.data[base..base + self.dim]
    }

    /// Vector dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The underlying quantizer (exposed for experiments).
    #[inline]
    pub fn quantizer(&self) -> &Rabitq {
        &self.quantizer
    }

    /// Number of buckets.
    #[inline]
    pub fn n_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Searches with the paper's error-bound re-ranking.
    pub fn search<R: Rng + ?Sized>(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
        rng: &mut R,
    ) -> SearchResult {
        self.search_with(query, k, nprobe, RerankStrategy::ErrorBound, rng)
    }

    /// Searches with an explicit re-ranking strategy (used by the Figure 10
    /// ablation and the baseline comparisons).
    ///
    /// Thin wrapper over [`IvfRabitq::search_into`] with a throwaway
    /// [`SearchScratch`] — one scratch allocation per call instead of the
    /// historical per-probed-bucket allocations. Serving layers that care
    /// about the allocator (e.g. `rabitq-store`) hold a scratch per thread
    /// and call [`IvfRabitq::search_request`] directly.
    pub fn search_with<R: Rng + ?Sized>(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
        strategy: RerankStrategy,
        rng: &mut R,
    ) -> SearchResult {
        let mut scratch = SearchScratch::new();
        let (n_estimated, n_reranked) =
            self.search_into(query, k, nprobe, strategy, &mut scratch, rng);
        SearchResult {
            neighbors: std::mem::take(&mut scratch.neighbors),
            n_estimated,
            n_reranked,
            stages: scratch.stages,
        }
    }

    /// [`IvfRabitq::search_request`] with a never-cancelling token: results
    /// land in [`SearchScratch::neighbors`], the return value is
    /// `(n_estimated, n_reranked)`.
    pub fn search_into<R: Rng + ?Sized>(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
        strategy: RerankStrategy,
        scratch: &mut SearchScratch,
        rng: &mut R,
    ) -> (usize, usize) {
        let req = SearchRequest {
            k,
            nprobe,
            strategy,
            cancel: &CancelToken::none(),
        };
        self.search_request(query, &req, scratch, rng)
            .expect("a never-cancelling token cannot cancel")
    }

    /// The search core every entry point runs: rotate the query once, then
    /// per probed bucket quantize the residual (lut_build), fast-scan the
    /// codes (scan), and apply the strategy's step — error-bound rerank,
    /// candidate pooling, or estimate-only ranking.
    ///
    /// Results land in [`SearchScratch::neighbors`] (`(id, squared
    /// distance)` ascending — the [`SearchResult`] contract); the return
    /// value is `(n_estimated, n_reranked)`. Once `scratch` has warmed up
    /// (its buffers reached the workload's shape) the query path performs
    /// **zero heap allocations** — verified by the counting-allocator test
    /// in `tests/alloc_free.rs`.
    ///
    /// `req.cancel` is polled at every probed-bucket boundary (coarse
    /// enough to stay off the per-code hot path, fine enough that an
    /// expired deadline stops the query within one bucket's worth of
    /// work). Returns `None` if it cancelled before the scan finished;
    /// `scratch.neighbors` is then cleared (partial candidates are never
    /// returned) and `scratch.stages` holds the time spent up to the
    /// bail-out. The checkpoints only read the token, so a completed scan
    /// is bit-identical for every token under the same RNG stream.
    pub fn search_request<R: Rng + ?Sized>(
        &self,
        query: &[f32],
        req: &SearchRequest,
        scratch: &mut SearchScratch,
        rng: &mut R,
    ) -> Option<(usize, usize)> {
        assert_eq!(query.len(), self.dim, "query dimensionality");
        scratch.neighbors.clear();
        scratch.stages.clear();
        if self.is_empty() || req.k == 0 {
            return Some((0, 0));
        }
        let padded = self.quantizer.padded_dim();
        let epsilon0 = match req.strategy {
            RerankStrategy::ErrorBoundWithEpsilon(e) => e,
            _ => self.quantizer.config().epsilon0,
        };
        // Stage tracing: `Instant::now()` is a vDSO clock read — no
        // syscall, no allocation — so the hot path stays allocation-free
        // with tracing always on (see `tests/alloc_free.rs`).
        let mut t = Instant::now();
        self.quantizer
            .rotate_into(query, &mut scratch.rotated_query);
        self.coarse
            .assign_top_n_into(query, req.nprobe.max(1), &mut scratch.probes);
        t = lap(&mut scratch.stages, Stage::Rotate, t);

        let mut n_estimated = 0usize;
        let mut n_reranked = 0usize;
        scratch.top.reset(req.k);
        scratch.pool.clear();
        for pi in 0..scratch.probes.len() {
            if req.cancel.is_cancelled() {
                scratch.neighbors.clear();
                return None;
            }
            let c = scratch.probes[pi].0;
            let bucket = &self.buckets[c];
            if bucket.ids.is_empty() {
                continue;
            }
            let rc = &self.rotated_centroids[c * padded..(c + 1) * padded];
            self.quantizer.prepare_query_prerotated_into(
                &scratch.rotated_query,
                rc,
                &mut scratch.query,
                rng,
            );
            t = lap(&mut scratch.stages, Stage::LutBuild, t);
            self.quantizer.estimate_batch_with_lut(
                scratch.query.query(),
                scratch.query.lut(),
                &bucket.packed,
                &bucket.codes,
                epsilon0,
                &mut scratch.estimates,
            );
            t = lap(&mut scratch.stages, Stage::Scan, t);
            n_estimated += scratch.estimates.len();
            let live = scratch
                .estimates
                .iter()
                .zip(bucket.ids.iter())
                .filter(|&(_, &id)| !self.is_deleted(id));
            let step = match req.strategy {
                RerankStrategy::ErrorBound | RerankStrategy::ErrorBoundWithEpsilon(_) => {
                    for (est, &id) in live {
                        // The paper's rule: drop iff lower bound exceeds the
                        // current K-th best exact distance.
                        if est.lower_bound < scratch.top.threshold() {
                            n_reranked += 1;
                            scratch.top.push(id, self.exact_distance(id, query));
                        }
                    }
                    Stage::Rerank
                }
                RerankStrategy::TopCandidates(_) => {
                    scratch
                        .pool
                        .extend(live.map(|(est, &id)| (id, est.dist_sq)));
                    Stage::Scan
                }
                RerankStrategy::None => {
                    for (est, &id) in live {
                        scratch.top.push(id, est.dist_sq);
                    }
                    Stage::Scan
                }
            };
            t = lap(&mut scratch.stages, step, t);
        }
        if let RerankStrategy::TopCandidates(rerank_n) = req.strategy {
            // PQ-style: re-rank the best `rerank_n` pooled estimates exactly.
            let take = rerank_n.max(req.k).min(scratch.pool.len());
            if take > 0 {
                scratch
                    .pool
                    .select_nth_unstable_by(take - 1, |a, b| a.1.total_cmp(&b.1));
                scratch.pool.truncate(take);
            }
            for &(id, _) in &scratch.pool {
                n_reranked += 1;
                scratch.top.push(id, self.exact_distance(id, query));
            }
            t = lap(&mut scratch.stages, Stage::Rerank, t);
        }
        scratch.top.drain_sorted_into(&mut scratch.neighbors);
        lap(&mut scratch.stages, Stage::Merge, t);
        Some((n_estimated, n_reranked))
    }

    #[inline]
    fn exact_distance(&self, id: u32, query: &[f32]) -> f32 {
        let base = id as usize * self.dim;
        vecs::l2_sq(&self.data[base..base + self.dim], query)
    }

    /// Inserts one vector into the index, returning its id. The vector is
    /// assigned to the nearest existing centroid (centroids are not
    /// re-trained — standard IVF practice for streaming ingest; rebuild
    /// periodically if the distribution drifts) and its bucket's fast-scan
    /// pack is refreshed.
    pub fn insert(&mut self, vector: &[f32]) -> u32 {
        assert_eq!(vector.len(), self.dim, "vector dimensionality");
        let id = self.len() as u32;
        let (c, _) = self.coarse.assign(vector);
        self.data.extend_from_slice(vector);
        let bucket = &mut self.buckets[c];
        self.quantizer
            .encode_into(vector, self.coarse.centroid(c), &mut bucket.codes);
        bucket.ids.push(id);
        bucket.packed = self.quantizer.pack(&bucket.codes);
        let words = self.len().div_ceil(64);
        if self.deleted.len() < words {
            self.deleted.resize_with(words, || AtomicU64::new(0));
        }
        id
    }

    /// Saves the index to a file (see [`IvfRabitq::write`]).
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut w = std::io::BufWriter::new(file);
        self.write(&mut w)?;
        use std::io::Write;
        w.flush()
    }

    /// Serializes the index to any writer. The format persists the
    /// quantizer (with its sampled rotation), the coarse centroids, every
    /// bucket's ids and codes, the raw vectors (needed for exact
    /// re-ranking), and the tombstone bitmap; the fast-scan packing is
    /// cheap and rebuilt on read.
    pub fn write<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        use rabitq_core::persist as p;
        // v2 appends the tombstone bitmap; the section bump makes a v1
        // file fail with a clear version message instead of a surprise
        // EOF at the missing trailing field.
        p::write_header(w, "ivf-rabitq-v2")?;
        p::write_usize(w, self.dim)?;
        self.quantizer.write(w)?;
        p::write_f32_slice(w, self.coarse.centroids())?;
        p::write_f32_slice(w, &self.rotated_centroids)?;
        p::write_usize(w, self.buckets.len())?;
        for bucket in &self.buckets {
            p::write_u32_slice(w, &bucket.ids)?;
            bucket.codes.write(w)?;
        }
        p::write_f32_slice(w, &self.data)?;
        let deleted: Vec<u64> = self
            .deleted
            .iter()
            .map(|word| word.load(Ordering::Relaxed))
            .collect();
        p::write_u64_slice(w, &deleted)?;
        Ok(())
    }

    /// Loads an index written by [`IvfRabitq::save`].
    pub fn load(path: &std::path::Path) -> std::io::Result<Self> {
        let file = std::fs::File::open(path)?;
        let mut r = std::io::BufReader::new(file);
        Self::read(&mut r)
    }

    /// Deserializes an index written by [`IvfRabitq::write`].
    pub fn read<R: std::io::Read>(r: &mut R) -> std::io::Result<Self> {
        use rabitq_core::persist as p;
        let section = p::read_header(r)?;
        if section == "ivf-rabitq" {
            return Err(p::invalid(
                "this is a v1 ivf-rabitq file (no tombstone bitmap); rebuild \
                 the index with this version to load it",
            ));
        }
        if section != "ivf-rabitq-v2" {
            return Err(p::invalid(format!(
                "expected ivf-rabitq-v2 file, got {section:?}"
            )));
        }
        let dim = p::read_usize(r)?;
        let quantizer = Rabitq::read(&mut *r)?;
        if quantizer.dim() != dim {
            return Err(p::invalid("quantizer dimensionality mismatch"));
        }
        let centroids = p::read_f32_vec(&mut *r)?;
        if centroids.is_empty() || centroids.len() % dim != 0 {
            return Err(p::invalid("centroid buffer shape"));
        }
        let coarse = KMeans::from_centroids(centroids, dim);
        let rotated_centroids = p::read_f32_vec(&mut *r)?;
        if rotated_centroids.len() != coarse.k() * quantizer.padded_dim() {
            return Err(p::invalid("rotated centroid buffer shape"));
        }
        let n_buckets = p::read_usize(&mut *r)?;
        if n_buckets != coarse.k() {
            return Err(p::invalid("bucket count disagrees with centroids"));
        }
        let mut buckets = Vec::with_capacity(n_buckets);
        for _ in 0..n_buckets {
            let ids = p::read_u32_vec(&mut *r)?;
            let codes = CodeSet::read(&mut *r)?;
            if codes.len() != ids.len() || codes.padded_dim() != quantizer.padded_dim() {
                return Err(p::invalid("bucket codes disagree with ids"));
            }
            let packed = quantizer.pack(&codes);
            buckets.push(Bucket { ids, codes, packed });
        }
        let data = p::read_f32_vec(&mut *r)?;
        if data.len() % dim != 0 {
            return Err(p::invalid("raw data buffer shape"));
        }
        let n = data.len() / dim;
        let deleted = p::read_u64_vec(&mut *r)?;
        if deleted.len() != n.div_ceil(64) {
            return Err(p::invalid("tombstone bitmap shape"));
        }
        if let Some(last) = deleted.last() {
            if n % 64 != 0 && *last >> (n % 64) != 0 {
                return Err(p::invalid("tombstone bits past the last vector"));
            }
        }
        let n_deleted = deleted.iter().map(|w| w.count_ones() as usize).sum();
        Ok(Self {
            dim,
            quantizer,
            coarse,
            rotated_centroids,
            buckets,
            data,
            deleted: deleted.into_iter().map(AtomicU64::new).collect(),
            n_deleted: AtomicUsize::new(n_deleted),
        })
    }

    /// Total bit entropy of all stored codes divided by total code length —
    /// the Appendix E uniformity diagnostic (≈ 1.0 when normalization
    /// spreads vectors evenly on the hypersphere).
    pub fn normalized_code_entropy(&self) -> f64 {
        let mut entropy = 0.0f64;
        let mut weight = 0.0f64;
        for bucket in &self.buckets {
            if bucket.codes.is_empty() {
                continue;
            }
            let w = bucket.codes.len() as f64;
            entropy += bucket.codes.total_bit_entropy() / bucket.codes.padded_dim() as f64 * w;
            weight += w;
        }
        if weight == 0.0 {
            0.0
        } else {
            entropy / weight
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rabitq_data::{exact_knn, generate, DatasetSpec, Profile};
    use rabitq_metrics::recall_at_k;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dataset(n: usize, dim: usize) -> rabitq_data::Dataset {
        generate(&DatasetSpec {
            name: "ivf-test".into(),
            dim,
            n,
            n_queries: 15,
            profile: Profile::Clustered {
                clusters: 12,
                cluster_std: 0.8,
                center_scale: 3.0,
            },
            seed: 11,
        })
    }

    fn build(ds: &rabitq_data::Dataset, clusters: usize) -> IvfRabitq {
        let ivf = IvfConfig::new(clusters);
        IvfRabitq::build(&ds.data, ds.dim, &ivf, RabitqConfig::default())
    }

    #[test]
    fn full_probe_with_bound_rerank_reaches_high_recall() {
        let ds = dataset(3000, 64);
        let index = build(&ds, 16);
        let gt = exact_knn(&ds.data, ds.dim, &ds.queries, 10, 1);
        let mut rng = StdRng::seed_from_u64(1);
        let mut total = 0.0;
        for qi in 0..ds.n_queries() {
            let res = index.search(ds.query(qi), 10, 16, &mut rng);
            let got: Vec<u32> = res.neighbors.iter().map(|&(id, _)| id).collect();
            let want: Vec<u32> = gt[qi].iter().map(|&(id, _)| id).collect();
            total += recall_at_k(&want, &got);
        }
        let avg = total / ds.n_queries() as f64;
        // All buckets probed: the only possible misses are bound failures,
        // which at ε₀ = 1.9 are ≪ 1%.
        assert!(avg > 0.99, "average recall {avg}");
    }

    #[test]
    fn reranked_distances_are_exact() {
        let ds = dataset(500, 32);
        let index = build(&ds, 8);
        let mut rng = StdRng::seed_from_u64(2);
        let res = index.search(ds.query(0), 5, 8, &mut rng);
        for &(id, d) in &res.neighbors {
            let exact = vecs::l2_sq(ds.vector(id as usize), ds.query(0));
            assert!((d - exact).abs() < 1e-4, "id {id}: {d} vs {exact}");
        }
    }

    #[test]
    fn error_bound_rule_reranks_a_small_fraction() {
        let ds = dataset(4000, 64);
        let index = build(&ds, 20);
        let mut rng = StdRng::seed_from_u64(3);
        let res = index.search(ds.query(1), 10, 20, &mut rng);
        assert_eq!(res.n_estimated, 4000);
        // The bound should prune the vast majority of candidates.
        assert!(
            res.n_reranked < res.n_estimated / 2,
            "reranked {} of {}",
            res.n_reranked,
            res.n_estimated
        );
        assert!(res.n_reranked >= 10);
    }

    #[test]
    fn fewer_probes_scan_fewer_candidates() {
        let ds = dataset(2000, 32);
        let index = build(&ds, 16);
        let mut rng = StdRng::seed_from_u64(4);
        let little = index.search(ds.query(2), 5, 2, &mut rng);
        let lots = index.search(ds.query(2), 5, 16, &mut rng);
        assert!(little.n_estimated < lots.n_estimated);
    }

    #[test]
    fn strategies_agree_when_probing_everything_generously() {
        let ds = dataset(1000, 32);
        let index = build(&ds, 8);
        let mut rng = StdRng::seed_from_u64(5);
        let bound = index.search_with(ds.query(3), 5, 8, RerankStrategy::ErrorBound, &mut rng);
        let fixed = index.search_with(
            ds.query(3),
            5,
            8,
            RerankStrategy::TopCandidates(1000),
            &mut rng,
        );
        let a: Vec<u32> = bound.neighbors.iter().map(|&(id, _)| id).collect();
        let b: Vec<u32> = fixed.neighbors.iter().map(|&(id, _)| id).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn no_rerank_strategy_returns_estimates() {
        let ds = dataset(800, 32);
        let index = build(&ds, 8);
        let mut rng = StdRng::seed_from_u64(6);
        let res = index.search_with(ds.query(0), 5, 8, RerankStrategy::None, &mut rng);
        assert_eq!(res.n_reranked, 0);
        assert_eq!(res.neighbors.len(), 5);
    }

    #[test]
    fn code_entropy_is_near_one() {
        // Appendix E: with per-bucket normalization the code bits are
        // nearly unbiased coins.
        let ds = dataset(2000, 64);
        let index = build(&ds, 12);
        let h = index.normalized_code_entropy();
        assert!(h > 0.95, "normalized entropy {h}");
    }

    #[test]
    fn threaded_build_matches_single_threaded_build() {
        let ds = dataset(600, 16);
        let mut cfg1 = IvfConfig::new(8);
        cfg1.threads = 1;
        let mut cfg4 = IvfConfig::new(8);
        cfg4.threads = 4;
        let a = IvfRabitq::build(&ds.data, ds.dim, &cfg1, RabitqConfig::default());
        let b = IvfRabitq::build(&ds.data, ds.dim, &cfg4, RabitqConfig::default());
        let mut rng_a = StdRng::seed_from_u64(42);
        let mut rng_b = StdRng::seed_from_u64(42);
        for qi in 0..ds.n_queries() {
            let ra = a.search(ds.query(qi), 5, 8, &mut rng_a);
            let rb = b.search(ds.query(qi), 5, 8, &mut rng_b);
            assert_eq!(ra.neighbors, rb.neighbors, "query {qi}");
        }
    }

    #[test]
    fn inserted_vectors_are_immediately_searchable() {
        let ds = dataset(400, 16);
        let mut index = build(&ds, 4);
        let mut rng = StdRng::seed_from_u64(9);
        // Insert a vector identical to the query: it must come back as
        // the top result with distance ~0.
        let probe = ds.query(0).to_vec();
        let new_id = index.insert(&probe);
        assert_eq!(new_id as usize, 400);
        let res = index.search(&probe, 3, 4, &mut rng);
        assert_eq!(res.neighbors[0].0, new_id);
        assert!(res.neighbors[0].1 < 1e-6);
    }

    #[test]
    fn insert_matches_batch_build_semantics() {
        // Building over n vectors and building over n−10 then inserting 10
        // must agree on search results (same centroids ⇒ same codes).
        let ds = dataset(300, 16);
        let full = build(&ds, 4);
        let partial_data = &ds.data[..290 * 16];
        let ivf_cfg = IvfConfig::new(4);
        let mut incremental =
            IvfRabitq::build(partial_data, ds.dim, &ivf_cfg, RabitqConfig::default());
        for i in 290..300 {
            incremental.insert(ds.vector(i));
        }
        assert_eq!(incremental.len(), full.len());
        let mut rng_a = StdRng::seed_from_u64(10);
        let mut rng_b = StdRng::seed_from_u64(10);
        for qi in 0..ds.n_queries() {
            let a = full.search(ds.query(qi), 5, 4, &mut rng_a);
            let b = incremental.search(ds.query(qi), 5, 4, &mut rng_b);
            let ids_a: Vec<u32> = a.neighbors.iter().map(|&(id, _)| id).collect();
            let ids_b: Vec<u32> = b.neighbors.iter().map(|&(id, _)| id).collect();
            // KMeans saw slightly different data, so allow near-identical
            // rather than exact: overlap ≥ 4 of 5.
            let overlap = ids_a.iter().filter(|id| ids_b.contains(id)).count();
            assert!(overlap >= 4, "query {qi}: {ids_a:?} vs {ids_b:?}");
        }
    }

    #[test]
    fn removed_vectors_vanish_from_search_immediately() {
        let ds = dataset(400, 16);
        let mut index = build(&ds, 4);
        let mut rng = StdRng::seed_from_u64(9);
        // Insert a vector identical to the query, confirm it wins, then
        // tombstone it: the next search must not return it, under every
        // re-ranking strategy.
        let probe = ds.query(0).to_vec();
        let new_id = index.insert(&probe);
        let res = index.search(&probe, 3, 4, &mut rng);
        assert_eq!(res.neighbors[0].0, new_id);

        assert!(index.remove(new_id));
        assert!(index.is_deleted(new_id));
        assert_eq!(index.n_live(), 400);
        for strategy in [
            RerankStrategy::ErrorBound,
            RerankStrategy::TopCandidates(100),
            RerankStrategy::None,
        ] {
            let res = index.search_with(&probe, 3, 4, strategy, &mut rng);
            assert_eq!(res.neighbors.len(), 3);
            assert!(
                res.neighbors.iter().all(|&(id, _)| id != new_id),
                "{strategy:?} returned a tombstoned id"
            );
        }
        // Double-remove and out-of-range are clean no-ops.
        assert!(!index.remove(new_id));
        assert!(!index.remove(10_000));
        assert_eq!(index.n_deleted(), 1);
    }

    #[test]
    fn tombstones_survive_save_and_load() {
        let ds = dataset(300, 16);
        let index = build(&ds, 4);
        for id in [3u32, 77, 140, 299] {
            assert!(index.remove(id));
        }
        let path =
            std::env::temp_dir().join(format!("rabitq-ivf-tombstones-{}.rbq", std::process::id()));
        index.save(&path).unwrap();
        let loaded = IvfRabitq::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.n_deleted(), 4);
        assert_eq!(loaded.n_live(), 296);
        for id in [3u32, 77, 140, 299] {
            assert!(loaded.is_deleted(id));
        }
        let mut rng = StdRng::seed_from_u64(12);
        let res = loaded.search(ds.vector(77), 5, 4, &mut rng);
        assert!(res.neighbors.iter().all(|&(id, _)| id != 77));
    }

    #[test]
    fn reused_scratch_matches_fresh_search_bit_for_bit() {
        // One scratch reused across queries and strategies must reproduce
        // the allocating wrapper exactly (same RNG streams).
        let ds = dataset(1500, 32);
        let index = build(&ds, 10);
        let mut scratch = SearchScratch::new();
        for strategy in [
            RerankStrategy::ErrorBound,
            RerankStrategy::TopCandidates(200),
            RerankStrategy::None,
        ] {
            for qi in 0..ds.n_queries() {
                let seed = 1000 + qi as u64;
                let mut rng_a = StdRng::seed_from_u64(seed);
                let mut rng_b = StdRng::seed_from_u64(seed);
                let fresh = index.search_with(ds.query(qi), 5, 6, strategy, &mut rng_a);
                let (e, r) =
                    index.search_into(ds.query(qi), 5, 6, strategy, &mut scratch, &mut rng_b);
                assert_eq!(
                    scratch.neighbors, fresh.neighbors,
                    "{strategy:?} query {qi}"
                );
                assert_eq!(e, fresh.n_estimated);
                assert_eq!(r, fresh.n_reranked);
            }
        }
    }

    #[test]
    fn remove_through_shared_reference_is_thread_safe() {
        // The atomic tombstone bitmap lets `remove` take &self; racing
        // removers must tombstone every id exactly once in total.
        let ds = dataset(512, 16);
        let index = build(&ds, 4);
        let hits: usize = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for _ in 0..4 {
                let index = &index;
                handles
                    .push(scope.spawn(move || (0..512u32).filter(|&id| index.remove(id)).count()));
            }
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(hits, 512, "every id removed exactly once across threads");
        assert_eq!(index.n_deleted(), 512);
        assert_eq!(index.n_live(), 0);
    }

    #[test]
    fn cancelled_token_bails_without_results() {
        let ds = dataset(1000, 32);
        let index = build(&ds, 8);
        let mut scratch = SearchScratch::new();
        let token = CancelToken::new();
        token.cancel();
        for strategy in [
            RerankStrategy::ErrorBound,
            RerankStrategy::TopCandidates(100),
            RerankStrategy::None,
        ] {
            let mut rng = StdRng::seed_from_u64(21);
            let req = SearchRequest {
                k: 5,
                nprobe: 8,
                strategy,
                cancel: &token,
            };
            let got = index.search_request(ds.query(0), &req, &mut scratch, &mut rng);
            assert!(got.is_none(), "{strategy:?} must observe cancellation");
            assert!(
                scratch.neighbors.is_empty(),
                "partial candidates must not leak"
            );
        }
    }

    #[test]
    fn uncancelled_token_matches_plain_search_bit_for_bit() {
        let ds = dataset(1200, 32);
        let index = build(&ds, 8);
        let mut scratch_a = SearchScratch::new();
        let mut scratch_b = SearchScratch::new();
        let token = CancelToken::with_deadline(
            std::time::Instant::now() + std::time::Duration::from_secs(3600),
        );
        for qi in 0..ds.n_queries() {
            let seed = 3000 + qi as u64;
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let plain = index.search_into(
                ds.query(qi),
                5,
                8,
                RerankStrategy::ErrorBound,
                &mut scratch_a,
                &mut rng_a,
            );
            let req = SearchRequest {
                k: 5,
                nprobe: 8,
                strategy: RerankStrategy::ErrorBound,
                cancel: &token,
            };
            let cancellable = index
                .search_request(ds.query(qi), &req, &mut scratch_b, &mut rng_b)
                .expect("far deadline never cancels");
            assert_eq!(plain, cancellable, "query {qi}");
            assert_eq!(scratch_a.neighbors, scratch_b.neighbors, "query {qi}");
        }
    }

    #[test]
    fn k_zero_returns_empty() {
        let ds = dataset(100, 16);
        let index = build(&ds, 4);
        let mut rng = StdRng::seed_from_u64(7);
        let res = index.search(ds.query(0), 0, 4, &mut rng);
        assert!(res.neighbors.is_empty());
    }

    #[test]
    fn nprobe_beyond_bucket_count_is_clamped() {
        let ds = dataset(300, 16);
        let index = build(&ds, 4);
        let mut rng = StdRng::seed_from_u64(8);
        let res = index.search(ds.query(0), 3, 100, &mut rng);
        assert_eq!(res.neighbors.len(), 3);
    }
}
