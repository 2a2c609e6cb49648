//! One benchmark run: generate inputs from the seed, set the collection
//! up (timed, several times), drive the workload, check every answer,
//! and collect the end-to-end metrics (and, when traced, the per-layer
//! ones).

use crate::http::Conn;
use crate::load::{self, OpRecord};
use crate::probe;
use crate::spec::{Kind, Spec};
use crate::stats::{json_list, json_str, lowest, mean, median, ms, quantile, us, Latency, Metrics};
use crate::trace::Tracer;
use rabitq_data::exact_knn;
use rabitq_metrics::{Stage, StageNanos};
use rabitq_serve::{Json, ServeConfig, Server};
use rabitq_store::{Collection, CollectionConfig, CollectionReader, ParallelOptions, StoreMetrics};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const COLLECTION: &str = "bench";
/// Closed-loop throughput is measured per window of this length.
const QPS_SLICE: Duration = Duration::from_millis(100);
/// Queries per `search_many` call in `batch_highdim`.
const MANY_CALL: usize = 100;
/// Span names of the five engine stages, in `Stage::ALL` order.
const STAGE_SPANS: [&str; 5] = [
    "engine.rotate",
    "engine.lut_build",
    "engine.scan",
    "engine.rerank",
    "engine.merge",
];

/// Pass/fail tally of every checked operation.
#[derive(Default)]
pub struct Checks {
    attempted: AtomicU64,
    failed: AtomicU64,
    messages: Mutex<Vec<String>>,
}

impl Checks {
    fn pass(&self) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
    }

    pub fn fail(&self, msg: String) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        self.failed.fetch_add(1, Ordering::Relaxed);
        let mut m = self.messages.lock().expect("check log poisoned");
        if m.len() < 20 {
            m.push(msg);
        }
    }

    /// Tallies `r`; returns whether it passed.
    pub fn record(&self, r: Result<(), String>) -> bool {
        match r {
            Ok(()) => {
                self.pass();
                true
            }
            Err(msg) => {
                self.fail(msg);
                false
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    pub fn messages(&self) -> Vec<String> {
        self.messages.lock().expect("check log poisoned").clone()
    }
}

/// Everything a run produces.
pub struct Outcome {
    pub checks: Checks,
    pub e2e: Metrics,
    pub layer: Metrics,
    /// Detail for the result artifact: sample counts, generator health,
    /// reconciliation (name, JSON value).
    pub notes: Vec<(String, String)>,
    /// Set when the run measured a growing queue rather than the system.
    pub invalid: Option<String>,
}

/// Read-only state shared by every load thread.
struct Shared<'a> {
    spec: &'a Spec,
    checks: &'a Checks,
    tracer: &'a Tracer,
    reader: CollectionReader,
    search_path: &'a str,
    search_bodies: &'a [String],
    /// Exact top-k ids per query (empty when the truth moves, in
    /// `serve_mixed`).
    truth: &'a [Vec<u32>],
    /// Deleted id → when its delete was acknowledged.
    deleted: Mutex<HashMap<u32, Instant>>,
}

/// One search's server-reported timing (`?debug=timings`), µs.
#[derive(Clone, Copy)]
struct Timing {
    rtt: f64,
    router: f64,
    stage_total: f64,
    stages: [f64; 5],
}

/// What the search clients gathered, summed over a run's slices.
#[derive(Default)]
struct Tally {
    recall_sum: f64,
    recall_n: usize,
    /// `serve_mixed`: HTTP insert latencies from when each was due, ms,
    /// in schedule order.
    insert_ms: Vec<f64>,
    /// Traced runs only: per-search timings and the store shape seen.
    timings: Vec<Timing>,
    memtable_rows: Vec<f64>,
    segments: Vec<f64>,
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.recall_sum += other.recall_sum;
        self.recall_n += other.recall_n;
        self.insert_ms.extend(other.insert_ms);
        self.timings.extend(other.timings);
        self.memtable_rows.extend(other.memtable_rows);
        self.segments.extend(other.segments);
    }
}

/// Per-connection state of a search client.
struct Searcher {
    conn: Conn,
    tally: Tally,
}

impl Searcher {
    fn open(addr: SocketAddr) -> Self {
        Self {
            conn: Conn::open(addr).expect("connect to the in-process server"),
            tally: Tally::default(),
        }
    }
}

/// One measured slice of a run: its share of `--seconds`, the search
/// throughput and p50 latency of each of its windows, and its detail
/// notes.
struct Slice {
    secs: f64,
    qps_windows: Vec<f64>,
    p50_windows: Vec<f64>,
    notes: Vec<(String, String)>,
}

/// The write connection of `serve_mixed`.
struct Writer {
    conn: Conn,
    /// Ids acked live and not yet deleted (initial rows included).
    live: Vec<u32>,
    deleted: Vec<u32>,
    next_row: usize,
    rng_state: u64,
    insert_rtt_us: Vec<f64>,
}

/// A collection as set up: served over HTTP, or held in-process.
struct Stood {
    dir: PathBuf,
    reader: CollectionReader,
    server: Option<Server>,
    collection: Option<Collection>,
    setup: Duration,
    /// Per-call time of each non-sealing `Collection::insert`, ms.
    insert_ms: Vec<f64>,
    /// WAL growth per insert between two seals (traced runs only).
    wal_bytes_per_insert: Option<f64>,
}

impl Stood {
    /// Stops serving and closes the collection.
    fn close(self) -> PathBuf {
        if let Some(server) = self.server {
            server.shutdown();
        }
        drop(self.collection);
        self.dir
    }
}

pub struct Run<'a> {
    pub spec: &'a Spec,
    pub seed: u64,
    pub seconds: f64,
    pub threads: usize,
    pub tracer: &'a Tracer,
    pub work: PathBuf,
}

fn vector_json(v: &[f32]) -> String {
    let mut s = String::with_capacity(v.len() * 12);
    s.push('[');
    for (i, x) in v.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&x.to_string());
    }
    s.push(']');
    s
}

/// Shape check of one answer: exactly `k` neighbors, distinct ids,
/// finite distances in ascending order.
fn check_shape(neighbors: &[(u32, f32)], k: usize) -> Result<(), String> {
    if neighbors.len() != k {
        return Err(format!("{} neighbors, wanted {k}", neighbors.len()));
    }
    let mut prev = f32::NEG_INFINITY;
    for &(_, d) in neighbors {
        if !d.is_finite() || d < prev {
            return Err(format!(
                "distances not finite and ascending: {d} after {prev}"
            ));
        }
        prev = d;
    }
    let mut ids: Vec<u32> = neighbors.iter().map(|n| n.0).collect();
    ids.sort_unstable();
    if ids.windows(2).any(|w| w[0] == w[1]) {
        return Err("duplicate id in answer".into());
    }
    Ok(())
}

fn recall(truth: &[u32], neighbors: &[(u32, f32)]) -> f64 {
    let hits = neighbors
        .iter()
        .filter(|(id, _)| truth.contains(id))
        .count();
    hits as f64 / truth.len().max(1) as f64
}

/// Parses a search reply body into neighbors and, when present, the
/// `timings_us` breakdown.
/// A parsed search reply: neighbors, and the timing breakdown when asked.
type Answer = (Vec<(u32, f32)>, Option<Timing>);

fn parse_search(body: &str, rtt: f64) -> Result<Answer, String> {
    let json = Json::parse(body).map_err(|e| format!("search reply: {e}"))?;
    let list = json
        .get("neighbors")
        .and_then(Json::as_array)
        .ok_or("search reply without neighbors")?;
    let mut neighbors = Vec::with_capacity(list.len());
    for n in list {
        let id = n
            .get("id")
            .and_then(Json::as_u64)
            .filter(|&id| id <= u64::from(u32::MAX));
        let d = n.get("distance").and_then(Json::as_f64);
        match (id, d) {
            (Some(id), Some(d)) => neighbors.push((id as u32, d as f32)),
            _ => return Err("malformed neighbor".into()),
        }
    }
    let timing = match json.get("timings_us") {
        None => None,
        Some(t) => {
            let field = |k: &str| {
                t.get(k)
                    .and_then(Json::as_f64)
                    .ok_or(format!("timings_us.{k} missing"))
            };
            let mut stages = [0.0; 5];
            for (slot, stage) in stages.iter_mut().zip(Stage::ALL) {
                *slot = field(stage.name())?;
            }
            Some(Timing {
                rtt,
                router: field("elapsed")?,
                stage_total: field("stage_total")?,
                stages,
            })
        }
    };
    Ok((neighbors, timing))
}


fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derived spans for the engine stages of one search, laid out back to
/// back from `start + offset` under `parent`.
fn stage_spans(
    tracer: &Tracer,
    req: u64,
    parent: u64,
    start: Instant,
    offset: Duration,
    stages_us: &[f64; 5],
) {
    let mut at = offset;
    for (name, &len) in STAGE_SPANS.iter().zip(stages_us) {
        let len = Duration::from_secs_f64(len / 1e6);
        tracer.derived(name, req, parent, start, at, len);
        at += len;
    }
}

fn stages_us(stages: &StageNanos) -> [f64; 5] {
    let mut out = [0.0; 5];
    for (slot, stage) in out.iter_mut().zip(Stage::ALL) {
        *slot = stages.get_ns(stage) as f64 / 1e3;
    }
    out
}

impl Run<'_> {
    pub fn execute(&self) -> Outcome {
        let spec = self.spec;
        let dim = spec.dataset.dim();
        let tracer = self.tracer;
        let checks = Checks::default();
        let mut layer = Metrics::default();
        let mut notes = Vec::new();
        let mut invalid = None;

        // Inputs and ground truth: outside every timed interval.
        let ds = spec
            .dataset
            .generate(spec.rows + spec.insert_rows(), spec.queries, self.seed);
        let base = &ds.data[..spec.rows * dim];
        let extra = &ds.data[spec.rows * dim..];
        let truth: Vec<Vec<u32>> = if spec.kind == Kind::ServeMixed {
            Vec::new()
        } else {
            exact_knn(base, dim, &ds.queries, spec.k, self.threads)
                .into_iter()
                .map(|n| n.into_iter().map(|(id, _)| id).collect())
                .collect()
        };
        let search_bodies: Vec<String> = ds
            .queries
            .chunks_exact(dim)
            .map(|q| {
                format!(
                    "{{\"vector\":{},\"k\":{},\"nprobe\":{}}}",
                    vector_json(q),
                    spec.k,
                    spec.nprobe
                )
            })
            .collect();
        let search_path = format!(
            "/collections/{COLLECTION}/search{}",
            if tracer.enabled() {
                "?debug=timings"
            } else {
                ""
            }
        );

        // Set up several times. After each set-up one slice of the
        // measured time runs against it, so the measurements spread over
        // the whole run; the last set-up is kept for the end-of-run
        // checks.
        let reps = if tracer.enabled() { 1 } else { spec.setup_reps };
        let mut setups = Vec::new();
        let mut insert_ms = Vec::new();
        let mut qps_windows = Vec::new();
        let mut p50_windows = Vec::new();
        let mut tally = Tally::default();
        let mut writer = None;
        let mut kept = None;
        let mut reopen = Vec::new();
        for rep in 0..reps {
            let dir = self.work.join(format!("rep{rep}"));
            let stood = self.set_up(&dir, base, &search_bodies[0], &ds.queries[..dim], &checks);
            setups.push(stood.setup.as_secs_f64());
            insert_ms.extend_from_slice(&stood.insert_ms);
            if tracer.enabled() {
                layer.set("store.insert_us", mean(&stood.insert_ms) * 1e3, "us");
                layer.set(
                    "store.wal_bytes_per_insert",
                    stood.wal_bytes_per_insert.unwrap_or(0.0),
                    "B",
                );
            }
            let sh = Shared {
                spec,
                checks: &checks,
                tracer,
                reader: stood.reader.clone(),
                search_path: &search_path,
                search_bodies: &search_bodies,
                truth: &truth,
                deleted: Mutex::new(HashMap::new()),
            };
            let mut slice = Slice {
                secs: self.seconds / reps as f64,
                qps_windows: Vec::new(),
                p50_windows: Vec::new(),
                notes: Vec::new(),
            };
            match spec.kind {
                Kind::ServeSearch => {
                    self.serve_search(&sh, &stood, &mut slice, &mut tally, &mut invalid)
                }
                Kind::BatchHighdim => {
                    self.batch_highdim(&sh, &stood, &ds.queries, &mut slice, &mut tally, &mut layer)
                }
                Kind::ServeMixed => {
                    writer = Some(self.serve_mixed(
                        &sh,
                        &stood,
                        extra,
                        &mut slice,
                        &mut tally,
                        &mut layer,
                        &mut invalid,
                    ))
                }
            }
            let fields: Vec<String> = slice
                .notes
                .iter()
                .map(|(k, v)| format!("{}:{v}", json_str(k)))
                .collect();
            notes.push((format!("slice{rep}"), format!("{{{}}}", fields.join(","))));
            qps_windows.extend(slice.qps_windows);
            p50_windows.extend(slice.p50_windows);
            if rep + 1 < reps {
                drop(sh);
                let (dir, _) = self.reopen(stood, &mut reopen);
                std::fs::remove_dir_all(dir).ok();
            } else {
                if tracer.enabled() {
                    self.trace_tail(
                        &sh,
                        &stood,
                        &base[..spec.memtable * dim],
                        &ds.queries,
                        &mut layer,
                        &mut notes,
                    );
                }
                kept = Some(stood);
            }
        }
        let stood = kept.expect("at least one set-up");

        // Search speed from the short windows of every slice. A busy
        // neighbour on a small shared host (a hyperthread sibling, another
        // tenant's memory traffic) slows this process by up to a third for
        // seconds to minutes at a time and never speeds it up, so the
        // quieter windows are the steadiest estimate of the program's own
        // speed, while a regression slows every window. The p50 is that of
        // the quietest window. Throughput, which needs every virtual CPU
        // quiet at once, is the rate the fastest tenth of windows reached:
        // the single fastest is a rare lucky window. The search tail is not
        // gated: it follows how often the host stalls a virtual CPU (the
        // served p90 moved between 1.5 and 3.6 ms across runs of one
        // build, for as long as a whole run), so the p90 and p99 stay in
        // the result artifact only.
        let mut e2e = Metrics::default();
        e2e.set("search_qps", quantile(&qps_windows, 0.9), "1/s");
        e2e.set("search_p50_ms", lowest(&p50_windows), "ms");
        e2e.set("setup_s", median(&setups), "s");
        notes.push(("setup_s_all".into(), format!("{setups:?}")));
        // Insert latency goes to the result artifact only, pooled over the
        // run (a slice holds about one seal, and the p99 needs 1000
        // samples). In `serve_mixed` it is the HTTP inserts' latency from
        // when each was due; the other workloads run no writes in their
        // slices, so it is the set-up ingest's per-call (non-sealing)
        // `Collection::insert` time, whose cost `setup_s` already gates.
        let (source, insert_ms) = if spec.kind == Kind::ServeMixed {
            ("insert_latency_http", std::mem::take(&mut tally.insert_ms))
        } else {
            ("insert_latency_setup_ingest", insert_ms)
        };
        notes.push((source.into(), Latency::of(&insert_ms).json()));
        if !truth.is_empty() {
            e2e.set(
                "recall_at_k",
                tally.recall_sum / tally.recall_n.max(1) as f64,
                "1",
            );
            notes.push(("recall_samples".into(), tally.recall_n.to_string()));
        }
        if tracer.enabled() && spec.served() {
            layer.set("store.memtable_rows", mean(&tally.memtable_rows), "count");
            layer.set("store.segments_per_query", mean(&tally.segments), "count");
            reconcile(&checks, &tally.timings, &mut layer, &mut notes);
        }

        // End of the run: disk footprint, close, re-open (timed, like
        // every earlier set-up's), then the durability checks on the
        // re-opened collection.
        let live = stood.reader.len();
        e2e.set(
            "disk_bytes_per_vector",
            dir_bytes(&stood.dir) as f64 / live.max(1) as f64,
            "B",
        );
        let (dir, reopened) = self.reopen(stood, &mut reopen);
        e2e.set("reopen_s", median(&reopen), "s");
        notes.push(("reopen_s_all".into(), json_list(&reopen)));
        layer.set("store.reopen_ms", median(&reopen) * 1e3, "ms");
        match reopened {
            Err(e) => checks.fail(format!("re-open failed: {e}")),
            Ok(mut coll) => {
                if let Some(w) = &writer {
                    let recall = self.final_recall(&coll, base, extra, w, &ds.queries, &checks);
                    e2e.set("recall_at_k", recall, "1");
                    notes.push((
                        "recall_source".into(),
                        "\"final state after re-open\"".into(),
                    ));
                }
                let (live_ids, deleted): (Vec<u32>, &[u32]) = match &writer {
                    Some(w) => (w.live.clone(), &w.deleted),
                    None => ((0..spec.rows as u32).collect(), &[]),
                };
                checks.record(check_durable(&mut coll, &live_ids, deleted));
            }
        }
        let recall = e2e.get("recall_at_k").unwrap_or(0.0);
        checks.record(if recall >= spec.recall_floor {
            Ok(())
        } else {
            Err(format!(
                "recall@{} {recall:.4} below the floor {}",
                spec.k, spec.recall_floor
            ))
        });
        std::fs::remove_dir_all(&dir).ok();
        Outcome {
            checks,
            e2e,
            layer,
            notes,
            invalid,
        }
    }

    /// Closes the set-up and re-opens its directory `reopen_reps` times
    /// with `Collection::open_existing` (WAL replay and segment load),
    /// adding each time to `times`. Returns the directory and the last
    /// re-open.
    fn reopen(&self, stood: Stood, times: &mut Vec<f64>) -> (PathBuf, io::Result<Collection>) {
        let tracer = self.tracer;
        let dir = stood.close();
        let mut last = None;
        for _ in 0..self.spec.reopen_reps.max(1) {
            drop(last.take());
            let t0 = Instant::now();
            let c = Collection::open_existing(&dir);
            let t1 = Instant::now();
            if tracer.enabled() {
                tracer.measured("store.reopen", tracer.next_req(), None, t0, t1);
            }
            times.push((t1 - t0).as_secs_f64());
            last = Some(c);
        }
        (dir, last.expect("at least one re-open"))
    }

    /// Opens an empty collection at `dir`, ingests `base` through
    /// `Collection::insert` (seals run inline), starts the server when
    /// the workload is served, and answers one search: `setup` covers
    /// all of it.
    fn set_up(
        &self,
        dir: &Path,
        base: &[f32],
        first_body: &str,
        first_query: &[f32],
        checks: &Checks,
    ) -> Stood {
        let spec = self.spec;
        let dim = spec.dataset.dim();
        std::fs::remove_dir_all(dir).ok();
        let mut config = CollectionConfig::new(dim);
        config.memtable_capacity = spec.memtable;
        config.policy.max_segments = spec.max_segments;
        let tracer = self.tracer;
        let req = tracer.next_req();
        // The set-up span is recorded last; its ingest calls are its
        // children.
        let setup_span = tracer.reserve();

        let t0 = Instant::now();
        let mut coll = Collection::open(dir, config).expect("open an empty collection");
        let wal = dir.join(rabitq_store::WAL_FILE);
        let wal_len = || std::fs::metadata(&wal).map(|m| m.len()).unwrap_or(0);
        let mut wal_base = tracer.enabled().then(wal_len);
        let mut since_base = 0usize;
        let mut wal_bytes_per_insert = None;
        let mut insert_ms = Vec::with_capacity(base.len() / dim);
        for row in base.chunks_exact(dim) {
            let a = Instant::now();
            let r = coll.insert(row);
            let b = Instant::now();
            if let Err(e) = r {
                checks.fail(format!("set-up insert: {e}"));
                continue;
            }
            let sealed = coll.memtable_len() == 0;
            if !sealed {
                insert_ms.push(ms(b - a));
            }
            if tracer.enabled() {
                tracer.measured(
                    if sealed {
                        "store.insert_seal"
                    } else {
                        "store.insert"
                    },
                    req,
                    Some(setup_span),
                    a,
                    b,
                );
                since_base += 1;
                if sealed {
                    wal_base = Some(wal_len());
                    since_base = 0;
                } else if coll.memtable_len() + 1 == spec.memtable && wal_bytes_per_insert.is_none()
                {
                    if let Some(b0) = wal_base {
                        wal_bytes_per_insert = Some((wal_len() - b0) as f64 / since_base as f64);
                    }
                }
            }
        }
        let reader = coll.reader();
        let (server, collection) = if spec.served() {
            let server = Server::start(ServeConfig::default(), vec![(COLLECTION.into(), coll)])
                .expect("start the server");
            let mut conn = Conn::open(server.addr()).expect("connect to the server");
            let reply = conn.call(
                "POST",
                &format!("/collections/{COLLECTION}/search"),
                first_body,
            );
            let ok = match reply {
                Ok(r) if r.status == 200 => {
                    parse_search(&r.body, 0.0).and_then(|(n, _)| check_shape(&n, spec.k))
                }
                Ok(r) => Err(format!("first search: HTTP {}", r.status)),
                Err(e) => Err(format!("first search: {e}")),
            };
            checks.record(ok);
            (Some(server), None)
        } else {
            let mut rng = StdRng::seed_from_u64(self.seed);
            let res = coll.search(first_query, spec.k, spec.nprobe, &mut rng);
            checks.record(check_shape(&res.neighbors, spec.k));
            (None, Some(coll))
        };
        let setup = t0.elapsed();
        if tracer.enabled() {
            tracer.measured_as(setup_span, "setup", req, None, t0, t0 + setup);
        }
        Stood {
            dir: dir.to_path_buf(),
            reader,
            server,
            collection,
            setup,
            insert_ms,
            wal_bytes_per_insert,
        }
    }

    /// One HTTP search of query `qi`, checked; returns whether it passed.
    fn search(&self, sh: &Shared, c: &mut Searcher, qi: usize) -> bool {
        let traced = sh.tracer.enabled();
        if traced {
            c.tally.memtable_rows.push(sh.reader.memtable_len() as f64);
            c.tally.segments.push(sh.reader.n_segments() as f64);
        }
        let sent = Instant::now();
        let reply = c.conn.call("POST", sh.search_path, &sh.search_bodies[qi]);
        let done = Instant::now();
        let parsed = match reply {
            Err(e) => Err(format!("search transport: {e}")),
            Ok(r) if r.status != 200 => Err(format!("search: HTTP {} {}", r.status, r.body)),
            Ok(r) => parse_search(&r.body, us(done - sent)),
        };
        let (neighbors, timing) = match parsed {
            Ok(p) => p,
            Err(msg) => return sh.checks.record(Err(msg)),
        };
        let mut verdict = check_shape(&neighbors, sh.spec.k);
        if verdict.is_ok() {
            let deleted = sh.deleted.lock().expect("delete log poisoned");
            if let Some(&(id, _)) = neighbors
                .iter()
                .find(|(id, _)| deleted.get(id).is_some_and(|&acked| acked < sent))
            {
                verdict = Err(format!("deleted id {id} returned"));
            }
        }
        if verdict.is_ok() && !sh.truth.is_empty() {
            c.tally.recall_sum += recall(&sh.truth[qi], &neighbors);
            c.tally.recall_n += 1;
        }
        if let (true, Some(t)) = (traced, timing) {
            let req = sh.tracer.next_req();
            let root = sh.tracer.measured("serve.search", req, None, sent, done);
            // The edge time (rtt − router) is split evenly around the
            // router span; only its length is known.
            let edge = Duration::from_secs_f64(((t.rtt - t.router) / 2.0).max(0.0) / 1e6);
            let router = sh.tracer.derived(
                "serve.router",
                req,
                root,
                sent,
                edge,
                Duration::from_secs_f64(t.router / 1e6),
            );
            let queue = Duration::from_secs_f64((t.router - t.stage_total).max(0.0) / 1e6);
            stage_spans(sh.tracer, req, router, sent, edge + queue, &t.stages);
            c.tally.timings.push(t);
        }
        sh.checks.record(verdict)
    }

    fn serve_search(
        &self,
        sh: &Shared,
        stood: &Stood,
        slice: &mut Slice,
        tally: &mut Tally,
        invalid: &mut Option<String>,
    ) {
        let spec = self.spec;
        let addr = stood.server.as_ref().expect("served").addr();
        let nq = spec.queries;
        let clients = || {
            (0..self.threads)
                .map(|_| Searcher::open(addr))
                .collect::<Vec<_>>()
        };

        // Closed loop: `nproc` keep-alive connections, back to back.
        let closed = Duration::from_secs_f64(slice.secs * spec.closed_share);
        let (closed_clients, rates) = load::closed_loop(closed, QPS_SLICE, clients(), |c, seq| {
            self.search(sh, c, seq % nq)
        });
        slice
            .notes
            .push(("search_qps_windows".into(), json_list(&rates)));
        slice.qps_windows.extend(rates);

        // Open loop at a fixed rate, timed from when each search was due.
        let open = slice.secs * (1.0 - spec.closed_share);
        let count = (spec.search_rate * open).round().max(1.0) as usize;
        let (open_clients, records, _) =
            load::open_loop(spec.search_rate, count, clients(), |c, i| {
                self.search(sh, c, (i * 7 + 3) % nq)
            });
        let l = self.latency(
            &records,
            Duration::from_secs_f64(open),
            "search",
            slice,
            invalid,
        );
        slice.p50_windows.extend(&l.window_p50_ms);
        for c in closed_clients.into_iter().chain(open_clients) {
            tally.absorb(c.tally);
        }
    }

    /// The latency of one open-loop phase, with the generator's health
    /// noted in the slice.
    fn latency(
        &self,
        records: &[OpRecord],
        phase: Duration,
        what: &str,
        slice: &mut Slice,
        invalid: &mut Option<String>,
    ) -> Latency {
        let lat_ms: Vec<f64> = records.iter().map(|r| ms(r.latency)).collect();
        let l = Latency::of(&lat_ms);
        let h = load::health(records, phase);
        slice.notes.push((
            format!("{what}_open_loop"),
            format!(
                "{{\"latency\":{},\"late_p99_ms\":{},\"late_max_ms\":{},\"late_tail_ms\":{},\"backlog_grew\":{}}}",
                l.json(),
                h.late_p99_ms,
                h.late_max_ms,
                h.late_tail_ms,
                h.backlog_grew
            ),
        ));
        if h.backlog_grew && invalid.is_none() {
            *invalid = Some(format!(
                "{what} generator backlog grew: the last tenth of the schedule ran {:.1} ms late",
                h.late_tail_ms
            ));
        }
        l
    }

    fn batch_highdim(
        &self,
        sh: &Shared,
        stood: &Stood,
        queries: &[f32],
        slice: &mut Slice,
        tally: &mut Tally,
        layer: &mut Metrics,
    ) {
        let spec = self.spec;
        let dim = spec.dataset.dim();
        let coll = stood.collection.as_ref().expect("in-process collection");
        let tracer = self.tracer;

        // `search_many` at `nproc` threads over the query set, in calls of
        // `MANY_CALL` queries cycling through it, for the first share of
        // the slice. Each call is a throughput window: short enough to
        // fall inside the moments when the host leaves both virtual CPUs
        // alone.
        let phase = Duration::from_secs_f64(slice.secs * spec.closed_share);
        let start = Instant::now();
        let mut round_qps = Vec::new();
        let mut first: Vec<Option<Vec<u32>>> = vec![None; spec.queries];
        while round_qps.is_empty() || start.elapsed() < phase {
            let lo = (round_qps.len() * MANY_CALL) % spec.queries;
            let hi = (lo + MANY_CALL).min(spec.queries);
            let t0 = Instant::now();
            let results = coll.search_many(
                &queries[lo * dim..hi * dim],
                spec.k,
                spec.nprobe,
                ParallelOptions::threaded(self.threads),
            );
            let t1 = Instant::now();
            if tracer.enabled() {
                tracer.measured("store.search_many", tracer.next_req(), None, t0, t1);
            }
            round_qps.push(results.len() as f64 / (t1 - t0).as_secs_f64());
            for (r, qi) in results.iter().zip(lo..) {
                let mut verdict = check_shape(&r.neighbors, spec.k);
                if verdict.is_ok() {
                    let ids: Vec<u32> = r.neighbors.iter().map(|n| n.0).collect();
                    match &first[qi] {
                        None => {
                            tally.recall_sum += recall(&sh.truth[qi], &r.neighbors);
                            tally.recall_n += 1;
                            first[qi] = Some(ids);
                        }
                        Some(f) if *f != ids => {
                            verdict = Err(format!(
                                "search_many answer for query {qi} changed between rounds"
                            ));
                        }
                        Some(_) => {}
                    }
                }
                sh.checks.record(verdict);
            }
        }
        slice
            .notes
            .push(("search_qps_windows".into(), json_list(&round_qps)));
        slice.qps_windows.extend(round_qps);

        // Serial per-call pass through the detached reader.
        let phase = Duration::from_secs_f64(slice.secs * (1.0 - spec.closed_share));
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut lat_ms = Vec::new();
        let mut stage_sum = [0.0f64; 5];
        let start = Instant::now();
        while lat_ms.len() < 1000 || start.elapsed() < phase {
            let qi = lat_ms.len() % spec.queries;
            let q = &queries[qi * dim..(qi + 1) * dim];
            let t0 = Instant::now();
            let res = sh.reader.search(q, spec.k, spec.nprobe, &mut rng);
            let t1 = Instant::now();
            lat_ms.push(ms(t1 - t0));
            let verdict = check_shape(&res.neighbors, spec.k);
            if verdict.is_ok() {
                tally.recall_sum += recall(&sh.truth[qi], &res.neighbors);
                tally.recall_n += 1;
            }
            sh.checks.record(verdict);
            if tracer.enabled() {
                let req = tracer.next_req();
                let root = tracer.measured("store.search", req, None, t0, t1);
                let st = stages_us(&res.stages);
                stage_spans(tracer, req, root, t0, Duration::ZERO, &st);
                for (acc, v) in stage_sum.iter_mut().zip(st) {
                    *acc += v;
                }
            }
        }
        let l = Latency::of(&lat_ms);
        slice.p50_windows.extend(&l.window_p50_ms);
        slice.notes.push(("serial_search".into(), l.json()));
        if tracer.enabled() {
            let n = lat_ms.len() as f64;
            for (stage, total) in Stage::ALL.iter().zip(stage_sum) {
                layer.set(&format!("ivf.stage.{}_us", stage.name()), total / n, "us");
            }
            layer.set("store.search_us", mean(&lat_ms) * 1e3, "us");
            layer.set(
                "store.segments_per_query",
                sh.reader.n_segments() as f64,
                "count",
            );
            layer.set(
                "store.memtable_rows",
                sh.reader.memtable_len() as f64,
                "count",
            );
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn serve_mixed(
        &self,
        sh: &Shared,
        stood: &Stood,
        extra: &[f32],
        slice: &mut Slice,
        tally: &mut Tally,
        layer: &mut Metrics,
        invalid: &mut Option<String>,
    ) -> Writer {
        let spec = self.spec;
        let dim = spec.dataset.dim();
        let addr = stood.server.as_ref().expect("served").addr();
        let insert_bodies: Vec<String> = extra
            .chunks_exact(dim)
            .map(|v| format!("{{\"vector\":{}}}", vector_json(v)))
            .collect();
        let writer = Writer {
            conn: Conn::open(addr).expect("connect the writer"),
            live: (0..spec.rows as u32).collect(),
            deleted: Vec::new(),
            next_row: 0,
            rng_state: self.seed ^ 0xDE1E7E,
            insert_rtt_us: Vec::new(),
        };
        let is_delete = |i: usize| (i + 1).is_multiple_of(spec.delete_every);
        let phase = Duration::from_secs_f64(slice.secs);
        let write_rate = spec.writes as f64 / slice.secs;
        let searches = (spec.search_rate * slice.secs).round().max(1.0) as usize;
        let tracer = self.tracer;

        let write_op = |w: &mut Writer, i: usize| -> bool {
            let req = tracer.next_req();
            let sent = Instant::now();
            let verdict = if is_delete(i) {
                let pick = (splitmix(&mut w.rng_state) % w.live.len() as u64) as usize;
                let id = w.live.swap_remove(pick);
                let reply = w.conn.call(
                    "POST",
                    &format!("/collections/{COLLECTION}/delete"),
                    &format!("{{\"id\":{id}}}"),
                );
                let acked = Instant::now();
                if tracer.enabled() {
                    tracer.measured("serve.delete", req, None, sent, acked);
                }
                match reply {
                    Ok(r) if r.status == 200 => {
                        let n = Json::parse(&r.body)
                            .ok()
                            .and_then(|j| j.get("deleted").and_then(Json::as_u64));
                        if n == Some(1) {
                            sh.deleted
                                .lock()
                                .expect("delete log poisoned")
                                .insert(id, acked);
                            w.deleted.push(id);
                            Ok(())
                        } else {
                            Err(format!("delete of live id {id} answered {}", r.body))
                        }
                    }
                    Ok(r) => Err(format!("delete: HTTP {} {}", r.status, r.body)),
                    Err(e) => Err(format!("delete transport: {e}")),
                }
            } else {
                let row = w.next_row;
                w.next_row += 1;
                let reply = w.conn.call(
                    "POST",
                    &format!("/collections/{COLLECTION}/insert"),
                    &insert_bodies[row],
                );
                let acked = Instant::now();
                w.insert_rtt_us.push(us(acked - sent));
                if tracer.enabled() {
                    tracer.measured("serve.insert", req, None, sent, acked);
                }
                match reply {
                    Ok(r) if r.status == 200 => {
                        let ids = Json::parse(&r.body).ok().and_then(|j| {
                            j.get("ids")
                                .and_then(Json::as_array)
                                .map(|a| a.iter().filter_map(Json::as_u64).collect::<Vec<_>>())
                        });
                        match ids.as_deref() {
                            Some([id]) if *id <= u64::from(u32::MAX) => {
                                w.live.push(*id as u32);
                                Ok(())
                            }
                            _ => Err(format!("insert answered {}", r.body)),
                        }
                    }
                    Ok(r) => Err(format!("insert: HTTP {} {}", r.status, r.body)),
                    Err(e) => Err(format!("insert transport: {e}")),
                }
            };
            sh.checks.record(verdict)
        };

        let metrics = sh.reader.metrics().clone();
        let before = StoreCounters::read(&metrics);
        let nq = spec.queries;
        let ((searchers, search_records, search_wall), (mut writers, write_records, _)) =
            std::thread::scope(|scope| {
                let reads = scope.spawn(|| {
                    load::open_loop(
                        spec.search_rate,
                        searches,
                        vec![Searcher::open(addr)],
                        |c, i| self.search(sh, c, (i * 7 + 3) % nq),
                    )
                });
                let writes = load::open_loop(write_rate, spec.writes, vec![writer], write_op);
                (reads.join().expect("search generator panicked"), writes)
            });
        slice
            .qps_windows
            .push(search_records.len() as f64 / search_wall.as_secs_f64());
        let l = self.latency(&search_records, phase, "search", slice, invalid);
        slice.p50_windows.extend(&l.window_p50_ms);
        let inserts: Vec<OpRecord> = write_records
            .iter()
            .enumerate()
            .filter(|(i, _)| !is_delete(*i))
            .map(|(_, r)| *r)
            .collect();
        self.latency(&inserts, phase, "insert", slice, invalid);
        tally
            .insert_ms
            .extend(inserts.iter().map(|r| ms(r.latency)));
        if load::health(&write_records, phase).backlog_grew && invalid.is_none() {
            *invalid = Some("write generator backlog grew".into());
        }
        let after = StoreCounters::read(&metrics);
        slice.notes.push((
            "write_phase".into(),
            format!(
                "{{\"writes\":{},\"write_rate\":{},\"seals\":{},\"compactions\":{}}}",
                spec.writes,
                write_rate,
                after.seals - before.seals,
                after.compactions - before.compactions
            ),
        ));
        let writer = writers.pop().expect("one writer");
        if tracer.enabled() {
            layer.set("serve.insert_rtt_us", mean(&writer.insert_rtt_us), "us");
        }
        for c in searchers {
            tally.absorb(c.tally);
        }
        writer
    }

    /// `serve_mixed` recall: the query set against the re-opened final
    /// state, with exact truth over the rows that are live at the end.
    fn final_recall(
        &self,
        coll: &Collection,
        base: &[f32],
        extra: &[f32],
        w: &Writer,
        queries: &[f32],
        checks: &Checks,
    ) -> f64 {
        let spec = self.spec;
        let dim = spec.dataset.dim();
        let row_of = |id: u32| -> &[f32] {
            let id = id as usize;
            if id < spec.rows {
                &base[id * dim..(id + 1) * dim]
            } else {
                // Inserted ids are dense from `rows`, in insert order.
                let r = id - spec.rows;
                &extra[r * dim..(r + 1) * dim]
            }
        };
        let mut live = w.live.clone();
        live.sort_unstable();
        let mut data = Vec::with_capacity(live.len() * dim);
        for &id in &live {
            data.extend_from_slice(row_of(id));
        }
        let truth = exact_knn(&data, dim, queries, spec.k, self.threads);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut sum = 0.0;
        for (qi, q) in queries.chunks_exact(dim).enumerate() {
            let res = coll.search(q, spec.k, spec.nprobe, &mut rng);
            let ids: Vec<u32> = truth[qi]
                .iter()
                .map(|&(local, _)| live[local as usize])
                .collect();
            if checks.record(check_shape(&res.neighbors, spec.k)) {
                sum += recall(&ids, &res.neighbors);
            }
        }
        sum / spec.queries as f64
    }

    /// Traced-run tail: the per-layer probes and the program's own
    /// counters read through its public surfaces.
    fn trace_tail(
        &self,
        sh: &Shared,
        stood: &Stood,
        segment_rows: &[f32],
        queries: &[f32],
        layer: &mut Metrics,
        notes: &mut Vec<(String, String)>,
    ) {
        let spec = self.spec;
        let dim = spec.dataset.dim();
        let tracer = self.tracer;
        if let Some(server) = &stood.server {
            // store: the same queries, serial, through the detached reader.
            let mut rng = StdRng::seed_from_u64(self.seed);
            let mut lat = Vec::new();
            for q in queries.chunks_exact(dim).take(probe::PROBE_QUERIES) {
                let t0 = Instant::now();
                let res = sh.reader.search(q, spec.k, spec.nprobe, &mut rng);
                let t1 = Instant::now();
                let req = tracer.next_req();
                let root = tracer.measured("store.search", req, None, t0, t1);
                stage_spans(
                    tracer,
                    req,
                    root,
                    t0,
                    Duration::ZERO,
                    &stages_us(&res.stages),
                );
                lat.push(us(t1 - t0));
            }
            layer.set("store.search_us", mean(&lat), "us");

            let mut conn = Conn::open(server.addr()).expect("connect for /stats");
            let stats = conn
                .call("GET", "/stats", "")
                .ok()
                .and_then(|r| Json::parse(&r.body).ok());
            let m = stats.as_ref().and_then(|s| s.get("metrics"));
            let num = |k: &str| {
                m.and_then(|m| m.get(k))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
            };
            layer.set("serve.mean_batch_size", num("mean_batch_size"), "count");
            layer.set(
                "serve.shed_total",
                num("shed_overload") + num("shed_unavailable"),
                "count",
            );
            layer.set("serve.expired_total", num("deadline_exceeded"), "count");
            // The Prometheus surface must agree with the store's counters.
            let scrape = conn
                .call("GET", "/metrics", "")
                .map(|r| r.body)
                .unwrap_or_default();
            let seals = scrape
                .lines()
                .find(|l| l.starts_with("rabitq_store_seals_total{"))
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|v| v.parse::<f64>().ok());
            let want = StoreMetrics::get(&sh.reader.metrics().seals) as f64;
            sh.checks.record(if seals == Some(want) {
                Ok(())
            } else {
                Err(format!(
                    "/metrics seals {seals:?} disagree with the store's {want}"
                ))
            });
        }
        let m = sh.reader.metrics();
        let get = |c: &AtomicU64| StoreMetrics::get(c) as f64;
        layer.set("store.wal_fsyncs", get(&m.wal_syncs), "count");
        layer.set("store.seals", get(&m.seals), "count");
        layer.set("store.seal_ms", m.seal_us.mean_us() / 1e3, "ms");
        layer.set("store.compactions", get(&m.compactions), "count");
        layer.set("store.compact_ms", m.compaction_us.mean_us() / 1e3, "ms");
        layer.set(
            "store.compaction_bytes_rewritten",
            get(&m.compaction_bytes_out),
            "B",
        );
        layer.set("store.io_retries", get(&m.io_retries), "count");

        probe::layers(spec, segment_rows, queries, self.seed, tracer, layer);
        notes.push((
            "probe_queries".into(),
            probe::PROBE_QUERIES.min(spec.queries).to_string(),
        ));
    }
}

/// Store counters read before and after a phase.
struct StoreCounters {
    seals: u64,
    compactions: u64,
}

impl StoreCounters {
    fn read(m: &StoreMetrics) -> Self {
        Self {
            seals: StoreMetrics::get(&m.seals),
            compactions: StoreMetrics::get(&m.compactions),
        }
    }
}

/// Every acked live id must still be there after re-open, and no deleted
/// id may have come back. Probed through `Collection::delete`, whose
/// answer says whether the id was live; the run's directory is discarded
/// afterwards.
fn check_durable(coll: &mut Collection, live: &[u32], deleted: &[u32]) -> Result<(), String> {
    let mut missing = Vec::new();
    for &id in live {
        match coll.delete(id) {
            Ok(true) => {}
            Ok(false) => missing.push(id),
            Err(e) => return Err(format!("durability probe: {e}")),
        }
    }
    let mut resurrected = Vec::new();
    for &id in deleted {
        match coll.delete(id) {
            Ok(false) => {}
            Ok(true) => resurrected.push(id),
            Err(e) => return Err(format!("durability probe: {e}")),
        }
    }
    if missing.is_empty() && resurrected.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "after re-open: {} acked ids missing (first {:?}), {} deleted ids back (first {:?})",
            missing.len(),
            missing.first(),
            resurrected.len(),
            resurrected.first()
        ))
    }
}

/// Per-layer serve metrics from the traced searches, and the check
/// that the split adds up: per request the engine stages fit inside the
/// router time, which fits inside the client round trip, and
/// `edge + queue + Σ stages` reconciles with the round trip.
fn reconcile(
    checks: &Checks,
    timings: &[Timing],
    layer: &mut Metrics,
    notes: &mut Vec<(String, String)>,
) {
    let n = timings.len().max(1) as f64;
    let avg = |f: &dyn Fn(&Timing) -> f64| timings.iter().map(f).sum::<f64>() / n;
    let rtt = avg(&|t| t.rtt);
    let router = avg(&|t| t.router);
    let stage_total = avg(&|t| t.stage_total);
    let mut stages = [0.0; 5];
    for (i, s) in stages.iter_mut().enumerate() {
        *s = avg(&|t| t.stages[i]);
    }
    let stage_sum: f64 = stages.iter().sum();
    let (edge, queue) = (rtt - router, router - stage_total);
    // Timings are whole microseconds, each stage rounded down: allow
    // one microsecond per rounded term.
    let broken = timings
        .iter()
        .filter(|t| {
            let sum: f64 = t.stages.iter().sum();
            t.stage_total > t.router + 1.0
                || t.router > t.rtt + 1.0
                || (sum - t.stage_total).abs() > 5.0
        })
        .count();
    let residual = (edge + queue + stage_sum - rtt) / rtt.max(1e-9);
    checks.record(if broken == 0 && residual.abs() <= 0.01 {
        Ok(())
    } else {
        Err(format!(
            "layer split does not reconcile: {broken} of {} requests break stage <= router <= rtt, residual {residual:.4}",
            timings.len()
        ))
    });
    layer.set("serve.rtt_us", rtt, "us");
    layer.set("serve.router_us", router, "us");
    layer.set("serve.edge_us", edge, "us");
    layer.set("serve.queue_us", queue, "us");
    layer.set(
        "serve.unattributed_frac",
        1.0 - stage_sum / rtt.max(1e-9),
        "1",
    );
    for (stage, v) in Stage::ALL.iter().zip(stages) {
        layer.set(&format!("ivf.stage.{}_us", stage.name()), v, "us");
    }
    notes.push((
        "reconciliation".into(),
        format!(
            "{{\"requests\":{},\"rtt_us\":{rtt},\"edge_us\":{edge},\"queue_us\":{queue},\"stages_us\":{stage_sum},\"residual_frac\":{residual},\"broken_requests\":{broken},\"unattributed_frac\":{}}}",
            timings.len(),
            1.0 - stage_sum / rtt.max(1e-9)
        ),
    ));
}
