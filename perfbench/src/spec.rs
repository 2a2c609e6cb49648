//! The workloads: what each one runs and why.

use rabitq_data::registry::PaperDataset;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// HTTP searches over a 4-segment collection: a closed-loop phase at
    /// `nproc` connections, then an open-loop phase at a fixed rate.
    ServeSearch,
    /// In-process `search_many` at `nproc` threads plus a serial
    /// per-call pass over one high-dimensional segment. No HTTP.
    BatchHighdim,
    /// One open-loop search connection and one open-loop write connection
    /// (inserts, every tenth write a delete) against a served collection:
    /// the store's write path (WAL append, inline seal, compaction,
    /// snapshot publish, memtable scan) under reads. Runnable by name but
    /// left out of `BENCHMARK.json`: on a 2-vCPU shared host its search
    /// and insert latencies moved by more than the 25% bound between runs
    /// of one build (a single connection per direction queues behind every
    /// stalled virtual CPU), so it cannot gate a change yet.
    ServeMixed,
}

#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub dataset: PaperDataset,
    /// Rows ingested during set-up (a whole number of memtables, so
    /// set-up ends with an empty memtable and `rows / memtable` segments).
    pub rows: usize,
    /// Memtable rows that trigger a seal.
    pub memtable: usize,
    /// Compaction fan-out cap (`CompactionPolicy::max_segments`).
    pub max_segments: usize,
    pub queries: usize,
    pub k: usize,
    pub nprobe: usize,
    /// Open-loop search rate, searches per second (served workloads).
    pub search_rate: f64,
    /// Share of each slice spent in the throughput phase: the closed
    /// loop of `serve_search`, the `search_many` rounds of
    /// `batch_highdim`. The rest measures latency.
    pub closed_share: f64,
    /// Writes per measured slice (`serve_mixed`): fixed, so the seal and
    /// compaction counts repeat exactly; the write rate is `writes` over
    /// the slice's share of `--seconds`.
    pub writes: usize,
    /// Every `delete_every`-th write deletes an earlier id.
    pub delete_every: usize,
    /// Lowest acceptable mean recall@k.
    pub recall_floor: f64,
    /// Set-ups per run, each followed by one measured slice; `setup_s`
    /// is their median.
    pub setup_reps: usize,
    /// Re-opens after each set-up's slice; `reopen_s` is the median of
    /// all of them.
    pub reopen_reps: usize,
}

pub const NAMES: [&str; 3] = ["serve_search", "batch_highdim", "serve_mixed"];

impl Spec {
    pub fn named(name: &str, smoke: bool) -> Option<Spec> {
        let spec = match name {
            "serve_search" => Spec {
                name: "serve_search",
                kind: Kind::ServeSearch,
                dataset: PaperDataset::Sift,
                rows: 40_000,
                memtable: 10_000,
                max_segments: 8,
                queries: 1000,
                k: 10,
                nprobe: 12,
                search_rate: 300.0,
                closed_share: 0.4,
                writes: 0,
                delete_every: 0,
                recall_floor: 0.95,
                setup_reps: 3,
                reopen_reps: 5,
            },
            "batch_highdim" => Spec {
                name: "batch_highdim",
                kind: Kind::BatchHighdim,
                dataset: PaperDataset::Deep,
                rows: 20_000,
                memtable: 20_000,
                max_segments: 8,
                queries: 1000,
                k: 100,
                nprobe: 8,
                search_rate: 0.0,
                closed_share: 0.5,
                writes: 0,
                delete_every: 0,
                recall_floor: 0.9,
                setup_reps: 3,
                reopen_reps: 5,
            },
            "serve_mixed" => Spec {
                name: "serve_mixed",
                kind: Kind::ServeMixed,
                dataset: PaperDataset::Sift,
                rows: 4_000,
                memtable: 1_000,
                max_segments: 4,
                queries: 1000,
                k: 10,
                nprobe: 12,
                search_rate: 200.0,
                closed_share: 0.0,
                writes: 1_250,
                delete_every: 10,
                recall_floor: 0.95,
                setup_reps: 3,
                reopen_reps: 5,
            },
            _ => return None,
        };
        Some(if smoke { spec.smoke() } else { spec })
    }

    /// The same workload at a size that finishes in seconds.
    fn smoke(self) -> Spec {
        let shrink = |n: usize| (n / 20).max(1);
        let memtable = shrink(self.memtable).max(100);
        Spec {
            rows: memtable * (self.rows / self.memtable),
            memtable,
            queries: 50,
            // Few rows per bucket: keep k within what nprobe buckets hold.
            k: self.k.min(10),
            search_rate: (self.search_rate / 4.0).max(20.0),
            writes: shrink(self.writes),
            recall_floor: self.recall_floor - 0.2,
            setup_reps: 1,
            reopen_reps: 1,
            ..self
        }
    }

    pub fn served(&self) -> bool {
        self.kind != Kind::BatchHighdim
    }

    /// Rows generated beyond set-up for the write phase.
    pub fn insert_rows(&self) -> usize {
        if self.kind == Kind::ServeMixed {
            self.writes
        } else {
            0
        }
    }

    /// One-line description for the provenance block.
    pub fn describe(&self) -> String {
        format!(
            "dataset={} dim={} rows={} memtable={} max_segments={} queries={} k={} nprobe={} \
             search_rate={} closed_share={} writes={} delete_every={} recall_floor={} \
             setup_reps={} reopen_reps={}",
            self.dataset.name(),
            self.dataset.dim(),
            self.rows,
            self.memtable,
            self.max_segments,
            self.queries,
            self.k,
            self.nprobe,
            self.search_rate,
            self.closed_share,
            self.writes,
            self.delete_every,
            self.recall_floor,
            self.setup_reps,
            self.reopen_reps
        )
    }
}
