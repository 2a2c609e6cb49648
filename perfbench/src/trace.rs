//! In-memory span recording for the traced run.
//!
//! Every span has a name, start, end, parent and request id. Spans are
//! kept in memory and written out when the run ends. A span the
//! benchmark times itself around a public call is *measured*; a span
//! built from a duration the program reports (`?debug=timings`,
//! `SearchResult::stages`) is *derived*: its length is exact but its
//! placement inside the parent is not known, so derived children are
//! laid out back to back from the parent's start. Self time is a span's
//! duration minus its children's durations.

use crate::stats::json_str;
use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub derived: bool,
}

/// Per-name totals over all spans of that name.
#[derive(Default, Clone, Copy)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SelfTime {
    pub fn mean_self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    next_req: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            next_req: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn next_req(&self) -> u64 {
        self.next_req.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn push(&self, span: Span) -> u64 {
        let id = span.id;
        self.spans.lock().expect("span buffer poisoned").push(span);
        id
    }

    /// A fresh span id, for a parent span recorded after its children.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span timed by the benchmark; returns its id.
    pub fn measured(
        &self,
        name: &'static str,
        req: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        self.measured_as(self.reserve(), name, req, parent, start, end)
    }

    /// [`Tracer::measured`] under an id taken from [`Tracer::reserve`].
    pub fn measured_as(
        &self,
        id: u64,
        name: &'static str,
        req: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        self.push(Span {
            id,
            parent,
            req,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            derived: false,
        })
    }

    /// Records a span of known length reported by the program, starting
    /// `offset` after `start`; returns its id.
    pub fn derived(
        &self,
        name: &'static str,
        req: u64,
        parent: u64,
        start: Instant,
        offset: Duration,
        len: Duration,
    ) -> u64 {
        let start_ns = self.ns(start) + offset.as_nanos() as u64;
        self.push(Span {
            id: self.reserve(),
            parent: Some(parent),
            req,
            name,
            start_ns,
            end_ns: start_ns + len.as_nanos() as u64,
            derived: true,
        })
    }

    /// Self time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for s in spans.iter() {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        }
        out
    }

    /// Writes `header` (a JSON object) as the first line, then one JSON
    /// object per span.
    pub fn write(&self, path: &Path, header: &str) -> io::Result<()> {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{header}")?;
        for s in spans.iter() {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"derived\":{}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.req,
                json_str(s.name),
                s.start_ns,
                s.end_ns,
                s.derived
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        let t0 = Instant::now();
        let root = t.measured("root", 1, None, t0, t0 + Duration::from_micros(100));
        let mid = t.derived(
            "mid",
            1,
            root,
            t0,
            Duration::ZERO,
            Duration::from_micros(60),
        );
        t.derived(
            "leaf",
            1,
            mid,
            t0,
            Duration::ZERO,
            Duration::from_micros(25),
        );
        let st = t.self_times();
        assert_eq!(st["root"].self_ns, 40_000);
        assert_eq!(st["mid"].self_ns, 35_000);
        assert_eq!(st["leaf"].self_ns, 25_000);
        assert_eq!(st["root"].total_ns, 100_000);
    }
}
