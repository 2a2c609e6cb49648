//! Load generators. A closed loop issues each worker's next operation
//! when the previous one returns; an open loop issues operation `i` when
//! it is due, at `start + i / rate`, whatever happened before, and times
//! it from that due instant, so a stall also counts against every
//! operation that queued behind it.

use crate::stats::{ms, quantile};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One completed open-loop operation.
#[derive(Clone, Copy)]
pub struct OpRecord {
    /// Send time minus due time: how late the generator ran.
    pub late: Duration,
    /// Completion time minus due time.
    pub latency: Duration,
}

/// How late an open-loop generator ran.
pub struct GeneratorHealth {
    pub late_p99_ms: f64,
    pub late_max_ms: f64,
    /// Median lateness of the last tenth of the schedule.
    pub late_tail_ms: f64,
    /// The backlog grew: the tail ran later than a tenth of the phase
    /// (and more than 20 ms), so the offered rate was above capacity and
    /// the latencies describe a queue, not the system.
    pub backlog_grew: bool,
}

/// Runs `count` operations due at `rate` per second, dealt round-robin to
/// one thread per element of `states`. `op(state, i)` performs (and
/// checks) operation `i`. Returns the states, one record per operation
/// in schedule order, and the wall time from the first due instant to
/// the last completion.
pub fn open_loop<S: Send>(
    rate: f64,
    count: usize,
    mut states: Vec<S>,
    op: impl Fn(&mut S, usize) -> bool + Sync,
) -> (Vec<S>, Vec<OpRecord>, Duration) {
    let workers = states.len().max(1);
    let start = Instant::now() + Duration::from_millis(5);
    let interval = 1.0 / rate;
    let op = &op;
    let per_worker: Vec<Vec<(usize, OpRecord)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .iter_mut()
            .enumerate()
            .map(|(w, state)| {
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(count / workers + 1);
                    for i in (w..count).step_by(workers) {
                        let due = start + Duration::from_secs_f64(i as f64 * interval);
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        op(state, i);
                        let done = Instant::now();
                        out.push((
                            i,
                            OpRecord {
                                late: sent.saturating_duration_since(due),
                                latency: done.saturating_duration_since(due),
                            },
                        ));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load worker panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    let mut all: Vec<(usize, OpRecord)> = per_worker.into_iter().flatten().collect();
    all.sort_by_key(|(i, _)| *i);
    (states, all.into_iter().map(|(_, r)| r).collect(), elapsed)
}

pub fn health(records: &[OpRecord], phase: Duration) -> GeneratorHealth {
    let late: Vec<f64> = records.iter().map(|r| ms(r.late)).collect();
    let tail = &late[late.len() - late.len().div_ceil(10).min(late.len())..];
    let late_tail_ms = quantile(tail, 0.5);
    GeneratorHealth {
        late_p99_ms: quantile(&late, 0.99),
        late_max_ms: quantile(&late, 1.0),
        late_tail_ms,
        backlog_grew: late_tail_ms > (ms(phase) / 10.0).max(20.0),
    }
}

/// Runs `op` back to back on one thread per state until `duration`
/// passes. `op(state, seq)` gets a sequence number unique across workers.
/// Returns the states and, per slice of `slice`, the operations completed
/// per second.
pub fn closed_loop<S: Send>(
    duration: Duration,
    slice: Duration,
    mut states: Vec<S>,
    op: impl Fn(&mut S, usize) -> bool + Sync,
) -> (Vec<S>, Vec<f64>) {
    let seq = AtomicUsize::new(0);
    let start = Instant::now();
    let end = start + duration;
    let (op, seq) = (&op, &seq);
    let done: Vec<Instant> = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .iter_mut()
            .map(|state| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    while Instant::now() < end {
                        op(state, seq.fetch_add(1, Ordering::Relaxed));
                        done.push(Instant::now());
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load worker panicked"))
            .collect()
    });
    // Per slice: completions over the span from the slice's first to its
    // last completion (exact timestamps, so the rate is not quantized).
    let slices = ((duration.as_secs_f64() / slice.as_secs_f64()) as usize).max(1);
    let mut bounds: Vec<Option<(Instant, Instant, usize)>> = vec![None; slices];
    for t in done {
        let i = (t.saturating_duration_since(start).as_secs_f64() / slice.as_secs_f64()) as usize;
        if let Some(b) = bounds.get_mut(i) {
            *b = Some(match *b {
                None => (t, t, 1),
                Some((lo, hi, n)) => (lo.min(t), hi.max(t), n + 1),
            });
        }
    }
    let per_sec = bounds
        .into_iter()
        .flatten()
        .filter(|&(lo, hi, n)| n > 1 && hi > lo)
        .map(|(lo, hi, n)| (n - 1) as f64 / (hi - lo).as_secs_f64())
        .collect();
    (states, per_sec)
}
