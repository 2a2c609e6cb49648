//! Small numeric helpers and the named-metric collector.

use std::time::Duration;

/// The `q`-quantile (0..=1) of `values` by nearest rank; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Percentile summary of one latency population, in milliseconds.
///
/// The p99 is only meaningful with at least ten samples beyond it, so
/// it is taken per window of at least 1000 consecutive samples, and the
/// median of the window p99s is reported: a burst of host noise that
/// stalls one window does not move it, while a slowdown of the system
/// itself moves every window.
///
/// The p50 is also taken per window of `P50_WINDOW` consecutive samples,
/// for the run to pick its quietest window.
pub struct Latency {
    pub samples: usize,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub p99_ms: f64,
    pub max_ms: f64,
    pub window_p99_ms: Vec<f64>,
    /// p50 of each window of `P50_WINDOW` samples.
    pub window_p50_ms: Vec<f64>,
}

/// Fewest samples per p99 window.
const WINDOW: usize = 1000;
/// Most windows per population for the reported (median) p99.
const MAX_WINDOWS: usize = 10;
/// Samples per p50 window.
const P50_WINDOW: usize = 200;

/// `q`-quantile of each of the consecutive windows of at least `window`
/// samples that `values` splits into (one window when shorter), capped
/// at `max_windows` windows.
fn window_quantiles(values: &[f64], window: usize, max_windows: usize, q: f64) -> Vec<f64> {
    let n = values.len();
    let windows = (n / window).clamp(1, max_windows);
    (0..windows)
        .map(|w| quantile(&values[w * n / windows..(w + 1) * n / windows], q))
        .collect()
}

/// The lowest of `values`.
pub fn lowest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// `values` as a JSON array.
pub fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|&v| json_num(v)).collect();
    format!("[{}]", items.join(","))
}

impl Latency {
    /// `samples_ms` in the order they were scheduled.
    pub fn of(samples_ms: &[f64]) -> Self {
        let window_p99_ms = window_quantiles(samples_ms, WINDOW, MAX_WINDOWS, 0.99);
        let window_p50_ms = window_quantiles(samples_ms, P50_WINDOW, usize::MAX, 0.50);
        Self {
            samples: samples_ms.len(),
            p50_ms: quantile(samples_ms, 0.50),
            p90_ms: quantile(samples_ms, 0.90),
            p99_ms: median(&window_p99_ms),
            max_ms: quantile(samples_ms, 1.0),
            window_p99_ms,
            window_p50_ms,
        }
    }

    /// Whether each p99 window has at least ten samples beyond its p99.
    pub fn p99_supported(&self) -> bool {
        self.samples >= WINDOW
    }

    /// The summary as a JSON object, for the result artifact.
    pub fn json(&self) -> String {
        format!(
            "{{\"samples\":{},\"p99_supported\":{},\"p50_ms\":{},\"p90_ms\":{},\"p99_ms\":{},\"max_ms\":{},\"window_p99_ms\":{},\"window_p50_ms\":{}}}",
            self.samples,
            self.p99_supported(),
            json_num(self.p50_ms),
            json_num(self.p90_ms),
            json_num(self.p99_ms),
            json_num(self.max_ms),
            json_list(&self.window_p99_ms),
            json_list(&self.window_p50_ms)
        )
    }
}

/// Named metrics in insertion order, each with its unit.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.entries.iter_mut().find(|e| e.0 == name) {
            Some(e) => {
                e.1 = value;
                e.2 = unit;
            }
            None => self.entries.push((name.to_string(), value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|e| e.0 == name).map(|e| e.1)
    }
}

/// Renders `v` as a JSON number with every digit Rust keeps (shortest
/// round-trip form); non-finite values become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn p99_is_the_median_of_window_p99s() {
        // Three windows of 1000; one has a burst of 50 slow samples.
        let mut v = vec![1.0; 3000];
        for x in &mut v[1000..1050] {
            *x = 100.0;
        }
        let l = Latency::of(&v);
        assert_eq!(l.window_p99_ms, vec![1.0, 100.0, 1.0]);
        assert_eq!(l.p99_ms, 1.0);
        assert_eq!(l.max_ms, 100.0);
        assert!(l.p99_supported());
        assert_eq!(Latency::of(&v[..500]).window_p99_ms.len(), 1);
    }

    #[test]
    fn p50_per_window() {
        // Four stretches of 1000: the third is uniformly faster.
        let mut v: Vec<f64> = (0..4000).map(|i| 2.0 + (i % 10) as f64).collect();
        for x in &mut v[2000..3000] {
            *x -= 1.0;
        }
        let l = Latency::of(&v);
        assert_eq!(l.p50_ms, 6.0);
        assert_eq!(l.window_p50_ms.len(), 4000 / P50_WINDOW);
        assert_eq!(lowest(&l.window_p50_ms), 5.0);
        assert_eq!(l.window_p50_ms[0], 6.0);
        assert_eq!(Latency::of(&v[..150]).window_p50_ms, vec![6.0]);
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_num(1.0), "1.0");
        assert_eq!(json_num(0.123456789012), "0.123456789012");
        assert_eq!(json_num(f64::NAN), "null");
    }
}
