//! Failure accounting and metric collection.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use crate::stats;

/// Operations attempted and failed. An operation fails when it returns
/// an error, panics, or its output disagrees with the oracle.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the run log.
    pub failures: Vec<String>,
}

impl Tally {
    /// Run one operation. `Ok` means it ran and its output matched the
    /// oracle; an `Err` or a panic counts it as failed.
    pub fn attempt<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let res = catch_unwind(AssertUnwindSafe(f))
            .unwrap_or_else(|p| Err(format!("panicked: {}", panic_text(&p))));
        match res {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.failures.len() < 8 {
                    self.failures.push(format!("{what}: {e}"));
                }
                None
            }
        }
    }

    pub fn failure_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn panic_text(p: &Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into())
}

/// `Err` naming `what` unless `got == want`.
pub fn same<T: PartialEq + ?Sized>(what: &str, got: &T, want: &T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: output differs from the oracle"))
    }
}

/// Named metric values in insertion order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, &'static str, f64)>);

impl Metrics {
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        self.0.push((name.to_string(), unit, value));
    }

    /// `name` set to the median of `xs`, when there is one.
    pub fn median(&mut self, name: &str, unit: &'static str, xs: &[f64]) {
        if let Some(v) = stats::median(xs) {
            self.put(name, unit, v);
        }
    }

    /// `name` set to rate `rate` of `s`, when there are samples.
    pub fn rate(&mut self, name: &str, unit: &'static str, s: &Samples, rate: &str) {
        if let Some(v) = s.rate(rate) {
            self.put(name, unit, v);
        }
    }

    /// `<base>_p50_<unit>` and, when the sample supports one, the tail
    /// percentile by the rule of [`stats::tail`], named after the
    /// percentile it is (`<base>_p90_ms`, `<base>_p75_ms`, ...).
    pub fn latency(&mut self, base: &str, xs: &[f64]) {
        self.median(&format!("{base}_p50_ms"), "ms", xs);
        if let Some((p, v)) = stats::tail(xs).filter(|&(p, _)| p > 50.0) {
            self.put(&format!("{base}_p{}_ms", pct_label(p)), "ms", v);
        }
        self.put(&format!("{base}_samples"), "count", xs.len() as f64);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.2)
    }
}

fn pct_label(p: f64) -> String {
    format!("{p}").replace('.', "_")
}

/// Per-name samples (milliseconds or counts) gathered over a run.
#[derive(Default)]
pub struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &str, v: f64) {
        self.0.entry(name.to_string()).or_default().push(v);
    }

    pub fn push_ms(&mut self, name: &str, d: Duration) {
        self.push(name, ms(d));
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], |v| v.as_slice())
    }

    /// `amount` of work done in `d`, one sample of rate `name`.
    pub fn push_rate(&mut self, name: &str, amount: f64, d: Duration) {
        self.push(&format!("{name}.amount"), amount);
        self.push(&format!("{name}.s"), d.as_secs_f64());
    }

    /// Total amount ÷ total time over the samples of rate `name`: a
    /// throughput that a mix of fast and slow samples leaves steady.
    pub fn rate(&self, name: &str) -> Option<f64> {
        let secs: f64 = self.get(&format!("{name}.s")).iter().sum();
        let amount: f64 = self.get(&format!("{name}.amount")).iter().sum();
        (secs > 0.0).then(|| amount / secs)
    }

    pub fn mean(&self, name: &str) -> Option<f64> {
        let xs = self.get(name);
        (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn mb(bytes: usize) -> f64 {
    bytes as f64 / 1e6
}

/// Peak resident set of this process so far (Linux `VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_and_panics_count_as_failed() {
        let mut t = Tally::default();
        assert_eq!(t.attempt("ok", || Ok(5)), Some(5));
        assert_eq!(t.attempt("err", || Err::<(), _>("boom".into())), None);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = t.attempt("panic", || -> Result<(), String> { panic!("kaput") });
        std::panic::set_hook(prev);
        assert_eq!(r, None);
        assert_eq!((t.attempted, t.failed), (3, 2));
        assert!(t.failures[1].contains("kaput"));
    }

    #[test]
    fn latency_names_the_supported_percentile() {
        let mut m = Metrics::default();
        m.latency("q", &(1..=100).map(f64::from).collect::<Vec<_>>());
        assert_eq!(m.get("q_p90_ms"), Some(90.0));
        let mut m = Metrics::default();
        m.latency("q", &(1..=40).map(f64::from).collect::<Vec<_>>());
        assert_eq!(m.get("q_p90_ms"), None);
        assert_eq!(m.get("q_p75_ms"), Some(30.0));
    }
}
