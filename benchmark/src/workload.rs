//! What every workload shares: run settings, the closed loop, repeated
//! set-up, and the traced/untraced operation pairs of the traced run.

use std::time::{Duration, Instant};
use ule_par::ThreadConfig;

use crate::report::{Metrics, Tally};
use crate::stats;
use crate::trace::{Span, Tracer};

/// Every library call gets the same fixed two-worker pool.
pub const THREADS: ThreadConfig = ThreadConfig::Fixed(2);

pub struct RunCfg {
    pub seed: u64,
    /// How long the closed loop issues operations.
    pub seconds: f64,
    /// Traced run: spans, layer probes and traced/untraced pairs.
    pub trace: bool,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

/// What a workload run hands back to `main`.
pub struct Outcome {
    pub e2e: Metrics,
    pub layers: Metrics,
    pub tally: Tally,
    /// Layer probes (traced runs only).
    pub probes: Tally,
    pub spans: Vec<Span>,
    /// Traced ÷ untraced operation wall time (traced runs only).
    pub trace_overhead: Option<f64>,
}

/// Set up `n` times and return the median time with the last result.
pub fn repeated_setup<T>(
    n: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        let t = Instant::now();
        let v = setup()?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    let median = stats::median(&times).expect("at least one set-up");
    Ok((last.expect("at least one set-up"), median))
}

/// One closed-loop client: operation `i + 1` starts only after
/// operation `i` returned, until `seconds` have passed.
pub fn closed_loop(seconds: f64, mut op: impl FnMut(u64)) {
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < seconds {
        op(i);
        i += 1;
    }
}

/// Runs operations for a workload: counts failures, and in a traced run
/// runs each operation twice, once recorded and once not (alternating
/// which goes first), so the recorder's overhead is measured on the
/// same inputs. The pair counts as one operation, failed if either run
/// fails. Layer probes are counted apart from the operations.
pub struct Looper {
    pub tally: Tally,
    /// Layer probes of a traced run.
    pub probes: Tally,
    pub tr: Tracer,
    off: Tracer,
    wall_on: f64,
    wall_off: f64,
}

impl Looper {
    pub fn new(trace: bool) -> Self {
        Self {
            tally: Tally::default(),
            probes: Tally::default(),
            tr: Tracer::new(trace),
            off: Tracer::off(),
            wall_on: 0.0,
            wall_off: 0.0,
        }
    }

    /// Run operation `i`. `f` returns its result and the operation's
    /// wall time; the result of the recorded run is returned.
    pub fn op<T>(
        &mut self,
        i: u64,
        what: &str,
        mut f: impl FnMut(&mut Tracer) -> Result<(T, Duration), String>,
    ) -> Option<T> {
        let Self {
            tally,
            tr,
            off,
            wall_on,
            wall_off,
            ..
        } = self;
        tr.set_op(i);
        let depth = tr.depth();
        if !tr.enabled() {
            return tally.attempt(what, || f(tr)).map(|(v, _)| v);
        }
        let recorded_first = i % 2 == 1;
        let res = tally.attempt(what, || {
            let mut main = None;
            let mut twin = None;
            for recorded in [recorded_first, !recorded_first] {
                if recorded {
                    main = Some(f(tr)?);
                } else {
                    twin = Some(f(off).map_err(|e| format!("untraced twin: {e}"))?.1);
                }
            }
            let ((v, on), off) = main.zip(twin).expect("both runs returned");
            *wall_on += on.as_secs_f64();
            *wall_off += off.as_secs_f64();
            Ok(v)
        });
        tr.unwind_to(depth);
        res
    }

    /// Layer probes of operation `i` (traced runs only), under a `probe`
    /// root span that shares the operation's id.
    pub fn probe(&mut self, i: u64, f: impl FnOnce(&mut Tracer) -> Result<(), String>) {
        if !self.tr.enabled() {
            return;
        }
        let Self { probes, tr, .. } = self;
        tr.set_op(i);
        let depth = tr.depth();
        probes.attempt("layer probe", || {
            let open = tr.begin("probe");
            let res = f(tr);
            tr.end(open);
            res
        });
        tr.unwind_to(depth);
    }

    pub fn finish(self, e2e: Metrics, layers: Metrics) -> Outcome {
        let trace_overhead =
            (self.tr.enabled() && self.wall_off > 0.0).then(|| self.wall_on / self.wall_off);
        Outcome {
            e2e,
            layers,
            tally: self.tally,
            probes: self.probes,
            spans: self.tr.spans().to_vec(),
            trace_overhead,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_pair_counts_as_one_operation() {
        let mut lp = Looper::new(true);
        let ms = Duration::from_millis(1);
        assert_eq!(lp.op(0, "ok", |_| Ok((7, ms))), Some(7));
        // The recorded run fails: one failed operation, not two.
        let recorded_fails = |tr: &mut Tracer| {
            if tr.enabled() {
                Err("wrong bytes".to_string())
            } else {
                Ok((0, ms))
            }
        };
        assert_eq!(lp.op(1, "bad", recorded_fails), None);
        // Only the untraced twin fails: the operation fails too.
        let twin_fails = |tr: &mut Tracer| {
            if tr.enabled() {
                Ok((0, ms))
            } else {
                Err("wrong bytes".to_string())
            }
        };
        assert_eq!(lp.op(2, "twin", twin_fails), None);
        lp.probe(3, |_| Err("probe mismatch".into()));
        assert_eq!((lp.tally.attempted, lp.tally.failed), (3, 2));
        assert_eq!((lp.probes.attempted, lp.probes.failed), (1, 1));
        assert!(lp.tally.failures[1].contains("untraced twin"));
    }
}
