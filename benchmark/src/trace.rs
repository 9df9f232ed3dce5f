//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call
//! into a workspace crate: name, start, end, parent span and the id of
//! the operation they belong to. They stay in memory and are written
//! out once, when the run ends. With tracing off the recorder still
//! measures every interval (the end-to-end metrics need them) but keeps
//! nothing.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One finished span. Times are nanoseconds since the recorder started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span, returned by [`Tracer::begin`] and closed by
/// [`Tracer::end`].
#[must_use]
pub struct Open {
    slot: Option<usize>,
    start: Instant,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    op: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn off() -> Self {
        Self::new(false)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Spans begun from now on belong to operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let slot = self.enabled.then(|| {
            let id = self.spans.len();
            self.spans.push(Span {
                id,
                parent: self.stack.last().copied(),
                op: self.op,
                name,
                start_ns: self.ns(start),
                end_ns: 0,
            });
            self.stack.push(id);
            id
        });
        Open { slot, start }
    }

    /// Close `open` (spans close innermost first) and return its length.
    pub fn end(&mut self, open: Open) -> Duration {
        let end = Instant::now();
        if let Some(id) = open.slot {
            assert_eq!(
                self.stack.pop(),
                Some(id),
                "spans must close innermost first"
            );
            self.spans[id].end_ns = self.ns(end);
        }
        end - open.start
    }

    /// Run `f` inside a span named `name`; returns its result and length.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let open = self.begin(name);
        let out = f();
        (out, self.end(open))
    }

    /// Open spans right now.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Close every span opened above `depth` (an operation that panicked
    /// leaves its spans open).
    pub fn unwind_to(&mut self, depth: usize) {
        let now = self.ns(Instant::now());
        while self.stack.len() > depth {
            let id = self.stack.pop().expect("non-empty stack");
            self.spans[id].end_ns = now;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, t: Instant) -> u64 {
        (t - self.origin).as_nanos() as u64
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children's intervals cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// The trace file: every span with its self time, one JSON object.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [\n");
    for (i, (s, self_ns)) in spans.iter().zip(&selfs).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "  {{\"id\": {}, \"parent\": {parent}, \"op\": {}, \"name\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}{}\n",
            s.id,
            s.op,
            s.name,
            s.start_ns,
            s.end_ns,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 7,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        // op [0, 100): children a [10, 40) and b [30, 60) overlap on
        // [30, 40), so they cover 50 ns; c [70, 90) covers 20 more.
        // a has a grandchild [15, 25) that must not count against op.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 15, 25),
            span(3, Some(0), 30, 60),
            span(4, Some(0), 70, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 30, 20]);
    }

    #[test]
    fn recorder_links_parents_and_op_ids() {
        let mut tr = Tracer::new(true);
        tr.set_op(3);
        let op = tr.begin("op");
        let (v, _) = tr.time("inner", || 41 + 1);
        tr.end(op);
        assert_eq!(v, 42);
        let s = tr.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert!(s.iter().all(|s| s.op == 3));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let sum: u64 = self_times(s).iter().sum();
        assert_eq!(sum, s[0].duration_ns());
    }

    #[test]
    fn disabled_recorder_times_but_keeps_nothing() {
        let mut tr = Tracer::off();
        let (_, dt) = tr.time("x", || std::thread::sleep(Duration::from_millis(1)));
        assert!(dt >= Duration::from_millis(1));
        assert!(tr.spans().is_empty());
    }
}
