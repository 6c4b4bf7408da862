//! Benchmark-side span tracing.
//!
//! Spans are recorded around calls into the program's public functions
//! from the benchmark's own code; nothing inside the program is
//! instrumented. Each span has a name, start, end, parent and the id
//! of the operation it belongs to. Spans stay in memory and are
//! written out once, when the run ends.

use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the run's origin.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Unique span id (never 0).
    pub id: u64,
    /// Enclosing span's id; 0 for a root span.
    pub parent: u64,
    /// Operation id shared by every span of one operation.
    pub op: u64,
    /// Layer-qualified span name, e.g. `svc.handle_submit`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
}

impl SpanRec {
    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    next_id: u64,
    stack: Vec<u64>,
    spans: Vec<SpanRec>,
}

impl Tracer {
    /// A recorder timing from `origin`.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            next_id: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Time `f` as span `name` of operation `op`, nested under the
    /// innermost open span. `f` receives the tracer to open children.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.next_id += 1;
        let id = self.next_id;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.stack.push(id);
        let start_ns = self.now_ns();
        let out = f(self);
        let end_ns = self.now_ns();
        self.stack.pop();
        self.spans.push(SpanRec {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// `(op, self time)` of every span named `name`: its duration minus
    /// the time its child spans cover, in nanoseconds.
    fn own(&self, name: &str) -> Vec<(u64, u64)> {
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let children = child_ns.get(&s.id).copied().unwrap_or(0);
                (s.op, s.dur_ns().saturating_sub(children))
            })
            .collect()
    }

    /// Self time of every span named `name`, in nanoseconds.
    pub fn self_times(&self, name: &str) -> Vec<u64> {
        self.own(name).into_iter().map(|(_, ns)| ns).collect()
    }

    /// Per-operation sums of the self time of spans named `name`
    /// (an operation may call one layer several times).
    pub fn self_time_per_op(&self, name: &str) -> Vec<u64> {
        let mut per_op: HashMap<u64, u64> = HashMap::new();
        for (op, ns) in self.own(name) {
            *per_op.entry(op).or_default() += ns;
        }
        let mut ops: Vec<(u64, u64)> = per_op.into_iter().collect();
        ops.sort_unstable();
        ops.into_iter().map(|(_, ns)| ns).collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut spans: Vec<&SpanRec> = self.spans.iter().collect();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        for s in spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Time `f` as span `name` of operation `op` when a tracer is given,
/// else just run it. `f` receives the tracer (if any) to open children.
pub fn span_opt<R>(
    t: Option<&mut Tracer>,
    name: &'static str,
    op: u64,
    f: impl FnOnce(Option<&mut Tracer>) -> R,
) -> R {
    match t {
        Some(t) => t.span(name, op, |t| f(Some(t))),
        None => f(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        t.span("op", 1, |t| {
            t.span("child", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("child", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let op = t.spans().iter().find(|s| s.name == "op").unwrap().clone();
        let children: u64 = t
            .spans()
            .iter()
            .filter(|s| s.parent == op.id)
            .map(SpanRec::dur_ns)
            .sum();
        assert_eq!(t.self_times("op"), vec![op.dur_ns() - children]);
        assert_eq!(t.self_time_per_op("child"), vec![children]);
        assert!(t.spans().iter().all(|s| s.op == 1));
    }
}
