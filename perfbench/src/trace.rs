//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (outside in); nothing inside the program is instrumented. Spans stay
//! in memory and are written out once, at the end of the run.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// Layer metric or phase the span belongs to (`app.run`,
    /// `core.checkpoint.write`, …).
    pub name: &'static str,
    /// What the span ran on (configuration label, grid id, policy, …).
    pub input: String,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span store with a stack of open spans (parents).
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::with_capacity(1 << 14), stack: Vec::new() }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Time `f` as a span named `name`, nested under the open span;
    /// returns its result and duration in seconds.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        input: impl Into<String>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        let start = Instant::now();
        let start_ns = self.ns(start);
        self.spans.push(Span { id, parent, name, input: input.into(), start_ns, end_ns: start_ns });
        self.stack.push(id);
        let out = f();
        let end = Instant::now();
        self.stack.pop();
        self.spans[id].end_ns = self.ns(end);
        (out, (end - start).as_secs_f64())
    }

    /// [`Tracer::span`] for a call whose result is only kept alive (so the
    /// compiler cannot drop the measured work); returns the duration.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        input: impl Into<String>,
        f: impl FnOnce() -> R,
    ) -> f64 {
        let (out, secs) = self.span(name, input, f);
        std::hint::black_box(out);
        secs
    }

    /// Record an interval measured elsewhere (inside a simulated rank),
    /// nested under the open span.
    pub fn record(
        &mut self,
        name: &'static str,
        input: impl Into<String>,
        start: Instant,
        end: Instant,
    ) {
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { id, parent, name, input: input.into(), start_ns, end_ns });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"input\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                s.name,
                s.input.replace('"', "'"),
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}
