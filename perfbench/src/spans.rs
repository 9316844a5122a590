//! In-memory span recorder for traced runs.
//!
//! A span is one call into a layer of the program, made from the
//! benchmark's own code: its name, start and end on the run's clock, the
//! span it was opened under, and the workload phase (round) it belongs
//! to. Spans are only kept when tracing is on; [`Tracer::report`] turns
//! them into per-layer self times at the end of the run and
//! [`Tracer::write`] saves them as JSON.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer was made.
struct Span {
    name: &'static str,
    phase: u32,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// A span that has been opened; hand it back to [`Tracer::exit`].
#[must_use = "an opened span must be closed with Tracer::exit"]
pub struct Open {
    index: Option<usize>,
    started: Instant,
}

/// Records spans on the benchmark's main thread.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    phase: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`; a disabled tracer
    /// still times [`Tracer::enter`]/[`Tracer::exit`] pairs.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            phase: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the phase id that spans opened from now on carry.
    pub fn set_phase(&mut self, phase: u32) {
        self.phase = phase;
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let started = Instant::now();
        let index = self.enabled.then(|| {
            let start_ns = self.ns(started);
            self.spans.push(Span {
                name,
                phase: self.phase,
                parent: self.stack.last().copied(),
                start_ns,
                end_ns: start_ns,
            });
            let index = self.spans.len() - 1;
            self.stack.push(index);
            index
        });
        Open { index, started }
    }

    /// Closes `open` and returns its duration in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let ended = Instant::now();
        if let Some(index) = open.index {
            self.spans[index].end_ns = self.ns(ended);
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(index), "spans must close innermost first");
        }
        ended.duration_since(open.started).as_secs_f64()
    }

    /// Runs `f` inside a span named `name`, returning its value and its
    /// duration in seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.enter(name);
        let value = f();
        (value, self.exit(open))
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Per-name span count, total time and self time (total minus the
    /// time covered by child spans), in seconds, sorted by self time.
    pub fn report(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let total = span.end_ns - span.start_ns;
            let own = total.saturating_sub(children);
            match rows.iter_mut().find(|row| row.0 == span.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += total as f64 * 1e-9;
                    row.3 += own as f64 * 1e-9;
                }
                None => rows.push((span.name, 1, total as f64 * 1e-9, own as f64 * 1e-9)),
            }
        }
        rows.sort_by(|a, b| b.3.total_cmp(&a.3));
        rows
    }

    /// Writes every span as one JSON array to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"phase\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.phase, span.start_ns, span.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
