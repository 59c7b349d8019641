//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records a name, its start and end on the host clock, the span
//! that was open when it began (its parent), and the cell it belongs to.
//! Spans stay in memory until the workload ends; [`SpanLog::write_chrome_json`]
//! then writes them in the Chrome `trace_event` format that Perfetto
//! (<https://ui.perfetto.dev>) loads.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the log was created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The layer entry point, e.g. `engine.run`.
    pub name: &'static str,
    /// Start, in nanoseconds since the log's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the log's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The cell the call served (a pass-local cell index; setup uses 0).
    pub cell: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Total and self time of every span sharing one name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LayerTime {
    /// Spans of this name.
    pub count: u64,
    /// Summed durations, in nanoseconds.
    pub total_ns: u64,
    /// Summed durations minus the time their direct children cover.
    pub self_ns: u64,
}

/// An append-only span log with a stack of open spans.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, cell: u64) {
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: None,
            cell,
        });
        let len = self.open.len();
        if len > 1 {
            let index = self.open[len - 1];
            self.spans[index].parent = Some(self.open[len - 2]);
        }
    }

    /// Closes the innermost open span and returns its duration in seconds.
    pub fn exit(&mut self) -> f64 {
        let end_ns = self.now_ns();
        let index = self.open.pop().expect("exit matches an enter");
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.duration_ns() as f64 * 1e-9
    }

    /// Runs `f` inside a span; returns its value and the span's duration in
    /// seconds.
    pub fn time<T>(&mut self, name: &'static str, cell: u64, f: impl FnOnce() -> T) -> (T, f64) {
        self.enter(name, cell);
        let value = f();
        (value, self.exit())
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans `keep` selects as Chrome `trace_event` complete
    /// events (`ph: "X"`, microsecond times), each with its index in the
    /// log, its parent's index and its cell in `args`.
    pub fn write_chrome_json(
        &self,
        path: &std::path::Path,
        keep: impl Fn(usize, &Span) -> bool,
    ) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"traceEvents\":[")?;
        let mut first = true;
        for (index, span) in self.spans.iter().enumerate() {
            if !keep(index, span) {
                continue;
            }
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\
                 \"dur\":{:.3},\"args\":{{\"id\":{index},\"parent\":{parent},\"cell\":{}}}}}",
                if first { "" } else { ",\n" },
                span.name,
                span.start_ns as f64 / 1e3,
                span.duration_ns() as f64 / 1e3,
                span.cell,
            )?;
            first = false;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

/// Each span name's count, total time and self time: a span's self time is
/// its duration minus the durations of the spans directly nested in it
/// (children never overlap, since one thread records them).
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.duration_ns();
        }
    }
    let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        let layer = layers.entry(span.name).or_default();
        layer.count += 1;
        layer.total_ns += span.duration_ns();
        layer.self_ns += span.duration_ns() - children;
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            cell: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("pass", 0, 100, None),
            span("cluster.run", 10, 70, Some(0)),
            span("inner", 20, 50, Some(1)),
            span("metrics.summarize", 70, 90, Some(0)),
            span("cluster.run", 100, 130, None),
        ];
        let layers = layer_times(&spans);
        assert_eq!(
            layers["pass"],
            LayerTime {
                count: 1,
                total_ns: 100,
                self_ns: 20
            }
        );
        assert_eq!(
            layers["cluster.run"],
            LayerTime {
                count: 2,
                total_ns: 90,
                self_ns: 60
            }
        );
        assert_eq!(layers["inner"].self_ns, 30);
        assert_eq!(layers["metrics.summarize"].self_ns, 20);
    }

    #[test]
    fn log_records_nesting() {
        let mut log = SpanLog::new();
        log.enter("pass", 0);
        let (inner, seconds) = log.time("engine.run", 7, || 41 + 1);
        assert_eq!(inner, 42);
        assert!(seconds >= 0.0);
        log.exit();
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].cell, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let layers = layer_times(spans);
        assert_eq!(
            layers["pass"].self_ns + layers["engine.run"].total_ns,
            layers["pass"].total_ns
        );
    }
}
