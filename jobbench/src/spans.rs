//! In-memory spans for the traced run.
//!
//! Each worker thread records into its own [`Recorder`] (no locks on the
//! hot path); the recorders are merged into one [`Trace`] when a pass
//! ends, and the trace is written out once, when the run ends. A span is
//! `(stream, pass, id, name, parent, start, end)`: every span of one job
//! or session carries that job's or session's id, and `parent` names the
//! span of the same stream, pass and id that caused it.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Which job or session a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanId {
    /// Pass-level work: scans, exports, plan builds.
    Pass,
    /// One campaign job, by plan index.
    Job(u32),
    /// One Table 1 row and its two power sessions, by algorithm index.
    Session(u32),
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpanId::Pass => f.write_str("pass"),
            SpanId::Job(job) => write!(f, "job:{job}"),
            SpanId::Session(session) => write!(f, "session:{session}"),
        }
    }
}

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The job stream or table the span belongs to.
    pub stream: &'static str,
    /// Traced pass number; 0 is the serial reconciliation pass.
    pub pass: u32,
    /// The job or session the span belongs to.
    pub id: SpanId,
    /// Layer boundary, e.g. `executor.walk_build`.
    pub name: &'static str,
    /// Name of the span of the same id that caused this one.
    pub parent: Option<&'static str>,
    /// Start, relative to the run's origin.
    pub start: Duration,
    /// End, relative to the run's origin.
    pub end: Duration,
}

impl Span {
    /// Length of the span in seconds.
    pub fn seconds(&self) -> f64 {
        self.end.saturating_sub(self.start).as_secs_f64()
    }
}

/// A per-thread span buffer.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    stream: &'static str,
    pass: u32,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder for `pass` over `stream`; all recorders of one run
    /// share `origin`.
    pub fn new(origin: Instant, stream: &'static str, pass: u32) -> Self {
        Self {
            origin,
            stream,
            pass,
            spans: Vec::new(),
        }
    }

    /// Runs `work` inside a span.
    pub fn time<R>(
        &mut self,
        id: SpanId,
        name: &'static str,
        parent: Option<&'static str>,
        work: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let result = work();
        self.record(id, name, parent, start, Instant::now());
        result
    }

    /// Records a span whose interval was measured elsewhere, e.g. one
    /// that starts on one thread and ends on another.
    pub fn record(
        &mut self,
        id: SpanId,
        name: &'static str,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            stream: self.stream,
            pass: self.pass,
            id,
            name,
            parent,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
        });
    }

    /// The stream this recorder labels its spans with.
    pub fn stream(&self) -> &'static str {
        self.stream
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-layer totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans of this name.
    pub count: usize,
    /// Summed span durations, in seconds.
    pub total_s: f64,
    /// Summed self time: each span's duration minus the part its child
    /// spans cover.
    pub self_s: f64,
}

/// All spans of a run.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Adds a recorder's spans.
    pub fn absorb(&mut self, recorder: Recorder) {
        self.spans.extend(recorder.spans);
    }

    /// Durations (seconds) of every span of `stream` called `name` in
    /// traced passes (`pass > 0`), or in the serial pass only when
    /// `serial` is set.
    pub fn seconds(&self, stream: &str, name: &str, serial: bool) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.stream == stream && s.name == name && (s.pass == 0) == serial)
            .map(Span::seconds)
            .collect()
    }

    /// Self time per stream and layer. A child is charged to the span of
    /// its parent's name, in the same stream, pass and id, whose interval
    /// contains the child's start.
    pub fn layer_times(&self) -> BTreeMap<(&'static str, &'static str), LayerTime> {
        let mut groups: BTreeMap<(&str, u32, SpanId), Vec<&Span>> = BTreeMap::new();
        for span in &self.spans {
            groups
                .entry((span.stream, span.pass, span.id))
                .or_default()
                .push(span);
        }
        let mut layers: BTreeMap<(&'static str, &'static str), LayerTime> = BTreeMap::new();
        for spans in groups.values() {
            for span in spans {
                let covered: f64 = spans
                    .iter()
                    .filter(|child| {
                        child.parent == Some(span.name)
                            && child.start >= span.start
                            && child.start <= span.end
                    })
                    .map(|child| child.seconds())
                    .sum();
                let layer = layers.entry((span.stream, span.name)).or_default();
                layer.count += 1;
                layer.total_s += span.seconds();
                layer.self_s += (span.seconds() - covered).max(0.0);
            }
        }
        layers
    }

    /// Prints the per-layer self-time table to standard error.
    pub fn print_layer_times(&self) {
        eprintln!(
            "{:<8} {:<26} {:>8} {:>12} {:>12}",
            "stream", "layer", "spans", "total_s", "self_s"
        );
        for ((stream, name), layer) in self.layer_times() {
            eprintln!(
                "{stream:<8} {name:<26} {:>8} {:>12.6} {:>12.6}",
                layer.count, layer.total_s, layer.self_s
            );
        }
    }

    /// Writes the spans as tab-separated lines, preceded by `#` lines
    /// holding the per-layer self-time table.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::from("# stream\tlayer\tspans\ttotal_s\tself_s\n");
        for ((stream, name), layer) in self.layer_times() {
            let _ = writeln!(
                text,
                "# {stream}\t{name}\t{}\t{:.6}\t{:.6}",
                layer.count, layer.total_s, layer.self_s
            );
        }
        text.push_str("stream\tpass\tid\tname\tparent\tstart_ns\tend_ns\n");
        for span in &self.spans {
            let _ = writeln!(
                text,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                span.stream,
                span.pass,
                span.id,
                span.name,
                span.parent.unwrap_or("-"),
                span.start.as_nanos(),
                span.end.as_nanos()
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, name: &'static str, parent: Option<&'static str>, ms: (u64, u64)) -> Span {
        Span {
            stream: "dense",
            pass: 1,
            id,
            name,
            parent,
            start: Duration::from_millis(ms.0),
            end: Duration::from_millis(ms.1),
        }
    }

    #[test]
    fn self_time_subtracts_children_of_the_same_id_only() {
        let trace = Trace {
            spans: vec![
                span(SpanId::Job(0), "job", None, (0, 10)),
                span(SpanId::Job(0), "faultgen.build", Some("job"), (1, 3)),
                span(SpanId::Job(0), "coverage.sweep", Some("job"), (3, 9)),
                span(SpanId::Job(1), "job", None, (0, 4)),
                // Same name, other id: not a child of job 1.
                span(SpanId::Job(0), "faultgen.build", Some("job"), (20, 21)),
            ],
        };
        let layers = trace.layer_times();
        let job = layers[&("dense", "job")];
        assert_eq!(job.count, 2);
        assert!((job.total_s - 0.014).abs() < 1e-12);
        // Job 0: 10 ms − (2 + 6) ms; job 1: 4 ms with no children.
        assert!((job.self_s - 0.006).abs() < 1e-12);
        assert_eq!(layers[&("dense", "faultgen.build")].count, 2);
    }

    #[test]
    fn recorder_times_closures_and_serial_filter() {
        let origin = Instant::now();
        let mut serial = Recorder::new(origin, "small", 0);
        let mut traced = Recorder::new(origin, "small", 1);
        assert_eq!(serial.time(SpanId::Job(3), "job", None, || 7), 7);
        traced.time(SpanId::Pass, "output.export", Some("pass"), || ());
        let mut trace = Trace::default();
        trace.absorb(serial);
        trace.absorb(traced);
        assert_eq!(trace.seconds("small", "job", true).len(), 1);
        assert!(trace.seconds("small", "job", false).is_empty());
        assert!(trace.seconds("dense", "job", true).is_empty());
        assert_eq!(trace.seconds("small", "output.export", false).len(), 1);
    }
}
