//! The benchmark's span recorder: spans live in memory while the traced
//! run works and are written out once, at the end. Spans are recorded
//! around calls into each layer from the benchmark's own code; the
//! program itself is not instrumented.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::Instant;

use busprobe::json::JsonValue;

/// One closed span.
pub struct Span {
    /// Layer-qualified name, e.g. `buscoding.encode`.
    pub name: String,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Shared by every span of one request (or one experiment).
    pub request: u64,
}

/// Totals of one span name.
#[derive(Default, Clone, Copy)]
pub struct Totals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the time covered by child spans.
    pub self_ns: u64,
}

/// An in-memory span recorder with an explicit open-span stack. A
/// disabled recorder runs the same code and records nothing.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Recorder {
        Recorder {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that records nothing.
    pub fn disabled() -> Recorder {
        Recorder {
            enabled: false,
            ..Recorder::new()
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under whichever span
    /// is open.
    pub fn span<T>(&mut self, name: &str, request: u64, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.ns(Instant::now());
        out
    }

    /// Records a span measured elsewhere (e.g. on a load-generator
    /// thread), nested under whichever span is open.
    pub fn record(&mut self, name: &str, request: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            request,
        };
        self.spans.push(span);
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<String, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<String, Totals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let t = out.entry(span.name.clone()).or_default();
            let dur = span.end_ns - span.start_ns;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(children);
        }
        out
    }

    /// Writes every span as one JSON array.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let int = |v: u64| JsonValue::Int(v as i64);
        let spans = self
            .spans
            .iter()
            .map(|s| {
                JsonValue::Obj(vec![
                    ("name".into(), JsonValue::Str(s.name.clone())),
                    ("start_ns".into(), int(s.start_ns)),
                    ("end_ns".into(), int(s.end_ns)),
                    (
                        "parent".into(),
                        s.parent.map_or(JsonValue::Null, |p| int(p as u64)),
                    ),
                    ("request".into(), int(s.request)),
                ])
            })
            .collect();
        std::fs::write(path, JsonValue::Arr(spans).to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new();
        rec.span("outer", 1, |rec| {
            rec.span("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let t = rec.totals();
        assert_eq!(t["outer"].count, 1);
        assert!(t["outer"].total_ns >= t["inner"].total_ns);
        assert_eq!(
            t["outer"].self_ns,
            t["outer"].total_ns - t["inner"].total_ns
        );
        assert_eq!(rec.spans[1].parent, Some(0));
    }
}
