//! Hierarchical trace recording: every [`crate::span`] becomes a timed
//! event with its full nesting path, ready for export as a Chrome
//! trace (`chrome://tracing` / Perfetto) or as folded stacks for
//! flamegraphs.
//!
//! The aggregate span cells in the registry answer "how much time did
//! this path take in total"; this module answers "*when* did each
//! instance run, on which thread, and what did it do" — the input the
//! `repro profile` subcommand, the per-experiment metrics records and
//! the daemon's `profile` verb are built on.
//!
//! # Recording model
//!
//! Recording is enabled separately from the metric registry
//! ([`set_enabled`]); a span records a trace event when *either* switch
//! is on. Each thread appends completed spans to its own buffer — the
//! hot path is a thread-local `Vec` push behind an uncontended mutex
//! that only the draining thread ever competes for — and [`drain`]
//! joins the per-thread buffers into one ordered event list. Worker
//! threads spawned by `par_map`-style pools adopt their parent's span
//! context (see [`crate::span_context`]), so their events carry the
//! full logical path even though the parent's guards live on another
//! thread.
//!
//! With [`set_capture_counters`] on, each span additionally carries the
//! registry-counter deltas observed between its open and its close
//! (process-wide values — under concurrency a delta includes siblings'
//! work, which is why `repro profile` runs serially).
//!
//! # Exports
//!
//! * [`chrome_trace`] — the Trace Event Format (`{"traceEvents":
//!   [...]}` with matched `B`/`E` pairs per thread), validated by
//!   [`validate_chrome`];
//! * [`folded_stacks`] — `root;child;leaf <self_ns>` lines for
//!   `flamegraph.pl` / inferno;
//! * [`aggregate`] — per-path totals with self-vs-child attribution,
//!   the basis of the bench phase breakdown.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::json::JsonValue;
use crate::registry;

static TRACE_ON: AtomicBool = AtomicBool::new(false);
static CAPTURE_COUNTERS: AtomicBool = AtomicBool::new(false);

/// Whether span instances are currently recorded as trace events.
#[inline]
pub fn enabled() -> bool {
    TRACE_ON.load(Ordering::Relaxed)
}

/// Turns trace recording on or off process-wide. Independent of
/// [`crate::set_enabled`]: tracing can run without the aggregate
/// registry and vice versa.
pub fn set_enabled(on: bool) {
    TRACE_ON.store(on, Ordering::Relaxed);
}

/// Whether spans snapshot the counter registry at open/close and attach
/// the deltas to their events. Costs two dense-counter sweeps per span;
/// off by default.
#[inline]
pub fn capture_counters() -> bool {
    CAPTURE_COUNTERS.load(Ordering::Relaxed)
}

/// Enables or disables per-span counter-delta capture.
pub fn set_capture_counters(on: bool) {
    CAPTURE_COUNTERS.store(on, Ordering::Relaxed);
}

/// The process-wide trace epoch: all timestamps are nanoseconds since
/// the first probe after startup.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch.
pub fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A completed span as recorded by its owning thread: full nesting
/// path, begin/end timestamps, and (optionally) the counter deltas
/// observed across it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// Full `parent/child` path, including any context adopted from a
    /// parent thread.
    pub path: String,
    /// Recording thread (small dense ids, 1-based, per process).
    pub tid: u64,
    /// Open timestamp, ns since the trace epoch.
    pub start_ns: u64,
    /// Close timestamp, ns since the trace epoch.
    pub end_ns: u64,
    /// Non-zero counter deltas across the span (empty unless
    /// [`set_capture_counters`] was on).
    pub counters: Vec<(String, u64)>,
}

impl TraceSpan {
    /// The leaf segment of the path (the name passed to `span`).
    pub fn name(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }

    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Raw event as buffered on the recording thread; counter deltas are
/// dense indices resolved to names at drain time.
struct RawSpan {
    path: String,
    start_ns: u64,
    end_ns: u64,
    deltas: Vec<(usize, u64)>,
}

struct ThreadBuf {
    tid: u64,
    events: Mutex<Vec<RawSpan>>,
}

fn all_bufs() -> &'static Mutex<Vec<Arc<ThreadBuf>>> {
    static BUFS: OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = OnceLock::new();
    BUFS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL_BUF: RefCell<Option<Arc<ThreadBuf>>> = const { RefCell::new(None) };
}

fn local_buf() -> Arc<ThreadBuf> {
    LOCAL_BUF.with(|slot| {
        let mut slot = slot.borrow_mut();
        if let Some(buf) = slot.as_ref() {
            return Arc::clone(buf);
        }
        static NEXT_TID: AtomicU64 = AtomicU64::new(1);
        let buf = Arc::new(ThreadBuf {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            events: Mutex::new(Vec::new()),
        });
        all_bufs()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Arc::clone(&buf));
        *slot = Some(Arc::clone(&buf));
        buf
    })
}

/// An open trace arm carried inside a `SpanGuard`; closing pushes the
/// completed record into the thread's buffer.
pub(crate) struct OpenSpan {
    path: String,
    start_ns: u64,
    base: Option<Vec<u64>>,
}

pub(crate) fn open(path: String) -> OpenSpan {
    let base = capture_counters().then(registry::dense_counter_values);
    OpenSpan {
        path,
        start_ns: now_ns(),
        base,
    }
}

pub(crate) fn close(span: OpenSpan) {
    let end_ns = now_ns();
    let deltas = match span.base {
        None => Vec::new(),
        Some(base) => {
            let now = registry::dense_counter_values();
            now.iter()
                .enumerate()
                .filter_map(|(i, &v)| {
                    let delta = v - base.get(i).copied().unwrap_or(0);
                    (delta > 0).then_some((i, delta))
                })
                .collect()
        }
    };
    let buf = local_buf();
    buf.events
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(RawSpan {
            path: span.path,
            start_ns: span.start_ns,
            end_ns,
            deltas,
        });
}

/// Removes and returns every recorded span, across all threads, sorted
/// by `(start_ns, end_ns desc, tid)` — parents before their children.
/// Counter-delta indices are resolved to registry names here.
pub fn drain() -> Vec<TraceSpan> {
    let names = registry::dense_counter_names();
    let bufs: Vec<Arc<ThreadBuf>> = all_bufs()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(Arc::clone)
        .collect();
    let mut out = Vec::new();
    for buf in bufs {
        let raw = std::mem::take(&mut *buf.events.lock().unwrap_or_else(|e| e.into_inner()));
        for r in raw {
            out.push(TraceSpan {
                path: r.path,
                tid: buf.tid,
                start_ns: r.start_ns,
                end_ns: r.end_ns,
                counters: r
                    .deltas
                    .into_iter()
                    .filter_map(|(i, d)| names.get(i).map(|n| (n.clone(), d)))
                    .collect(),
            });
        }
    }
    out.sort_by(|a, b| {
        a.start_ns
            .cmp(&b.start_ns)
            .then(b.end_ns.cmp(&a.end_ns))
            .then(a.tid.cmp(&b.tid))
    });
    out
}

/// Discards every recorded span without returning them.
pub fn clear() {
    let _ = drain();
}

/// Per-instance self time: each span's duration minus the durations of
/// its direct children *on the same thread* (a worker thread's spans
/// run concurrently with their logical parent and are attributed to
/// their own full path instead). Input must be `drain()`-ordered.
fn self_times(spans: &[TraceSpan]) -> Vec<u64> {
    #[derive(Clone, Copy)]
    struct Frame {
        idx: usize,
        end_ns: u64,
    }
    let mut self_ns: Vec<u64> = spans.iter().map(TraceSpan::dur_ns).collect();
    let mut stacks: BTreeMap<u64, Vec<Frame>> = BTreeMap::new();
    for (idx, s) in spans.iter().enumerate() {
        let stack = stacks.entry(s.tid).or_default();
        while matches!(stack.last(), Some(top) if top.end_ns < s.start_ns) {
            stack.pop();
        }
        if let Some(top) = stack.last() {
            if s.end_ns <= top.end_ns {
                self_ns[top.idx] = self_ns[top.idx].saturating_sub(s.dur_ns());
            }
        }
        stack.push(Frame {
            idx,
            end_ns: s.end_ns,
        });
    }
    self_ns
}

/// Aggregated statistics of one span path across all of its instances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Full `parent/child` path.
    pub path: String,
    /// Completed instances.
    pub count: u64,
    /// Total wall time across instances, ns.
    pub total_ns: u64,
    /// Total time not attributed to same-thread child spans, ns.
    pub self_ns: u64,
    /// Longest single instance, ns.
    pub max_ns: u64,
    /// Summed counter deltas across instances.
    pub counters: Vec<(String, u64)>,
}

/// Folds the event list into per-path totals with self-vs-child time,
/// sorted by path. Input must be `drain()`-ordered.
pub fn aggregate(spans: &[TraceSpan]) -> Vec<SpanNode> {
    let self_ns = self_times(spans);
    let mut nodes: BTreeMap<&str, SpanNode> = BTreeMap::new();
    for (s, &own) in spans.iter().zip(&self_ns) {
        let node = nodes.entry(&s.path).or_insert_with(|| SpanNode {
            path: s.path.clone(),
            count: 0,
            total_ns: 0,
            self_ns: 0,
            max_ns: 0,
            counters: Vec::new(),
        });
        node.count += 1;
        node.total_ns += s.dur_ns();
        node.self_ns += own;
        node.max_ns = node.max_ns.max(s.dur_ns());
        for (name, delta) in &s.counters {
            match node.counters.iter_mut().find(|(n, _)| n == name) {
                Some((_, d)) => *d += delta,
                None => node.counters.push((name.clone(), *delta)),
            }
        }
    }
    nodes.into_values().collect()
}

/// Renders the event list in the Chrome Trace Event Format: one `B`/`E`
/// pair per span instance (named by the leaf segment, categorized by
/// the path's crate prefix), per-thread metadata events, and counter
/// deltas attached as `args` on the `E` event. Load the result in
/// `chrome://tracing` or <https://ui.perfetto.dev>.
pub fn chrome_trace(spans: &[TraceSpan]) -> JsonValue {
    let us = |ns: u64| JsonValue::Num(ns as f64 / 1000.0);
    let mut events = Vec::new();
    let mut tids: Vec<u64> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    events.push(JsonValue::Obj(vec![
        ("name".into(), JsonValue::Str("process_name".into())),
        ("ph".into(), JsonValue::Str("M".into())),
        ("pid".into(), JsonValue::Int(1)),
        (
            "args".into(),
            JsonValue::Obj(vec![("name".into(), JsonValue::Str("repro".into()))]),
        ),
    ]));
    for &tid in &tids {
        events.push(JsonValue::Obj(vec![
            ("name".into(), JsonValue::Str("thread_name".into())),
            ("ph".into(), JsonValue::Str("M".into())),
            ("pid".into(), JsonValue::Int(1)),
            ("tid".into(), JsonValue::Int(tid as i64)),
            (
                "args".into(),
                JsonValue::Obj(vec![(
                    "name".into(),
                    JsonValue::Str(format!("worker-{tid}")),
                )]),
            ),
        ]));
    }
    // Emit per thread: open (B) in start order, closing (E) whatever
    // has ended before the next span begins. Same-thread spans nest by
    // construction (RAII guards), so this walk always balances.
    for &tid in &tids {
        let mine: Vec<&TraceSpan> = spans.iter().filter(|s| s.tid == tid).collect();
        let mut open: Vec<&TraceSpan> = Vec::new();
        let emit_end = |s: &TraceSpan, events: &mut Vec<JsonValue>| {
            let mut obj = vec![
                ("ph".into(), JsonValue::Str("E".into())),
                ("pid".into(), JsonValue::Int(1)),
                ("tid".into(), JsonValue::Int(tid as i64)),
                ("ts".into(), us(s.end_ns)),
            ];
            if !s.counters.is_empty() {
                let counters = s
                    .counters
                    .iter()
                    .map(|(n, d)| (n.clone(), JsonValue::Int(*d as i64)))
                    .collect();
                obj.push((
                    "args".into(),
                    JsonValue::Obj(vec![("counters".into(), JsonValue::Obj(counters))]),
                ));
            }
            events.push(JsonValue::Obj(obj));
        };
        for s in mine {
            while matches!(open.last(), Some(top) if top.end_ns < s.start_ns) {
                emit_end(open.pop().expect("matched last"), &mut events);
            }
            let cat = s.name().split('.').next().unwrap_or("span");
            events.push(JsonValue::Obj(vec![
                ("name".into(), JsonValue::Str(s.name().to_string())),
                ("cat".into(), JsonValue::Str(cat.to_string())),
                ("ph".into(), JsonValue::Str("B".into())),
                ("pid".into(), JsonValue::Int(1)),
                ("tid".into(), JsonValue::Int(tid as i64)),
                ("ts".into(), us(s.start_ns)),
            ]));
            open.push(s);
        }
        while let Some(top) = open.pop() {
            emit_end(top, &mut events);
        }
    }
    JsonValue::Obj(vec![
        ("traceEvents".into(), JsonValue::Arr(events)),
        ("displayTimeUnit".into(), JsonValue::Str("ms".into())),
    ])
}

/// Validates a Chrome trace document as emitted by [`chrome_trace`]:
/// `traceEvents` must exist and be non-empty, every `B` must have a
/// matching same-thread `E`, and timestamps must be monotonically
/// non-decreasing per thread. Returns the number of matched pairs.
///
/// # Errors
///
/// Returns a description of the first violation found.
pub fn validate_chrome(doc: &JsonValue) -> Result<usize, String> {
    let Some(JsonValue::Arr(events)) = doc.get("traceEvents") else {
        return Err("document lacks a traceEvents array".into());
    };
    if events.is_empty() {
        return Err("traceEvents is empty".into());
    }
    let mut depth: BTreeMap<i64, usize> = BTreeMap::new();
    let mut last_ts: BTreeMap<i64, f64> = BTreeMap::new();
    let mut pairs = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i} lacks a ph field"))?;
        if ph == "M" {
            continue;
        }
        let tid = ev
            .get("tid")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("event {i} lacks a tid"))? as i64;
        let ts = ev
            .get("ts")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("event {i} lacks a ts"))?;
        let last = last_ts.entry(tid).or_insert(f64::NEG_INFINITY);
        if ts < *last {
            return Err(format!(
                "event {i}: timestamp {ts} goes backwards on tid {tid} (last {last})"
            ));
        }
        *last = ts;
        let d = depth.entry(tid).or_insert(0);
        match ph {
            "B" => {
                if ev.get("name").and_then(JsonValue::as_str).is_none() {
                    return Err(format!("event {i}: B event lacks a name"));
                }
                *d += 1;
            }
            "E" => {
                if *d == 0 {
                    return Err(format!("event {i}: E without a matching B on tid {tid}"));
                }
                *d -= 1;
                pairs += 1;
            }
            other => return Err(format!("event {i}: unexpected phase {other:?}")),
        }
    }
    for (tid, d) in depth {
        if d != 0 {
            return Err(format!("tid {tid}: {d} B event(s) never closed"));
        }
    }
    if pairs == 0 {
        return Err("trace contains no spans".into());
    }
    Ok(pairs)
}

/// Renders folded stacks — one `seg;seg;seg <self_ns>` line per path,
/// sorted — the input format of `flamegraph.pl` and inferno. Paths with
/// zero self time are skipped.
pub fn folded_stacks(spans: &[TraceSpan]) -> String {
    let mut out = String::new();
    for node in aggregate(spans) {
        if node.self_ns == 0 {
            continue;
        }
        out.push_str(&node.path.replace('/', ";"));
        out.push(' ');
        out.push_str(&node.self_ns.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(path: &str, tid: u64, start: u64, end: u64) -> TraceSpan {
        TraceSpan {
            path: path.into(),
            tid,
            start_ns: start,
            end_ns: end,
            counters: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_same_thread_children() {
        let spans = vec![
            span("a", 1, 0, 100),
            span("a/b", 1, 10, 40),
            span("a/b/c", 1, 20, 30),
            span("a/b", 1, 50, 70),
        ];
        let nodes = aggregate(&spans);
        let get = |p: &str| nodes.iter().find(|n| n.path == p).unwrap();
        assert_eq!(get("a").total_ns, 100);
        assert_eq!(get("a").self_ns, 100 - 30 - 20);
        assert_eq!(get("a/b").count, 2);
        assert_eq!(get("a/b").total_ns, 50);
        assert_eq!(get("a/b").self_ns, 50 - 10);
        assert_eq!(get("a/b/c").self_ns, 10);
    }

    #[test]
    fn cross_thread_children_keep_their_own_time() {
        // A worker's span overlaps the parent wall-clock; the parent's
        // self time must not go negative or double-subtract.
        let spans = vec![
            span("a", 1, 0, 100),
            span("a/w", 2, 10, 90),
            span("a/w", 3, 10, 95),
        ];
        let nodes = aggregate(&spans);
        let get = |p: &str| nodes.iter().find(|n| n.path == p).unwrap();
        assert_eq!(get("a").self_ns, 100);
        assert_eq!(get("a/w").total_ns, 80 + 85);
    }

    #[test]
    fn chrome_trace_validates_and_balances() {
        let spans = vec![
            span("a", 1, 0, 100),
            span("a/b", 1, 10, 40),
            span("a/w", 2, 15, 85),
        ];
        let doc = chrome_trace(&spans);
        let pairs = validate_chrome(&doc).expect("emitted trace must validate");
        assert_eq!(pairs, 3);
        // Round-trips through the strict parser.
        let reparsed = crate::json::parse(&doc.to_string()).unwrap();
        assert_eq!(validate_chrome(&reparsed), Ok(3));
    }

    #[test]
    fn chrome_trace_carries_counter_args() {
        let mut s = span("a", 1, 0, 50);
        s.counters = vec![("x.y".into(), 7)];
        let doc = chrome_trace(&[s]);
        let rendered = doc.to_string();
        assert!(rendered.contains("\"counters\":{\"x.y\":7}"), "{rendered}");
    }

    #[test]
    fn validate_rejects_unbalanced_and_backwards() {
        let unbalanced = crate::json::parse(
            r#"{"traceEvents":[{"ph":"B","name":"a","tid":1,"ts":1,"pid":1}]}"#,
        )
        .unwrap();
        assert!(validate_chrome(&unbalanced).unwrap_err().contains("never closed"));
        let backwards = crate::json::parse(
            r#"{"traceEvents":[
                {"ph":"B","name":"a","tid":1,"ts":5,"pid":1},
                {"ph":"E","tid":1,"ts":3,"pid":1}]}"#,
        )
        .unwrap();
        assert!(validate_chrome(&backwards).unwrap_err().contains("backwards"));
        let orphan = crate::json::parse(
            r#"{"traceEvents":[{"ph":"E","tid":1,"ts":3,"pid":1}]}"#,
        )
        .unwrap();
        assert!(validate_chrome(&orphan).unwrap_err().contains("without a matching B"));
    }

    #[test]
    fn folded_stacks_use_self_time() {
        let spans = vec![span("a", 1, 0, 100), span("a/b", 1, 10, 40)];
        let folded = folded_stacks(&spans);
        assert_eq!(folded, "a 70\na;b 30\n");
    }

    #[test]
    fn recording_round_trips_through_drain() {
        // The global recorder is shared; serialize with the registry
        // tests' guard to avoid cross-talk.
        let _g = crate::tests::guard();
        clear();
        set_enabled(true);
        {
            let _outer = crate::span("trace.test.outer");
            let _inner = crate::span("trace.test.inner");
        }
        set_enabled(false);
        let spans = drain();
        let outer = spans.iter().find(|s| s.path == "trace.test.outer");
        let inner = spans
            .iter()
            .find(|s| s.path == "trace.test.outer/trace.test.inner");
        let (outer, inner) = (outer.expect("outer recorded"), inner.expect("inner recorded"));
        assert!(outer.start_ns <= inner.start_ns);
        assert!(inner.end_ns <= outer.end_ns);
        assert_eq!(outer.tid, inner.tid);
        assert!(drain().is_empty(), "drain must consume the buffer");
    }

    #[test]
    fn counter_deltas_attach_to_spans() {
        let _g = crate::tests::guard();
        clear();
        crate::set_enabled(true);
        set_enabled(true);
        set_capture_counters(true);
        let c = crate::counter("trace.test.delta_counter");
        {
            let _s = crate::span("trace.test.counted");
            c.add(5);
        }
        set_capture_counters(false);
        set_enabled(false);
        crate::set_enabled(false);
        let spans = drain();
        let s = spans
            .iter()
            .find(|s| s.path == "trace.test.counted")
            .expect("span recorded");
        let delta = s
            .counters
            .iter()
            .find(|(n, _)| n == "trace.test.delta_counter")
            .map(|(_, d)| *d);
        assert_eq!(delta, Some(5));
    }
}
