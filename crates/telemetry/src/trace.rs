//! Span-based tracing: identifiers, the per-thread context stack and
//! the process-wide finished-span collector.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

use crate::json::{Arr, Obj};

/// Service-context key under which the trace id travels on the wire.
pub const TRACE_ID_KEY: &str = "trace-id";
/// Service-context key under which the caller's span id travels.
pub const SPAN_ID_KEY: &str = "span-id";

// ---- identifiers ---------------------------------------------------------

fn next_raw_id() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    let seed = *SEED.get_or_init(|| {
        let t = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x5AD5_0F75);
        t ^ (std::process::id() as u64) << 32
    });
    // splitmix64 of a unique counter value, offset by a per-process
    // seed so ids differ between runs but never collide within one.
    let mut z = seed.wrapping_add(
        COUNTER
            .fetch_add(1, Ordering::Relaxed)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let id = z ^ (z >> 31);
    if id == 0 {
        1
    } else {
        id
    }
}

macro_rules! hex_id {
    ($name:ident, $doc:literal) => {
        #[doc = $doc]
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(u64);

        impl $name {
            /// Generates a fresh, process-unique id.
            pub fn generate() -> $name {
                $name(next_raw_id())
            }

            /// Wraps a raw value (zero is reserved for "absent").
            pub fn from_raw(raw: u64) -> $name {
                $name(raw)
            }

            /// The raw value.
            pub fn raw(self) -> u64 {
                self.0
            }

            /// The 16 lowercase hex digits `Display` prints, as ASCII
            /// bytes, without allocating.
            pub fn to_hex(self) -> [u8; 16] {
                const DIGITS: &[u8; 16] = b"0123456789abcdef";
                let mut out = [0u8; 16];
                for (i, digit) in out.iter_mut().enumerate() {
                    *digit = DIGITS[(self.0 >> (60 - 4 * i)) as usize & 0xf];
                }
                out
            }

            /// Parses the 16-digit hex form produced by `Display`.
            pub fn from_hex(s: &str) -> Option<$name> {
                u64::from_str_radix(s, 16).ok().map($name)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:016x}", self.0)
            }
        }
    };
}

hex_id!(
    TraceId,
    "Identifies one distributed trace (a tree of spans)."
);
hex_id!(SpanId, "Identifies one span within a trace.");

// ---- per-thread context --------------------------------------------------

thread_local! {
    static CONTEXT: RefCell<Vec<(TraceId, SpanId)>> = const { RefCell::new(Vec::new()) };
}

/// The innermost active span on this thread, if any — what a new child
/// span or an outgoing request inherits.
pub fn current_context() -> Option<(TraceId, SpanId)> {
    CONTEXT.with(|c| c.borrow().last().copied())
}

fn push_context(trace: TraceId, span: SpanId) {
    CONTEXT.with(|c| c.borrow_mut().push((trace, span)));
}

fn pop_context(span: SpanId) {
    CONTEXT.with(|c| {
        let mut stack = c.borrow_mut();
        // Normally the span being dropped is on top; spans moved across
        // threads (or dropped out of order) just aren't on this stack.
        if let Some(pos) = stack.iter().rposition(|&(_, s)| s == span) {
            stack.remove(pos);
        }
    });
}

// ---- spans ---------------------------------------------------------------

/// A finished span as stored by the [`Collector`].
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Operation name.
    pub name: String,
    /// Trace this span belongs to.
    pub trace: TraceId,
    /// This span's id.
    pub span: SpanId,
    /// Parent span, when not a root.
    pub parent: Option<SpanId>,
    /// Start time, microseconds since the collector's epoch.
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub duration_us: u64,
    /// Attached key/value attributes.
    pub attrs: Vec<(String, String)>,
}

impl SpanRecord {
    /// Renders the record as a JSON object.
    pub fn to_json(&self) -> String {
        let mut obj = Obj::new()
            .str("name", &self.name)
            .str("trace", &self.trace.to_string())
            .str("span", &self.span.to_string());
        if let Some(parent) = self.parent {
            obj = obj.str("parent", &parent.to_string());
        }
        obj = obj
            .u64("start_us", self.start_us)
            .u64("duration_us", self.duration_us);
        if !self.attrs.is_empty() {
            let mut attrs = Obj::new();
            for (k, v) in &self.attrs {
                attrs = attrs.str(k, v);
            }
            obj = obj.raw("attrs", &attrs.finish());
        }
        obj.finish()
    }
}

/// An in-progress timed operation; records itself to the global
/// [`collector`] when dropped (or via [`Span::end`]).
///
/// While alive, the span is the thread's current context: spans started
/// on the same thread become its children, and the ORB stamps its ids
/// into outgoing request service contexts.
#[derive(Debug)]
pub struct Span {
    name: String,
    trace: TraceId,
    span: SpanId,
    parent: Option<SpanId>,
    start: Instant,
    attrs: Vec<(String, String)>,
}

impl Span {
    fn build(name: String, trace: TraceId, parent: Option<SpanId>) -> Span {
        let span = SpanId::generate();
        push_context(trace, span);
        Span {
            name,
            trace,
            span,
            parent,
            start: Instant::now(),
            attrs: Vec::new(),
        }
    }

    /// Starts a span: a child of this thread's current span when one is
    /// active, otherwise the root of a new trace. An owned `String`
    /// name is kept as is; a `&str` is copied.
    pub fn start(name: impl Into<String>) -> Span {
        match current_context() {
            Some((trace, parent)) => Span::build(name.into(), trace, Some(parent)),
            None => Span::build(name.into(), TraceId::generate(), None),
        }
    }

    /// Starts the root of a brand-new trace, ignoring any current span.
    pub fn root(name: impl Into<String>) -> Span {
        Span::build(name.into(), TraceId::generate(), None)
    }

    /// Starts a span under an explicitly supplied parent — the server
    /// side of a remote call, resuming the context extracted from the
    /// request's service context.
    pub fn child_of(name: impl Into<String>, trace: TraceId, parent: Option<SpanId>) -> Span {
        Span::build(name.into(), trace, parent)
    }

    /// Attaches a key/value attribute.
    pub fn attr(&mut self, key: &str, value: &str) {
        self.attrs.push((key.to_string(), value.to_string()));
    }

    /// The trace this span belongs to.
    pub fn trace_id(&self) -> TraceId {
        self.trace
    }

    /// This span's id.
    pub fn span_id(&self) -> SpanId {
        self.span
    }

    /// Ends the span now (equivalent to dropping it).
    pub fn end(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        pop_context(self.span);
        collector().record(SpanRecord {
            name: std::mem::take(&mut self.name),
            trace: self.trace,
            span: self.span,
            parent: self.parent,
            start_us: collector().elapsed_us_since_epoch(self.start),
            duration_us: self.start.elapsed().as_micros() as u64,
            attrs: std::mem::take(&mut self.attrs),
        });
    }
}

// ---- collector -----------------------------------------------------------

const DEFAULT_CAPACITY: usize = 4096;

struct CollectorInner {
    spans: VecDeque<SpanRecord>,
    capacity: usize,
    dropped: u64,
}

/// The process-wide sink for finished spans: a bounded ring buffer
/// (oldest spans evicted first) with text and JSON export.
pub struct Collector {
    epoch: Instant,
    inner: Mutex<CollectorInner>,
}

/// The global span collector.
pub fn collector() -> &'static Collector {
    static COLLECTOR: OnceLock<Collector> = OnceLock::new();
    COLLECTOR.get_or_init(|| Collector {
        epoch: Instant::now(),
        inner: Mutex::new(CollectorInner {
            spans: VecDeque::new(),
            capacity: DEFAULT_CAPACITY,
            dropped: 0,
        }),
    })
}

impl Collector {
    fn lock(&self) -> std::sync::MutexGuard<'_, CollectorInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn elapsed_us_since_epoch(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_micros() as u64
    }

    fn record(&self, record: SpanRecord) {
        let mut inner = self.lock();
        while inner.spans.len() >= inner.capacity {
            inner.spans.pop_front();
            inner.dropped += 1;
        }
        inner.spans.push_back(record);
    }

    /// Changes the ring-buffer capacity, evicting oldest spans if the
    /// buffer is over the new size.
    pub fn set_capacity(&self, capacity: usize) {
        let mut inner = self.lock();
        inner.capacity = capacity.max(1);
        while inner.spans.len() > inner.capacity {
            inner.spans.pop_front();
            inner.dropped += 1;
        }
    }

    /// Number of spans evicted so far to stay within capacity.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// All retained finished spans, oldest first.
    pub fn finished(&self) -> Vec<SpanRecord> {
        self.lock().spans.iter().cloned().collect()
    }

    /// Retained spans belonging to `trace`, oldest first.
    pub fn for_trace(&self, trace: TraceId) -> Vec<SpanRecord> {
        self.lock()
            .spans
            .iter()
            .filter(|s| s.trace == trace)
            .cloned()
            .collect()
    }

    /// Discards all retained spans (test isolation helper).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.spans.clear();
        inner.dropped = 0;
    }

    /// Renders every retained span as a JSON array.
    pub fn export_json(&self) -> String {
        let spans = self.finished();
        let mut arr = Arr::new();
        for span in &spans {
            arr = arr.raw(&span.to_json());
        }
        arr.finish()
    }

    /// Renders retained spans grouped by trace, children indented under
    /// their parents.
    pub fn export_text(&self) -> String {
        let spans = self.finished();
        let mut out = String::new();
        let mut traces: Vec<TraceId> = Vec::new();
        for s in &spans {
            if !traces.contains(&s.trace) {
                traces.push(s.trace);
            }
        }
        for trace in traces {
            out.push_str(&format!("trace {trace}\n"));
            let members: Vec<&SpanRecord> = spans.iter().filter(|s| s.trace == trace).collect();
            // Roots are spans whose parent isn't retained (or absent).
            let mut roots: Vec<&SpanRecord> = members
                .iter()
                .filter(|s| {
                    s.parent
                        .map(|p| !members.iter().any(|m| m.span == p))
                        .unwrap_or(true)
                })
                .copied()
                .collect();
            roots.sort_by_key(|s| s.start_us);
            for root in roots {
                render_subtree(&mut out, &members, root, 1);
            }
        }
        out
    }
}

fn render_subtree(out: &mut String, members: &[&SpanRecord], node: &SpanRecord, depth: usize) {
    out.push_str(&"  ".repeat(depth));
    out.push_str(&format!(
        "{} [{}] {}us",
        node.name, node.span, node.duration_us
    ));
    for (k, v) in &node.attrs {
        out.push_str(&format!(" {k}={v}"));
    }
    out.push('\n');
    let mut children: Vec<&&SpanRecord> = members
        .iter()
        .filter(|s| s.parent == Some(node.span))
        .collect();
    children.sort_by_key(|s| s.start_us);
    for child in children {
        render_subtree(out, members, child, depth + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_round_trip_hex() {
        let a = TraceId::generate();
        let b = TraceId::generate();
        assert_ne!(a, b);
        assert_eq!(TraceId::from_hex(&a.to_string()), Some(a));
        assert_eq!(a.to_string().len(), 16);
        for id in [
            TraceId::from_raw(0x0123_4567_89ab_cdef),
            TraceId::from_raw(7),
            a,
        ] {
            assert_eq!(id.to_hex(), id.to_string().as_bytes());
        }
    }

    #[test]
    fn nesting_links_parent_and_trace() {
        let root = Span::root("tele-nest-outer");
        let trace = root.trace_id();
        let root_id = root.span_id();
        let child = Span::start("tele-nest-inner");
        assert_eq!(child.trace_id(), trace);
        let child_id = child.span_id();
        drop(child);
        drop(root);
        let spans = collector().for_trace(trace);
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.span == child_id).unwrap();
        assert_eq!(inner.parent, Some(root_id));
        let outer = spans.iter().find(|s| s.span == root_id).unwrap();
        assert_eq!(outer.parent, None);
    }

    #[test]
    fn child_of_resumes_remote_context() {
        let trace = TraceId::generate();
        let parent = SpanId::generate();
        let span = Span::child_of("tele-remote-dispatch", trace, Some(parent));
        let id = span.span_id();
        drop(span);
        let spans = collector().for_trace(trace);
        let s = spans.iter().find(|s| s.span == id).unwrap();
        assert_eq!(s.parent, Some(parent));
    }

    #[test]
    fn context_stack_unwinds() {
        assert_eq!(current_context(), None);
        let a = Span::root("tele-stack-a");
        let (trace, top) = current_context().unwrap();
        assert_eq!(trace, a.trace_id());
        assert_eq!(top, a.span_id());
        drop(a);
        assert_eq!(current_context(), None);
    }

    #[test]
    fn export_renders_attrs_and_json() {
        let mut span = Span::root("tele-export");
        span.attr("k", "v");
        let trace = span.trace_id();
        drop(span);
        let text = collector().export_text();
        assert!(text.contains("tele-export"), "{text}");
        assert!(text.contains("k=v"), "{text}");
        let record = &collector().for_trace(trace)[0];
        let json = record.to_json();
        assert!(json.contains("\"name\":\"tele-export\""), "{json}");
        assert!(json.contains("\"attrs\":{\"k\":\"v\"}"), "{json}");
    }
}
