//! Span-based tracing: identifiers, the per-thread context stack and
//! the process-wide finished-span collector.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use crate::json::{Arr, Obj};

/// Service-context key of the trace id, as 16 hex digits. The ORB's
/// wire format carries the id in binary and presents it under this key.
pub const TRACE_ID_KEY: &str = "trace-id";
/// Service-context key of the caller's span id, like [`TRACE_ID_KEY`].
pub const SPAN_ID_KEY: &str = "span-id";

// ---- identifiers ---------------------------------------------------------

/// Counter values a thread takes from the shared counter at a time, so
/// generating an id rarely touches shared memory.
const ID_BLOCK: u64 = 1024;

thread_local! {
    /// This thread's next counter value and the end of its block.
    static NEXT_ID: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

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
    let n = NEXT_ID.with(|next| {
        let (mut n, mut end) = next.get();
        if n == end {
            n = COUNTER.fetch_add(ID_BLOCK, Ordering::Relaxed);
            end = n + ID_BLOCK;
        }
        next.set((n + 1, end));
        n
    });
    // splitmix64 of a unique counter value, offset by a per-process
    // seed so ids differ between runs but never collide within one.
    let mut z = seed.wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
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

/// Longest span name or attribute value a span records, in bytes.
/// Longer ones are cut on a char boundary and end in `…`, so what a
/// retained span holds does not grow with names a remote caller picks.
pub const MAX_TEXT_LEN: usize = 256;

/// Most attributes one span records; further [`Span::attr`] calls on it
/// are ignored.
pub const MAX_ATTRS: usize = 16;

/// Heap bytes one retained span may hold: [`Collector::heap_bytes`]
/// stays within the collector's capacity times this.
pub const RETAINED_SPAN_BYTES: usize = std::mem::size_of::<Slot>()
    + (1 + MAX_ATTRS) * MAX_TEXT_LEN
    + MAX_ATTRS * std::mem::size_of::<(&str, Vec<u8>)>();

/// What a cut name or value ends in.
const CUT_MARKER: &str = "…";

/// Longest text a span keeps inline, without a heap allocation.
const INLINE_TEXT: usize = 38;

/// Attributes a span keeps inline; further ones spill to the heap.
const INLINE_ATTRS: usize = 4;

/// Capacity a new trace-ring slot gives its name buffer and each of its
/// first [`INLINE_ATTRS`] attribute buffers: what a span holds inline
/// (a name prefix and [`INLINE_TEXT`] bytes, or a value of at most
/// [`INLINE_TEXT`] bytes, 20 digits or a boolean). A span whose texts
/// fit inline then records into any slot without allocating, whatever
/// an earlier occupant left there.
const SLOT_TEXT: usize = 64;

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

/// A span's name: a static prefix and a remainder the span copies.
///
/// A `&str` converts with an empty prefix; `("client:", op)` names a
/// span `client:<op>` without building that string.
#[derive(Debug, Clone, Copy)]
pub struct SpanName<'a> {
    prefix: &'static str,
    rest: &'a str,
}

impl<'a> From<&'a str> for SpanName<'a> {
    fn from(rest: &'a str) -> SpanName<'a> {
        SpanName { prefix: "", rest }
    }
}

impl<'a> From<(&'static str, &'a str)> for SpanName<'a> {
    fn from((prefix, rest): (&'static str, &'a str)) -> SpanName<'a> {
        SpanName { prefix, rest }
    }
}

/// An attribute value as [`Span::attr`] takes it. Text is copied into
/// the span; numbers and booleans are kept as they are and formatted
/// only when the span is recorded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttrValue<'a> {
    /// Text.
    Str(&'a str),
    /// An unsigned integer.
    U64(u64),
    /// A boolean, recorded as `true` or `false`.
    Bool(bool),
}

impl<'a> From<&'a str> for AttrValue<'a> {
    fn from(s: &'a str) -> AttrValue<'a> {
        AttrValue::Str(s)
    }
}

impl<'a> From<&'a String> for AttrValue<'a> {
    fn from(s: &'a String) -> AttrValue<'a> {
        AttrValue::Str(s)
    }
}

impl From<u64> for AttrValue<'_> {
    fn from(n: u64) -> Self {
        AttrValue::U64(n)
    }
}

impl From<usize> for AttrValue<'_> {
    fn from(n: usize) -> Self {
        AttrValue::U64(n as u64)
    }
}

impl From<bool> for AttrValue<'_> {
    fn from(b: bool) -> Self {
        AttrValue::Bool(b)
    }
}

/// Text copied into a span: inline up to [`INLINE_TEXT`] bytes, on the
/// heap beyond.
#[derive(Debug)]
enum Text {
    Inline { len: u8, bytes: [u8; INLINE_TEXT] },
    Heap(String),
}

impl Text {
    /// Copies `s`, cut to at most `limit` bytes (marker included).
    fn new(s: &str, limit: usize) -> Text {
        if s.len() <= INLINE_TEXT.min(limit) {
            let mut bytes = [0; INLINE_TEXT];
            bytes[..s.len()].copy_from_slice(s.as_bytes());
            return Text::Inline {
                len: s.len() as u8,
                bytes,
            };
        }
        if s.len() <= limit {
            return Text::Heap(s.to_owned());
        }
        let mut end = limit.saturating_sub(CUT_MARKER.len());
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        Text::Heap([&s[..end], CUT_MARKER].concat())
    }

    /// The text's UTF-8 bytes; left unchecked here, so recording a
    /// span does not validate them again.
    fn as_bytes(&self) -> &[u8] {
        match self {
            Text::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Text::Heap(s) => s.as_bytes(),
        }
    }
}

/// An attribute value held by a live span.
#[derive(Debug)]
enum Stored {
    Text(Text),
    U64(u64),
    Bool(bool),
}

impl Stored {
    fn new(value: AttrValue<'_>) -> Stored {
        match value {
            AttrValue::Str(s) => Stored::Text(Text::new(s, MAX_TEXT_LEN)),
            AttrValue::U64(n) => Stored::U64(n),
            AttrValue::Bool(b) => Stored::Bool(b),
        }
    }

    /// Appends the recorded form; formatting into spare capacity does
    /// not allocate.
    fn write_to(&self, out: &mut Vec<u8>) {
        use std::io::Write;
        match self {
            Stored::Text(text) => out.extend_from_slice(text.as_bytes()),
            Stored::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Stored::Bool(b) => out.extend_from_slice(if *b { b"true" } else { b"false" }),
        }
    }
}

/// An in-progress timed operation; records itself to the global
/// [`collector`] when dropped (or via [`Span::end`]).
///
/// While alive, the span is the thread's current context: spans started
/// on the same thread become its children, and the ORB stamps its ids
/// into outgoing requests.
///
/// A span keeps its name and its first four attributes inline, so
/// starting, annotating and recording one allocates nothing in steady
/// state unless a name or value is longer than a short identifier.
#[derive(Debug)]
pub struct Span {
    prefix: &'static str,
    name: Text,
    trace: TraceId,
    span: SpanId,
    parent: Option<SpanId>,
    start: Instant,
    /// Set by [`Span::end`], so the recorded duration is the returned one.
    elapsed: Option<Duration>,
    attrs: [(&'static str, Stored); INLINE_ATTRS],
    attr_len: usize,
    spilled: Vec<(&'static str, Stored)>,
}

impl Span {
    fn build(name: SpanName<'_>, trace: TraceId, parent: Option<SpanId>) -> Span {
        let span = SpanId::generate();
        push_context(trace, span);
        Span {
            prefix: name.prefix,
            name: Text::new(name.rest, MAX_TEXT_LEN.saturating_sub(name.prefix.len())),
            trace,
            span,
            parent,
            start: Instant::now(),
            elapsed: None,
            attrs: [const { ("", Stored::Bool(false)) }; INLINE_ATTRS],
            attr_len: 0,
            spilled: Vec::new(),
        }
    }

    /// Starts a span: a child of this thread's current span when one is
    /// active, otherwise the root of a new trace.
    pub fn start<'a>(name: impl Into<SpanName<'a>>) -> Span {
        match current_context() {
            Some((trace, parent)) => Span::build(name.into(), trace, Some(parent)),
            None => Span::build(name.into(), TraceId::generate(), None),
        }
    }

    /// Starts the root of a brand-new trace, ignoring any current span.
    pub fn root<'a>(name: impl Into<SpanName<'a>>) -> Span {
        Span::build(name.into(), TraceId::generate(), None)
    }

    /// Starts a span under an explicitly supplied parent — the server
    /// side of a remote call, resuming the context the request carried.
    pub fn child_of<'a>(
        name: impl Into<SpanName<'a>>,
        trace: TraceId,
        parent: Option<SpanId>,
    ) -> Span {
        Span::build(name.into(), trace, parent)
    }

    /// Attaches a key/value attribute (text, an integer or a boolean).
    /// Text longer than [`MAX_TEXT_LEN`] is cut; attributes beyond
    /// [`MAX_ATTRS`] are ignored.
    pub fn attr<'v>(&mut self, key: &'static str, value: impl Into<AttrValue<'v>>) {
        let attr = (key, Stored::new(value.into()));
        match self.attr_len {
            n if n < INLINE_ATTRS => self.attrs[n] = attr,
            n if n < MAX_ATTRS => self.spilled.push(attr),
            _ => return,
        }
        self.attr_len += 1;
    }

    fn attrs(&self) -> impl Iterator<Item = &(&'static str, Stored)> {
        self.attrs[..self.attr_len.min(INLINE_ATTRS)]
            .iter()
            .chain(&self.spilled)
    }

    /// The trace this span belongs to.
    pub fn trace_id(&self) -> TraceId {
        self.trace
    }

    /// This span's id.
    pub fn span_id(&self) -> SpanId {
        self.span
    }

    /// Ends the span now (equivalent to dropping it) and returns the
    /// duration it records.
    pub fn end(mut self) -> Duration {
        let elapsed = self.start.elapsed();
        self.elapsed = Some(elapsed);
        elapsed
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        pop_context(self.span);
        collector().record(self);
    }
}

// ---- collector -----------------------------------------------------------

const DEFAULT_CAPACITY: usize = 4096;

/// One retained span. When the ring wraps, a slot is overwritten in
/// place, so its buffers keep their capacity (at most
/// [`MAX_TEXT_LEN`] each) for the next occupant. Name and values are
/// kept as the UTF-8 bytes the span copied from `&str`s; readers turn
/// them back into strings.
struct Slot {
    name: Vec<u8>,
    trace: TraceId,
    span: SpanId,
    parent: Option<SpanId>,
    start_us: u64,
    duration_us: u64,
    /// Attribute keys and values. Only the first `attr_len` are the
    /// current occupant's; the rest are kept for their capacity.
    attrs: Vec<(&'static str, Vec<u8>)>,
    attr_len: usize,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            name: Vec::with_capacity(SLOT_TEXT),
            trace: TraceId::from_raw(0),
            span: SpanId::from_raw(0),
            parent: None,
            start_us: 0,
            duration_us: 0,
            attrs: (0..INLINE_ATTRS)
                .map(|_| ("", Vec::with_capacity(SLOT_TEXT)))
                .collect(),
            attr_len: 0,
        }
    }

    fn fill(&mut self, span: &Span, start_us: u64, duration_us: u64) {
        self.name.clear();
        self.name.extend_from_slice(span.prefix.as_bytes());
        self.name.extend_from_slice(span.name.as_bytes());
        bound(&mut self.name);
        self.trace = span.trace;
        self.span = span.span;
        self.parent = span.parent;
        self.start_us = start_us;
        self.duration_us = duration_us;
        self.attr_len = 0;
        for (key, value) in span.attrs() {
            if self.attr_len == self.attrs.len() {
                self.attrs.push((key, Vec::new()));
            }
            let (k, text) = &mut self.attrs[self.attr_len];
            *k = key;
            text.clear();
            value.write_to(text);
            bound(text);
            self.attr_len += 1;
        }
    }

    fn record(&self) -> SpanRecord {
        SpanRecord {
            name: text(&self.name),
            trace: self.trace,
            span: self.span,
            parent: self.parent,
            start_us: self.start_us,
            duration_us: self.duration_us,
            attrs: self.attrs[..self.attr_len]
                .iter()
                .map(|(k, v)| ((*k).to_owned(), text(v)))
                .collect(),
        }
    }

    fn heap_bytes(&self) -> usize {
        self.name.capacity()
            + self.attrs.capacity() * std::mem::size_of::<(&str, Vec<u8>)>()
            + self.attrs.iter().map(|(_, v)| v.capacity()).sum::<usize>()
    }
}

/// A recorded name or value as a string. The bytes came from `&str`s
/// cut on char boundaries, so the lossy path never replaces anything.
fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// Gives back capacity beyond [`MAX_TEXT_LEN`] that growing `text` left.
fn bound(text: &mut Vec<u8>) {
    if text.capacity() > MAX_TEXT_LEN {
        text.shrink_to(MAX_TEXT_LEN);
    }
}

/// The retained spans: a ring of at most `capacity` slots, filled as
/// spans arrive and then overwritten oldest first.
struct Ring {
    slots: Vec<Slot>,
    /// The oldest slot, overwritten next once the ring is full; zero
    /// until then.
    oldest: usize,
    capacity: usize,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, span: &Span, start_us: u64, duration_us: u64) {
        if self.slots.len() < self.capacity {
            if self.slots.len() == self.slots.capacity() {
                // Double, but never past `capacity`.
                let more = self
                    .slots
                    .len()
                    .max(4)
                    .min(self.capacity - self.slots.len());
                self.slots.reserve_exact(more);
            }
            let mut slot = Slot::new();
            slot.fill(span, start_us, duration_us);
            self.slots.push(slot);
        } else {
            self.slots[self.oldest].fill(span, start_us, duration_us);
            self.oldest = (self.oldest + 1) % self.slots.len();
            self.dropped += 1;
        }
    }

    /// Retained spans, oldest first.
    fn iter(&self) -> impl Iterator<Item = &Slot> {
        let (newer, older) = self.slots.split_at(self.oldest);
        older.iter().chain(newer)
    }
}

/// The process-wide sink for finished spans: a bounded ring buffer
/// (oldest spans evicted first) with text and JSON export.
///
/// Recording a span copies it into a reusable slot, so the call path
/// does not allocate once the ring is full; readers build the
/// [`SpanRecord`]s they return.
pub struct Collector {
    epoch: Instant,
    inner: Mutex<Ring>,
}

/// The global span collector.
pub fn collector() -> &'static Collector {
    static COLLECTOR: OnceLock<Collector> = OnceLock::new();
    COLLECTOR.get_or_init(|| Collector::new(DEFAULT_CAPACITY))
}

impl Collector {
    fn new(capacity: usize) -> Collector {
        Collector {
            epoch: Instant::now(),
            inner: Mutex::new(Ring {
                slots: Vec::new(),
                oldest: 0,
                capacity: capacity.max(1),
                dropped: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Ring> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn record(&self, span: &Span) {
        let start_us = span.start.saturating_duration_since(self.epoch).as_micros() as u64;
        let elapsed = span.elapsed.unwrap_or_else(|| span.start.elapsed());
        let duration_us = elapsed.as_micros() as u64;
        self.lock().push(span, start_us, duration_us);
    }

    /// Changes the ring-buffer capacity, evicting oldest spans if the
    /// buffer is over the new size.
    pub fn set_capacity(&self, capacity: usize) {
        let mut ring = self.lock();
        let capacity = capacity.max(1);
        let oldest = ring.oldest;
        ring.slots.rotate_left(oldest);
        ring.oldest = 0;
        let excess = ring.slots.len().saturating_sub(capacity);
        ring.slots.drain(..excess);
        ring.slots.shrink_to(capacity);
        ring.dropped += excess as u64;
        ring.capacity = capacity;
    }

    /// Number of spans evicted so far to stay within capacity.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Heap bytes the retained spans hold: their slots and the strings
    /// in them. At most capacity × [`RETAINED_SPAN_BYTES`].
    pub fn heap_bytes(&self) -> usize {
        let ring = self.lock();
        ring.slots.capacity() * std::mem::size_of::<Slot>()
            + ring.slots.iter().map(Slot::heap_bytes).sum::<usize>()
    }

    /// All retained finished spans, oldest first.
    pub fn finished(&self) -> Vec<SpanRecord> {
        self.lock().iter().map(Slot::record).collect()
    }

    /// Retained spans belonging to `trace`, oldest first.
    pub fn for_trace(&self, trace: TraceId) -> Vec<SpanRecord> {
        self.lock()
            .iter()
            .filter(|s| s.trace == trace)
            .map(Slot::record)
            .collect()
    }

    /// Discards all retained spans and the eviction count (test
    /// isolation helper).
    pub fn clear(&self) {
        let mut ring = self.lock();
        ring.slots = Vec::new();
        ring.oldest = 0;
        ring.dropped = 0;
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
    fn ids_from_many_threads_never_collide() {
        // Each thread crosses several of its counter blocks.
        let per_thread = 3 * ID_BLOCK as usize;
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    (0..per_thread).map(|_| next_raw_id()).collect::<Vec<_>>()
                })
            })
            .collect();
        let mut ids: Vec<u64> = threads
            .into_iter()
            .flat_map(|t| t.join().expect("id thread"))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4 * per_thread);
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

    /// Records a root span named `name` with text `attrs` into `c`
    /// (and, on drop, into the global collector).
    fn record_into(c: &Collector, name: &str, attrs: &[(&'static str, &str)]) {
        let mut span = Span::root(name);
        for (k, v) in attrs {
            span.attr(k, *v);
        }
        c.record(&span);
    }

    /// `recorded` is `original`, or `original` cut on a char boundary
    /// to at most `MAX_TEXT_LEN` bytes with the marker appended.
    fn assert_cut(recorded: &str, original: &str) {
        if original.len() <= MAX_TEXT_LEN {
            assert_eq!(recorded, original);
            return;
        }
        let kept = recorded
            .strip_suffix('…')
            .expect("cut text ends in the marker");
        assert!(original.starts_with(kept), "{kept:?} is not a prefix");
        assert!(recorded.len() <= MAX_TEXT_LEN, "{} bytes", recorded.len());
        // The cut stops short of the limit by less than one char.
        assert!(
            recorded.len() + 4 > MAX_TEXT_LEN,
            "{} bytes",
            recorded.len()
        );
    }

    #[test]
    fn a_wrapped_ring_holds_the_newest_spans_oldest_first() {
        const CAPACITY: usize = 5;
        const KEYS: [&str; 7] = ["a", "b", "c", "d", "e", "f", "g"];
        let c = Collector::new(CAPACITY);
        let long_name = "n".repeat(2 * MAX_TEXT_LEN);
        // Two-byte chars, so some cuts fall inside one.
        let long_value = "é".repeat(MAX_TEXT_LEN);
        let mut sent = Vec::new();
        for i in 0..23usize {
            let name = if i % 4 == 0 {
                format!("{i}-{long_name}")
            } else {
                format!("ring-{i}")
            };
            // 0 to 7 attributes: some slots' previous occupants had more.
            let values: Vec<String> = (0..(i * 3) % 8)
                .map(|k| {
                    if (i + k) % 5 == 0 {
                        long_value[..2 * (100 + 13 * k)].to_owned() + &long_value
                    } else {
                        format!("v{i}.{k}")
                    }
                })
                .collect();
            let attrs: Vec<(&'static str, &str)> = KEYS
                .iter()
                .copied()
                .zip(values.iter().map(String::as_str))
                .collect();
            record_into(&c, &name, &attrs);
            sent.push((name, values));
        }
        let finished = c.finished();
        assert_eq!(finished.len(), CAPACITY);
        assert_eq!(c.dropped(), 23 - CAPACITY as u64);
        for (record, (name, values)) in finished.iter().zip(&sent[23 - CAPACITY..]) {
            assert_cut(&record.name, name);
            assert_eq!(
                record.attrs.len(),
                values.len(),
                "stale attributes in {}",
                record.name
            );
            for ((key, recorded), (expected_key, value)) in
                record.attrs.iter().zip(KEYS.iter().zip(values))
            {
                assert_eq!(key, expected_key);
                assert_cut(recorded, value);
            }
        }
        let starts: Vec<u64> = finished.iter().map(|r| r.start_us).collect();
        assert!(starts.is_sorted(), "not oldest first: {starts:?}");
        assert!(c.heap_bytes() <= CAPACITY * RETAINED_SPAN_BYTES);
    }

    #[test]
    fn set_capacity_keeps_the_newest_spans_and_clear_resets() {
        let c = Collector::new(4);
        let names =
            |c: &Collector| -> Vec<String> { c.finished().into_iter().map(|r| r.name).collect() };
        for i in 0..10 {
            record_into(&c, &format!("cap-{i}"), &[("i", "x")]);
        }
        assert_eq!(names(&c), ["cap-6", "cap-7", "cap-8", "cap-9"]);
        c.set_capacity(2);
        assert_eq!(names(&c), ["cap-8", "cap-9"]);
        assert_eq!(c.dropped(), 8);
        c.set_capacity(5);
        assert_eq!(names(&c), ["cap-8", "cap-9"]);
        for i in 10..14 {
            record_into(&c, &format!("cap-{i}"), &[]);
        }
        assert_eq!(names(&c), ["cap-9", "cap-10", "cap-11", "cap-12", "cap-13"]);
        assert_eq!(c.dropped(), 9);
        // cap-10 on went into slots whose occupants had an attribute.
        let attr_counts: Vec<usize> = c.finished().iter().map(|r| r.attrs.len()).collect();
        assert_eq!(attr_counts, [1, 0, 0, 0, 0]);
        c.clear();
        assert!(c.finished().is_empty());
        assert_eq!((c.dropped(), c.heap_bytes()), (0, 0));
        record_into(&c, "cap-after", &[]);
        assert_eq!(names(&c), ["cap-after"]);
    }

    #[test]
    fn slots_give_back_capacity_beyond_the_text_bound() {
        let c = Collector::new(1);
        let keys: [&'static str; MAX_ATTRS] = std::array::from_fn(|i| ["k"; MAX_ATTRS][i]);
        // Each value grows its reused string from 200 to 256 bytes,
        // which doubling would leave at 400.
        for len in [200, MAX_TEXT_LEN] {
            let value = "v".repeat(len);
            let mut span = Span::root(value.as_str());
            for key in keys {
                span.attr(key, value.as_str());
            }
            c.record(&span);
        }
        assert!(
            c.heap_bytes() <= RETAINED_SPAN_BYTES,
            "{} bytes",
            c.heap_bytes()
        );
        assert_eq!(c.finished()[0].attrs.len(), MAX_ATTRS);
    }

    #[test]
    fn a_span_of_inline_texts_records_without_growing_its_slot() {
        let c = Collector::new(1);
        // The slot's first occupant leaves its buffers empty.
        c.record(&Span::root(""));
        let slot_bytes =
            SLOT_TEXT * (1 + INLINE_ATTRS) + INLINE_ATTRS * std::mem::size_of::<(&str, Vec<u8>)>();
        assert_eq!(c.heap_bytes(), std::mem::size_of::<Slot>() + slot_bytes);
        let longest = "x".repeat(INLINE_TEXT);
        let mut span = Span::root(("server:", longest.as_str()));
        span.attr("text", longest.as_str());
        span.attr("n", u64::MAX);
        span.attr("ok", false);
        span.attr("more", longest.as_str());
        c.record(&span);
        assert_eq!(
            c.heap_bytes(),
            std::mem::size_of::<Slot>() + slot_bytes,
            "recording grew the slot"
        );
        assert_eq!(c.finished()[0].attrs[1].1, u64::MAX.to_string());
    }

    #[test]
    fn typed_attributes_record_as_text_and_extra_ones_are_ignored() {
        let c = Collector::new(1);
        let mut span = Span::root(("typed:", "attrs"));
        span.attr("n", 42u64);
        span.attr("len", 7usize);
        span.attr("ok", false);
        span.attr("s", "text");
        for _ in 0..2 * MAX_ATTRS {
            span.attr("extra", true);
        }
        c.record(&span);
        let record = &c.finished()[0];
        assert_eq!(record.name, "typed:attrs");
        assert_eq!(record.attrs.len(), MAX_ATTRS);
        let text: Vec<(&str, &str)> = record.attrs[..4]
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        assert_eq!(
            text,
            [("n", "42"), ("len", "7"), ("ok", "false"), ("s", "text")]
        );
    }
}
