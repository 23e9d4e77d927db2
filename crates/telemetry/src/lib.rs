//! Observability for the adapta middleware: distributed tracing and a
//! unified metrics registry, both dependency-free.
//!
//! # Tracing
//!
//! A [`Span`] measures one timed operation. Spans form trees: starting
//! a span on a thread that already has an active span makes it a child
//! sharing the parent's [`TraceId`]; otherwise a fresh trace begins.
//! The ORB carries `(TraceId, SpanId)` across process and network hops
//! with each request, so a client invocation, the
//! server-side dispatch and any nested invocations (for example a
//! trader evaluating a dynamic property) all land in one trace.
//! Finished spans go to the process-wide [`collector`], a bounded ring
//! buffer exportable as text or JSON.
//!
//! Spans are cheap enough to record on every call. A span keeps a
//! static name prefix, a copy of the rest of its name and its first
//! attributes inline; numeric and boolean attributes stay typed until
//! read. A finished span moves into the collector's ring as built, so
//! in steady state neither side allocates. Names and values longer
//! than [`MAX_TEXT_LEN`] are cut, which bounds what the collector
//! retains ([`Collector::heap_bytes`]).
//!
//! ```
//! use adapta_telemetry::{collector, Span};
//!
//! let root = Span::start("request");
//! let trace = root.trace_id();
//! {
//!     let mut child = Span::start("marshal");
//!     child.attr("bytes", "128");
//! } // child records on drop
//! {
//!     // A static prefix plus a copied name; a typed attribute.
//!     let mut child = Span::start(("client:", "getLoad"));
//!     child.attr("attempt", 2u64);
//! }
//! drop(root);
//! let spans = collector().for_trace(trace);
//! assert_eq!(spans.len(), 3);
//! assert_eq!(spans[1].name, "client:getLoad");
//! assert_eq!(spans[1].attrs, [("attempt".to_owned(), "2".to_owned())]);
//! ```
//!
//! # Metrics
//!
//! The global [`registry`] names three instrument kinds: monotone
//! [`Counter`]s, up/down [`Gauge`]s and latency [`HistogramHandle`]s.
//! [`Registry::snapshot`] captures everything at a point in time;
//! [`Snapshot::to_json`] renders it for export through the middleware's
//! own `_telemetry` object.
//!
//! Handles are cheap to clone and meant to be resolved once and kept on
//! the struct that records into them: a lookup takes the registry lock,
//! recording touches only atomics.
//!
//! A live histogram is a fixed array of atomic log-linear buckets: its
//! memory does not grow with the number of samples, and its quantiles
//! overstate the exact nearest-rank value by less than 1.6% (never
//! understate it, never exceed the largest sample). Count, mean and
//! maximum are exact. The exact-sample [`Histogram`] remains for the
//! simulator and the experiment harness, which need exact quantiles
//! over bounded runs.

mod buckets;
mod hist;
pub mod json;
mod metrics;
mod trace;

pub use hist::Histogram;
pub use metrics::{registry, Counter, Gauge, HistSummary, HistogramHandle, Registry, Snapshot};
pub use trace::{
    collector, current_context, AttrValue, Collector, Span, SpanId, SpanName, SpanRecord, TraceId,
    MAX_ATTRS, MAX_TEXT_LEN, RETAINED_SPAN_BYTES, SPAN_ID_KEY, TRACE_ID_KEY,
};
