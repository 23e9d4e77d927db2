//! The traced run: decomposition of sampled requests into the layers
//! they cross, isolated layer probes, and the span dump.
//!
//! The program has no tracing of its own at layer granularity, so the
//! benchmark sends one logical request's arguments through successively
//! lower public entry points — `SmartProxy::invoke`, `Orb::invoke_ref`
//! (over TCP, then in-process), `Message::encode`/`decode`, and the
//! servant itself — and records one span per entry point under a shared
//! request id. A layer's self time is its span minus the spans of the
//! layers beneath it.
//!
//! Self times sum to the top-level span by construction, so they cannot
//! show whether the entry points account for the call. The coverage
//! check therefore adds only spans timed on their own: the proxy's
//! (empty) event drain and the orb call the proxy makes. Their sum falls
//! short of the proxy call by whatever else the proxy does.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use adapta::balancer::ReplicaSet;
use adapta::core::SmartProxy;
use adapta::idl::Value;
use adapta::orb::{Message, ObjRef, Orb, ReplyBody, RequestBody, Servant, ServiceContext};
use adapta::telemetry::{collector, registry, Span, SPAN_ID_KEY, TRACE_ID_KEY};
use adapta::trading::{ExportRequest, Query, Trader};

use crate::measure::{median, median_u64, timed};
use crate::Metrics;

/// Median of signed nanosecond differences.
fn median_i64(values: &[i64]) -> f64 {
    median(&values.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

/// At most this many span records are kept for the dump.
const MAX_SPANS: usize = 40_000;

/// One recorded span of a decomposed request.
struct SpanRec {
    request: u64,
    name: &'static str,
    parent: Option<&'static str>,
    start_ns: u64,
    duration_ns: u64,
}

/// Where a decomposed request goes: the reference the proxy routes to,
/// the same object through the in-process transport, and its servant.
pub struct Route {
    pub routed: ObjRef,
    pub inproc: ObjRef,
    pub servant: Arc<dyn Servant>,
}

impl Route {
    /// The route to the servant under `key` on `server`, as `routed`
    /// names it.
    pub fn to(server: &Orb, routed: ObjRef) -> Route {
        let servant = server
            .adapter()
            .find(&routed.key)
            .expect("decomposed target is active");
        let inproc = ObjRef::new(
            format!("inproc://{}", server.node_name()),
            routed.key.clone(),
            routed.type_id.clone(),
        );
        Route {
            routed,
            inproc,
            servant,
        }
    }
}

/// Per-request layer samples plus the span log.
pub struct Decomposer {
    epoch: Instant,
    spans: Vec<SpanRec>,
    requests: u64,
    /// Servant executions the decomposition itself caused (beyond the
    /// logical request), for the workloads' execution-count checks.
    pub extra_executions: u64,
    sp: Vec<u64>,
    orb: Vec<u64>,
    req_encode: Vec<u64>,
    req_decode: Vec<u64>,
    rep_encode: Vec<u64>,
    rep_decode: Vec<u64>,
    servant: Vec<u64>,
    bytes: Vec<u64>,
    sp_self: Vec<i64>,
    orb_self: Vec<i64>,
    tcp_self: Vec<i64>,
    marshal: Vec<i64>,
    /// Per request: (empty drain + orb call) ÷ proxy call.
    covered: Vec<f64>,
    /// Adaptation drains: `(drain, query)` nanoseconds.
    drains: Vec<(u64, u64)>,
}

impl Decomposer {
    pub fn new() -> Decomposer {
        Decomposer {
            epoch: Instant::now(),
            spans: Vec::new(),
            requests: 0,
            extra_executions: 0,
            sp: Vec::new(),
            orb: Vec::new(),
            req_encode: Vec::new(),
            req_decode: Vec::new(),
            rep_encode: Vec::new(),
            rep_decode: Vec::new(),
            servant: Vec::new(),
            bytes: Vec::new(),
            sp_self: Vec::new(),
            orb_self: Vec::new(),
            tcp_self: Vec::new(),
            marshal: Vec::new(),
            covered: Vec::new(),
            drains: Vec::new(),
        }
    }

    /// Runs `f` as span `name` of request `request`.
    fn span<T>(
        &mut self,
        request: u64,
        name: &'static str,
        parent: Option<&'static str>,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = Instant::now();
        let (out, ns) = timed(f);
        if self.spans.len() < MAX_SPANS {
            self.spans.push(SpanRec {
                request,
                name,
                parent,
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                duration_ns: ns,
            });
        }
        (out, ns)
    }

    /// Decomposes one logical request: the proxy call (which is the
    /// request itself), then the same arguments through each lower
    /// entry point of `route`, which names the replica that served the
    /// proxy call and is asked for once that call returned. Returns the
    /// proxy's reply and its latency in ns.
    pub fn request(
        &mut self,
        proxy: &SmartProxy,
        client: &Orb,
        route: impl FnOnce() -> Result<Route, String>,
        op: &str,
        args: &[Value],
    ) -> Result<(Value, u64), String> {
        self.requests += 1;
        let id = self.requests;
        let (reply, sp) = self.span(id, "smart_proxy.invoke", None, || {
            proxy.invoke(op, args.to_vec())
        });
        let reply = reply.map_err(|e| format!("decomposed proxy call: {e}"))?;
        let route = route()?;
        let ((), drain) = self.span(id, "smart_proxy.drain", Some("smart_proxy.invoke"), || {
            proxy.handle_pending_events()
        });
        let (direct, orb) = self.span(id, "orb.invoke_ref", Some("smart_proxy.invoke"), || {
            client.invoke_ref(&route.routed, op, args.to_vec())
        });
        let direct = direct.map_err(|e| format!("decomposed orb call: {e}"))?;
        self.extra_executions += 1;
        let over_tcp = route.routed.endpoint != route.inproc.endpoint;
        let inproc_parent = if over_tcp {
            "orb.invoke_ref.inproc"
        } else {
            "orb.invoke_ref"
        };
        let orb_inproc = if over_tcp {
            let (r, ns) = self.span(id, inproc_parent, Some("orb.invoke_ref"), || {
                client.invoke_ref(&route.inproc, op, args.to_vec())
            });
            r.map_err(|e| format!("decomposed in-process call: {e}"))?;
            self.extra_executions += 1;
            ns
        } else {
            orb
        };

        // The request and reply exactly as the orb frames them: the same
        // body fields and the two trace-context entries.
        let mut context = ServiceContext::new();
        context.set(TRACE_ID_KEY, &format!("{:016x}", id));
        context.set(SPAN_ID_KEY, &format!("{:016x}", id + 1));
        let request = Message::Request(RequestBody {
            id,
            key: route.routed.key.clone(),
            operation: op.to_owned(),
            args: args.to_vec(),
            context,
        });
        let parent = Some(inproc_parent);
        let (req_bytes, req_encode) =
            self.span(id, "marshal.request_encode", parent, || request.encode());
        let (decoded, req_decode) =
            self.span(id, "marshal.request_decode", parent, || Message::decode(&req_bytes));
        if decoded.ok().as_ref() != Some(&request) {
            return Err("request did not survive encode/decode".into());
        }
        let reply_msg = Message::Reply(ReplyBody {
            id,
            outcome: Ok(direct),
        });
        let (rep_bytes, rep_encode) =
            self.span(id, "marshal.reply_encode", parent, || reply_msg.encode());
        let (decoded, rep_decode) =
            self.span(id, "marshal.reply_decode", parent, || Message::decode(&rep_bytes));
        if decoded.ok().as_ref() != Some(&reply_msg) {
            return Err("reply did not survive encode/decode".into());
        }
        let (served, servant) = self.span(id, "servant", parent, || {
            route.servant.invoke(op, args.to_vec())
        });
        served.map_err(|e| format!("decomposed servant call: {e}"))?;
        self.extra_executions += 1;

        let marshal = req_encode + req_decode + rep_encode + rep_decode;
        self.sp.push(sp);
        self.orb.push(orb);
        self.req_encode.push(req_encode);
        self.req_decode.push(req_decode);
        self.rep_encode.push(rep_encode);
        self.rep_decode.push(rep_decode);
        self.servant.push(servant);
        self.bytes.push((req_bytes.len() + rep_bytes.len()) as u64);
        self.marshal.push(marshal as i64);
        self.sp_self.push(sp as i64 - orb as i64);
        self.tcp_self.push(orb as i64 - orb_inproc as i64);
        self.orb_self
            .push(orb_inproc as i64 - servant as i64 - marshal as i64);
        self.covered.push((drain + orb) as f64 / sp.max(1) as f64);
        Ok((reply, sp))
    }

    /// Times an explicit drain of `proxy`'s pending adaptation events,
    /// then the query its strategy runs, as one adaptation request.
    pub fn adaptation(&mut self, proxy: &SmartProxy, trader: &Trader, query: &Query) {
        self.requests += 1;
        let id = self.requests;
        let ((), drain) = self.span(id, "adapt.drain", None, || proxy.handle_pending_events());
        let (_, query_ns) = self.span(id, "trader.query", Some("adapt.drain"), || {
            trader.query(query)
        });
        self.drains.push((drain, query_ns));
    }

    /// Number of decomposed call requests so far.
    pub fn calls(&self) -> usize {
        self.sp.len()
    }

    /// The per-layer figures of the decomposed calls, and the median
    /// share of the proxy call that its separately timed parts (empty
    /// drain and orb call) account for.
    pub fn call_layers(&self) -> (Metrics, f64) {
        let mut m = Metrics::new();
        m.push("marshal.request_encode_ns", median_u64(&self.req_encode), "ns");
        m.push("marshal.reply_decode_ns", median_u64(&self.rep_decode), "ns");
        m.push("marshal.bytes_per_call", median_u64(&self.bytes), "bytes");
        m.push("orb.invoke_ns", median_u64(&self.orb), "ns");
        m.push("orb.servant_ns", median_u64(&self.servant), "ns");
        m.push("orb.self_ns", median_i64(&self.orb_self), "ns");
        m.push("smart_proxy.invoke_ns", median_u64(&self.sp), "ns");
        m.push("smart_proxy.self_ns", median_i64(&self.sp_self), "ns");
        (m, median(&self.covered))
    }

    /// Text-only detail of the decomposed calls.
    pub fn call_detail(&self) -> Metrics {
        let mut m = Metrics::new();
        m.push("marshal.request_decode_ns", median_u64(&self.req_decode), "ns");
        m.push("marshal.reply_encode_ns", median_u64(&self.rep_encode), "ns");
        m.push("marshal.round_trip_ns", median_i64(&self.marshal), "ns");
        m.push("tcp.call_self_ns", median_i64(&self.tcp_self), "ns");
        m.push("decomposed.requests", self.calls() as f64, "count");
        m
    }

    /// Adaptation drains: median drain, its trader query and the
    /// strategy's self time (text-only detail: the self time is the
    /// difference of the two, so it is no check of coverage).
    pub fn adaptation_layers(&self) -> Option<Metrics> {
        if self.drains.is_empty() {
            return None;
        }
        let drain: Vec<f64> = self.drains.iter().map(|d| d.0 as f64).collect();
        let query: Vec<f64> = self.drains.iter().map(|d| d.1 as f64).collect();
        let own: Vec<f64> = self
            .drains
            .iter()
            .map(|d| d.0 as f64 - d.1 as f64)
            .collect();
        let mut m = Metrics::new();
        m.push("adapt.drain_us", median(&drain) / 1e3, "us");
        m.push("adapt.strategy_self_us", median(&own) / 1e3, "us");
        m.push("adapt.strategy_query_us", median(&query) / 1e3, "us");
        m.push("adapt.drains", drain.len() as f64, "count");
        Some(m)
    }

    /// Writes every kept span as one JSON object per line.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
            let _ = writeln!(
                out,
                "{{\"request\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"duration_ns\":{}}}",
                s.request, s.name, parent, s.start_ns, s.duration_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// Per-operation cost of `f`, as the median over batches of `batch`
/// calls, in nanoseconds.
fn per_op_ns(batches: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    let mut per = Vec::with_capacity(batches);
    for _ in 0..batches {
        let ((), ns) = timed(|| {
            for _ in 0..batch {
                f();
            }
        });
        per.push(ns as f64 / batch as f64);
    }
    median(&per)
}

/// What the isolated layer probes need from a workload.
pub struct ProbeTargets<'a> {
    pub proxy: &'a SmartProxy,
    pub client: &'a Orb,
    pub trader: &'a Trader,
    /// The query the workload's proxies run.
    pub query: Query,
    /// An offer of the workload's type, exported and withdrawn.
    pub export: ExportRequest,
    /// A server orb and the key of its echo servant.
    pub server: &'a Orb,
    pub key: &'a str,
    pub op: &'a str,
    pub args: Vec<Value>,
}

fn counter(name: &str) -> u64 {
    registry().counter(name).value()
}

/// Isolated probes of the layers a decomposed call does not separate:
/// telemetry primitives, the empty drain, the trader, the balancer and
/// the TCP transport. Each measures the layer on this workload's own
/// objects (its trader contents, its replicas, its payload).
pub fn probes(t: &ProbeTargets<'_>) -> Result<Metrics, String> {
    let mut m = Metrics::new();

    m.push(
        "telemetry.span_ns",
        per_op_ns(40, 500, || drop(Span::start("perfbench:probe"))),
        "ns",
    );
    let name = format!("orb.{}.requests_sent", t.client.node_name());
    m.push(
        "telemetry.metric_lookup_ns",
        per_op_ns(40, 500, || drop(registry().counter(&name))),
        "ns",
    );
    m.push(
        "smart_proxy.drain_ns",
        per_op_ns(40, 500, || t.proxy.handle_pending_events()),
        "ns",
    );

    // Trader: the proxies' own query with and without dynamic
    // properties, alternated so drift hits both alike.
    let static_query = t.query.clone().use_dynamic(false);
    let (mut dynamic_us, mut static_us) = (Vec::new(), Vec::new());
    let (mut considered, mut evals, mut queries, mut matched) = (0u64, 0u64, 0u64, 0u64);
    for _ in 0..40 {
        let (c0, e0, q0) = (
            counter("trading.offers_considered"),
            counter("trading.dynamic_evals"),
            counter("trading.queries"),
        );
        let (r, ns) = timed(|| t.trader.query(&t.query));
        let found = r.map_err(|e| format!("probe query: {e}"))?;
        considered += counter("trading.offers_considered") - c0;
        evals += counter("trading.dynamic_evals") - e0;
        queries += counter("trading.queries") - q0;
        matched += found.len() as u64;
        dynamic_us.push(ns as f64 / 1e3);
        let (r, ns) = timed(|| t.trader.query(&static_query));
        r.map_err(|e| format!("probe static query: {e}"))?;
        static_us.push(ns as f64 / 1e3);
    }
    let queries = queries.max(1) as f64;
    m.push("trader.query_us", median(&dynamic_us), "us");
    m.push("trader.query_static_us", median(&static_us), "us");
    m.push(
        "trader.resolve_us",
        median(&dynamic_us) - median(&static_us),
        "us",
    );
    let eval = registry().histogram("trading.constraint_eval").summary();
    m.push(
        "trader.constraint_eval_ns",
        eval.mean.as_nanos() as f64,
        "ns",
    );
    m.push(
        "trader.offers_considered_per_query",
        considered as f64 / queries,
        "count",
    );
    m.push(
        "trader.dynamic_evals_per_query",
        evals as f64 / queries,
        "count",
    );
    m.push(
        "trader.match_ratio",
        matched as f64 / considered.max(1) as f64,
        "ratio",
    );
    let (mut export_us, mut withdraw_us) = (Vec::new(), Vec::new());
    for _ in 0..50 {
        let (id, ns) = timed(|| t.trader.export(t.export.clone()));
        let id = id.map_err(|e| format!("probe export: {e}"))?;
        export_us.push(ns as f64 / 1e3);
        let (r, ns) = timed(|| t.trader.withdraw(&id));
        r.map_err(|e| format!("probe withdraw: {e}"))?;
        withdraw_us.push(ns as f64 / 1e3);
    }
    m.push("trader.export_us", median(&export_us), "us");
    m.push("trader.withdraw_us", median(&withdraw_us), "us");

    // Balancer: a replica set over the same query, policy p2c_ewma.
    let set = ReplicaSet::new(Arc::new(t.trader.clone()), t.query.clone())
        .with_policy_named("p2c_ewma");
    let mut refresh_us = Vec::new();
    for _ in 0..20 {
        let (r, ns) = timed(|| set.refresh());
        r.map_err(|e| format!("probe refresh: {e}"))?;
        refresh_us.push(ns as f64 / 1e3);
    }
    if set.is_empty() {
        return Err("probe replica set is empty".into());
    }
    m.push("balancer.refresh_us", median(&refresh_us), "us");
    m.push(
        "balancer.pick_ns",
        per_op_ns(40, 200, || drop(set.pick(None))),
        "ns",
    );

    // TCP: the workload's call over loopback TCP against the same call
    // in-process, alternated pairwise.
    if !t.server.endpoint().starts_with("tcp://") {
        t.server
            .listen_tcp("127.0.0.1:0")
            .map_err(|e| format!("probe listener: {e}"))?;
    }
    let servant = t
        .server
        .adapter()
        .find(t.key)
        .ok_or("probe servant is not active")?;
    let tcp = ObjRef::new(t.server.endpoint(), t.key, servant.interface());
    let inproc = ObjRef::new(
        format!("inproc://{}", t.server.node_name()),
        t.key,
        servant.interface(),
    );
    let (mut round_trip, mut own) = (Vec::new(), Vec::new());
    for i in 0..450 {
        let (a, tcp_ns) = timed(|| t.client.invoke_ref(&tcp, t.op, t.args.clone()));
        let (b, inproc_ns) = timed(|| t.client.invoke_ref(&inproc, t.op, t.args.clone()));
        a.map_err(|e| format!("probe tcp call: {e}"))?;
        b.map_err(|e| format!("probe in-process call: {e}"))?;
        if i >= 50 {
            round_trip.push(tcp_ns);
            own.push(tcp_ns as i64 - inproc_ns as i64);
        }
    }
    m.push("tcp.roundtrip_ns", median_u64(&round_trip), "ns");
    m.push("tcp.self_ns", median_i64(&own), "ns");
    Ok(m)
}

/// Registry and collector totals, for per-call telemetry deltas.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryCounts {
    spans: u64,
    hist_samples: u64,
    names: u64,
}

impl TelemetryCounts {
    pub fn now() -> TelemetryCounts {
        let snap = registry().snapshot();
        TelemetryCounts {
            spans: collector().finished().len() as u64 + collector().dropped(),
            hist_samples: snap.histograms.iter().map(|(_, h)| h.count).sum(),
            names: (snap.counters.len() + snap.gauges.len() + snap.histograms.len()) as u64,
        }
    }

    /// Per-call telemetry work between `self` and `later`.
    pub fn per_call(&self, later: &TelemetryCounts, calls: u64) -> Metrics {
        let calls = calls.max(1) as f64;
        let mut m = Metrics::new();
        m.push(
            "telemetry.spans_per_call",
            (later.spans - self.spans) as f64 / calls,
            "count",
        );
        m.push(
            "telemetry.hist_samples_per_call",
            (later.hist_samples - self.hist_samples) as f64 / calls,
            "count",
        );
        m.push("telemetry.registry_names", later.names as f64, "count");
        m
    }
}
