//! The four workloads and what they share: echo servants, seeded
//! payloads, the outcome record and its report.

mod adapt_select;
mod inproc_call;
mod inproc_failover;
mod tcp_balanced;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use adapta::core::SmartProxy;
use adapta::idl::{InterfaceRepository, TypeCode, Value};
use adapta::orb::{ObjRef, Orb, OrbError, Servant, ServantFn};
use adapta::trading::{ExportRequest, PropDef, PropMode, Query, ServiceTypeDef, Trader};

use crate::layers::{self, Decomposer, ProbeTargets, TelemetryCounts};
use crate::measure::{cpu_seconds, rss_peak_mb, CallSummary, Rng, Windows, FAILED};
use crate::{Config, Metrics};

pub const NAMES: [&str; 4] = ["inproc_call", "tcp_balanced", "adapt_select", "inproc_failover"];

/// A decomposed request every this many logical requests (traced half).
pub const DECOMPOSE_EVERY: u64 = 50;

/// Measured-phase windows per second (figures are medians over them).
const WINDOWS_PER_SECOND: f64 = 2.0;

/// Service type and object key of the benchmark-owned echo fleets.
pub const ECHO_TYPE: &str = "Echo";
pub const ECHO_KEY: &str = "echo";

pub type Result<T> = std::result::Result<T, String>;

/// Runs `name`: set-up (timed from process start), then the measured
/// phase(s).
pub fn run(name: &str, config: &Config, started: Instant) -> Result<Outcome> {
    let mut workload: Box<dyn Workload> = match name {
        "inproc_call" => Box::new(inproc_call::InprocCall::setup(config.seed)?),
        "tcp_balanced" => Box::new(tcp_balanced::TcpBalanced::setup(config.seed)?),
        "adapt_select" => Box::new(adapt_select::AdaptSelect::setup(config.seed)?),
        "inproc_failover" => Box::new(inproc_failover::InprocFailover::setup(config.seed)?),
        other => return Err(format!("unknown workload `{other}`")),
    };
    let setup_s = started.elapsed().as_secs_f64();
    measure(workload.as_mut(), config, setup_s)
}

/// What every workload provides once set up.
pub trait Workload {
    /// Runs the closed loop until `windows` is done. With a decomposer,
    /// every [`DECOMPOSE_EVERY`]th logical request is decomposed.
    fn measure(&mut self, windows: &mut Windows, decomposer: Option<&mut Decomposer>)
        -> Result<()>;
    /// Output checks over everything run so far.
    fn check(&mut self, checks: &mut Checks, decomposer: Option<&Decomposer>);
    /// The proxy and objects the isolated layer probes use.
    fn probe_targets(&self) -> ProbeTargets<'_>;
    /// Per-layer counts of the workload since set-up.
    fn counts(&self) -> Metrics;
    /// End-to-end figures beyond the common ones (text report only).
    fn extra(&mut self) -> Metrics {
        Metrics::new()
    }
    /// Workload-specific layer figures (text report only).
    fn detail(&mut self) -> Metrics {
        Metrics::new()
    }
}

fn windows_for(seconds: f64) -> usize {
    ((seconds * WINDOWS_PER_SECOND).round() as usize).max(2)
}

/// The measured phase: untraced, then (traced runs) traced with
/// decomposition, then checks and, for traced runs, the layer figures.
fn measure(w: &mut dyn Workload, config: &Config, setup_s: f64) -> Result<Outcome> {
    let mut outcome = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let untraced_secs = if config.trace {
        config.seconds / 2.0
    } else {
        config.seconds
    };
    let before = config.trace.then(TelemetryCounts::now);
    let (cpu0, wall0) = (cpu_seconds(), Instant::now());
    let mut untraced = Windows::new(Instant::now(), untraced_secs, windows_for(untraced_secs));
    w.measure(&mut untraced, None)?;
    let cpu_s = cpu_seconds() - cpu0;
    let cpu_util = cpu_s / wall0.elapsed().as_secs_f64();
    outcome.attempted = untraced.attempted;
    outcome.failed = untraced.failed;
    let calls = untraced.summary();
    outcome.e2e.push("call_p50_us", calls.p50_us, "us");
    outcome.e2e.push(
        "cpu_us_per_call",
        cpu_s * 1e6 / untraced.attempted.max(1) as f64,
        "us",
    );
    // Wall-clock rates and tails are reported but not bounded: where a
    // call hands work between threads (tcp_balanced, the monitor ticks
    // of adapt_select), they follow how fast the host wakes an idle
    // vCPU, which varied 1.6x between consecutive runs on a 2-vCPU
    // virtual machine. CPU time per call leaves out both that wait and
    // time stolen by the hypervisor.
    outcome.extra.push("calls_per_s", calls.calls_per_s, "1/s");
    outcome.extra.push("call_p95_us", calls.p95_us, "us");
    outcome.extra.push("call_p99_us", calls.p99_us, "us");
    outcome.extra.push("call_samples", calls.samples as f64, "count");
    outcome.extra.push(
        "fail_ratio",
        untraced.failed as f64 / untraced.attempted.max(1) as f64,
        "ratio",
    );
    outcome.extra.extend(w.extra());

    let mut decomposer = None;
    if let Some(before) = before {
        let after = TelemetryCounts::now();
        outcome
            .layers
            .extend(before.per_call(&after, untraced.attempted));
        let secs = config.seconds - untraced_secs;
        let mut traced = Windows::new(Instant::now(), secs, windows_for(secs));
        let mut d = Decomposer::new();
        w.measure(&mut traced, Some(&mut d))?;
        outcome.attempted += traced.attempted;
        outcome.failed += traced.failed;
        outcome.overhead = Some((calls, traced.summary()));
        decomposer = Some(d);
    }
    w.check(&mut outcome.checks, decomposer.as_ref());
    // The program's histograms keep every sample, so the peak grows with
    // the calls a run completes: reported, not bounded.
    outcome.extra.push("rss_peak_mb", rss_peak_mb(), "MiB");

    if let Some(d) = decomposer {
        if d.calls() == 0 {
            outcome.checks.check("requests were decomposed", false, "none");
        } else {
            let (call_layers, coverage) = d.call_layers();
            outcome.layers.extend(call_layers);
            outcome.detail.extend(d.call_detail());
            outcome.coverage = Some(coverage);
        }
        if let Some(m) = d.adaptation_layers() {
            outcome.detail.extend(m);
        }
        outcome.layers.extend(layers::probes(&w.probe_targets())?);
        outcome.layers.extend(w.counts());
        outcome.layers.push("process.cpu_util", cpu_util, "ratio");
        outcome.detail.extend(w.detail());
        d.write_spans(&config.spans)
            .map_err(|e| format!("writing {}: {e}", config.spans.display()))?;
    }
    Ok(outcome)
}

/// Named pass/fail output checks.
#[derive(Debug, Default)]
pub struct Checks(Vec<(String, bool, String)>);

impl Checks {
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.0.push((name.to_owned(), ok, detail.into()));
    }

    fn all_pass(&self) -> bool {
        !self.0.is_empty() && self.0.iter().all(|c| c.1)
    }
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub setup_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end figures of the untraced phase.
    pub e2e: Metrics,
    /// Further end-to-end figures, reported as text only.
    pub extra: Metrics,
    /// Per-layer figures (traced runs).
    pub layers: Metrics,
    /// Further per-layer figures, reported as text only.
    pub detail: Metrics,
    /// Share of the proxy call its separately timed parts account for.
    pub coverage: Option<f64>,
    /// Untraced and traced call figures (traced runs).
    pub overhead: Option<(CallSummary, CallSummary)>,
    pub checks: Checks,
}

impl Outcome {
    pub fn report(&self, workload: &str, config: &Config) {
        println!(
            "workload {workload}  seed {}  seconds {}  trace {}",
            config.seed, config.seconds, config.trace as u8
        );
        println!("  setup_s {:.4}", self.setup_s);
        self.e2e.print("end-to-end (untraced)");
        self.extra.print("end-to-end detail");
        if let Some((untraced, traced)) = &self.overhead {
            println!(
                "tracing overhead: calls_per_s {:+.1} ({:.1} traced vs {:.1} untraced), \
                 call_p50_us {:+.3} ({:.3} vs {:.3})",
                traced.calls_per_s - untraced.calls_per_s,
                traced.calls_per_s,
                untraced.calls_per_s,
                traced.p50_us - untraced.p50_us,
                traced.p50_us,
                untraced.p50_us
            );
            println!("spans written to {}", config.spans.display());
        }
        self.layers.print("per-layer");
        self.detail.print("per-layer detail");
        // A property of the decomposition, not of the program's output:
        // reported (and asserted by perfbench/smoke.py), not a check.
        if let Some(share) = self.coverage {
            println!(
                "coverage: empty drain + orb call cover {:.1}% of the proxy call ({})",
                share * 100.0,
                if (share - 1.0).abs() <= 0.10 { "within 10%" } else { "outside 10%" }
            );
        }
        for (name, ok, detail) in &self.checks.0 {
            let verdict = if *ok { "pass" } else { "FAIL" };
            println!("check {name:<64} {verdict}  {detail}");
        }
        let correct = self.checks.all_pass()
            && self.failed == 0
            && self.e2e.all_finite()
            && self.layers.all_finite();
        let mut json = format!(
            "{{\"setup_s\":{},\"correct\":{correct},\
             \"attempted\":{},\"failed\":{},\"e2e\":{}",
            self.setup_s,
            self.attempted,
            self.failed,
            self.e2e.to_json()
        );
        if config.trace {
            json.push_str(&format!(",\"layers\":{}", self.layers.to_json()));
        }
        json.push('}');
        println!("{json}");
    }
}

// ---- shared workload parts ----------------------------------------------

/// One call's arguments and the reply an echo must give.
#[derive(Debug, Clone)]
pub struct Payload {
    pub args: Vec<Value>,
    pub expected: Value,
}

impl Payload {
    fn new(args: Vec<Value>) -> Payload {
        let expected = Value::Seq(args.clone());
        Payload { args, expected }
    }

    /// The small argument pair of the in-process call benchmarks: a
    /// 14-character string and a long.
    pub fn small(rng: &mut Rng) -> Payload {
        let text: String = (0..14)
            .map(|_| (b'a' + rng.below(26) as u8) as char)
            .collect();
        Payload::new(vec![Value::from(text), Value::Long(rng.next_u64() as i64)])
    }

    /// One opaque byte payload of `n` bytes.
    pub fn bytes(rng: &mut Rng, n: usize) -> Payload {
        Payload::new(vec![Value::Bytes(rng.bytes(n).into())])
    }
}

/// Arguments of the isolated layer probes: the same small pair for
/// every workload and seed, so probe figures compare across both.
pub fn probe_args() -> Vec<Value> {
    vec![Value::from("payload-string"), Value::Long(42)]
}

/// An echo servant returning its arguments as a sequence; counts its
/// executions.
pub fn echo_servant(executions: Arc<AtomicU64>) -> Arc<dyn Servant> {
    Arc::new(ServantFn::new(ECHO_TYPE, move |op, args| match op {
        "echo" => {
            executions.fetch_add(1, Ordering::Relaxed);
            Ok(Value::Seq(args))
        }
        other => Err(OrbError::unknown_operation(ECHO_TYPE, other)),
    }))
}

/// A client orb with a local trader, and `n` echo servers announced to
/// it, each on its own orb.
pub struct EchoFleet {
    pub client: Orb,
    pub trader: Trader,
    pub repo: InterfaceRepository,
    pub servers: Vec<Orb>,
    pub servants: Vec<Arc<dyn Servant>>,
    pub executions: Vec<Arc<AtomicU64>>,
    pub refs: Vec<ObjRef>,
}

impl EchoFleet {
    pub fn new(n: usize, tcp: bool, seed: u64) -> Result<EchoFleet> {
        let client = Orb::new("pb-client");
        client.fault_plan().reseed(seed);
        let trader = Trader::new(&client);
        trader.reseed(seed);
        trader
            .add_type(
                ServiceTypeDef::new(ECHO_TYPE)
                    .with_property(PropDef::new("Host", TypeCode::Str, PropMode::Readonly)),
            )
            .map_err(|e| e.to_string())?;
        let mut fleet = EchoFleet {
            client,
            trader,
            repo: InterfaceRepository::new(),
            servers: Vec::new(),
            servants: Vec::new(),
            executions: Vec::new(),
            refs: Vec::new(),
        };
        for i in 0..n {
            let server = Orb::new(&format!("pb-server-{i}"));
            server.fault_plan().reseed(seed.wrapping_add(i as u64 + 1));
            if tcp {
                server
                    .listen_tcp("127.0.0.1:0")
                    .map_err(|e| e.to_string())?;
            }
            let executions = Arc::new(AtomicU64::new(0));
            let servant = echo_servant(executions.clone());
            let objref = server
                .activate_arc(ECHO_KEY, servant.clone())
                .map_err(|e| e.to_string())?;
            fleet
                .trader
                .export(
                    ExportRequest::new(ECHO_TYPE, objref.clone())
                        .with_property("Host", Value::from(server.node_name())),
                )
                .map_err(|e| e.to_string())?;
            fleet.servers.push(server);
            fleet.servants.push(servant);
            fleet.executions.push(executions);
            fleet.refs.push(objref);
        }
        Ok(fleet)
    }

    /// Servant executions across the fleet.
    pub fn total_executions(&self) -> u64 {
        self.executions
            .iter()
            .map(|e| e.load(Ordering::Relaxed))
            .sum()
    }

    /// The fleet's index of the server behind `target`.
    pub fn index_of(&self, target: &ObjRef) -> Option<usize> {
        self.refs.iter().position(|r| r == target)
    }

    /// The probe objects of a workload whose proxy is `proxy`.
    pub fn probe_targets<'a>(&'a self, proxy: &'a SmartProxy) -> ProbeTargets<'a> {
        ProbeTargets {
            proxy,
            client: &self.client,
            trader: &self.trader,
            query: Query::new(ECHO_TYPE),
            export: ExportRequest::new(
                ECHO_TYPE,
                ObjRef::new("inproc://pb-decoys", "decoy", ECHO_TYPE),
            )
            .with_property("Host", Value::from("pb-decoy")),
            server: &self.servers[0],
            key: ECHO_KEY,
            op: "echo",
            args: probe_args(),
        }
    }
}

/// Proxy counters at one moment, with the successful calls so far.
#[derive(Debug, Clone, Default)]
pub struct ProxyBase {
    calls: u64,
    rebinds: u64,
    events_handled: u64,
    retries: u64,
}

impl ProxyBase {
    pub fn of(proxies: &[&SmartProxy], calls: u64) -> ProxyBase {
        ProxyBase {
            calls,
            rebinds: proxies.iter().map(|p| p.rebinds()).sum(),
            events_handled: proxies.iter().map(|p| p.events_handled()).sum(),
            retries: proxies.iter().map(|p| p.retries()).sum(),
        }
    }
}

/// Per-layer counts since `base` of the smart proxy, its resilience
/// machinery and the monitors: `calls` is the successful calls so far,
/// `pushed` the monitor notifications of the measured phase. Each reads
/// 0 on a workload that does not reach its layer.
pub fn layer_counts(proxies: &[&SmartProxy], base: &ProxyBase, calls: u64, pushed: u64) -> Metrics {
    let now = ProxyBase::of(proxies, calls);
    let calls = (now.calls - base.calls).max(1) as f64;
    let retries = (now.retries - base.retries) as f64;
    let mut m = Metrics::new();
    m.push(
        "smart_proxy.rebinds",
        (now.rebinds - base.rebinds) as f64,
        "count",
    );
    m.push(
        "smart_proxy.events_handled",
        (now.events_handled - base.events_handled) as f64,
        "count",
    );
    m.push("resilience.retries_per_call", retries / calls, "count");
    m.push(
        "resilience.attempts_per_ok_call",
        (calls + retries) / calls,
        "count",
    );
    m.push("monitor.events_pushed", pushed as f64, "count");
    m
}

/// Times one echo call through `proxy` into `windows`. Returns whether
/// the reply was wrong (a failed call is recorded, not a mismatch) and
/// the call's latency in nanoseconds.
pub fn echo_call(proxy: &SmartProxy, payload: &Payload, windows: &mut Windows) -> (bool, u64) {
    let args = payload.args.clone();
    let t = Instant::now();
    let reply = proxy.invoke("echo", args);
    let end = Instant::now();
    let ns = end.duration_since(t).as_nanos() as u64;
    match reply {
        Ok(v) => {
            windows.record(end, ns);
            (v != payload.expected, ns)
        }
        Err(_) => {
            windows.record(end, FAILED);
            (false, ns)
        }
    }
}

/// Decomposes one echo request through `route` (see
/// [`Decomposer::request`]), recording the proxy call's latency into
/// `windows`; returns as [`echo_call`] does.
pub fn decomposed_echo(
    d: &mut Decomposer,
    proxy: &SmartProxy,
    client: &Orb,
    route: impl FnOnce() -> Result<layers::Route>,
    payload: &Payload,
    windows: &mut Windows,
) -> Result<(bool, u64)> {
    let (reply, ns) = d.request(proxy, client, route, "echo", &payload.args)?;
    windows.record(Instant::now(), ns);
    Ok((reply != payload.expected, ns))
}
