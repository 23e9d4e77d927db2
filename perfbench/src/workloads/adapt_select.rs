//! `adapt_select`: Figures 6 and 7 at scale, in virtual time. Eight
//! echo servers with LoadAverage monitors and dynamic `LoadAvg` /
//! `LoadAvgIncreasing` offers, a thousand static decoy offers of the
//! same type that fail the constraint, and four smart proxies running
//! the verbatim Figure 7 strategy on `LoadIncrease`.
//!
//! Each round a seeded schedule moves background load between the
//! servers, virtual time advances in 30 s monitor steps, a few decoys
//! are withdrawn and re-exported (trader writes beside the reads), and
//! each proxy makes a burst of calls whose first call drains pending
//! events and re-selects.

use std::time::{Duration, Instant};

use adapta::core::policies::LoadSharingConfig;
use adapta::core::{Infrastructure, ServerHandle, ServerSpec, SmartProxy, Subscription};
use adapta::idl::Value;
use adapta::orb::ObjRef;
use adapta::trading::{ExportRequest, OfferId, Query};

use super::{
    decomposed_echo, echo_call, layer_counts, probe_args, Checks, Payload,
    ProxyBase, Result, Workload, DECOMPOSE_EVERY,
};
use crate::layers::{Decomposer, ProbeTargets, Route};
use crate::measure::{median_u64, quantile, timed, Rng, Windows, FAILED};
use crate::Metrics;

const SERVICE: &str = "AdaptEcho";
const HOSTS: usize = 8;
const DECOYS: usize = 1_000;
const PROXIES: usize = 4;
/// Calls per proxy and round; the first drains events and re-selects.
/// Re-selecting calls take milliseconds; at 128 calls a burst they stay
/// under 1% of calls, so the tail percentiles are not set by how many of
/// them a seed's schedule happens to cause.
const BURST: usize = 128;
/// Monitor steps per round. In 4 × 30 s a host's 1-minute average
/// reaches 86% of its load, so a host given 70 or more jobs crosses the
/// threshold of 50 (and notifies) within the round it turns hot.
const STEPS: usize = 4;
const STEP: Duration = Duration::from_secs(30);
/// Hot hosts per round: 3 + 0..3 of 8, at 70..95 jobs. At least three
/// stay idle, so the Figure 7 query always finds a host and its relax
/// branch never runs.
const HOT: (u64, u64) = (3, 3);
const HOT_LOAD: (f64, f64) = (70.0, 95.0);
/// Decoys withdrawn and re-exported per round.
const CHURN: usize = 4;
const WARMUP_ROUNDS: usize = 3;
/// The selection query of Figure 7, verbatim.
const FIG7_QUERY: &str = "LoadAvg < 50 and LoadAvgIncreasing == no ";

/// Figure 7, verbatim: the adaptation strategy for `LoadIncrease`.
const FIG7_SOURCE: &str = r#"
smartproxy._strategies = {
    LoadIncrease = function(self)
        -- get the current load average
        self._loadavg = self._loadavgmon:getvalue()

        -- look for an alternative server
        local query
        query = "LoadAvg < 50 and LoadAvgIncreasing == no "
        if not self:_select(query) then
            self._loadavgmon:attachEventObserver(
                self._observer,
                "LoadIncrease",
                [[function(self, value, monitor)
                    local incr
                    incr = monitor:getAspectValue("Increasing")
                    return value[1] > 70 and incr == "yes"
                end]])
        end
    end
}
"#;

pub struct AdaptSelect {
    infra: Infrastructure,
    servers: Vec<ServerHandle>,
    proxies: Vec<SmartProxy>,
    decoys: Vec<(OfferId, ExportRequest)>,
    query: Query,
    payloads: Vec<Payload>,
    rng: Rng,
    schedule: Rng,
    base: ProxyBase,
    pushed_base: u64,
    calls: u64,
    ok_calls: u64,
    mismatches: u64,
    bindings_checked: u64,
    bindings_overloaded: u64,
    adapt_ns: Vec<u64>,
    advance_ns: Vec<u64>,
}

fn core_err(e: adapta::core::CoreError) -> String {
    e.to_string()
}

impl AdaptSelect {
    pub fn setup(seed: u64) -> Result<AdaptSelect> {
        let infra = Infrastructure::in_process().map_err(core_err)?;
        infra.trader().reseed(seed);
        infra.orb().fault_plan().reseed(seed);
        let mut servers = Vec::with_capacity(HOSTS);
        for i in 0..HOSTS {
            let server = infra
                .spawn_server(ServerSpec::echo(SERVICE, format!("pb-host-{i}")))
                .map_err(core_err)?;
            server.orb().fault_plan().reseed(seed.wrapping_add(i as u64 + 1));
            servers.push(server);
        }
        let rng = Rng::new(seed);
        let mut gen = rng.fork(1);
        let mut decoys = Vec::with_capacity(DECOYS);
        for i in 0..DECOYS {
            let host = format!("pb-decoy-{i}");
            let request = ExportRequest::new(
                SERVICE,
                ObjRef::new("inproc://pb-decoys", host.as_str(), SERVICE),
            )
            .with_property("LoadAvg", Value::from(gen.range(50.0, 99.0)))
            .with_property("LoadAvgIncreasing", Value::from("no"))
            .with_property("Host", Value::from(host));
            let id = infra
                .trader()
                .export(request.clone())
                .map_err(|e| e.to_string())?;
            decoys.push((id, request));
        }
        let config = LoadSharingConfig::default();
        let mut proxies = Vec::with_capacity(PROXIES);
        for _ in 0..PROXIES {
            let proxy = infra
                .smart_proxy(SERVICE)
                .constraint(config.constraint())
                .preference("min LoadAvg")
                .subscribe(Subscription::new(
                    "LoadAvg",
                    "LoadIncrease",
                    config.predicate(config.threshold),
                ))
                .build()
                .map_err(core_err)?;
            proxy
                .install_strategies_script(FIG7_SOURCE)
                .map_err(core_err)?;
            proxies.push(proxy);
        }
        // The servers' `echo` returns its first argument.
        let payloads = (0..64)
            .map(|_| {
                let mut p = Payload::small(&mut gen);
                p.expected = p.args[0].clone();
                p
            })
            .collect();
        let base = ProxyBase::of(&proxies.iter().collect::<Vec<_>>(), 0);
        let mut w = AdaptSelect {
            infra,
            servers,
            proxies,
            decoys,
            query: Query::new(SERVICE)
                .constraint(FIG7_QUERY)
                .preference("min LoadAvg"),
            payloads,
            rng: rng.fork(2),
            schedule: rng.fork(3),
            base,
            pushed_base: 0,
            calls: 0,
            ok_calls: 0,
            mismatches: 0,
            bindings_checked: 0,
            bindings_overloaded: 0,
            adapt_ns: Vec::new(),
            advance_ns: Vec::new(),
        };
        let mut warmup = Windows::new(Instant::now(), 3600.0, 1);
        for _ in 0..WARMUP_ROUNDS {
            w.round(&mut warmup, None)?;
        }
        w.base = ProxyBase::of(&w.proxies.iter().collect::<Vec<_>>(), w.ok_calls);
        w.pushed_base = w.pushed();
        w.adapt_ns.clear();
        w.advance_ns.clear();
        Ok(w)
    }

    /// Event notifications the servers' monitors sent so far.
    fn pushed(&self) -> u64 {
        self.servers
            .iter()
            .map(|s| s.monitor().notifications())
            .sum()
    }

    fn server_of(&self, target: &ObjRef) -> Result<&ServerHandle> {
        self.servers
            .iter()
            .find(|s| s.target() == target)
            .ok_or_else(|| format!("bound to an unknown target {}", target.to_uri()))
    }

    /// One round: shift load, advance the monitors, churn decoys, then
    /// a burst of calls per proxy.
    fn round(&mut self, windows: &mut Windows, mut d: Option<&mut Decomposer>) -> Result<()> {
        let hot = (HOT.0 + self.schedule.below(HOT.1)) as usize;
        let mut order: Vec<usize> = (0..HOSTS).collect();
        for i in (1..HOSTS).rev() {
            order.swap(i, self.schedule.below(i as u64 + 1) as usize);
        }
        let now = self.infra.now();
        for (rank, &host) in order.iter().enumerate() {
            let load = if rank < hot {
                self.schedule.range(HOT_LOAD.0, HOT_LOAD.1)
            } else {
                0.0
            };
            self.servers[host].sim_host().set_background(now, load);
        }
        for _ in 0..STEPS {
            let ((), ns) = timed(|| self.infra.advance(STEP));
            self.advance_ns.push(ns);
        }
        let trader = self.infra.trader().clone();
        for _ in 0..CHURN {
            let k = self.schedule.below(DECOYS as u64) as usize;
            trader
                .withdraw(&self.decoys[k].0)
                .map_err(|e| e.to_string())?;
            self.decoys[k].0 = trader
                .export(self.decoys[k].1.clone())
                .map_err(|e| e.to_string())?;
        }
        for pi in 0..PROXIES {
            if let Some(d) = d.as_deref_mut() {
                if self.proxies[pi].pending_events() > 0 {
                    d.adaptation(&self.proxies[pi], &trader, &self.query);
                }
            }
            self.first_call(pi, windows)?;
            for _ in 1..BURST {
                let p = &self.payloads[self.rng.below(self.payloads.len() as u64) as usize];
                let proxy = &self.proxies[pi];
                let failed_before = windows.failed;
                let (wrong, _) = match d.as_deref_mut() {
                    Some(d) if self.calls % DECOMPOSE_EVERY == 0 => {
                        let route = || {
                            let target = proxy.current_target().ok_or("proxy is unbound")?;
                            Ok(Route::to(self.server_of(&target)?.orb(), target))
                        };
                        decomposed_echo(d, proxy, self.infra.orb(), route, p, windows)?
                    }
                    _ => echo_call(proxy, p, windows),
                };
                self.calls += 1;
                self.ok_calls += u64::from(windows.failed == failed_before);
                self.mismatches += u64::from(wrong);
            }
        }
        Ok(())
    }

    /// The burst's first call, `whoami`: it drains pending events (and
    /// re-selects), then names the host the proxy is bound to, whose
    /// 1-minute load average must be below the threshold of 50.
    fn first_call(&mut self, pi: usize, windows: &mut Windows) -> Result<()> {
        let proxy = &self.proxies[pi];
        let handled = proxy.events_handled();
        let t = Instant::now();
        let reply = proxy.invoke("whoami", Vec::new());
        let end = Instant::now();
        let adapted = proxy.events_handled() != handled;
        let ns = end.duration_since(t).as_nanos() as u64;
        self.calls += 1;
        let Ok(who) = reply else {
            windows.record(end, FAILED);
            return Ok(());
        };
        windows.record(end, ns);
        self.ok_calls += 1;
        if adapted {
            self.adapt_ns.push(ns);
        }
        let host = who.as_str().ok_or("whoami returned no host name")?;
        let server = self
            .servers
            .iter()
            .find(|s| s.sim_host().name() == host)
            .ok_or_else(|| format!("whoami named an unknown host {host}"))?;
        let load = server
            .monitor()
            .value()
            .as_seq()
            .and_then(|v| v.first())
            .and_then(Value::as_double)
            .ok_or("LoadAvg monitor value is not a load table")?;
        self.bindings_checked += 1;
        self.bindings_overloaded += u64::from(load >= 50.0);
        Ok(())
    }
}

impl Workload for AdaptSelect {
    fn measure(&mut self, windows: &mut Windows, mut d: Option<&mut Decomposer>) -> Result<()> {
        while !windows.done() {
            self.round(windows, d.as_deref_mut())?;
        }
        Ok(())
    }

    fn check(&mut self, checks: &mut Checks, _d: Option<&Decomposer>) {
        checks.check(
            "echo replies equal their arguments",
            self.mismatches == 0,
            format!("{} mismatches", self.mismatches),
        );
        checks.check(
            "after every shift each proxy is bound to a host with LoadAvg < 50",
            self.bindings_checked > 0 && self.bindings_overloaded == 0,
            format!(
                "{} of {} bindings overloaded",
                self.bindings_overloaded, self.bindings_checked
            ),
        );
        let handled: u64 = self.proxies.iter().map(|p| p.events_handled()).sum();
        checks.check(
            "load shifts drive adaptations",
            handled > 0,
            format!("{handled} events handled"),
        );
        let observers: usize = self
            .servers
            .iter()
            .map(|s| s.monitor().observer_count())
            .sum();
        checks.check(
            "Figure 7's relax branch never ran (one observer per proxy)",
            observers == PROXIES,
            format!("{observers} observers for {PROXIES} proxies"),
        );
    }

    fn probe_targets(&self) -> ProbeTargets<'_> {
        ProbeTargets {
            proxy: &self.proxies[0],
            client: self.infra.orb(),
            trader: self.infra.trader(),
            query: self.query.clone(),
            export: self.decoys[0].1.clone(),
            server: self.servers[0].orb(),
            key: &self.servers[0].target().key,
            op: "echo",
            args: probe_args(),
        }
    }

    fn counts(&self) -> Metrics {
        layer_counts(
            &self.proxies.iter().collect::<Vec<_>>(),
            &self.base,
            self.ok_calls,
            self.pushed() - self.pushed_base,
        )
    }

    fn extra(&mut self) -> Metrics {
        let mut m = Metrics::new();
        if !self.adapt_ns.is_empty() {
            let mut ns = self.adapt_ns.clone();
            m.push("adapt_call_p50_us", quantile(&mut ns, 0.50) as f64 / 1e3, "us");
            m.push("adapt_call_p90_us", quantile(&mut ns, 0.90) as f64 / 1e3, "us");
        }
        m.push("adapt_calls", self.adapt_ns.len() as f64, "count");
        m
    }

    fn detail(&mut self) -> Metrics {
        let mut m = Metrics::new();
        m.push(
            "monitor.advance_us",
            median_u64(&self.advance_ns) / 1e3,
            "us",
        );
        m
    }
}
