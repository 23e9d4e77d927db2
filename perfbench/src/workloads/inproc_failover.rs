//! `inproc_failover`: one client thread, a classic smart proxy with
//! four zero-backoff attempts and the default breaker, over three
//! in-process echo replicas. A seeded schedule deactivates one replica
//! at a time, usually the bound one, and reactivates it a few calls
//! later; its offer stays in the trader, as after a crash without
//! cleanup. About one call in thirty-five fails over, so retry,
//! failover re-query and breaker accounting run on a steady share of
//! calls, and the report's `call_p99_us` lands among the failover calls.

use std::sync::Arc;
use std::time::Duration;

use adapta::core::{BreakerConfig, RetryPolicy, SmartProxy};

use super::{
    decomposed_echo, echo_call, layer_counts, Checks, EchoFleet, Payload,
    ProxyBase, Result, Workload, DECOMPOSE_EVERY, ECHO_KEY, ECHO_TYPE,
};
use crate::layers::{Decomposer, ProbeTargets, Route};
use crate::measure::{median_u64, Rng, Windows};
use crate::Metrics;

const WARMUP_CALLS: u64 = 2_000;
const REPLICAS: usize = 3;
/// Calls from a reactivation to the next outage: 10 + 0..20.
const UP_CALLS: (u64, u64) = (10, 20);
/// Calls an outage lasts: 5 + 0..15.
const DOWN_CALLS: (u64, u64) = (5, 15);
/// Share of outages that hit the bound replica.
const BOUND_VICTIM: f64 = 0.9;

pub struct InprocFailover {
    fleet: EchoFleet,
    proxy: SmartProxy,
    payloads: Vec<Payload>,
    rng: Rng,
    schedule: Rng,
    /// The replica that is down and the call number that revives it.
    down: Option<(usize, u64)>,
    next_outage: u64,
    calls: u64,
    outages: u64,
    base: ProxyBase,
    ok_calls: u64,
    mismatches: u64,
    failover_ns: Vec<u64>,
}

impl InprocFailover {
    pub fn setup(seed: u64) -> Result<InprocFailover> {
        let fleet = EchoFleet::new(REPLICAS, false, seed)?;
        let proxy = SmartProxy::builder(
            &fleet.client,
            &fleet.repo,
            Arc::new(fleet.trader.clone()),
            ECHO_TYPE,
        )
        .retry_policy(RetryPolicy::new(4).base(Duration::ZERO))
        .circuit_breaker(BreakerConfig::default())
        // With the default 5 s dead-target TTL, three outages within
        // 5 s would dead-list every replica and calls would fail; with
        // none, the schedule alone decides which replica is down.
        .dead_target_ttl(Duration::ZERO)
        .build()
        .map_err(|e| e.to_string())?;
        let rng = Rng::new(seed);
        let mut gen = rng.fork(1);
        let payloads: Vec<Payload> = (0..64).map(|_| Payload::small(&mut gen)).collect();
        let mut mismatches = 0;
        for i in 0..WARMUP_CALLS {
            let p = &payloads[i as usize % payloads.len()];
            let reply = proxy
                .invoke("echo", p.args.clone())
                .map_err(|e| format!("warm-up call: {e}"))?;
            mismatches += u64::from(reply != p.expected);
        }
        let mut schedule = rng.fork(3);
        let next_outage = WARMUP_CALLS + UP_CALLS.0 + schedule.below(UP_CALLS.1);
        Ok(InprocFailover {
            base: ProxyBase::of(&[&proxy], WARMUP_CALLS),
            fleet,
            proxy,
            payloads,
            rng: rng.fork(2),
            schedule,
            down: None,
            next_outage,
            calls: WARMUP_CALLS,
            outages: 0,
            ok_calls: WARMUP_CALLS,
            mismatches,
            failover_ns: Vec::new(),
        })
    }

    /// Applies the outage schedule before call number `self.calls`.
    fn step_schedule(&mut self) -> Result<()> {
        match self.down {
            Some((_, until)) if self.calls >= until => self.revive(),
            None if self.calls >= self.next_outage => {
                let bound = self
                    .proxy
                    .current_target()
                    .and_then(|t| self.fleet.index_of(&t));
                let victim = match bound {
                    Some(b) if self.schedule.chance(BOUND_VICTIM) => b,
                    _ => self.schedule.below(REPLICAS as u64) as usize,
                };
                self.fleet.servers[victim].deactivate(ECHO_KEY);
                let until = self.calls + DOWN_CALLS.0 + self.schedule.below(DOWN_CALLS.1);
                self.down = Some((victim, until));
                self.outages += 1;
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Reactivates the replica that is down, if any.
    fn revive(&mut self) -> Result<()> {
        if let Some((victim, _)) = self.down.take() {
            self.fleet.servers[victim]
                .activate_arc(ECHO_KEY, self.fleet.servants[victim].clone())
                .map_err(|e| e.to_string())?;
            self.next_outage = self.calls + UP_CALLS.0 + self.schedule.below(UP_CALLS.1);
        }
        Ok(())
    }
}

impl Workload for InprocFailover {
    fn measure(&mut self, windows: &mut Windows, mut d: Option<&mut Decomposer>) -> Result<()> {
        while !windows.done() {
            self.step_schedule()?;
            let p = &self.payloads[self.rng.below(self.payloads.len() as u64) as usize];
            let failovers = self.proxy.failovers();
            let failed_before = windows.failed;
            let (wrong, ns) = match d.as_deref_mut() {
                // Decomposed only with every replica up, so the lower
                // entry points reach the replica the proxy is bound to.
                Some(d) if self.calls % DECOMPOSE_EVERY == 0 && self.down.is_none() => {
                    let (fleet, proxy) = (&self.fleet, &self.proxy);
                    let route = || {
                        let target = proxy.current_target().ok_or("proxy is unbound")?;
                        let k = fleet
                            .index_of(&target)
                            .ok_or("proxy is bound to an unknown replica")?;
                        Ok(Route::to(&fleet.servers[k], target))
                    };
                    decomposed_echo(d, proxy, &fleet.client, route, p, windows)?
                }
                _ => echo_call(&self.proxy, p, windows),
            };
            if self.proxy.failovers() != failovers {
                self.failover_ns.push(ns);
            }
            self.ok_calls += u64::from(windows.failed == failed_before);
            self.mismatches += u64::from(wrong);
            self.calls += 1;
        }
        self.revive()
    }

    fn check(&mut self, checks: &mut Checks, d: Option<&Decomposer>) {
        checks.check(
            "echo replies equal their arguments",
            self.mismatches == 0,
            format!("{} mismatches", self.mismatches),
        );
        let expected = self.ok_calls + d.map_or(0, |d| d.extra_executions);
        let executed = self.fleet.total_executions();
        checks.check(
            "servant executions equal successful calls (none lost or run twice)",
            executed == expected,
            format!("{executed} executions, {expected} expected"),
        );
        checks.check(
            "outages force failovers",
            !self.failover_ns.is_empty(),
            format!(
                "{} failover calls over {} outages",
                self.failover_ns.len(),
                self.outages
            ),
        );
    }

    fn probe_targets(&self) -> ProbeTargets<'_> {
        self.fleet.probe_targets(&self.proxy)
    }

    fn counts(&self) -> Metrics {
        layer_counts(&[&self.proxy], &self.base, self.ok_calls, 0)
    }

    fn detail(&mut self) -> Metrics {
        let mut m = Metrics::new();
        m.push(
            "resilience.failover_call_us",
            median_u64(&self.failover_ns) / 1e3,
            "us",
        );
        m.push("resilience.failover_calls", self.failover_ns.len() as f64, "count");
        m.push("resilience.outages", self.outages as f64, "count");
        m
    }
}
