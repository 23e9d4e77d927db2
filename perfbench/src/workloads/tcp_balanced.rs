//! `tcp_balanced`: two client threads share one balanced smart proxy
//! (`least_inflight`, default breaker, three attempts) routing over two
//! echo replicas, each behind its own orb on a loopback TCP listener, so
//! each replica is one pooled multiplexed connection. Payloads are a
//! seeded mix of 90% small pairs and 10% 16 KiB byte strings, which
//! separates per-message from per-byte transport cost.
//!
//! The policy is `least_inflight`, not `p2c_ewma`: with two replicas
//! `p2c_ewma` always compares both, and a replica whose latency average
//! one slow call inflated is never picked again, so its average never
//! recovers. A run then uses one connection or two by chance.
//! `least_inflight` sends each thread to the replica the other is not
//! using. Both connections are opened and warmed before the proxy
//! exists, so the proxy's first call to a replica pays no connect.

use std::sync::Arc;

use adapta::core::{BreakerConfig, RetryPolicy, SmartProxy};

use super::{
    decomposed_echo, echo_call, layer_counts, Checks, EchoFleet, Payload, ProxyBase, Result,
    Workload, DECOMPOSE_EVERY, ECHO_TYPE,
};
use crate::layers::{Decomposer, ProbeTargets, Route};
use crate::measure::{Rng, Windows};
use crate::Metrics;

const WARMUP_CALLS: u64 = 500;
/// Direct calls per replica that open and warm its connection.
const CONNECTION_WARMUP: usize = 50;
/// Least share of the measured phase's picks each replica must get.
const MIN_PICK_SHARE: f64 = 0.05;
const BIG_BYTES: usize = 16 * 1024;
const BIG_SHARE: f64 = 0.10;

pub struct TcpBalanced {
    fleet: EchoFleet,
    proxy: SmartProxy,
    payloads: Vec<Payload>,
    /// One payload stream per client thread.
    rngs: [Rng; 2],
    base: ProxyBase,
    ok_calls: u64,
    mismatches: u64,
    /// Picks per fleet replica at the end of set-up.
    picks_base: Vec<u64>,
}

impl TcpBalanced {
    pub fn setup(seed: u64) -> Result<TcpBalanced> {
        let fleet = EchoFleet::new(2, true, seed)?;
        for target in &fleet.refs {
            for _ in 0..CONNECTION_WARMUP {
                fleet
                    .client
                    .invoke_ref(target, "echo", super::probe_args())
                    .map_err(|e| format!("connection warm-up call: {e}"))?;
            }
        }
        let proxy = SmartProxy::builder(
            &fleet.client,
            &fleet.repo,
            Arc::new(fleet.trader.clone()),
            ECHO_TYPE,
        )
        .balanced("least_inflight")
        .circuit_breaker(BreakerConfig::default())
        .retry_policy(RetryPolicy::new(3))
        .build()
        .map_err(|e| e.to_string())?;
        let rng = Rng::new(seed);
        let mut gen = rng.fork(1);
        let payloads: Vec<Payload> = (0..256)
            .map(|_| {
                if gen.chance(BIG_SHARE) {
                    Payload::bytes(&mut gen, BIG_BYTES)
                } else {
                    Payload::small(&mut gen)
                }
            })
            .collect();
        let mut mismatches = 0;
        for i in 0..WARMUP_CALLS {
            let p = &payloads[i as usize % payloads.len()];
            let reply = proxy
                .invoke("echo", p.args.clone())
                .map_err(|e| format!("warm-up call: {e}"))?;
            mismatches += u64::from(reply != p.expected);
        }
        let ok_calls = WARMUP_CALLS + (CONNECTION_WARMUP * fleet.refs.len()) as u64;
        Ok(TcpBalanced {
            base: ProxyBase::of(&[&proxy], ok_calls),
            picks_base: picks(&proxy, &fleet),
            fleet,
            proxy,
            payloads,
            rngs: [rng.fork(2), rng.fork(3)],
            ok_calls,
            mismatches,
        })
    }

    /// Picks per fleet replica in the measured phase.
    fn measured_picks(&self) -> Vec<u64> {
        let now = picks(&self.proxy, &self.fleet);
        now.iter().zip(&self.picks_base).map(|(n, b)| n - b).collect()
    }
}

/// The balancer's picks so far per fleet replica, in fleet order.
fn picks(proxy: &SmartProxy, fleet: &EchoFleet) -> Vec<u64> {
    let mut picks = vec![0; fleet.refs.len()];
    for r in proxy.balancer().map_or_else(Vec::new, |set| set.replicas()) {
        if let Some(k) = fleet.index_of(r.target()) {
            picks[k] = r.stats().picks();
        }
    }
    picks
}

/// The fleet replica `least_inflight` picks now: fewest calls in
/// flight, then lowest latency score.
fn favoured(proxy: &SmartProxy, fleet: &EchoFleet) -> Option<usize> {
    proxy
        .balancer()?
        .replicas()
        .iter()
        .min_by(|a, b| {
            let (a, b) = (a.stats(), b.stats());
            (a.inflight(), a.score())
                .partial_cmp(&(b.inflight(), b.score()))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .and_then(|r| fleet.index_of(r.target()))
}

/// What one client thread shares with the other.
struct Client<'a> {
    proxy: &'a SmartProxy,
    fleet: &'a EchoFleet,
    payloads: &'a [Payload],
}

impl Client<'_> {
    /// One thread's closed loop; returns its successful and wrong calls.
    fn run(
        &self,
        rng: &mut Rng,
        windows: &mut Windows,
        mut d: Option<&mut Decomposer>,
    ) -> Result<(u64, u64)> {
        let (mut ok, mut wrong) = (0, 0);
        let mut i = 0u64;
        while !windows.done() {
            let p = &self.payloads[rng.below(self.payloads.len() as u64) as usize];
            let failed_before = windows.failed;
            let (bad, _) = match d.as_deref_mut() {
                Some(d) if i % DECOMPOSE_EVERY == 0 => {
                    // The lower entry points go to the replica the
                    // balancer picked: the one whose pick count moved,
                    // or, if the other thread picked too, the one the
                    // policy favoured before the call.
                    let (fleet, proxy) = (self.fleet, self.proxy);
                    let before = picks(proxy, fleet);
                    let favoured = favoured(proxy, fleet);
                    let route = || {
                        let after = picks(proxy, fleet);
                        let moved: Vec<usize> =
                            (0..after.len()).filter(|&k| after[k] != before[k]).collect();
                        let k = match moved[..] {
                            [k] => k,
                            _ => favoured.ok_or("the balancer has no replicas")?,
                        };
                        Ok(Route::to(&fleet.servers[k], fleet.refs[k].clone()))
                    };
                    decomposed_echo(d, proxy, &fleet.client, route, p, windows)?
                }
                _ => echo_call(self.proxy, p, windows),
            };
            ok += u64::from(windows.failed == failed_before);
            wrong += u64::from(bad);
            i += 1;
        }
        Ok((ok, wrong))
    }
}

impl Workload for TcpBalanced {
    fn measure(&mut self, windows: &mut Windows, d: Option<&mut Decomposer>) -> Result<()> {
        let client = Client {
            proxy: &self.proxy,
            fleet: &self.fleet,
            payloads: &self.payloads,
        };
        let mut other = windows.sibling();
        let [mine, theirs] = &mut self.rngs;
        let (first, second) = std::thread::scope(|s| {
            let helper = s.spawn(|| client.run(theirs, &mut other, None));
            let first = client.run(mine, windows, d);
            (first, helper.join())
        });
        let (ok0, wrong0) = first?;
        let (ok1, wrong1) = second.map_err(|_| "client thread panicked".to_string())??;
        windows.merge(other);
        self.ok_calls += ok0 + ok1;
        self.mismatches += wrong0 + wrong1;
        Ok(())
    }

    fn check(&mut self, checks: &mut Checks, d: Option<&Decomposer>) {
        checks.check(
            "echo replies equal their arguments (16 KiB payloads included)",
            self.mismatches == 0,
            format!("{} mismatches", self.mismatches),
        );
        let expected = self.ok_calls + d.map_or(0, |d| d.extra_executions);
        let executed = self.fleet.total_executions();
        checks.check(
            "servant executions equal successful calls",
            executed == expected,
            format!("{executed} executions, {expected} expected"),
        );
        let picks = self.measured_picks();
        let total = picks.iter().sum::<u64>().max(1) as f64;
        checks.check(
            "both replicas receive at least 5% of the measured phase's picks",
            picks
                .iter()
                .all(|&p| p as f64 / total >= MIN_PICK_SHARE),
            format!("picks per replica {picks:?}"),
        );
    }

    fn probe_targets(&self) -> ProbeTargets<'_> {
        self.fleet.probe_targets(&self.proxy)
    }

    fn counts(&self) -> Metrics {
        layer_counts(&[&self.proxy], &self.base, self.ok_calls, 0)
    }

    fn detail(&mut self) -> Metrics {
        let picks = self.measured_picks();
        let share = picks.iter().max().copied().unwrap_or(0) as f64
            / picks.iter().sum::<u64>().max(1) as f64;
        let mut m = Metrics::new();
        m.push("balancer.pick_share_max", share, "ratio");
        m
    }
}
