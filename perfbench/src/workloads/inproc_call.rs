//! `inproc_call`: one client thread, one classic smart proxy bound
//! through the trader to one in-process echo replica, small arguments.
//! Every per-call layer except TCP does its work here at full size.

use std::sync::Arc;

use adapta::core::SmartProxy;

use super::{
    decomposed_echo, echo_call, layer_counts, Checks, EchoFleet, Payload,
    ProxyBase, Result, Workload, DECOMPOSE_EVERY, ECHO_TYPE,
};
use crate::layers::{Decomposer, ProbeTargets, Route};
use crate::measure::{Rng, Windows};
use crate::Metrics;

const WARMUP_CALLS: u64 = 5_000;

pub struct InprocCall {
    fleet: EchoFleet,
    proxy: SmartProxy,
    payloads: Vec<Payload>,
    rng: Rng,
    base: ProxyBase,
    ok_calls: u64,
    mismatches: u64,
}

impl InprocCall {
    pub fn setup(seed: u64) -> Result<InprocCall> {
        let fleet = EchoFleet::new(1, false, seed)?;
        let proxy = SmartProxy::builder(
            &fleet.client,
            &fleet.repo,
            Arc::new(fleet.trader.clone()),
            ECHO_TYPE,
        )
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
        Ok(InprocCall {
            base: ProxyBase::of(&[&proxy], WARMUP_CALLS),
            fleet,
            proxy,
            payloads,
            rng: rng.fork(2),
            ok_calls: WARMUP_CALLS,
            mismatches,
        })
    }
}

impl Workload for InprocCall {
    fn measure(&mut self, windows: &mut Windows, mut d: Option<&mut Decomposer>) -> Result<()> {
        let mut i = 0u64;
        while !windows.done() {
            let p = &self.payloads[self.rng.below(self.payloads.len() as u64) as usize];
            let failed_before = windows.failed;
            let (wrong, _) = match d.as_deref_mut() {
                Some(d) if i % DECOMPOSE_EVERY == 0 => {
                    let route = || {
                        let target = self.proxy.current_target().ok_or("proxy is unbound")?;
                        Ok(Route::to(&self.fleet.servers[0], target))
                    };
                    decomposed_echo(d, &self.proxy, &self.fleet.client, route, p, windows)?
                }
                _ => echo_call(&self.proxy, p, windows),
            };
            self.ok_calls += u64::from(windows.failed == failed_before);
            self.mismatches += u64::from(wrong);
            i += 1;
        }
        Ok(())
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
            "servant executions equal successful calls",
            executed == expected,
            format!("{executed} executions, {expected} expected"),
        );
    }

    fn probe_targets(&self) -> ProbeTargets<'_> {
        self.fleet.probe_targets(&self.proxy)
    }

    fn counts(&self) -> Metrics {
        layer_counts(&[&self.proxy], &self.base, self.ok_calls, 0)
    }
}
