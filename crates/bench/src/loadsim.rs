//! The discrete-event load-sharing simulation behind experiment E1
//! (and reused by E6).
//!
//! The setup mirrors Section V: several stateless servers on hosts with
//! Linux-style load averages, a population of closed-loop clients that
//! are themselves responsible for load sharing, and background load
//! that shifts between hosts over time. Each run wires the *real*
//! infrastructure — trader, Figure-3 monitors, smart proxies — and only
//! the request service occupancy is simulated by the event scheduler.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use adapta_core::policies::{load_sharing_proxy, BindingPolicy, LoadSharingConfig};
use adapta_core::{Infrastructure, ServerSpec, SmartProxy};
use adapta_sim::workload::exp_duration;
use adapta_sim::{Histogram, Scheduler, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A background-load change: at `at`, host `host_index` switches to
/// `jobs` background jobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadPhase {
    /// When the phase starts.
    pub at: Duration,
    /// Which server's host (index into the spawned servers).
    pub host_index: usize,
    /// The background job count from then on.
    pub jobs: f64,
}

/// Parameters of one load-sharing run.
#[derive(Debug, Clone)]
pub struct LoadSharingParams {
    /// The client binding policy under test.
    pub policy: BindingPolicy,
    /// Number of servers (each on its own host).
    pub servers: usize,
    /// Number of closed-loop clients.
    pub clients: usize,
    /// Total simulated time.
    pub duration: Duration,
    /// Mean client think time (exponential).
    pub think_mean: Duration,
    /// No-contention service time per request.
    pub base_service: Duration,
    /// Monitor tick period.
    pub monitor_period: Duration,
    /// Load-sharing threshold (constraint + event predicate).
    pub threshold: f64,
    /// Background-load phases.
    pub phases: Vec<LoadPhase>,
    /// RNG seed for think times.
    pub seed: u64,
    /// When set, arrivals are an *open* Poisson process at this total
    /// rate (req/s) spread round-robin over the client proxies, instead
    /// of the closed loop.
    pub open_loop_rate: Option<f64>,
}

impl Default for LoadSharingParams {
    fn default() -> Self {
        LoadSharingParams {
            policy: BindingPolicy::AutoAdaptive,
            servers: 4,
            clients: 8,
            duration: Duration::from_secs(30 * 60),
            think_mean: Duration::from_secs(1),
            base_service: Duration::from_millis(200),
            monitor_period: Duration::from_secs(30),
            threshold: 3.0,
            phases: default_phases(),
            seed: 42,
            open_loop_rate: None,
        }
    }
}

/// The default load script: background work lands on host 0 a third of
/// the way in, then moves to host 1 — the "long client-server
/// interactions" scenario in which the paper says the trade-once
/// baseline "may become unbalanced".
pub fn default_phases() -> Vec<LoadPhase> {
    vec![
        LoadPhase {
            at: Duration::from_secs(10 * 60),
            host_index: 0,
            jobs: 5.0,
        },
        LoadPhase {
            at: Duration::from_secs(20 * 60),
            host_index: 0,
            jobs: 0.0,
        },
        LoadPhase {
            at: Duration::from_secs(20 * 60),
            host_index: 1,
            jobs: 5.0,
        },
    ]
}

/// What one run measured.
#[derive(Debug, Clone)]
pub struct LoadSharingOutcome {
    /// The policy that ran.
    pub policy: BindingPolicy,
    /// Per-request latency (service time under contention).
    pub latency: Histogram,
    /// Requests served per host, in server order.
    pub per_server_requests: Vec<u64>,
    /// Component switches across all clients.
    pub rebinds: u64,
    /// Monitor notifications received across all clients.
    pub events: u64,
    /// Trader queries issued during the run.
    pub trader_queries: u64,
    /// Requests completed.
    pub completed: u64,
}

impl LoadSharingOutcome {
    /// Coefficient of variation of the per-server request counts — the
    /// load-imbalance index (0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        let counts: Vec<f64> = self.per_server_requests.iter().map(|&n| n as f64).collect();
        adapta_sim::metrics::coeff_of_variation(&counts)
    }
}

struct World {
    latency: Histogram,
    per_server: BTreeMap<String, u64>,
    completed: u64,
}

/// Runs one policy through the scenario; deterministic given the seed.
///
/// # Panics
///
/// Panics on infrastructure errors (experiments fail loudly).
pub fn run_load_sharing(params: &LoadSharingParams) -> LoadSharingOutcome {
    let infra = Infrastructure::in_process().expect("infrastructure");
    let host_names: Vec<String> = (0..params.servers).map(|i| format!("srv{i}")).collect();
    for name in &host_names {
        infra
            .spawn_server(
                ServerSpec::echo("LoadShared", name.as_str()).base_service(params.base_service),
            )
            .expect("spawn server");
    }

    let queries_at_start = infra.trader().query_count();
    let proxies: Vec<SmartProxy> = (0..params.clients)
        .map(|_| {
            load_sharing_proxy(
                infra.orb(),
                infra.repository(),
                Arc::new(infra.trader().clone()),
                "LoadShared",
                params.policy,
                LoadSharingConfig::with_threshold(params.threshold),
            )
            .expect("client proxy")
        })
        .collect();

    let mut sched: Scheduler<World> = Scheduler::with_clock(infra.clock().clone());
    let end = SimTime::ZERO + params.duration;

    // Monitor cycles on every host.
    {
        let infra = infra.clone();
        sched.every(params.monitor_period, end, move |_w, s| {
            let now = s.now();
            for server in infra.servers() {
                server.monitor_host().tick_all(now);
            }
        });
    }

    // Background-load phases.
    for phase in &params.phases {
        let infra = infra.clone();
        let host = host_names[phase.host_index].clone();
        let jobs = phase.jobs;
        sched.at(SimTime::ZERO + phase.at, move |_w, s| {
            if let Some(server) = infra.server(&host) {
                server.sim_host().set_background(s.now(), jobs);
            }
        });
    }

    match params.open_loop_rate {
        None => {
            // Closed-loop clients.
            let mut rng = StdRng::seed_from_u64(params.seed);
            for (i, proxy) in proxies.iter().enumerate() {
                let first = Duration::from_millis(10 * i as u64)
                    + exp_duration(&mut rng, params.think_mean);
                let client_seed =
                    params.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1));
                schedule_request(
                    &mut sched,
                    SimTime::ZERO + first,
                    infra.clone(),
                    proxy.clone(),
                    StdRng::seed_from_u64(client_seed),
                    params.think_mean,
                    end,
                );
            }
        }
        Some(rate) => {
            // Open loop: Poisson arrivals, round-robin over proxies,
            // completions do not gate arrivals.
            let arrivals = adapta_sim::workload::PoissonArrivals::new(rate, params.seed);
            schedule_open_arrival(
                &mut sched,
                SimTime::ZERO,
                infra.clone(),
                proxies.clone(),
                arrivals,
                0,
                end,
            );
        }
    }

    let mut world = World {
        latency: Histogram::new(),
        per_server: host_names.iter().map(|h| (h.clone(), 0)).collect(),
        completed: 0,
    };
    sched.run_until(&mut world, end);

    LoadSharingOutcome {
        policy: params.policy,
        latency: world.latency,
        per_server_requests: host_names
            .iter()
            .map(|h| world.per_server.get(h).copied().unwrap_or(0))
            .collect(),
        rebinds: proxies.iter().map(SmartProxy::rebinds).sum(),
        events: proxies.iter().map(SmartProxy::events_received).sum(),
        trader_queries: infra.trader().query_count() - queries_at_start,
        completed: world.completed,
    }
}

/// Schedules one open-loop arrival; each arrival schedules the next.
#[allow(clippy::too_many_arguments)]
fn schedule_open_arrival(
    sched: &mut Scheduler<World>,
    from: SimTime,
    infra: Infrastructure,
    proxies: Vec<SmartProxy>,
    mut arrivals: adapta_sim::workload::PoissonArrivals,
    index: u64,
    end: SimTime,
) {
    let at = from + arrivals.next_gap();
    if at >= end {
        return;
    }
    sched.at(at, move |_w, s| {
        let now = s.now();
        let proxy = &proxies[(index as usize) % proxies.len()];
        if let Ok(host_value) = proxy.invoke("whoami", vec![]) {
            let host_name = host_value.as_str().unwrap_or("?").to_owned();
            if let Some(server) = infra.server(&host_name) {
                let host = server.sim_host().clone();
                let service = host.begin_request(now);
                sched_completion(s, now + service, host, service, host_name);
            }
        }
        schedule_open_arrival(s, now, infra, proxies, arrivals, index + 1, end);
    });
}

/// Schedules one request issue; completion schedules the next issue.
#[allow(clippy::too_many_arguments)]
fn schedule_request(
    sched: &mut Scheduler<World>,
    at: SimTime,
    infra: Infrastructure,
    proxy: SmartProxy,
    mut rng: StdRng,
    think_mean: Duration,
    end: SimTime,
) {
    sched.at(at, move |_w, s| {
        let now = s.now();
        // The real proxy path: postponed events drain here, selection
        // and failover run for real; `whoami` tells us where we landed.
        let Ok(host_value) = proxy.invoke("whoami", vec![]) else {
            return; // unbound and nothing to select: client stops
        };
        let host_name = host_value.as_str().unwrap_or("?").to_owned();
        let Some(server) = infra.server(&host_name) else {
            return;
        };
        let host = server.sim_host().clone();
        let service = host.begin_request(now);
        let done = now + service;
        sched_completion(s, done, host, service, host_name.clone());
        // Next request after the reply plus think time.
        let think = exp_duration(&mut rng, think_mean);
        let next = done + think;
        if next < end {
            schedule_request(s, next, infra, proxy, rng, think_mean, end);
        }
    });
}

fn sched_completion(
    sched: &mut Scheduler<World>,
    at: SimTime,
    host: adapta_sim::SimHost,
    service: Duration,
    host_name: String,
) {
    sched.at(at, move |w, s| {
        host.end_request(s.now());
        w.latency.record(service);
        *w.per_server.entry(host_name).or_insert(0) += 1;
        w.completed += 1;
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_params(policy: BindingPolicy) -> LoadSharingParams {
        LoadSharingParams {
            policy,
            servers: 3,
            clients: 4,
            duration: Duration::from_secs(8 * 60),
            monitor_period: Duration::from_secs(30),
            phases: vec![LoadPhase {
                at: Duration::from_secs(3 * 60),
                host_index: 0,
                jobs: 5.0,
            }],
            ..LoadSharingParams::default()
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let p = short_params(BindingPolicy::TradeOnce);
        let mut a = run_load_sharing(&p);
        let mut b = run_load_sharing(&p);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.per_server_requests, b.per_server_requests);
        assert_eq!(a.latency.mean(), b.latency.mean());
        assert_eq!(a.latency.quantile(0.95), b.latency.quantile(0.95));
    }

    #[test]
    fn auto_adaptive_beats_trade_once_after_load_shift() {
        let adaptive = run_load_sharing(&short_params(BindingPolicy::AutoAdaptive));
        let once = run_load_sharing(&short_params(BindingPolicy::TradeOnce));
        assert!(adaptive.completed > 0 && once.completed > 0);
        // The adaptive clients reacted (rebinds beyond the initial one
        // per client) and the baseline did not.
        assert!(
            adaptive.rebinds > 4,
            "adaptive rebinds: {}",
            adaptive.rebinds
        );
        assert_eq!(once.rebinds, 4, "trade-once binds once per client");
        assert!(adaptive.events > 0);
    }

    #[test]
    fn open_loop_runs_and_is_deterministic() {
        let mut p = short_params(BindingPolicy::AutoAdaptive);
        p.open_loop_rate = Some(8.0);
        let a = run_load_sharing(&p);
        let b = run_load_sharing(&p);
        assert!(
            a.completed > 100,
            "open loop should complete many: {}",
            a.completed
        );
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.per_server_requests, b.per_server_requests);
    }

    #[test]
    fn all_policies_complete_requests() {
        for policy in BindingPolicy::ALL {
            let out = run_load_sharing(&short_params(policy));
            assert!(out.completed > 50, "{policy}: {}", out.completed);
            assert_eq!(out.per_server_requests.len(), 3);
        }
    }
}
