//! Simulated hosts with Linux-style load averages.
//!
//! The paper's `LoadAvg` monitor reads `/proc/loadavg`: the number of
//! jobs in the run queue, exponentially damped over 1, 5 and 15 minutes,
//! sampled every 5 seconds. [`LoadAvg`] implements exactly that recurrence
//! and [`SimHost`] feeds it from a simulated ready queue: requests being
//! served plus a configurable amount of background load.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::clock::SimTime;

/// Sampling interval of the Linux load-average estimator.
pub const LOADAVG_SAMPLE: Duration = Duration::from_secs(5);

/// Linux-style 1/5/15-minute exponentially-damped load averages.
///
/// Every [`LOADAVG_SAMPLE`] the estimator folds the instantaneous number
/// of runnable jobs `n` into each average:
/// `load ← load·e + n·(1−e)` with `e = exp(−5s/τ)` for
/// `τ ∈ {60s, 300s, 900s}`.
///
/// ```
/// use adapta_sim::{LoadAvg, SimTime};
/// use std::time::Duration;
///
/// let mut la = LoadAvg::new();
/// // A constant queue of 4 jobs for 10 minutes converges towards 4.
/// la.advance(SimTime::from_secs(600), 4.0);
/// let (one, five, fifteen) = la.values();
/// assert!((one - 4.0).abs() < 0.01);
/// assert!(five > 3.0 && five < 4.0);
/// assert!(fifteen > 1.0 && fifteen < five);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LoadAvg {
    one: f64,
    five: f64,
    fifteen: f64,
    /// Time of the last absorbed 5-second sample.
    sampled_at: SimTime,
}

const EXP_1: f64 = 0.920_044_414_629_323; // exp(-5/60)
const EXP_5: f64 = 0.983_471_453_716_5; // exp(-5/300)
const EXP_15: f64 = 0.994_459_848_486_6; // exp(-5/900)

impl LoadAvg {
    /// A load average starting at zero at time zero.
    pub fn new() -> Self {
        LoadAvg {
            one: 0.0,
            five: 0.0,
            fifteen: 0.0,
            sampled_at: SimTime::ZERO,
        }
    }

    /// The `(1min, 5min, 15min)` averages as of the last absorbed sample.
    pub fn values(&self) -> (f64, f64, f64) {
        (self.one, self.five, self.fifteen)
    }

    /// Absorbs all 5-second samples between the last update and `now`,
    /// assuming the runnable-job count was a constant `jobs` throughout.
    ///
    /// Callers that change the job count must call `advance` *before*
    /// each change so every interval is folded with the right count.
    pub fn advance(&mut self, now: SimTime, jobs: f64) {
        while self.sampled_at + LOADAVG_SAMPLE <= now {
            self.sampled_at += LOADAVG_SAMPLE;
            self.one = self.one * EXP_1 + jobs * (1.0 - EXP_1);
            self.five = self.five * EXP_5 + jobs * (1.0 - EXP_5);
            self.fifteen = self.fifteen * EXP_15 + jobs * (1.0 - EXP_15);
        }
    }
}

impl Default for LoadAvg {
    fn default() -> Self {
        Self::new()
    }
}

#[derive(Debug)]
struct HostState {
    active: u32,
    background: f64,
    load: LoadAvg,
    total_requests: u64,
}

impl HostState {
    /// Runnable jobs: requests in flight plus background load.
    fn jobs(&self) -> f64 {
        self.active as f64 + self.background
    }

    /// Folds the load up to `now`, then starts one request.
    fn begin(&mut self, now: SimTime) {
        let jobs = self.jobs();
        self.load.advance(now, jobs);
        self.active += 1;
        self.total_requests += 1;
    }
}

/// A simulated machine: a named host with a ready queue made of in-flight
/// requests plus background load, and the resulting load averages.
///
/// `SimHost` is a cheap cloneable handle to shared state, so a server
/// servant, a monitor source and the experiment driver can all observe
/// the same machine. All methods take the current time explicitly so the
/// host works under any clock discipline.
///
/// ```
/// use adapta_sim::{SimHost, SimTime};
/// use std::time::Duration;
///
/// let host = SimHost::new("node1", Duration::from_millis(20));
/// host.set_background(SimTime::ZERO, 2.0);
/// host.begin_request(SimTime::ZERO);
/// // 3 runnable jobs for a minute pushes the 1-min average towards 3.
/// let (one, _, _) = host.load_avg(SimTime::from_secs(120));
/// assert!(one > 2.0);
/// ```
#[derive(Debug, Clone)]
pub struct SimHost {
    name: Arc<str>,
    base_service: Duration,
    state: Arc<Mutex<HostState>>,
}

impl SimHost {
    /// Creates a host. `base_service` is the no-contention service time
    /// for one request.
    pub fn new(name: impl Into<Arc<str>>, base_service: Duration) -> Self {
        SimHost {
            name: name.into(),
            base_service,
            state: Arc::new(Mutex::new(HostState {
                active: 0,
                background: 0.0,
                load: LoadAvg::new(),
                total_requests: 0,
            })),
        }
    }

    /// The host's name (used as the trading-offer `Host` property).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The configured no-contention service time.
    pub fn base_service(&self) -> Duration {
        self.base_service
    }

    /// Instantaneous runnable-job count (in-flight requests + background).
    pub fn ready_len(&self, now: SimTime) -> f64 {
        let mut s = self.state.lock();
        let jobs = s.active as f64 + s.background;
        s.load.advance(now, jobs);
        jobs
    }

    /// Replaces the background load (e.g. "another user started a build").
    pub fn set_background(&self, now: SimTime, jobs: f64) {
        assert!(jobs >= 0.0, "background load must be non-negative");
        let mut s = self.state.lock();
        let prev = s.active as f64 + s.background;
        s.load.advance(now, prev);
        s.background = jobs;
    }

    /// Current background load.
    pub fn background(&self, _now: SimTime) -> f64 {
        self.state.lock().background
    }

    /// Registers the start of a request's service and returns its
    /// [`service_time`](Self::service_time), under one lock.
    pub fn begin_request(&self, now: SimTime) -> Duration {
        let mut s = self.state.lock();
        s.begin(now);
        self.stretched(s.jobs())
    }

    /// A request served at one instant: the same as
    /// [`begin_request`](Self::begin_request), then
    /// [`end_request`](Self::end_request) at `now`, under one lock. The
    /// load average absorbs no sample while the request is in flight,
    /// since both ends fall on the same instant. Returns its service
    /// time.
    pub fn serve_instant(&self, now: SimTime) -> Duration {
        let mut s = self.state.lock();
        s.begin(now);
        let service = self.stretched(s.jobs());
        s.active -= 1;
        service
    }

    /// Registers the completion of a request's service.
    ///
    /// # Panics
    ///
    /// Panics if there is no request in flight.
    pub fn end_request(&self, now: SimTime) {
        let mut s = self.state.lock();
        assert!(s.active > 0, "end_request without matching begin_request");
        let jobs = s.jobs();
        s.load.advance(now, jobs);
        s.active -= 1;
    }

    /// Number of requests ever started on this host.
    pub fn total_requests(&self) -> u64 {
        self.state.lock().total_requests
    }

    /// The `(1min, 5min, 15min)` load averages at `now`.
    pub fn load_avg(&self, now: SimTime) -> (f64, f64, f64) {
        let mut s = self.state.lock();
        let jobs = s.active as f64 + s.background;
        s.load.advance(now, jobs);
        s.load.values()
    }

    /// Service time for a request arriving at `now` under a
    /// processor-sharing approximation: the base time stretched by the
    /// number of jobs competing for the CPU (including this one).
    pub fn service_time(&self, now: SimTime) -> Duration {
        let mut s = self.state.lock();
        let jobs = s.jobs();
        s.load.advance(now, jobs);
        // `jobs` already includes this request if begin_request was
        // called.
        self.stretched(jobs)
    }

    /// The base service time stretched by `jobs` competing for the CPU
    /// (a share of at least 1).
    fn stretched(&self, jobs: f64) -> Duration {
        Duration::from_nanos((self.base_service.as_nanos() as f64 * jobs.max(1.0)) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loadavg_starts_at_zero() {
        assert_eq!(LoadAvg::new().values(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn loadavg_converges_to_constant_load() {
        let mut la = LoadAvg::new();
        la.advance(SimTime::from_secs(3600), 2.0);
        let (one, five, fifteen) = la.values();
        assert!((one - 2.0).abs() < 1e-3);
        assert!((five - 2.0).abs() < 1e-2);
        assert!((fifteen - 2.0).abs() < 0.1);
    }

    #[test]
    fn loadavg_one_minute_reacts_fastest() {
        let mut la = LoadAvg::new();
        la.advance(SimTime::from_secs(60), 4.0);
        let (one, five, fifteen) = la.values();
        assert!(one > five && five > fifteen);
        assert!(
            one > 2.0,
            "1-min average should react within a minute: {one}"
        );
    }

    #[test]
    fn loadavg_decays_when_load_stops() {
        let mut la = LoadAvg::new();
        la.advance(SimTime::from_secs(300), 4.0);
        let peak = la.values().0;
        la.advance(SimTime::from_secs(600), 0.0);
        assert!(la.values().0 < peak * 0.1);
    }

    #[test]
    fn loadavg_partial_interval_is_deferred() {
        let mut la = LoadAvg::new();
        la.advance(SimTime::from_secs(4), 100.0);
        assert_eq!(la.values(), (0.0, 0.0, 0.0));
        la.advance(SimTime::from_secs(5), 100.0);
        assert!(la.values().0 > 0.0);
    }

    #[test]
    fn host_tracks_active_and_background_jobs() {
        let h = SimHost::new("n", Duration::from_millis(10));
        assert_eq!(h.ready_len(SimTime::ZERO), 0.0);
        h.begin_request(SimTime::ZERO);
        h.set_background(SimTime::ZERO, 1.5);
        assert_eq!(h.ready_len(SimTime::ZERO), 2.5);
        h.end_request(SimTime::ZERO);
        assert_eq!(h.ready_len(SimTime::ZERO), 1.5);
    }

    #[test]
    fn host_service_time_stretches_with_load() {
        let h = SimHost::new("n", Duration::from_millis(10));
        let idle = h.service_time(SimTime::ZERO);
        assert_eq!(idle, Duration::from_millis(10));
        h.set_background(SimTime::ZERO, 3.0);
        assert_eq!(h.service_time(SimTime::ZERO), Duration::from_millis(30));
    }

    #[test]
    #[should_panic(expected = "without matching")]
    fn host_end_without_begin_panics() {
        SimHost::new("n", Duration::from_millis(1)).end_request(SimTime::ZERO);
    }

    #[test]
    fn host_clones_share_state() {
        let h = SimHost::new("n", Duration::from_millis(1));
        let view = h.clone();
        h.begin_request(SimTime::ZERO);
        assert_eq!(view.ready_len(SimTime::ZERO), 1.0);
        assert_eq!(view.total_requests(), 1);
    }

    /// `serve_instant` leaves the host as `begin_request`,
    /// `service_time` and `end_request` at one instant do, sample
    /// boundaries included.
    #[test]
    fn serving_at_one_instant_matches_the_three_calls() {
        let (one_lock, three_calls) = (
            SimHost::new("a", Duration::from_millis(10)),
            SimHost::new("b", Duration::from_millis(10)),
        );
        for host in [&one_lock, &three_calls] {
            host.set_background(SimTime::ZERO, 1.5);
            host.begin_request(SimTime::ZERO);
        }
        // 4.999 s, 5 s and 10 s fall just before and on a sample
        // boundary; 5 s and 12 s each serve twice at one instant.
        for millis in [1_000, 4_999, 5_000, 5_000, 10_000, 12_000, 12_000, 31_000] {
            let now = SimTime::from_millis(millis);
            let served = one_lock.serve_instant(now);
            three_calls.begin_request(now);
            let expected = three_calls.service_time(now);
            three_calls.end_request(now);
            assert_eq!(served, expected, "at {millis} ms");
            assert_eq!(one_lock.load_avg(now), three_calls.load_avg(now));
            assert_eq!(one_lock.total_requests(), three_calls.total_requests());
            assert_eq!(one_lock.ready_len(now), three_calls.ready_len(now));
        }
        assert_eq!(one_lock.total_requests(), 9);
        let late = SimTime::from_secs(90);
        assert_eq!(one_lock.load_avg(late), three_calls.load_avg(late));
        // The service time counts the request itself and the ones in
        // flight: 1 + 1 + 1.5 background jobs.
        assert_eq!(one_lock.serve_instant(late), Duration::from_micros(35_000));
    }

    #[test]
    fn beginning_a_request_returns_its_service_time() {
        let (a, b) = (
            SimHost::new("a", Duration::from_millis(10)),
            SimHost::new("b", Duration::from_millis(10)),
        );
        let now = SimTime::from_secs(7);
        b.begin_request(now);
        assert_eq!(a.begin_request(now), b.service_time(now));
        assert_eq!(a.load_avg(now), b.load_avg(now));
    }

    #[test]
    fn host_load_average_follows_sustained_traffic() {
        let h = SimHost::new("n", Duration::from_millis(10));
        h.set_background(SimTime::ZERO, 0.0);
        h.begin_request(SimTime::ZERO);
        h.begin_request(SimTime::ZERO);
        let (one, _, _) = h.load_avg(SimTime::from_secs(180));
        assert!(one > 1.8, "sustained 2 jobs should show ~2.0, got {one}");
    }
}
