//! Time sources: a shared [`Clock`] trait with real and virtual
//! implementations, and [`Periodic`], every background loop's pacer.
//!
//! All time-dependent components in the workspace (monitors, simulated
//! hosts, transports with latency models) read time through a
//! [`Clock`] so that experiments can run under a [`VirtualClock`] and be
//! perfectly reproducible, while deployments use [`RealClock`].

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A point in simulated (or real, relative) time, measured in nanoseconds
/// since the clock's epoch.
///
/// `SimTime` is a plain value type: copy it, compare it, subtract two of
/// them to get a [`Duration`].
///
/// ```
/// use adapta_sim::SimTime;
/// use std::time::Duration;
///
/// let t = SimTime::ZERO + Duration::from_secs(5);
/// assert_eq!(t - SimTime::ZERO, Duration::from_secs(5));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The clock epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time point `nanos` nanoseconds after the epoch.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates a time point `secs` seconds after the epoch.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000_000)
    }

    /// Creates a time point `millis` milliseconds after the epoch.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000_000)
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole seconds since the epoch (fractional part truncated).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000_000
    }

    /// Seconds since the epoch as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({:.6}s)", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.as_nanos() as u64))
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        self.since(rhs)
    }
}

/// A monotone time source.
///
/// Implementations must be cheap to clone (they are shared via [`Arc`])
/// and callable from any thread.
pub trait Clock: Send + Sync + fmt::Debug {
    /// The current time.
    fn now(&self) -> SimTime;
}

/// Wall-clock time relative to the moment the clock was created.
///
/// ```
/// use adapta_sim::{Clock, RealClock};
/// let clock = RealClock::new();
/// let t0 = clock.now();
/// assert!(clock.now() >= t0);
/// ```
#[derive(Debug, Clone)]
pub struct RealClock {
    origin: std::time::Instant,
}

impl RealClock {
    /// Creates a clock whose epoch is "now".
    pub fn new() -> Self {
        RealClock {
            origin: std::time::Instant::now(),
        }
    }
}

impl Default for RealClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for RealClock {
    fn now(&self) -> SimTime {
        SimTime(self.origin.elapsed().as_nanos() as u64)
    }
}

/// A manually-advanced clock for deterministic tests and experiments.
///
/// Cloning a `VirtualClock` yields a handle to the *same* underlying
/// time, so a clock can be shared between hosts, monitors and transports.
///
/// ```
/// use adapta_sim::{Clock, VirtualClock};
/// use std::time::Duration;
///
/// let clock = VirtualClock::new();
/// let view = clock.clone();
/// clock.advance(Duration::from_secs(60));
/// assert_eq!(view.now().as_secs(), 60);
/// ```
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    nanos: Arc<AtomicU64>,
}

impl VirtualClock {
    /// Creates a virtual clock at time zero.
    pub fn new() -> Self {
        VirtualClock {
            nanos: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Moves time forward by `d`.
    pub fn advance(&self, d: Duration) {
        self.nanos.fetch_add(d.as_nanos() as u64, Ordering::SeqCst);
    }

    /// Sets the clock to `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the current time: virtual clocks are
    /// monotone like real ones.
    pub fn advance_to(&self, t: SimTime) {
        let prev = self.nanos.swap(t.as_nanos(), Ordering::SeqCst);
        assert!(
            prev <= t.as_nanos(),
            "virtual clock moved backwards: {prev} -> {}",
            t.as_nanos()
        );
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> SimTime {
        SimTime(self.nanos.load(Ordering::SeqCst))
    }
}

/// Convenience alias used across the workspace for a shared clock handle.
pub type SharedClock = Arc<dyn Clock>;

/// A job run on a named thread of its own, which sleeps between runs.
/// Stopping or dropping the handle wakes the thread, which ends without
/// running the job again; a drop also joins it, unless the job itself
/// dropped the handle. One thread per job, so a job that blocks (a
/// refresh against a hung remote trader) stalls no other.
#[derive(Debug)]
pub struct Periodic {
    stop: Sender<()>,
    thread: Option<JoinHandle<()>>,
}

impl Periodic {
    /// Spawns a thread named `name` that runs `job` after `first`, then
    /// after each delay it returns, until it returns `None` or stops.
    pub fn start(
        name: impl Into<String>,
        first: Duration,
        mut job: impl FnMut() -> Option<Duration> + Send + 'static,
    ) -> Periodic {
        let (stop, stopped) = mpsc::channel();
        let thread = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || {
                let mut delay = Some(first);
                // A stop, or the handle's sender dropping, ends the wait early.
                while let Some(wait) = delay {
                    if stopped.recv_timeout(wait) != Err(RecvTimeoutError::Timeout) {
                        return;
                    }
                    delay = job();
                }
            })
            .expect("spawn periodic job");
        let thread = Some(thread);
        Periodic { stop, thread }
    }

    /// Stops the job after any run in progress; also happens on drop.
    pub fn stop(&self) {
        let _ = self.stop.send(()); // fails only once the thread has ended
    }
}

impl Drop for Periodic {
    fn drop(&mut self) {
        self.stop();
        let current = std::thread::current().id();
        if let Some(thread) = self.thread.take().filter(|t| t.thread().id() != current) {
            let _ = thread.join(); // a job that panicked has ended too
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::time::Instant;

    #[test]
    fn simtime_arithmetic_round_trips() {
        let t = SimTime::from_secs(2) + Duration::from_millis(500);
        assert_eq!(t.as_nanos(), 2_500_000_000);
        assert_eq!(t.as_secs(), 2);
        assert_eq!(t - SimTime::from_secs(1), Duration::from_millis(1500));
    }

    #[test]
    fn simtime_since_saturates() {
        assert_eq!(SimTime::ZERO.since(SimTime::from_secs(5)), Duration::ZERO);
    }

    #[test]
    fn virtual_clock_is_shared_between_clones() {
        let c = VirtualClock::new();
        let view = c.clone();
        c.advance(Duration::from_secs(3));
        assert_eq!(view.now(), SimTime::from_secs(3));
    }

    #[test]
    fn virtual_clock_advance_to_is_monotone() {
        let c = VirtualClock::new();
        c.advance_to(SimTime::from_secs(10));
        assert_eq!(c.now().as_secs(), 10);
    }

    #[test]
    #[should_panic(expected = "moved backwards")]
    fn virtual_clock_rejects_time_travel() {
        let c = VirtualClock::new();
        c.advance_to(SimTime::from_secs(10));
        c.advance_to(SimTime::from_secs(5));
    }

    #[test]
    fn real_clock_is_monotone() {
        let c = RealClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn dropping_a_periodic_ends_its_wait_at_once() {
        let (tx, rx) = mpsc::channel::<()>();
        let job = Periodic::start("t-periodic-drop", Duration::from_secs(3600), move || {
            tx.send(()).unwrap();
            Some(Duration::from_secs(3600))
        });
        let started = Instant::now();
        drop(job);
        assert!(started.elapsed() < Duration::from_millis(100));
        // The thread ended without a run: the job, and its sender, are gone.
        assert_eq!(rx.try_recv(), Err(mpsc::TryRecvError::Disconnected));
    }

    #[test]
    fn a_periodic_dropped_by_its_own_job_ends_after_that_run() {
        let slot: Arc<Mutex<Option<Periodic>>> = Arc::default();
        let (tx, rx) = mpsc::channel();
        let owner = slot.clone();
        // The first run waits for the lock until the handle is stored.
        let mut stored = slot.lock().unwrap();
        *stored = Some(Periodic::start(
            "t-periodic-self",
            Duration::ZERO,
            move || {
                drop(owner.lock().unwrap().take());
                tx.send(()).unwrap();
                Some(Duration::ZERO)
            },
        ));
        drop(stored);
        rx.recv().unwrap();
        // No second run: the sender drops when the thread ends.
        assert!(rx.recv().is_err());
    }

    #[test]
    fn a_periodic_job_paces_itself_and_can_end() {
        let (tx, rx) = mpsc::channel();
        let mut left = 3;
        let _job = Periodic::start("t-periodic-end", Duration::ZERO, move || {
            tx.send(Instant::now()).unwrap();
            left -= 1;
            (left > 0).then_some(Duration::from_millis(20))
        });
        let runs: Vec<Instant> = rx.iter().collect();
        assert_eq!(runs.len(), 3);
        assert!(runs[2] - runs[0] >= Duration::from_millis(40));
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500s");
    }
}
