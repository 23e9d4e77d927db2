//! The unified metrics registry: named counters, gauges and latency
//! histograms with point-in-time snapshots.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use crate::buckets::Buckets;
use crate::json::Obj;

fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A monotone counter handle. Cloning shares the underlying cell, so a
/// hot path can keep the handle instead of re-resolving the name.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An up/down gauge handle (e.g. a queue depth).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn value(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A latency histogram handle: a shared, bounded, lock-free bucket
/// array (see the crate docs for its accuracy). Cloning shares it.
#[derive(Clone)]
pub struct HistogramHandle(Arc<Buckets>);

impl std::fmt::Debug for HistogramHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("HistogramHandle")
            .field(&self.summary())
            .finish()
    }
}

impl HistogramHandle {
    /// Records one duration sample.
    #[inline]
    pub fn record(&self, d: Duration) {
        self.0.record(d);
    }

    /// Runs `f`, recording its wall-clock duration.
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record(start.elapsed());
        out
    }

    /// The current quantile summary.
    pub fn summary(&self) -> HistSummary {
        self.0.summary()
    }

    /// Heap bytes the histogram holds: fixed at creation, whatever the
    /// number of samples recorded.
    pub fn heap_bytes(&self) -> usize {
        self.0.heap_bytes()
    }
}

/// Point-in-time quantile summary of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSummary {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: Duration,
    /// Median (nearest rank).
    pub p50: Duration,
    /// 90th percentile.
    pub p90: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// Largest sample.
    pub max: Duration,
}

impl HistSummary {
    /// A summary from nanosecond parts; `quantiles` are p50, p90, p95
    /// and p99.
    pub(crate) fn of_parts(count: u64, mean_ns: u64, quantiles: [u64; 4], max_ns: u64) -> Self {
        let [p50, p90, p95, p99] = quantiles.map(Duration::from_nanos);
        HistSummary {
            count,
            mean: Duration::from_nanos(mean_ns),
            p50,
            p90,
            p95,
            p99,
            max: Duration::from_nanos(max_ns),
        }
    }

    /// Renders the summary as a JSON object (durations in µs).
    pub fn to_json(&self) -> String {
        Obj::new()
            .u64("count", self.count)
            .u64("mean_us", self.mean.as_micros() as u64)
            .u64("p50_us", self.p50.as_micros() as u64)
            .u64("p90_us", self.p90.as_micros() as u64)
            .u64("p95_us", self.p95.as_micros() as u64)
            .u64("p99_us", self.p99.as_micros() as u64)
            .u64("max_us", self.max.as_micros() as u64)
            .finish()
    }
}

/// The instrument store. Names are free-form dotted paths
/// (`orb.<node>.requests_sent`, `smartproxy.events.queue_depth`, ...);
/// looking a name up creates the instrument on first use.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<String, Arc<Buckets>>>,
}

/// The process-wide registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// The cell named `name` in `map`, created by `T::default()` on first
/// use. A name already present is found without allocating.
fn cell<T: Default>(map: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    let mut map = relock(map);
    if let Some(cell) = map.get(name) {
        return cell.clone();
    }
    map.entry(name.to_owned()).or_default().clone()
}

impl Registry {
    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(cell(&self.counters, name))
    }

    /// The gauge named `name`, created at zero on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(cell(&self.gauges, name))
    }

    /// The histogram named `name`, created empty on first use.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        HistogramHandle(cell(&self.histograms, name))
    }

    /// Number of named instruments of all three kinds.
    pub fn name_count(&self) -> usize {
        relock(&self.counters).len() + relock(&self.gauges).len() + relock(&self.histograms).len()
    }

    /// Captures every instrument's current value.
    pub fn snapshot(&self) -> Snapshot {
        let counters = relock(&self.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = relock(&self.gauges)
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let histograms = relock(&self.histograms)
            .iter()
            .map(|(k, v)| (k.clone(), v.summary()))
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// Removes the instrument named `name`, of whichever kind, so the
    /// name starts afresh when next looked up. Outstanding handles keep
    /// working but detach from the registry.
    pub fn remove(&self, name: &str) {
        relock(&self.counters).remove(name);
        relock(&self.gauges).remove(name);
        relock(&self.histograms).remove(name);
    }
}

/// A point-in-time capture of the whole registry, name-sorted.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter values.
    pub counters: Vec<(String, u64)>,
    /// Gauge values.
    pub gauges: Vec<(String, i64)>,
    /// Histogram summaries.
    pub histograms: Vec<(String, HistSummary)>,
}

impl Snapshot {
    /// The captured value of counter `name`, if it existed.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// The captured value of gauge `name`, if it existed.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }

    /// The captured summary of histogram `name`, if it existed.
    pub fn histogram(&self, name: &str) -> Option<&HistSummary> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    /// Renders the snapshot as one JSON object:
    /// `{"counters":{...},"gauges":{...},"histograms":{name:{count,...}}}`.
    pub fn to_json(&self) -> String {
        let mut counters = Obj::new();
        for (k, v) in &self.counters {
            counters = counters.u64(k, *v);
        }
        let mut gauges = Obj::new();
        for (k, v) in &self.gauges {
            gauges = gauges.i64(k, *v);
        }
        let mut histograms = Obj::new();
        for (k, v) in &self.histograms {
            histograms = histograms.raw(k, &v.to_json());
        }
        Obj::new()
            .raw("counters", &counters.finish())
            .raw("gauges", &gauges.finish())
            .raw("histograms", &histograms.finish())
            .finish()
    }

    /// Renders the snapshot as aligned `name value` lines.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!("counter   {k} = {v}\n"));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("gauge     {k} = {v}\n"));
        }
        for (k, s) in &self.histograms {
            out.push_str(&format!(
                "histogram {k} = n={} mean={:.2?} p50={:.2?} p95={:.2?} p99={:.2?} max={:.2?}\n",
                s.count, s.mean, s.p50, s.p95, s.p99, s.max
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_the_named_cell() {
        let a = registry().counter("test.metrics.shared");
        let b = registry().counter("test.metrics.shared");
        a.incr();
        b.add(2);
        assert_eq!(a.value(), 3);
    }

    #[test]
    fn a_removed_name_starts_afresh() {
        let old = registry().counter("test.metrics.removed");
        old.add(3);
        registry().remove("test.metrics.removed");
        assert_eq!(registry().snapshot().counter("test.metrics.removed"), None);
        old.incr();
        assert_eq!(registry().counter("test.metrics.removed").value(), 0);
        assert_eq!(old.value(), 4, "a detached handle keeps working");
    }

    #[test]
    fn gauges_move_both_ways() {
        let g = registry().gauge("test.metrics.gauge");
        g.set(5);
        g.add(3);
        g.sub(4);
        assert_eq!(g.value(), 4);
    }

    #[test]
    fn snapshot_captures_and_exports() {
        let c = registry().counter("test.metrics.snap.count");
        c.add(7);
        let h = registry().histogram("test.metrics.snap.lat");
        h.record(Duration::from_millis(10));
        h.record(Duration::from_millis(30));
        let snap = registry().snapshot();
        assert_eq!(snap.counter("test.metrics.snap.count"), Some(7));
        let summary = snap.histogram("test.metrics.snap.lat").unwrap();
        assert_eq!(summary.count, 2);
        assert_eq!(summary.mean, Duration::from_millis(20));
        assert_eq!(summary.p99, Duration::from_millis(30));
        let json = snap.to_json();
        assert!(json.contains("\"test.metrics.snap.count\":7"), "{json}");
        assert!(json.contains("\"p99_us\":30000"), "{json}");
        assert!(snap.to_text().contains("test.metrics.snap.lat"));
    }

    #[test]
    fn timing_helper_records() {
        let h = registry().histogram("test.metrics.timed");
        let out = h.time(|| 42);
        assert_eq!(out, 42);
        assert_eq!(h.summary().count, 1);
    }
}
