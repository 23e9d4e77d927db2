//! Measurement primitives: a seeded generator, constant-size latency
//! histograms per window of the closed loop, robust summaries, and
//! process counters.

use std::time::{Duration, Instant};

/// SplitMix64: every input the benchmark generates derives from one of
/// these, seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_0FAD_A97A_0000)
    }

    /// An independent stream for one purpose (`tag`) of the same seed.
    pub fn fork(&self, tag: u64) -> Rng {
        Rng(self.0 ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.range(0.0, 1.0) < p
    }

    /// `n` pseudo-random bytes.
    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(n + 8);
        while out.len() < n {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(n);
        out
    }
}

/// Latency recorded for a failed call: it exceeds every limit.
pub const FAILED: u64 = u64::MAX;

/// Nearest-rank `q`-quantile of an unsorted, non-empty sample set.
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    *samples.select_nth_unstable(rank - 1).1
}

/// Median (mean of the middle pair for even counts); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median of unsigned samples.
pub fn median_u64(values: &[u64]) -> f64 {
    median(&values.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

/// Runs `f` and returns its result with its duration in nanoseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as u64)
}

/// Sub-buckets per power of two of a [`Histogram`]: buckets are at most
/// 1/128 (0.8%) of their value wide.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB as usize;

/// A log-linear latency histogram of constant size, so recording a
/// call allocates nothing and `rss_peak_mb` shows the program's memory,
/// not the benchmark's.
struct Histogram {
    counts: Vec<u32>,
    total: u64,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }

    fn bucket(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let shift = 63 - ns.leading_zeros() - SUB_BITS;
        ((shift as u64 + 1) * SUB + (ns >> shift) - SUB) as usize
    }

    /// Lower bound and width of bucket `i`.
    fn bounds(i: usize) -> (f64, f64) {
        let i = i as u64;
        if i < SUB {
            return (i as f64, 1.0);
        }
        let shift = i / SUB - 1;
        (((i % SUB + SUB) << shift) as f64, (1u64 << shift) as f64)
    }

    fn record(&mut self, ns: u64) {
        self.counts[Histogram::bucket(ns)] += 1;
        self.total += 1;
    }

    fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// Nearest-rank `q`-quantile, placed within its bucket by rank.
    fn quantile(&self, q: f64) -> f64 {
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let c = u64::from(c);
            if below + c >= rank {
                let (lo, width) = Histogram::bounds(i);
                return lo + width * ((rank - below) as f64 - 0.5) / c as f64;
            }
            below += c;
        }
        f64::NAN
    }
}

/// The closed-loop recorder of one client thread: latencies of
/// application calls, cut into equal wall-clock windows of the measured
/// phase, so the reported figures are medians over sub-intervals.
pub struct Windows {
    start: Instant,
    window: Duration,
    deadline: Instant,
    windows: Vec<Histogram>,
    pub attempted: u64,
    pub failed: u64,
}

impl Windows {
    pub fn new(start: Instant, seconds: f64, count: usize) -> Windows {
        let total = Duration::from_secs_f64(seconds);
        Windows {
            start,
            window: total / count as u32,
            deadline: start + total,
            windows: (0..count).map(|_| Histogram::new()).collect(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Empty windows over the same phase, for another client thread.
    pub fn sibling(&self) -> Windows {
        Windows {
            windows: self.windows.iter().map(|_| Histogram::new()).collect(),
            attempted: 0,
            failed: 0,
            ..*self
        }
    }

    /// Whether the measured phase is over.
    pub fn done(&self) -> bool {
        Instant::now() >= self.deadline
    }

    /// Records one call that ended at `end` and took `ns` nanoseconds
    /// ([`FAILED`] for a failed call).
    pub fn record(&mut self, end: Instant, ns: u64) {
        self.attempted += 1;
        if ns == FAILED {
            self.failed += 1;
        }
        let window = self.window.as_nanos().max(1);
        let i = (end.duration_since(self.start).as_nanos() / window) as usize;
        let last = self.windows.len() - 1;
        self.windows[i.min(last)].record(ns);
    }

    /// Adds another thread's windows of the same phase into these.
    pub fn merge(&mut self, other: Windows) {
        for (mine, theirs) in self.windows.iter_mut().zip(&other.windows) {
            mine.merge(theirs);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Median over windows of the call rate and of the p50/p95/p99
    /// latency.
    pub fn summary(&self) -> CallSummary {
        let secs = self.window.as_secs_f64();
        let (mut rates, mut p50s, mut p95s, mut p99s) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for w in self.windows.iter().filter(|w| w.total > 0) {
            rates.push(w.total as f64 / secs);
            p50s.push(w.quantile(0.50));
            p95s.push(w.quantile(0.95));
            p99s.push(w.quantile(0.99));
        }
        CallSummary {
            calls_per_s: median(&rates),
            p50_us: median(&p50s) / 1e3,
            p95_us: median(&p95s) / 1e3,
            p99_us: median(&p99s) / 1e3,
            samples: self.windows.iter().map(|w| w.total).sum(),
        }
    }
}

/// End-to-end call figures of one measured phase.
#[derive(Debug, Clone, Copy)]
pub struct CallSummary {
    pub calls_per_s: f64,
    pub p50_us: f64,
    pub p95_us: f64,
    pub p99_us: f64,
    pub samples: u64,
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU seconds (user + system, all threads) this process used; utime
/// and stime are fields 14 and 15 of `/proc/self/stat`, in 100 Hz ticks.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}
