//! Pluggable routing policies.
//!
//! A [`RoutingPolicy`] picks one replica out of a candidate slice on
//! every call. Policies are stateless with respect to the replica set
//! (the set changes under them between picks) but may keep their own
//! cursor/RNG state. All built-ins are cheap enough to sit on the
//! per-invocation hot path.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::replica_set::Replica;

/// Picks one replica from the candidate slice.
///
/// `replicas` is the already-filtered candidate list (callers remove
/// breaker-open and dead targets before the policy sees them);
/// `key` is an optional affinity key (session id hash) that only
/// affinity-aware policies use. Returns an index into `replicas`, or
/// `None` when the slice is empty.
pub trait RoutingPolicy: Send + Sync {
    /// Stable policy name (what [`policy_named`] parses).
    fn name(&self) -> &str;

    /// Picks an index into `replicas`.
    fn pick(&self, replicas: &[Arc<Replica>], key: Option<u64>) -> Option<usize>;
}

/// FNV-1a — cheap, dependency-free, stable across runs.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x1_0000_01b3);
    }
    hash
}

// ---- round robin ---------------------------------------------------------

/// Strict rotation over the candidate list.
#[derive(Debug, Default)]
pub struct RoundRobin {
    next: AtomicUsize,
}

impl RoundRobin {
    /// Creates a round-robin policy starting at the first replica.
    pub fn new() -> RoundRobin {
        RoundRobin::default()
    }
}

impl RoutingPolicy for RoundRobin {
    fn name(&self) -> &str {
        "round_robin"
    }

    fn pick(&self, replicas: &[Arc<Replica>], _key: Option<u64>) -> Option<usize> {
        if replicas.is_empty() {
            return None;
        }
        Some(self.next.fetch_add(1, Ordering::Relaxed) % replicas.len())
    }
}

// ---- least in-flight -----------------------------------------------------

/// Picks the replica with the fewest calls in flight, breaking ties by
/// EWMA-latency score. Under sequential traffic every replica is idle
/// and the score alone decides, so the replicas that tied on calls in
/// flight and lost on score are marked passed over, as in [`P2cEwma`].
#[derive(Debug, Default)]
pub struct LeastInflight;

impl LeastInflight {
    /// Creates a least-in-flight policy.
    pub fn new() -> LeastInflight {
        LeastInflight
    }
}

impl RoutingPolicy for LeastInflight {
    fn name(&self) -> &str {
        "least_inflight"
    }

    fn pick(&self, replicas: &[Arc<Replica>], _key: Option<u64>) -> Option<usize> {
        let (best, best_key) = replicas
            .iter()
            .map(|r| (r.stats().inflight(), r.stats().score()))
            .enumerate()
            .min_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))?;
        for (i, replica) in replicas.iter().enumerate() {
            let stats = replica.stats();
            if i != best && stats.inflight() == best_key.0 && stats.score() > best_key.1 {
                stats.on_passed_over();
            }
        }
        Some(best)
    }
}

// ---- power of two choices over EWMA --------------------------------------

/// Power-of-two-choices: sample two distinct replicas uniformly, route
/// to the one with the lower `EWMA latency × (inflight + 1)` score.
/// Near-optimal load distribution with O(1) work and no global scan.
///
/// With two replicas both are compared on every pick, so the choice is
/// greedy: the loser gets no calls and so no samples. The loser is
/// therefore marked passed over
/// ([`ReplicaStats::on_passed_over`](crate::ReplicaStats::on_passed_over)),
/// which lets its latency term decay until it is tried again.
#[derive(Debug)]
pub struct P2cEwma {
    rng: Mutex<StdRng>,
}

impl Default for P2cEwma {
    fn default() -> Self {
        P2cEwma::new()
    }
}

impl P2cEwma {
    /// Creates a P2C policy with a fixed seed (deterministic sampling
    /// order; scores still depend on live stats).
    pub fn new() -> P2cEwma {
        P2cEwma {
            rng: Mutex::new(StdRng::seed_from_u64(0x7032_6332)),
        }
    }
}

impl RoutingPolicy for P2cEwma {
    fn name(&self) -> &str {
        "p2c_ewma"
    }

    fn pick(&self, replicas: &[Arc<Replica>], _key: Option<u64>) -> Option<usize> {
        match replicas.len() {
            0 => None,
            1 => Some(0),
            n => {
                let (a, b) = {
                    let mut rng = self.rng.lock();
                    let a = rng.gen_range(0..n);
                    let mut b = rng.gen_range(0..n - 1);
                    if b >= a {
                        b += 1;
                    }
                    (a, b)
                };
                let (sa, sb) = (replicas[a].stats().score(), replicas[b].stats().score());
                let (winner, loser) = if sa <= sb { (a, b) } else { (b, a) };
                if sa != sb {
                    replicas[loser].stats().on_passed_over();
                }
                Some(winner)
            }
        }
    }
}

// ---- weighted by monitored property --------------------------------------

/// Weighted-random selection with weights derived from a monitored
/// load property — the paper's load-sharing example generalized. The
/// weight is `1 / (1 + load)` where `load` is the last monitor-pushed
/// value ([`ReplicaStats::record_load`](crate::ReplicaStats::record_load)),
/// falling back to the property value snapshotted from the offer.
/// Replicas with no load signal at all get weight 1.0 (as if idle).
#[derive(Debug)]
pub struct WeightedProperty {
    property: String,
    rng: Mutex<StdRng>,
    name: String,
}

impl WeightedProperty {
    /// Creates a weighted policy over `property` (e.g. `"LoadAvg"`).
    pub fn new(property: impl Into<String>) -> WeightedProperty {
        let property = property.into();
        WeightedProperty {
            name: format!("weighted_property:{property}"),
            rng: Mutex::new(StdRng::seed_from_u64(0x7765_6967)),
            property,
        }
    }

    fn weight(&self, replica: &Replica) -> f64 {
        let load = replica
            .stats()
            .load()
            .or_else(|| replica.property_f64(&self.property))
            .unwrap_or(0.0);
        1.0 / (1.0 + load.max(0.0))
    }
}

impl RoutingPolicy for WeightedProperty {
    fn name(&self) -> &str {
        &self.name
    }

    fn pick(&self, replicas: &[Arc<Replica>], _key: Option<u64>) -> Option<usize> {
        if replicas.is_empty() {
            return None;
        }
        let weights: Vec<f64> = replicas.iter().map(|r| self.weight(r)).collect();
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Some(0);
        }
        let mut point = { self.rng.lock().gen::<f64>() } * total;
        for (i, w) in weights.iter().enumerate() {
            point -= w;
            if point <= 0.0 {
                return Some(i);
            }
        }
        Some(replicas.len() - 1)
    }
}

// ---- consistent hash -----------------------------------------------------

/// Consistent hashing for session affinity to stateful replicas: the
/// same key lands on the same replica as long as it stays in the set,
/// and when the set changes only ~1/n of keys move. Keyless calls fall
/// back to spreading over the ring with an internal counter.
#[derive(Debug)]
pub struct ConsistentHash {
    vnodes: usize,
    fallback: AtomicU64,
}

impl Default for ConsistentHash {
    fn default() -> Self {
        ConsistentHash::new(32)
    }
}

impl ConsistentHash {
    /// Creates a ring with `vnodes` virtual nodes per replica (more
    /// vnodes → smoother key distribution, slower pick).
    pub fn new(vnodes: usize) -> ConsistentHash {
        ConsistentHash {
            vnodes: vnodes.max(1),
            fallback: AtomicU64::new(0),
        }
    }
}

impl RoutingPolicy for ConsistentHash {
    fn name(&self) -> &str {
        "consistent_hash"
    }

    fn pick(&self, replicas: &[Arc<Replica>], key: Option<u64>) -> Option<usize> {
        if replicas.is_empty() {
            return None;
        }
        // Hash the key onto the ring — raw keys (session ids, user
        // ids) are typically clustered, and an unhashed point would
        // land them all on the same arc.
        let point = fnv1a(
            &key.unwrap_or_else(|| self.fallback.fetch_add(1, Ordering::Relaxed))
                .to_le_bytes(),
        );
        // The ring is rebuilt per pick: replica sets are small (tens,
        // not thousands) and the set mutates underneath us between
        // picks, so caching would need generation tracking for little
        // gain at this scale.
        let mut best: Option<(u64, usize)> = None;
        let mut lowest: Option<(u64, usize)> = None;
        for (i, replica) in replicas.iter().enumerate() {
            for v in 0..self.vnodes {
                let mut seed = replica.key().as_bytes().to_vec();
                seed.extend_from_slice(&(v as u64).to_le_bytes());
                let h = fnv1a(&seed);
                if lowest.is_none_or(|(lo, _)| h < lo) {
                    lowest = Some((h, i));
                }
                if h >= point && best.is_none_or(|(b, _)| h < b) {
                    best = Some((h, i));
                }
            }
        }
        // Successor of `point` on the ring, wrapping to the lowest hash.
        best.or(lowest).map(|(_, i)| i)
    }
}

// ---- parsing -------------------------------------------------------------

/// Builds a policy from its name: `round_robin`, `least_inflight`,
/// `p2c_ewma`, `consistent_hash`, or `weighted_property:<Prop>`
/// (`weighted_property` alone defaults to `LoadAvg`). Returns `None`
/// for unknown names.
pub fn policy_named(name: &str) -> Option<Box<dyn RoutingPolicy>> {
    match name {
        "round_robin" => Some(Box::new(RoundRobin::new())),
        "least_inflight" => Some(Box::new(LeastInflight::new())),
        "p2c_ewma" => Some(Box::new(P2cEwma::new())),
        "consistent_hash" => Some(Box::new(ConsistentHash::default())),
        "weighted_property" => Some(Box::new(WeightedProperty::new("LoadAvg"))),
        _ => name
            .strip_prefix("weighted_property:")
            .filter(|p| !p.is_empty())
            .map(|p| Box::new(WeightedProperty::new(p)) as Box<dyn RoutingPolicy>),
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use adapta_idl::Value;
    use adapta_orb::ObjRef;

    fn replica(name: &str) -> Arc<Replica> {
        Arc::new(Replica::from_parts(
            format!("offer-{name}"),
            ObjRef::new(format!("inproc://{name}"), "svc", "Hello"),
            vec![("LoadAvg".into(), Value::from(1.0))],
            vec![],
        ))
    }

    fn set(n: usize) -> Vec<Arc<Replica>> {
        (0..n).map(|i| replica(&format!("r{i}"))).collect()
    }

    #[test]
    fn round_robin_rotates() {
        let replicas = set(3);
        let rr = RoundRobin::new();
        let picks: Vec<usize> = (0..6).map(|_| rr.pick(&replicas, None).unwrap()).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
        assert!(rr.pick(&[], None).is_none());
    }

    #[test]
    fn least_inflight_avoids_busy_replicas() {
        let replicas = set(3);
        replicas[0].stats().on_start();
        replicas[0].stats().on_start();
        replicas[1].stats().on_start();
        let li = LeastInflight::new();
        assert_eq!(li.pick(&replicas, None), Some(2));
    }

    #[test]
    fn p2c_prefers_the_faster_replica() {
        let replicas = set(2);
        for _ in 0..20 {
            replicas[0].stats().on_start();
            replicas[0]
                .stats()
                .on_complete(Duration::from_millis(1), true);
            replicas[1].stats().on_start();
            replicas[1]
                .stats()
                .on_complete(Duration::from_millis(50), true);
        }
        let p2c = P2cEwma::new();
        let fast = (0..200)
            .filter(|_| p2c.pick(&replicas, None) == Some(0))
            .count();
        // With 2 replicas P2C always samples both, so the faster one
        // wins every pick while the scores stand still.
        assert_eq!(fast, 200);
    }

    /// One slow sample must not lock a replica out for good: its score
    /// decays while it is idle until p2c tries it again.
    #[test]
    fn p2c_retries_a_replica_starved_by_one_slow_sample() {
        let replicas = set(2);
        replicas[0].stats().on_start();
        replicas[0]
            .stats()
            .on_complete(Duration::from_millis(50), true);
        let p2c = P2cEwma::new();
        // 50 ms against a steady 2 ms: expected back after about 3.2 s.
        let started = std::time::Instant::now();
        let deadline = Duration::from_secs(10);
        loop {
            match p2c.pick(&replicas, None) {
                Some(0) => break,
                picked => {
                    let elapsed = started.elapsed();
                    assert!(elapsed < deadline, "replica 0 starved for {elapsed:?}");
                    let fast = replicas[picked.unwrap()].stats();
                    fast.on_start();
                    std::thread::sleep(Duration::from_millis(2));
                    fast.on_complete(Duration::from_millis(2), true);
                }
            }
        }
    }

    /// Feeds one successful call of `us` microseconds.
    fn sample(replica: &Replica, us: u64) {
        replica.stats().on_start();
        replica.stats().on_complete(Duration::from_micros(us), true);
    }

    /// Replays a recorded cold start: the faster replica's first call
    /// took 3.6 ms, more than the slower one's 2.1-2.7 ms.
    #[test]
    fn p2c_recovers_from_a_slow_first_sample() {
        let replicas = set(2);
        sample(&replicas[0], 3_600);
        sample(&replicas[1], 2_400);
        let slow_us = [2_100, 2_700, 2_400, 2_300, 2_600];
        let p2c = P2cEwma::new();
        let mut fast = Vec::new();
        for i in 0..60 {
            let k = p2c.pick(&replicas, None).unwrap();
            sample(&replicas[k], if k == 0 { 1_600 } else { slow_us[i % 5] });
            fast.push(k == 0);
        }
        // Within 10 picks the fast replica wins again, and keeps winning.
        let late = fast[10..].iter().filter(|&&f| f).count();
        assert!(
            late >= 45,
            "the fast replica won {late}/50 picks after the first 10"
        );
    }

    /// Replays recorded noise: sparse ~11 ms outliers on both replicas
    /// over steady means of 1.6 ms (fast) and 2.8 ms (slow).
    #[test]
    fn p2c_rides_out_sparse_outliers_on_both_replicas() {
        let replicas = set(2);
        let means = [1_600, 2_800];
        let mut served = [0u64; 2];
        let mut call = |k: usize| {
            served[k] += 1;
            // Each replica's 7th call and every 40th after it stalls.
            let outlier = served[k] % 40 == 7;
            sample(&replicas[k], if outlier { 11_000 } else { means[k] });
        };
        for _ in 0..20 {
            call(0);
            call(1);
        }
        let p2c = P2cEwma::new();
        let (mut fast, mut slow_run, mut longest_slow_run) = (0, 0, 0);
        for _ in 0..120 {
            let k = p2c.pick(&replicas, None).unwrap();
            call(k);
            if k == 0 {
                fast += 1;
                slow_run = 0;
            } else {
                slow_run += 1;
                longest_slow_run = usize::max(longest_slow_run, slow_run);
            }
        }
        // The fast replica's outliers (its 47th and 87th calls) each
        // cost it at most 10 picks.
        assert!(
            longest_slow_run <= 10,
            "the slow replica won {longest_slow_run} picks in a row"
        );
        assert!(fast >= 100, "the fast replica won {fast}/120 picks");
    }

    #[test]
    fn least_inflight_recovers_from_a_slow_first_sample() {
        let replicas = set(2);
        sample(&replicas[0], 3_600);
        sample(&replicas[1], 2_400);
        let li = LeastInflight::new();
        let fast = (0..60)
            .filter(|_| {
                let k = li.pick(&replicas, None).unwrap();
                sample(&replicas[k], if k == 0 { 1_600 } else { 2_400 });
                k == 0
            })
            .count();
        assert!(fast >= 50, "the fast replica won {fast}/60 picks");
    }

    /// E13's shape: a replica 40x slower than its peer keeps under 1% of
    /// the picks, counting the probes that re-measure it.
    #[test]
    fn p2c_keeps_a_much_slower_replica_under_one_percent() {
        let replicas = set(2);
        for _ in 0..20 {
            sample(&replicas[0], 1_000);
            sample(&replicas[1], 1_000);
        }
        let p2c = P2cEwma::new();
        let slow = (0..5_000)
            .filter(|_| {
                let k = p2c.pick(&replicas, None).unwrap();
                sample(&replicas[k], if k == 0 { 1_000 } else { 40_000 });
                k == 1
            })
            .count();
        assert!(
            slow * 100 < 5_000,
            "the 40x slower replica drew {slow}/5000 picks"
        );
    }

    #[test]
    fn weighted_property_follows_the_load_signal() {
        let replicas = set(2);
        replicas[0].stats().record_load(0.0);
        replicas[1].stats().record_load(99.0);
        let wp = WeightedProperty::new("LoadAvg");
        let to_idle = (0..400)
            .filter(|_| wp.pick(&replicas, None) == Some(0))
            .count();
        assert!(to_idle > 340, "idle replica won only {to_idle}/400 picks");
    }

    #[test]
    fn weighted_property_falls_back_to_the_offer_property() {
        let hot = Arc::new(Replica::from_parts(
            "offer-hot".to_string(),
            ObjRef::new("inproc://hot", "svc", "Hello"),
            vec![("LoadAvg".into(), Value::from(99.0))],
            vec![],
        ));
        let idle = replica("idle"); // LoadAvg 1.0
        let wp = WeightedProperty::new("LoadAvg");
        let replicas = vec![hot, idle];
        let to_idle = (0..400)
            .filter(|_| wp.pick(&replicas, None) == Some(1))
            .count();
        assert!(to_idle > 300, "idle replica won only {to_idle}/400 picks");
    }

    #[test]
    fn consistent_hash_is_sticky_and_mostly_stable_under_churn() {
        let replicas = set(5);
        let ch = ConsistentHash::default();
        // Same key → same replica, every time.
        for key in 0..50u64 {
            let first = ch.pick(&replicas, Some(key));
            for _ in 0..5 {
                assert_eq!(ch.pick(&replicas, Some(key)), first);
            }
        }
        // Removing one replica moves only a minority of keys.
        let shrunk: Vec<Arc<Replica>> = replicas[..4].to_vec();
        let moved = (0..200u64)
            .filter(|&k| {
                let before = ch.pick(&replicas, Some(k)).unwrap();
                let after = ch.pick(&shrunk, Some(k)).unwrap();
                replicas[before].key() != shrunk[after].key()
            })
            .count();
        assert!(moved < 100, "churn moved {moved}/200 keys");
    }

    #[test]
    fn policy_named_parses_all_builtins() {
        for name in [
            "round_robin",
            "least_inflight",
            "p2c_ewma",
            "consistent_hash",
            "weighted_property",
        ] {
            assert!(policy_named(name).is_some(), "{name}");
        }
        assert_eq!(
            policy_named("weighted_property:Memory").unwrap().name(),
            "weighted_property:Memory"
        );
        assert!(policy_named("weighted_property:").is_none());
        assert!(policy_named("definitely_not_a_policy").is_none());
    }
}
