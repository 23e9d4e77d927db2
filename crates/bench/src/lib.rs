//! Experiment harness for the `adapta` reproduction.
//!
//! The paper's evaluation is a programming example plus qualitative
//! claims; this crate quantifies each claim (see `DESIGN.md` §4 for the
//! experiment index and `EXPERIMENTS.md` for recorded results):
//!
//! | binary | experiment |
//! |---|---|
//! | `exp_load_sharing` | E1 — client-driven load sharing: static-random vs trade-once (Badidi) vs auto-adaptive |
//! | `exp_monitoring` | E2 — event-driven notification vs polling |
//! | `exp_remote_eval` | E3 — remote evaluation vs value streaming |
//! | `exp_postponed` | E6 — postponed vs immediate event handling |
//! | `exp_hot_swap` | E7 — dynamic strategy replacement |
//! | `exp_trading_scale` | E5 — trader query scalability |
//! | `exp_failover` | E9 — component failure and re-selection |
//! | `exp_concurrency` | E10 — multiplexed TCP transport under concurrent callers |
//! | `exp_chaos` | E11 — fault injection: retry + circuit breaker under a chaos storm |
//! | `exp_overload` | E12 — overload: admission control vs a request storm |
//! | `exp_balancer` | E13 — adaptive request routing over a replica set |
//! | `exp_micro` | E4's direct and Rua-servant rungs, E5's constraint parse, E8's interpreter probes |
//!
//! The simulated experiments run in virtual time with seeded
//! randomness: their numbers are exactly reproducible. `exp_micro` and
//! `exp_trading_scale` time wall-clock work with [`time_batches`] and
//! report medians and quartiles. E4's other rungs are per-layer figures
//! of the benchmark in `perfbench/` (`orb.invoke_ns`,
//! `smart_proxy.invoke_ns`, `tcp.roundtrip_ns`, `marshal.round_trip_ns`).

use std::time::{Duration, Instant};

use adapta_telemetry::Histogram;

pub mod loadsim;
pub mod table;

pub use loadsim::{run_load_sharing, LoadPhase, LoadSharingOutcome, LoadSharingParams};
pub use table::Table;

/// Times `op` for a microbenchmark: `batches` timed batches of
/// `per_batch` calls each, after one untimed warm-up batch per 20 timed
/// ones (at least one). Each sample is one batch's wall time per call,
/// so the quantiles are medians and spreads of the per-call cost.
pub fn time_batches(batches: usize, per_batch: u32, mut op: impl FnMut()) -> Histogram {
    let mut batch = || {
        let start = Instant::now();
        for _ in 0..per_batch {
            op();
        }
        start.elapsed() / per_batch
    };
    for _ in 0..=batches / 20 {
        batch();
    }
    let mut samples = Histogram::new();
    for _ in 0..batches {
        samples.record(batch());
    }
    samples
}

/// The 25th, 50th and 75th percentiles of `samples`.
pub fn quartiles(samples: &mut Histogram) -> [Duration; 3] {
    [0.25, 0.5, 0.75].map(|q| samples.quantile(q))
}

/// Writes `BENCH_<experiment>.json`: the experiment name plus the full
/// telemetry-registry snapshot (counters, gauges, latency histograms
/// with quantiles), so CI and scripts can scrape machine-readable
/// results without parsing the human-oriented tables.
///
/// # Errors
///
/// Propagates the I/O error when the file cannot be written.
pub fn emit_bench_json(experiment: &str) -> std::io::Result<std::path::PathBuf> {
    let json = adapta_telemetry::json::Obj::new()
        .str("experiment", experiment)
        .raw(
            "metrics",
            &adapta_telemetry::registry().snapshot().to_json(),
        )
        .finish();
    let path = std::path::PathBuf::from(format!("BENCH_{experiment}.json"));
    std::fs::write(&path, json + "\n")?;
    Ok(path)
}

/// [`emit_bench_json`] with reporting: prints where the snapshot went
/// (or the error) instead of failing the experiment run.
pub fn finish(experiment: &str) {
    match emit_bench_json(experiment) {
        Ok(path) => println!("\nmetrics snapshot: {}", path.display()),
        Err(e) => eprintln!("\ncould not write BENCH_{experiment}.json: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_batches_records_one_sample_per_timed_batch() {
        let mut calls = 0;
        let mut samples = time_batches(40, 3, || calls += 1);
        assert_eq!(calls, (3 + 40) * 3, "three warm-up batches");
        assert_eq!(samples.len(), 40);
        let [p25, p50, p75] = quartiles(&mut samples);
        assert!(p25 <= p50 && p50 <= p75);
    }
}
