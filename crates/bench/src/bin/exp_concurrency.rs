//! Experiment E10 (extension) — transport concurrency.
//!
//! The TCP client transport multiplexes any number of in-flight
//! requests onto one pooled connection per endpoint, and the server
//! serves each connection with leader/followers: the thread that reads
//! a request hands the lead to another and serves the request. K
//! concurrent calls to a slow servant should therefore finish in
//! roughly *one* call's latency, where a lock-the-stream-per-round-trip
//! transport takes K round trips back to back.
//!
//! The experiment runs real sockets on the loopback interface (this is
//! a wall-clock measurement, not a virtual-time simulation): a servant
//! that sleeps `SERVANT_MS` per call, hit by 1, 2, 4, 8 and 16
//! concurrent callers sharing one client orb — hence one multiplexed
//! connection.
//!
//! Run with: `cargo run -p adapta-bench --release --bin exp_concurrency`

use std::time::{Duration, Instant};

use adapta_bench::Table;
use adapta_idl::Value;
use adapta_orb::{ObjRef, Orb, ServantFn};

const SERVANT_MS: u64 = 20;
const CALLERS: [usize; 5] = [1, 2, 4, 8, 16];
const ROUNDS: usize = 5;

/// One batch: `k` threads each make a single call, all on the shared
/// client orb; returns the batch wall-clock.
fn batch(client: &Orb, target: &ObjRef, k: usize) -> Duration {
    let started = Instant::now();
    let handles: Vec<_> = (0..k)
        .map(|i| {
            let client = client.clone();
            let target = target.clone();
            std::thread::spawn(move || {
                client
                    .invoke_ref(&target, "work", vec![Value::Long(i as i64)])
                    .expect("bench invoke")
            })
        })
        .collect();
    for h in handles {
        h.join().expect("bench caller panicked");
    }
    started.elapsed()
}

fn main() {
    println!("E10 (extension): K concurrent callers share one multiplexed TCP");
    println!("connection to a servant that takes {SERVANT_MS} ms per call. A");
    println!("serializing transport needs K x {SERVANT_MS} ms per batch; a");
    println!("multiplexed one stays near one call's latency.\n");

    let server = Orb::new("exp-conc-server");
    server
        .activate(
            "svc",
            ServantFn::new("ConcSvc", |_, args| {
                std::thread::sleep(Duration::from_millis(SERVANT_MS));
                Ok(Value::Seq(args))
            }),
        )
        .expect("activate");
    let endpoint = server.listen_tcp("127.0.0.1:0").expect("listen");
    let client = Orb::new("exp-conc-client");
    let target = ObjRef::new(endpoint, "svc", "ConcSvc");
    // Warm the pooled connection so measurements exclude setup.
    client
        .invoke_ref(&target, "work", vec![])
        .expect("warm-up call");

    let registry = adapta_telemetry::registry();
    let mut table = Table::new(vec![
        "callers",
        "batch wall-clock (best of 5)",
        "serial baseline",
        "speedup",
    ]);
    for k in CALLERS {
        let hist = registry.histogram(&format!("exp.concurrency.batch.{k}"));
        let mut best = Duration::MAX;
        for _ in 0..ROUNDS {
            let took = batch(&client, &target, k);
            hist.record(took);
            best = best.min(took);
        }
        let serial = Duration::from_millis(SERVANT_MS * k as u64);
        registry
            .gauge(&format!("exp.concurrency.speedup_pct.{k}"))
            .set((serial.as_secs_f64() / best.as_secs_f64() * 100.0) as i64);
        table.row(vec![
            k.to_string(),
            format!("{:.1} ms", best.as_secs_f64() * 1e3),
            format!("{} ms", serial.as_millis()),
            format!("{:.1}x", serial.as_secs_f64() / best.as_secs_f64()),
        ]);
    }
    table.print();
    println!(
        "\n(all batches ran over ONE pooled connection: client in-flight peak\n\
         and pipeline depth are in the metrics snapshot below)"
    );

    adapta_bench::finish("concurrency");
}
