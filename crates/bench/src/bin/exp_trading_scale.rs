//! Experiment E5 — trading-query scalability.
//!
//! The smart-proxy mechanism puts a trader query on every (re)selection,
//! so its cost model matters: query latency versus the number of
//! registered offers, the constraint's complexity, and — the expensive
//! axis — dynamic properties, each of which costs one remote
//! invocation per candidate offer at query time.
//!
//! Expected shape: latency linear in the candidate set; constraint
//! complexity a small constant factor; dynamic properties dominating
//! (one `evalDP` round trip per offer per dynamic property).
//!
//! Run with: `cargo run -p adapta-bench --release --bin exp_trading_scale`

use std::hint::black_box;

use adapta_bench::{quartiles, time_batches, Table};
use adapta_idl::{TypeCode, Value};
use adapta_orb::{ObjRef, Orb, ServantFn};
use adapta_telemetry::Histogram;
use adapta_trading::{ExportRequest, PropDef, PropMode, Query, ServiceTypeDef, Trader};

const CONSTRAINTS: [(&str, &str); 3] = [
    ("none", ""),
    ("simple", "LoadAvg < 50"),
    (
        "complex",
        "(LoadAvg < 50 and LoadAvgIncreasing == no) or (LoadAvg * 2 + 1 < 80 and exist Host and Host ~ 'node')",
    ),
];

fn trader_with_offers(n: usize, dynamic: bool) -> (Orb, Trader) {
    let orb = Orb::new(&format!("e5-{n}-{dynamic}"));
    let trader = Trader::new(&orb);
    trader
        .add_type(
            ServiceTypeDef::new("Svc")
                .with_property(PropDef::new("LoadAvg", TypeCode::Double, PropMode::Normal))
                .with_property(PropDef::new(
                    "LoadAvgIncreasing",
                    TypeCode::Str,
                    PropMode::Normal,
                ))
                .with_property(PropDef::new("Host", TypeCode::Str, PropMode::Readonly)),
        )
        .expect("type");
    let dp_ref = if dynamic {
        Some(
            orb.activate(
                "dp",
                ServantFn::new("DynamicPropEval", |_, args| {
                    match args.first().and_then(Value::as_str) {
                        Some("LoadAvg") => Ok(Value::Double(12.5)),
                        Some("LoadAvgIncreasing") => Ok(Value::from("no")),
                        _ => Ok(Value::Null),
                    }
                }),
            )
            .expect("dp servant"),
        )
    } else {
        None
    };
    for i in 0..n {
        let target = ObjRef::new(orb.endpoint(), format!("svc-{i}"), "Svc");
        let mut req = ExportRequest::new("Svc", target)
            .with_property("Host", Value::from(format!("node{i}")));
        match &dp_ref {
            Some(dp) => {
                req = req
                    .with_dynamic_property("LoadAvg", dp.clone())
                    .with_dynamic_property("LoadAvgIncreasing", dp.clone());
            }
            None => {
                req = req
                    .with_property("LoadAvg", Value::Double((i % 100) as f64))
                    .with_property(
                        "LoadAvgIncreasing",
                        Value::from(if i % 2 == 0 { "no" } else { "yes" }),
                    );
            }
        }
        trader.export(req).expect("export");
    }
    (orb, trader)
}

/// Timed queries per cell; dynamic ones cost up to ~10 ms each.
const STATIC_QUERIES: usize = 101;
const DYNAMIC_QUERIES: usize = 21;

/// The latencies of `samples` timed queries, and the number of offers
/// a query matches.
fn time_query(trader: &Trader, constraint: &str, samples: usize) -> (Histogram, usize) {
    let q = Query::new("Svc")
        .constraint(constraint)
        .preference("min LoadAvg")
        .return_card(10)
        .search_card(u32::MAX);
    let matched = trader.query(&q).expect("query").len();
    let latency = time_batches(samples, 1, || {
        black_box(trader.query(&q).expect("query"));
    });
    (latency, matched)
}

fn main() {
    println!("E5: trader query cost vs offers x constraint x property kind");
    println!("(per-query latency, preference `min LoadAvg`, return_card 10;");
    println!(
        " median and quartiles of {STATIC_QUERIES} static or {DYNAMIC_QUERIES} dynamic queries)\n"
    );

    let mut table = Table::new(vec![
        "offers",
        "properties",
        "constraint",
        "matched",
        "median/query",
        "p25",
        "p75",
    ]);
    for &n in &[10usize, 100, 1000, 10_000] {
        for dynamic in [false, true] {
            // Dynamic sweeps at 10k would take minutes; cap honestly.
            if dynamic && n > 1000 {
                continue;
            }
            let (_orb, trader) = trader_with_offers(n, dynamic);
            for (label, constraint) in CONSTRAINTS {
                let samples = if dynamic {
                    DYNAMIC_QUERIES
                } else {
                    STATIC_QUERIES
                };
                let (mut latency, matched) = time_query(&trader, constraint, samples);
                let [p25, p50, p75] = quartiles(&mut latency);
                table.row(vec![
                    n.to_string(),
                    if dynamic {
                        "dynamic".into()
                    } else {
                        "static".into()
                    },
                    label.into(),
                    matched.to_string(),
                    format!("{p50:.1?}"),
                    format!("{p25:.1?}"),
                    format!("{p75:.1?}"),
                ]);
            }
        }
    }
    table.print();
    println!(
        "\n(static queries are linear in candidates; dynamic properties add one\n\
         evalDP invocation per offer per property — the trader-side cost of\n\
         live nonfunctional data)"
    );

    adapta_bench::finish("exp_trading_scale");
}
