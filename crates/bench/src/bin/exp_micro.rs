//! Microbenchmarks E4, E5 and E8: the per-call costs the paper's
//! Section VI argues are small enough to interpose everywhere.
//!
//! - E4, the invocation ladder: a direct servant call (no broker), and
//!   a Rua-scripted servant called through the in-process broker;
//! - E5: parsing a trader constraint;
//! - E8, the interpreter: parsing a Figure 4-sized predicate, calling
//!   it stored (the per-tick monitor cost), `fib(15)`, table and string
//!   traffic, and building an interpreter.
//!
//! The ladder's other rungs, and E5's constraint evaluation, export and
//! query costs, are per-layer figures of the benchmark in `perfbench/`
//! (`orb.invoke_ns`, `smart_proxy.invoke_ns`, `tcp.roundtrip_ns`,
//! `marshal.round_trip_ns`, `trader.*`) and `exp_trading_scale`'s rows.
//!
//! Run with: `cargo run -p adapta-bench --release --bin exp_micro`

use std::hint::black_box;

use adapta_bench::{quartiles, time_batches, Table};
use adapta_bridge::Isolate;
use adapta_core::ScriptServant;
use adapta_idl::Value;
use adapta_orb::{Orb, Servant, ServantFn};
use adapta_script::{Interpreter, Value as RuaValue};
use adapta_telemetry::Histogram;
use adapta_trading::Constraint;

/// Timed batches per probe; each is one sample of the quartiles.
const BATCHES: usize = 1_000;

/// Times one probe in the given number of batches. Each probe sizes its
/// batches so one takes microseconds and the clock reads stay out of
/// the figure.
type Probe = fn(usize) -> Histogram;

/// Every probe: its experiment, its name and its function.
const PROBES: [(&str, &str, Probe); 9] = [
    ("E4", "direct_servant", direct_servant),
    ("E4", "script_servant", script_servant),
    ("E5", "constraint_parse", constraint_parse),
    ("E8", "parse_predicate", parse_predicate),
    ("E8", "call_predicate", call_predicate),
    ("E8", "fib_15", fib_15),
    ("E8", "table_churn", table_churn),
    ("E8", "string_ops", string_ops),
    ("E8", "interpreter_new", interpreter_new),
];

fn main() {
    println!("E4/E5/E8 microbenchmarks: per-call wall time,");
    println!("median and quartiles of {BATCHES} timed batches after a warm-up\n");
    let mut table = Table::new(vec!["exp", "probe", "median", "p25", "p75"]);
    for (experiment, name, probe) in PROBES {
        let [p25, p50, p75] = quartiles(&mut probe(BATCHES));
        table.row(vec![
            experiment.into(),
            name.into(),
            format!("{p50:.2?}"),
            format!("{p25:.2?}"),
            format!("{p75:.2?}"),
        ]);
    }
    table.print();
    adapta_bench::finish("exp_micro");
}

fn echo_args() -> Vec<Value> {
    vec![Value::from("payload-string"), Value::Long(42)]
}

fn direct_servant(batches: usize) -> Histogram {
    let servant = ServantFn::new("Echo", |_, args| {
        Ok(args.into_iter().next().unwrap_or(Value::Null))
    });
    time_batches(batches, 100, || {
        black_box(servant.invoke(black_box("echo"), echo_args()).unwrap());
    })
}

fn script_servant(batches: usize) -> Histogram {
    let isolate = Isolate::new("micro-script", |_| {});
    let servant = ScriptServant::from_source(
        &isolate,
        "Echo",
        "return { echo = function(self, x) return x end }",
    )
    .unwrap();
    let server = Orb::new("micro-script-server");
    let objref = server.activate("echo", servant).unwrap();
    let proxy = Orb::new("micro-script-client").proxy(&objref);
    time_batches(batches, 10, || {
        black_box(proxy.invoke(black_box("echo"), echo_args()).unwrap());
    })
}

fn constraint_parse(batches: usize) -> Histogram {
    time_batches(batches, 10, || {
        black_box(
            Constraint::parse(black_box(
                "LoadAvg < 50 and LoadAvgIncreasing == no or Host ~ 'node'",
            ))
            .unwrap(),
        );
    })
}

/// A Figure 4-style monitor predicate.
const PREDICATE: &str = r#"function(observer, value, monitor)
    local incr
    incr = monitor
    return value > 50 and incr ~= nil
end"#;

fn parse_predicate(batches: usize) -> Histogram {
    let mut rua = Interpreter::new();
    time_batches(batches, 10, || {
        black_box(rua.compile_function(black_box(PREDICATE)).unwrap());
    })
}

fn call_predicate(batches: usize) -> Histogram {
    let mut rua = Interpreter::new();
    let f = rua.compile_function(PREDICATE).unwrap();
    time_batches(batches, 20, || {
        let args = vec![RuaValue::Nil, RuaValue::Num(80.0), RuaValue::Bool(true)];
        black_box(rua.call(&f, black_box(args)).unwrap());
    })
}

/// Times calls of the function `source` evaluates to, with `arg`.
fn call_function(batches: usize, source: &str, arg: RuaValue) -> Histogram {
    let mut rua = Interpreter::new();
    let f = rua.compile_function(source).unwrap();
    time_batches(batches, 1, || {
        black_box(rua.call(&f, vec![black_box(arg.clone())]).unwrap());
    })
}

fn fib_15(batches: usize) -> Histogram {
    let mut rua = Interpreter::new();
    rua.eval("function fib(n) if n < 2 then return n end return fib(n-1) + fib(n-2) end")
        .unwrap();
    let f = rua.global("fib");
    time_batches(batches, 1, || {
        black_box(rua.call(&f, vec![black_box(RuaValue::Num(15.0))]).unwrap());
    })
}

fn table_churn(batches: usize) -> Histogram {
    call_function(
        batches,
        r#"function(n)
            local t = {}
            for i = 1, n do t[i] = i * 2 end
            local sum = 0
            for i = 1, n do sum = sum + t[i] end
            return sum
        end"#,
        RuaValue::Num(100.0),
    )
}

fn string_ops(batches: usize) -> Histogram {
    call_function(
        batches,
        r#"function(s)
            local out = ""
            for i = 1, 20 do out = out .. s .. i end
            return string.len(out)
        end"#,
        RuaValue::str("x"),
    )
}

fn interpreter_new(batches: usize) -> Histogram {
    time_batches(batches, 1, || {
        black_box(Interpreter::new());
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_runs_its_batches() {
        for (_, name, probe) in PROBES {
            let mut samples = probe(3);
            assert_eq!(samples.len(), 3, "{name}");
            assert!(samples.quantile(0.5) > std::time::Duration::ZERO, "{name}");
        }
    }
}
