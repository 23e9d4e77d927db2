//! Experiment E4 — the invocation-cost ladder.
//!
//! The paper's Section VI argues the interpreted layers are cheap
//! enough to interpose everywhere ("the Lua interpreter is typically
//! faster than other common scripting languages, and has a small
//! memory footprint"). This bench measures every rung:
//!
//! 1. direct servant call (no broker),
//! 2. dynamic invocation through the in-process broker (full
//!    marshalling round trip — the honest DII cost),
//! 3. the same through a smart proxy (selection cached, event-queue
//!    drain on each call),
//! 4. a script-implemented servant (the DSI + interpreter cost),
//! 5. dynamic invocation over TCP (loopback).

use std::hint::black_box;

use adapta_bridge::Isolate;
use adapta_core::{Infrastructure, ScriptServant, ServerSpec};
use adapta_idl::Value;
use adapta_orb::{Orb, Servant, ServantFn};
use criterion::{criterion_group, criterion_main, Criterion};

fn echo() -> ServantFn {
    ServantFn::new("Echo", |_, args| {
        Ok(args.into_iter().next().unwrap_or(Value::Null))
    })
}

fn bench_invocation(c: &mut Criterion) {
    let mut group = c.benchmark_group("invocation");
    let arg = || vec![Value::from("payload-string"), Value::Long(42)];

    // 1. Direct servant call.
    {
        let servant = echo();
        group.bench_function("direct_servant", |b| {
            b.iter(|| servant.invoke(black_box("echo"), black_box(arg())).unwrap())
        });
    }

    // 2. In-process dynamic invocation (DII + marshalling).
    {
        let server = Orb::new("bench-inproc-server");
        let objref = server.activate("echo", echo()).unwrap();
        let client = Orb::new("bench-inproc-client");
        let proxy = client.proxy(&objref);
        group.bench_function("orb_inproc", |b| {
            b.iter(|| proxy.invoke(black_box("echo"), black_box(arg())).unwrap())
        });
    }

    // 3. Through a smart proxy (bound; measures interposition cost).
    {
        let infra = Infrastructure::in_process().unwrap();
        infra
            .spawn_server(ServerSpec::echo("BenchSvc", "bench-host"))
            .unwrap();
        let proxy = infra.smart_proxy("BenchSvc").build().unwrap();
        group.bench_function("smart_proxy", |b| {
            b.iter(|| proxy.invoke(black_box("echo"), black_box(arg())).unwrap())
        });
    }

    // 4. Script-implemented servant (interpreter on the server side).
    {
        let isolate = Isolate::new("bench-script", |_| {});
        let servant = ScriptServant::from_source(
            &isolate,
            "Echo",
            "return { echo = function(self, x) return x end }",
        )
        .unwrap();
        let server = Orb::new("bench-script-server");
        let objref = server.activate("echo", servant).unwrap();
        let client = Orb::new("bench-script-client");
        let proxy = client.proxy(&objref);
        group.bench_function("script_servant", |b| {
            b.iter(|| proxy.invoke(black_box("echo"), black_box(arg())).unwrap())
        });
    }

    // 5. Over TCP (loopback).
    {
        let server = Orb::new("bench-tcp-server");
        server.activate("echo", echo()).unwrap();
        let endpoint = server.listen_tcp("127.0.0.1:0").unwrap();
        let client = Orb::new("bench-tcp-client");
        let proxy = client.proxy(&adapta_orb::ObjRef::new(endpoint, "echo", "Echo"));
        group.bench_function("orb_tcp_loopback", |b| {
            b.iter(|| proxy.invoke(black_box("echo"), black_box(arg())).unwrap())
        });
    }

    // Marshalling alone, for scale.
    {
        let value = Value::map([
            ("s", Value::from("payload-string")),
            ("n", Value::Long(42)),
            ("seq", Value::Seq(vec![Value::Double(1.5); 8])),
        ]);
        group.bench_function("marshal_roundtrip", |b| {
            b.iter(|| {
                let bytes = adapta_orb::encode_value(black_box(&value));
                adapta_orb::decode_value(&bytes).unwrap()
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench_invocation);
criterion_main!(benches);
