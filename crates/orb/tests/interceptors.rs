//! Integration tests for the request-interceptor mechanism (the
//! Portable Interceptor analogue of the paper's Section VI).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use adapta_idl::Value;
use adapta_orb::{
    ClientAction, ClientInterceptor, ClientInterceptorFn, ClientRequestInfo, ObjRef, Orb, OrbError,
    ServantFn, ServerAction, ServerInterceptorFn,
};

fn named_servant(name: &'static str) -> ServantFn {
    ServantFn::new("Svc", move |op, _args| match op {
        "whoami" => Ok(Value::from(name)),
        other => Err(OrbError::unknown_operation("Svc", other)),
    })
}

#[test]
fn client_interceptor_redirects_standard_proxies() {
    let server = Orb::new("icpt-redir-server");
    let a = server.activate("a", named_servant("A")).unwrap();
    let b = server.activate("b", named_servant("B")).unwrap();

    let client = Orb::new("icpt-redir-client");
    let b_for_move = b.clone();
    client.add_client_interceptor(ClientInterceptorFn(move |info: &ClientRequestInfo<'_>| {
        // Forward everything aimed at `a` to `b` — the location-forward
        // adaptation idiom, invisible to the application.
        if info.target.key == "a" {
            ClientAction::Redirect(b_for_move.clone())
        } else {
            ClientAction::Proceed
        }
    }));

    // The application uses a *plain* proxy — no smart proxy involved.
    let proxy = client.proxy(&a);
    assert_eq!(proxy.invoke("whoami", vec![]).unwrap(), Value::from("B"));
    // Direct calls to b are untouched.
    assert_eq!(
        client.proxy(&b).invoke("whoami", vec![]).unwrap(),
        Value::from("B")
    );
}

#[test]
fn client_interceptor_can_abort() {
    let server = Orb::new("icpt-abort-server");
    let target = server.activate("a", named_servant("A")).unwrap();
    let client = Orb::new("icpt-abort-client");
    client.add_client_interceptor(ClientInterceptorFn(|info: &ClientRequestInfo<'_>| {
        if info.operation == "forbidden" {
            ClientAction::Abort("operation vetoed by policy".into())
        } else {
            ClientAction::Proceed
        }
    }));
    let proxy = client.proxy(&target);
    assert_eq!(proxy.invoke("whoami", vec![]).unwrap(), Value::from("A"));
    let err = proxy.invoke("forbidden", vec![]).unwrap_err();
    assert!(err.to_string().contains("vetoed"));
}

#[test]
fn redirect_loops_are_cut() {
    let server = Orb::new("icpt-loop-server");
    let a = server.activate("a", named_servant("A")).unwrap();
    let client = Orb::new("icpt-loop-client");
    let a_for_move = a.clone();
    client.add_client_interceptor(ClientInterceptorFn(move |_: &ClientRequestInfo<'_>| {
        // Pathological: always redirect (even to the same target).
        ClientAction::Redirect(a_for_move.clone())
    }));
    let err = client.proxy(&a).invoke("whoami", vec![]).unwrap_err();
    assert!(err.to_string().contains("redirected"));
}

#[test]
fn receive_reply_observes_outcomes() {
    struct Recorder {
        ok: Arc<AtomicU64>,
        err: Arc<AtomicU64>,
    }
    impl ClientInterceptor for Recorder {
        fn send_request(&self, _: &ClientRequestInfo<'_>) -> ClientAction {
            ClientAction::Proceed
        }
        fn receive_reply(&self, _: &ClientRequestInfo<'_>, outcome: &Result<Value, OrbError>) {
            match outcome {
                Ok(_) => self.ok.fetch_add(1, Ordering::Relaxed),
                Err(_) => self.err.fetch_add(1, Ordering::Relaxed),
            };
        }
    }
    let server = Orb::new("icpt-reply-server");
    let target = server.activate("a", named_servant("A")).unwrap();
    let client = Orb::new("icpt-reply-client");
    let ok = Arc::new(AtomicU64::new(0));
    let err_count = Arc::new(AtomicU64::new(0));
    client.add_client_interceptor(Recorder {
        ok: ok.clone(),
        err: err_count.clone(),
    });
    let proxy = client.proxy(&target);
    proxy.invoke("whoami", vec![]).unwrap();
    let _ = proxy.invoke("nope", vec![]);
    assert_eq!(ok.load(Ordering::Relaxed), 1);
    assert_eq!(err_count.load(Ordering::Relaxed), 1);
}

#[test]
fn server_interceptor_rejects_requests() {
    let server = Orb::new("icpt-srv-server");
    let target = server.activate("a", named_servant("A")).unwrap();
    server.add_server_interceptor(ServerInterceptorFn(
        |info: &adapta_orb::ServerRequestInfo<'_>| {
            if info.operation.starts_with('_') && info.key != "_naming" {
                ServerAction::Abort("private operations are not remotely callable".into())
            } else {
                ServerAction::Proceed
            }
        },
    ));
    let client = Orb::new("icpt-srv-client");
    let proxy = client.proxy(&target);
    assert_eq!(proxy.invoke("whoami", vec![]).unwrap(), Value::from("A"));
    let err = proxy.invoke("_internal", vec![]).unwrap_err();
    assert!(matches!(err, OrbError::RemoteException { message } if message.contains("private")));
}

#[test]
fn interceptors_apply_to_oneway_too() {
    let server = Orb::new("icpt-ow-server");
    let hits = Arc::new(AtomicU64::new(0));
    let hits_clone = hits.clone();
    let real = server
        .activate(
            "real",
            ServantFn::new("Sink", move |_, _| {
                hits_clone.fetch_add(1, Ordering::Relaxed);
                Ok(Value::Null)
            }),
        )
        .unwrap();
    let decoy = ObjRef::new(server.endpoint(), "missing", "Sink");

    let client = Orb::new("icpt-ow-client");
    let real_for_move = real.clone();
    client.add_client_interceptor(ClientInterceptorFn(move |info: &ClientRequestInfo<'_>| {
        assert!(info.oneway || info.operation != "drop");
        if info.target.key == "missing" {
            ClientAction::Redirect(real_for_move.clone())
        } else {
            ClientAction::Proceed
        }
    }));
    client.invoke_oneway_ref(&decoy, "drop", vec![]).unwrap();
    assert_eq!(hits.load(Ordering::Relaxed), 1);
}

#[test]
fn interceptor_chain_runs_in_order() {
    let server = Orb::new("icpt-order-server");
    let target = server.activate("a", named_servant("A")).unwrap();
    let client = Orb::new("icpt-order-client");
    let log = Arc::new(parking_lot_mutex());
    for tag in ["first", "second"] {
        let log = log.clone();
        client.add_client_interceptor(ClientInterceptorFn(move |_: &ClientRequestInfo<'_>| {
            log.lock().unwrap().push(tag);
            ClientAction::Proceed
        }));
    }
    client.proxy(&target).invoke("whoami", vec![]).unwrap();
    assert_eq!(log.lock().unwrap().as_slice(), &["first", "second"]);
}

fn parking_lot_mutex() -> std::sync::Mutex<Vec<&'static str>> {
    std::sync::Mutex::new(Vec::new())
}

#[test]
fn redirect_restarts_chain_so_later_abort_sees_new_target() {
    // CORBA forward semantics: a redirect restarts the chain on the new
    // target, so an abort rule matching the *redirected* destination
    // still fires — adaptation cannot be used to smuggle a request past
    // a policy interceptor registered after it.
    let server = Orb::new("icpt-ra-server");
    let a = server.activate("a", named_servant("A")).unwrap();
    let b = server.activate("b", named_servant("B")).unwrap();
    let client = Orb::new("icpt-ra-client");
    let b_for_move = b.clone();
    client.add_client_interceptor(ClientInterceptorFn(move |info: &ClientRequestInfo<'_>| {
        if info.target.key == "a" {
            ClientAction::Redirect(b_for_move.clone())
        } else {
            ClientAction::Proceed
        }
    }));
    client.add_client_interceptor(ClientInterceptorFn(|info: &ClientRequestInfo<'_>| {
        if info.target.key == "b" {
            ClientAction::Abort("b is quarantined".into())
        } else {
            ClientAction::Proceed
        }
    }));
    // a → redirected to b → chain restarts → abort fires on b.
    let err = client.proxy(&a).invoke("whoami", vec![]).unwrap_err();
    assert!(err.to_string().contains("quarantined"), "{err}");
}

#[test]
fn observe_hook_spans_nest_under_the_client_span() {
    use adapta_orb::TimingObserver;
    use adapta_telemetry::collector;

    let server = Orb::new("icpt-span-server");
    let target = server.activate("a", named_servant("A")).unwrap();
    let client = Orb::new("icpt-span-client");
    client.add_client_interceptor(TimingObserver::new("icpt-span"));
    client.proxy(&target).invoke("whoami", vec![]).unwrap();

    let finished = collector().finished();
    let observe = finished
        .iter()
        .find(|s| s.name == "observe:icpt-span")
        .expect("observe span recorded");
    assert!(observe
        .attrs
        .iter()
        .any(|(k, v)| k == "operation" && v == "whoami"));
    assert!(observe.attrs.iter().any(|(k, v)| k == "ok" && v == "true"));
    // The reply hook ran while the invocation's client span was still
    // open, so its span is a child of `client:whoami`, same trace.
    let parent = observe.parent.expect("observe span has a parent");
    let client_span = finished
        .iter()
        .find(|s| s.span == parent)
        .expect("parent span retained");
    assert_eq!(client_span.name, "client:whoami");
    assert_eq!(client_span.trace, observe.trace);
}
