//! Request interceptors — the Portable Interceptor analogue.
//!
//! The paper's Section VI: "We are integrating LuaCorba with the
//! Portable Interceptor mechanism specified by CORBA. With this
//! integration, we will be able to … use them, instead of the smart
//! proxy mechanism, to apply the adaptation strategies supported by our
//! infrastructure. The use of the CORBA interceptor mechanism will
//! allow us to plug our dynamic adaptation support into standard CORBA
//! applications." This module implements that ongoing work.
//!
//! * **Client interceptors** see every outgoing two-way request and may
//!   observe it, *redirect* it to a different object (the
//!   location-forward adaptation idiom), or *abort* it with an error.
//! * **Server interceptors** see every locally dispatched request and
//!   may observe or abort it (admission control, accounting).
//!
//! Unlike smart proxies, interceptors apply to *plain* proxies — code
//! that knows nothing about adaptation — which is exactly the paper's
//! point: adaptation plugs into standard applications.

use std::time::Instant;

use adapta_idl::Value;
use adapta_telemetry::{registry, Counter, HistogramHandle, Span};

use crate::error::OrbError;
use crate::reference::ObjRef;

/// What a client interceptor decides about an outgoing request.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientAction {
    /// Send the request unchanged.
    Proceed,
    /// Send the request to a different object (location forward).
    Redirect(ObjRef),
    /// Fail the invocation locally with this error message.
    Abort(String),
}

/// What a server interceptor decides about an incoming request.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerAction {
    /// Dispatch normally.
    Proceed,
    /// Reject with an application exception.
    Abort(String),
}

/// An outgoing-request view passed to client interceptors.
#[derive(Debug)]
pub struct ClientRequestInfo<'a> {
    /// The invocation target (after earlier interceptors' redirects).
    pub target: &'a ObjRef,
    /// The operation name.
    pub operation: &'a str,
    /// The argument list.
    pub args: &'a [Value],
    /// Whether the request is oneway.
    pub oneway: bool,
}

/// An incoming-request view passed to server interceptors.
#[derive(Debug)]
pub struct ServerRequestInfo<'a> {
    /// The target object key.
    pub key: &'a str,
    /// The operation name.
    pub operation: &'a str,
    /// The argument list.
    pub args: &'a [Value],
}

/// A client-side request interceptor.
pub trait ClientInterceptor: Send + Sync {
    /// Inspects an outgoing request before it is sent.
    fn send_request(&self, info: &ClientRequestInfo<'_>) -> ClientAction;

    /// Observes the reply (or error) of a two-way request.
    fn receive_reply(&self, _info: &ClientRequestInfo<'_>, _outcome: &Result<Value, OrbError>) {}
}

/// A server-side request interceptor.
pub trait ServerInterceptor: Send + Sync {
    /// Inspects an incoming request before dispatch.
    fn receive_request(&self, info: &ServerRequestInfo<'_>) -> ServerAction;
}

/// A closure-backed client interceptor.
pub struct ClientInterceptorFn<F>(pub F);

impl<F> ClientInterceptor for ClientInterceptorFn<F>
where
    F: Fn(&ClientRequestInfo<'_>) -> ClientAction + Send + Sync,
{
    fn send_request(&self, info: &ClientRequestInfo<'_>) -> ClientAction {
        (self.0)(info)
    }
}

/// A closure-backed server interceptor.
pub struct ServerInterceptorFn<F>(pub F);

impl<F> ServerInterceptor for ServerInterceptorFn<F>
where
    F: Fn(&ServerRequestInfo<'_>) -> ServerAction + Send + Sync,
{
    fn receive_request(&self, info: &ServerRequestInfo<'_>) -> ServerAction {
        (self.0)(info)
    }
}

/// An observe-only client interceptor recording request round-trip
/// times into the telemetry registry and span collector.
///
/// At `send_request` it notes the time; at `receive_reply` it records
/// the elapsed duration into the histogram
/// `interceptor.<name>.latency`, counts
/// `interceptor.<name>.replies` / `interceptor.<name>.errors`, and
/// emits an `observe:<name>` span carrying the measured time — nested
/// under the invocation's client span, which is still active when
/// reply interceptors run.
///
/// Start times are kept per thread as a stack, so nested invocations
/// (a servant calling out mid-dispatch on the same thread) pair up
/// LIFO. Redirect rounds re-enter `send_request`, so the popped entry
/// times the request as actually sent after the final redirect.
pub struct TimingObserver {
    /// `<name>`: the spans it emits are named `observe:<name>`.
    name: String,
    latency: HistogramHandle,
    replies: Counter,
    errors: Counter,
    starts: std::sync::Mutex<std::collections::HashMap<std::thread::ThreadId, Vec<Instant>>>,
}

impl TimingObserver {
    /// Creates an observer publishing under `interceptor.<name>.*`.
    pub fn new(name: &str) -> TimingObserver {
        TimingObserver {
            name: name.to_owned(),
            latency: registry().histogram(&format!("interceptor.{name}.latency")),
            replies: registry().counter(&format!("interceptor.{name}.replies")),
            errors: registry().counter(&format!("interceptor.{name}.errors")),
            starts: std::sync::Mutex::new(std::collections::HashMap::new()),
        }
    }

    fn stack(
        &self,
    ) -> std::sync::MutexGuard<'_, std::collections::HashMap<std::thread::ThreadId, Vec<Instant>>>
    {
        self.starts
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl ClientInterceptor for TimingObserver {
    fn send_request(&self, info: &ClientRequestInfo<'_>) -> ClientAction {
        if !info.oneway {
            self.stack()
                .entry(std::thread::current().id())
                .or_default()
                .push(Instant::now());
        }
        ClientAction::Proceed
    }

    fn receive_reply(&self, info: &ClientRequestInfo<'_>, outcome: &Result<Value, OrbError>) {
        let started = {
            let mut stacks = self.stack();
            let Some(stack) = stacks.get_mut(&std::thread::current().id()) else {
                return;
            };
            // LIFO pairing: nested invocations pop their own entry
            // first. After redirects the popped entry is the one from
            // the final chain round, timing the request actually sent.
            match stack.pop() {
                Some(t) => t,
                None => return,
            }
        };
        let elapsed = started.elapsed();
        self.latency.record(elapsed);
        self.replies.incr();
        if outcome.is_err() {
            self.errors.incr();
        }
        let mut span = Span::start(("observe:", self.name.as_str()));
        span.attr("operation", info.operation);
        span.attr("elapsed_us", elapsed.as_micros() as u64);
        span.attr("ok", outcome.is_ok());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_interceptors_adapt() {
        let ci = ClientInterceptorFn(|info: &ClientRequestInfo<'_>| {
            if info.operation == "blocked" {
                ClientAction::Abort("blocked by policy".into())
            } else {
                ClientAction::Proceed
            }
        });
        let target = ObjRef::new("inproc://x", "k", "T");
        let info = ClientRequestInfo {
            target: &target,
            operation: "blocked",
            args: &[],
            oneway: false,
        };
        assert_eq!(
            ci.send_request(&info),
            ClientAction::Abort("blocked by policy".into())
        );

        let si = ServerInterceptorFn(|info: &ServerRequestInfo<'_>| {
            if info.args.len() > 2 {
                ServerAction::Abort("too many arguments".into())
            } else {
                ServerAction::Proceed
            }
        });
        let info = ServerRequestInfo {
            key: "k",
            operation: "op",
            args: &[Value::Null, Value::Null, Value::Null],
        };
        assert_eq!(
            si.receive_request(&info),
            ServerAction::Abort("too many arguments".into())
        );
    }
}
