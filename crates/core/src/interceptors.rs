//! Adaptation through request interceptors — the paper's ongoing work
//! (Section VI), completed.
//!
//! "We are integrating LuaCorba with the Portable Interceptor mechanism
//! specified by CORBA. … use them, instead of the smart proxy
//! mechanism, to apply the adaptation strategies supported by our
//! infrastructure. The use of the CORBA interceptor mechanism will
//! allow us to plug our dynamic adaptation support into standard CORBA
//! applications."
//!
//! [`AdaptiveRedirect`] is a client interceptor that watches plain
//! invocations of a service type and transparently *location-forwards*
//! them to the component currently preferred by the trader. The
//! application uses ordinary [`Proxy`](adapta_orb::Proxy) objects and
//! never learns it is being adapted — the difference from the smart
//! proxy is exactly the one the paper describes: no special proxy
//! object is needed on the client.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use adapta_orb::{ClientAction, ClientInterceptor, ClientRequestInfo, ObjRef, Orb};
use adapta_trading::{Query, TradingService};
use parking_lot::Mutex;

/// A trader-driven redirecting interceptor for one service type.
///
/// Every `refresh_every` intercepted requests (default: 1, i.e. each
/// request) the interceptor re-queries the trader and caches the best
/// offer; requests aimed at *any* object of the service type are
/// forwarded to the cached best component when it differs.
pub struct AdaptiveRedirect {
    trader: Arc<dyn TradingService>,
    service_type: String,
    constraint: String,
    preference: String,
    refresh_every: u64,
    counter: AtomicU64,
    cached: Mutex<Option<ObjRef>>,
    redirects: AtomicU64,
}

impl std::fmt::Debug for AdaptiveRedirect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptiveRedirect")
            .field("service_type", &self.service_type)
            .field("constraint", &self.constraint)
            .finish_non_exhaustive()
    }
}

impl AdaptiveRedirect {
    /// Creates the interceptor for `service_type`, selecting with the
    /// given constraint and preference.
    pub fn new(
        trader: Arc<dyn TradingService>,
        service_type: impl Into<String>,
        constraint: impl Into<String>,
        preference: impl Into<String>,
    ) -> Self {
        AdaptiveRedirect {
            trader,
            service_type: service_type.into(),
            constraint: constraint.into(),
            preference: preference.into(),
            refresh_every: 1,
            counter: AtomicU64::new(0),
            cached: Mutex::new(None),
            redirects: AtomicU64::new(0),
        }
    }

    /// Re-query the trader only every `n` intercepted requests
    /// (amortising query cost on hot paths).
    pub fn refresh_every(mut self, n: u64) -> Self {
        self.refresh_every = n.max(1);
        self
    }

    /// Installs the interceptor on an orb (convenience; equivalent to
    /// `orb.add_client_interceptor(self)`).
    pub fn install(self, orb: &Orb) -> Arc<Self> {
        let this = Arc::new(self);
        orb.add_client_interceptor(HandleFor(this.clone()));
        this
    }

    /// How many requests were forwarded to a different component.
    pub fn redirects(&self) -> u64 {
        self.redirects.load(Ordering::Relaxed)
    }

    fn best_target(&self) -> Option<ObjRef> {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        if n.is_multiple_of(self.refresh_every) {
            let q = Query::new(&self.service_type)
                .constraint(&self.constraint)
                .preference(&self.preference)
                .return_card(1);
            if let Ok(matches) = self.trader.query(&q) {
                *self.cached.lock() = matches.first().map(|m| m.target.clone());
            }
        }
        self.cached.lock().clone()
    }
}

/// Wrapper so an `Arc<AdaptiveRedirect>` can be registered (keeping a
/// handle to read [`AdaptiveRedirect::redirects`] afterwards).
struct HandleFor(Arc<AdaptiveRedirect>);

impl ClientInterceptor for HandleFor {
    fn send_request(&self, info: &ClientRequestInfo<'_>) -> ClientAction {
        self.0.send_request(info)
    }
}

impl ClientInterceptor for AdaptiveRedirect {
    fn send_request(&self, info: &ClientRequestInfo<'_>) -> ClientAction {
        if info.target.type_id != self.service_type {
            return ClientAction::Proceed;
        }
        match self.best_target() {
            Some(best) if best != *info.target => {
                self.redirects.fetch_add(1, Ordering::Relaxed);
                ClientAction::Redirect(best)
            }
            _ => ClientAction::Proceed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infra::{Infrastructure, ServerSpec};
    use adapta_idl::Value;
    use std::time::Duration;

    #[test]
    fn standard_proxies_get_adapted_transparently() {
        let infra = Infrastructure::in_process().unwrap();
        let a = infra
            .spawn_server(ServerSpec::echo("IcptSvc", "icpt-a"))
            .unwrap();
        infra
            .spawn_server(ServerSpec::echo("IcptSvc", "icpt-b"))
            .unwrap();

        let handle = AdaptiveRedirect::new(
            Arc::new(infra.trader().clone()),
            "IcptSvc",
            "LoadAvg < 3 and LoadAvgIncreasing == no",
            "min LoadAvg",
        )
        .install(infra.orb());

        // The application holds a completely ordinary proxy to `a`.
        let plain = infra.orb().proxy(a.target());
        assert_eq!(
            plain.invoke("whoami", vec![]).unwrap(),
            Value::from("icpt-a")
        );

        // a gets overloaded; the *same plain proxy* now lands on b.
        infra.set_background("icpt-a", 6.0);
        infra.advance_in_steps(Duration::from_secs(180), Duration::from_secs(30));
        assert_eq!(
            plain.invoke("whoami", vec![]).unwrap(),
            Value::from("icpt-b")
        );
        assert!(handle.redirects() > 0);
    }

    #[test]
    fn other_service_types_are_untouched() {
        let infra = Infrastructure::in_process().unwrap();
        infra
            .spawn_server(ServerSpec::echo("Adapted", "u-a"))
            .unwrap();
        let other = infra
            .spawn_server(ServerSpec::echo("Plain", "u-b"))
            .unwrap();
        AdaptiveRedirect::new(
            Arc::new(infra.trader().clone()),
            "Adapted",
            "",
            "min LoadAvg",
        )
        .install(infra.orb());
        let proxy = infra.orb().proxy(other.target());
        assert_eq!(proxy.invoke("whoami", vec![]).unwrap(), Value::from("u-b"));
    }

    #[test]
    fn refresh_every_amortises_queries() {
        let infra = Infrastructure::in_process().unwrap();
        let a = infra
            .spawn_server(ServerSpec::echo("AmortSvc", "am-a"))
            .unwrap();
        let q0 = infra.trader().query_count();
        AdaptiveRedirect::new(
            Arc::new(infra.trader().clone()),
            "AmortSvc",
            "",
            "min LoadAvg",
        )
        .refresh_every(10)
        .install(infra.orb());
        let proxy = infra.orb().proxy(a.target());
        for _ in 0..20 {
            proxy.invoke("whoami", vec![]).unwrap();
        }
        let queries = infra.trader().query_count() - q0;
        assert!(queries <= 3, "expected ~2 refresh queries, got {queries}");
    }
}
