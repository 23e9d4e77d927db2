//! One-call wiring of the whole infrastructure (Figure 6).
//!
//! [`Infrastructure`] hosts a trader, spawns servers — each with its own
//! broker node, simulated host, script state and Figure-3 load monitor,
//! announced by a [`ServiceAgent`](crate::ServiceAgent) — and builds
//! client [`SmartProxy`]s. Time is virtual ([`VirtualClock`]) so
//! examples and tests are deterministic: advance it with
//! [`Infrastructure::advance`], which also ticks every monitor.

use std::sync::Arc;
use std::time::Duration;

use adapta_idl::{InterfaceRepository, TypeCode, Value};
use adapta_monitor::{load_average_monitor, loadavg_reader, Monitor, MonitorHost};
use adapta_orb::{ObjRef, Orb, OrbError, Servant};
use adapta_sim::{SimHost, SimTime, VirtualClock};
use adapta_trading::{PropDef, PropMode, ServiceTypeDef, Trader, TradingError};
use parking_lot::Mutex;

use crate::agent::ServiceAgent;
use crate::script_env;
use crate::script_servant::ScriptServant;
use crate::smart_proxy::{SmartProxy, SmartProxyBuilder};
use crate::{CoreError, Result};

/// What a spawned server serves.
#[derive(Debug, Clone)]
pub enum ServerKind {
    /// `hello(who)`, `echo(x)`, `whoami()`, `work()`.
    Echo,
    /// An image server (the QuO-style example): `getImage(i)` returns a
    /// deterministic byte payload, `imageCount()` the number of images.
    Image {
        /// Number of images served.
        count: u32,
        /// Size of each image in bytes.
        size: u32,
    },
    /// A servant implemented in Rua: the source must return the method
    /// table.
    Script {
        /// Chunk evaluating to the servant table.
        source: String,
    },
}

/// Specification of a server to spawn.
#[derive(Debug, Clone)]
pub struct ServerSpec {
    /// Trading service type of the offer.
    pub service_type: String,
    /// Host (node) name; also the `Host` offer property.
    pub host_name: String,
    /// No-contention service time of the simulated host.
    pub base_service: Duration,
    /// The servant behaviour.
    pub kind: ServerKind,
    /// Extra static offer properties.
    pub static_props: Vec<(String, Value)>,
}

impl ServerSpec {
    /// An echo/HelloWorld server (the paper's first validation app).
    pub fn echo(service_type: impl Into<String>, host_name: impl Into<String>) -> Self {
        ServerSpec {
            service_type: service_type.into(),
            host_name: host_name.into(),
            base_service: Duration::from_millis(20),
            kind: ServerKind::Echo,
            static_props: Vec::new(),
        }
    }

    /// An image server (the paper's QuO-derived second app).
    pub fn image(
        service_type: impl Into<String>,
        host_name: impl Into<String>,
        count: u32,
        size: u32,
    ) -> Self {
        ServerSpec {
            service_type: service_type.into(),
            host_name: host_name.into(),
            base_service: Duration::from_millis(40),
            kind: ServerKind::Image { count, size },
            static_props: Vec::new(),
        }
    }

    /// A script-implemented server.
    pub fn script(
        service_type: impl Into<String>,
        host_name: impl Into<String>,
        source: impl Into<String>,
    ) -> Self {
        ServerSpec {
            service_type: service_type.into(),
            host_name: host_name.into(),
            base_service: Duration::from_millis(20),
            kind: ServerKind::Script {
                source: source.into(),
            },
            static_props: Vec::new(),
        }
    }

    /// Sets the host's no-contention service time.
    pub fn base_service(mut self, d: Duration) -> Self {
        self.base_service = d;
        self
    }

    /// Adds a static offer property.
    pub fn with_prop(mut self, name: impl Into<String>, value: Value) -> Self {
        self.static_props.push((name.into(), value));
        self
    }
}

/// A running server: its broker node, simulated host, monitor and agent.
#[derive(Clone)]
pub struct ServerHandle {
    service_type: String,
    orb: Orb,
    sim_host: SimHost,
    monitor_host: MonitorHost,
    monitor: Monitor,
    agent: Arc<ServiceAgent>,
    target: ObjRef,
    servant_key: String,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("host", &self.sim_host.name())
            .field("service_type", &self.service_type)
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// The simulated machine (inject background load here).
    pub fn sim_host(&self) -> &SimHost {
        &self.sim_host
    }

    /// The host's script state.
    pub fn monitor_host(&self) -> &MonitorHost {
        &self.monitor_host
    }

    /// The host's LoadAverage monitor (Figure 3).
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// The server's object reference.
    pub fn target(&self) -> &ObjRef {
        &self.target
    }

    /// The server's broker node.
    pub fn orb(&self) -> &Orb {
        &self.orb
    }

    /// The server's service agent.
    pub fn agent(&self) -> &ServiceAgent {
        &self.agent
    }

    /// Failure injection: deactivates the servant (the offer stays in
    /// the trader, as after a crash without cleanup).
    pub fn crash(&self) {
        self.orb.deactivate(&self.servant_key);
    }

    /// Withdraws the server's offers from the trader.
    pub fn withdraw(&self) {
        self.agent.withdraw_all();
    }
}

struct InfraInner {
    clock: VirtualClock,
    orb: Orb,
    trader: Trader,
    repo: InterfaceRepository,
    servers: Mutex<Vec<ServerHandle>>,
}

/// The assembled adaptation infrastructure (see the module docs above).
#[derive(Clone)]
pub struct Infrastructure {
    inner: Arc<InfraInner>,
}

impl std::fmt::Debug for Infrastructure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Infrastructure")
            .field("servers", &self.inner.servers.lock().len())
            .finish_non_exhaustive()
    }
}

impl Infrastructure {
    /// Creates an in-process infrastructure: one trader and virtual
    /// time (so tests and examples are deterministic).
    ///
    /// # Errors
    ///
    /// Currently infallible; `Result` reserves room for transports.
    pub fn in_process() -> Result<Infrastructure> {
        let orb = Orb::new("infra");
        let trader = Trader::new(&orb);
        let repo = InterfaceRepository::new();
        script_env::register_monitor_interfaces(&repo);
        Ok(Infrastructure {
            inner: Arc::new(InfraInner {
                clock: VirtualClock::new(),
                orb,
                trader,
                repo,
                servers: Mutex::new(Vec::new()),
            }),
        })
    }

    /// The infrastructure's virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.inner.clock
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        use adapta_sim::Clock as _;
        self.inner.clock.now()
    }

    /// The client-side broker node.
    pub fn orb(&self) -> &Orb {
        &self.inner.orb
    }

    /// The trader.
    pub fn trader(&self) -> &Trader {
        &self.inner.trader
    }

    /// The shared interface repository.
    pub fn repository(&self) -> &InterfaceRepository {
        &self.inner.repo
    }

    /// Advances virtual time by `d` and ticks every server's monitors
    /// at the new time (one monitoring cycle).
    pub fn advance(&self, d: Duration) {
        self.inner.clock.advance(d);
        let now = self.now();
        for server in self.inner.servers.lock().iter() {
            server.monitor_host.tick_all(now);
        }
    }

    /// Advances time in `step`-sized monitor cycles until `total` has
    /// elapsed (so load averages and events evolve realistically).
    pub fn advance_in_steps(&self, total: Duration, step: Duration) {
        let mut elapsed = Duration::ZERO;
        while elapsed < total {
            let d = step.min(total - elapsed);
            self.advance(d);
            elapsed += d;
        }
    }

    /// Ensures the service type exists with the standard load-sharing
    /// properties (`LoadAvg`, `LoadAvgIncreasing`, `Host`) plus one
    /// `any`-typed property per extra static property of the spec.
    ///
    /// The type is created by the *first* spawn; later spawns with new
    /// extra properties for the same type will be rejected by the
    /// trader's schema check (declare all properties on the first one).
    fn ensure_type(&self, spec: &ServerSpec) -> Result<()> {
        let mut def = ServiceTypeDef::new(&spec.service_type)
            .with_property(PropDef::new("LoadAvg", TypeCode::Double, PropMode::Normal))
            .with_property(PropDef::new(
                "LoadAvgIncreasing",
                TypeCode::Str,
                PropMode::Normal,
            ))
            .with_property(PropDef::new("Host", TypeCode::Str, PropMode::Readonly));
        for (name, _) in &spec.static_props {
            def = def.with_property(PropDef::new(name, TypeCode::Any, PropMode::Normal));
        }
        match self.inner.trader.add_type(def) {
            Ok(()) | Err(TradingError::DuplicateServiceType(_)) => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Spawns a server per `spec`: broker node, simulated host, script
    /// state with the Figure-3 LoadAverage monitor, servant, and the
    /// agent announcement with dynamic load properties.
    ///
    /// # Errors
    ///
    /// Broker, trading or script errors.
    pub fn spawn_server(&self, spec: ServerSpec) -> Result<ServerHandle> {
        self.ensure_type(&spec)?;
        let orb = Orb::new(&spec.host_name);
        let sim_host = SimHost::new(spec.host_name.as_str(), spec.base_service);
        let clock: Arc<dyn adapta_sim::Clock> = Arc::new(self.inner.clock.clone());
        let reader = loadavg_reader(sim_host.clone(), clock);
        let monitor_host = MonitorHost::with_setup(&spec.host_name, &orb, move |interp| {
            interp.set_reader(reader);
        });
        let monitor =
            load_average_monitor(&monitor_host).map_err(|e| CoreError::Script(e.to_string()))?;

        let servant_key = "service".to_owned();
        let target = match &spec.kind {
            ServerKind::Echo => {
                let host = sim_host.clone();
                let clock = self.inner.clock.clone();
                orb.activate(
                    &servant_key,
                    echo_servant(spec.service_type.clone(), host, clock),
                )?
            }
            ServerKind::Image { count, size } => {
                let host = sim_host.clone();
                let clock = self.inner.clock.clone();
                orb.activate(
                    &servant_key,
                    image_servant(spec.service_type.clone(), host, clock, *count, *size),
                )?
            }
            ServerKind::Script { source } => {
                let servant =
                    ScriptServant::from_source(monitor_host.actor(), &spec.service_type, source)
                        .map_err(|e| CoreError::Script(e.to_string()))?;
                orb.activate(&servant_key, servant)?
            }
        };

        let agent = Arc::new(ServiceAgent::new(&orb, Arc::new(self.inner.trader.clone())));
        let mut props = vec![("Host".to_owned(), Value::from(spec.host_name.as_str()))];
        props.extend(spec.static_props.clone());
        agent.announce_load_monitored(&spec.service_type, target.clone(), &monitor, props)?;

        // Prime the monitor so the offer's dynamic properties have
        // values before the first query.
        monitor.tick(self.now());
        let handle = ServerHandle {
            service_type: spec.service_type,
            orb,
            sim_host,
            monitor_host,
            monitor,
            agent,
            target,
            servant_key,
        };
        self.inner.servers.lock().push(handle.clone());
        Ok(handle)
    }

    /// The spawned servers.
    pub fn servers(&self) -> Vec<ServerHandle> {
        self.inner.servers.lock().clone()
    }

    /// Finds a server by host name.
    pub fn server(&self, host_name: &str) -> Option<ServerHandle> {
        self.inner
            .servers
            .lock()
            .iter()
            .find(|s| s.sim_host.name() == host_name)
            .cloned()
    }

    /// Sets a host's background load at the current virtual time.
    pub fn set_background(&self, host_name: &str, jobs: f64) {
        if let Some(server) = self.server(host_name) {
            server.sim_host.set_background(self.now(), jobs);
        }
    }

    /// Starts building a smart proxy for a service type.
    pub fn smart_proxy(&self, service_type: impl Into<String>) -> SmartProxyBuilder {
        SmartProxy::builder(
            &self.inner.orb,
            &self.inner.repo,
            Arc::new(self.inner.trader.clone()),
            service_type,
        )
    }
}

/// Records a request on the simulated host and returns its (virtual)
/// service time; servants use it so host load reflects traffic.
fn record_request(host: &SimHost, clock: &VirtualClock) -> Duration {
    use adapta_sim::Clock as _;
    host.serve_instant(clock.now())
}

fn echo_servant(interface: String, host: SimHost, clock: VirtualClock) -> impl Servant + 'static {
    adapta_orb::ServantFn::new(interface.clone(), move |op, args| match op {
        "hello" => {
            record_request(&host, &clock);
            Ok(Value::from(format!(
                "hello, {}",
                args.first().and_then(Value::as_str).unwrap_or("world")
            )))
        }
        "echo" => {
            record_request(&host, &clock);
            Ok(args.into_iter().next().unwrap_or(Value::Null))
        }
        "whoami" => Ok(Value::from(host.name())),
        "work" => {
            let st = record_request(&host, &clock);
            Ok(Value::from(st.as_secs_f64()))
        }
        other => Err(OrbError::unknown_operation(&interface, other)),
    })
}

fn image_servant(
    interface: String,
    host: SimHost,
    clock: VirtualClock,
    count: u32,
    size: u32,
) -> impl Servant + 'static {
    adapta_orb::ServantFn::new(interface.clone(), move |op, args| match op {
        "imageCount" => Ok(Value::Long(count as i64)),
        "getImage" => {
            record_request(&host, &clock);
            let idx = args.first().and_then(Value::as_long).unwrap_or(0) as u32;
            if idx >= count {
                return Err(OrbError::exception(format!(
                    "image index {idx} out of range 0..{count}"
                )));
            }
            // Deterministic synthetic payload: the byte stream is a
            // function of (index, position), so clients can checksum it.
            let bytes: Vec<u8> = (0..size)
                .map(|i| (i.wrapping_mul(31).wrapping_add(idx * 7) & 0xff) as u8)
                .collect();
            Ok(Value::Bytes(bytes.into()))
        }
        "whoami" => Ok(Value::from(host.name())),
        other => Err(OrbError::unknown_operation(&interface, other)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_shape_works() {
        let infra = Infrastructure::in_process().unwrap();
        for name in ["qs-hostA", "qs-hostB"] {
            infra
                .spawn_server(ServerSpec::echo("HelloService", name))
                .unwrap();
        }
        let proxy = infra
            .smart_proxy("HelloService")
            .constraint("LoadAvg < 50")
            .preference("min LoadAvg")
            .build()
            .unwrap();
        let reply = proxy.invoke("hello", vec![Value::from("world")]).unwrap();
        assert_eq!(reply, Value::from("hello, world"));
    }

    #[test]
    fn selection_prefers_least_loaded_host() {
        let infra = Infrastructure::in_process().unwrap();
        infra
            .spawn_server(ServerSpec::echo("Svc", "sel-busy"))
            .unwrap();
        infra
            .spawn_server(ServerSpec::echo("Svc", "sel-idle"))
            .unwrap();
        infra.set_background("sel-busy", 8.0);
        // Let load averages absorb the background difference.
        infra.advance_in_steps(Duration::from_secs(120), Duration::from_secs(30));
        let proxy = infra
            .smart_proxy("Svc")
            .preference("min LoadAvg")
            .build()
            .unwrap();
        let who = proxy.invoke("whoami", vec![]).unwrap();
        assert_eq!(who, Value::from("sel-idle"));
    }

    #[test]
    fn fallback_query_kicks_in_when_constraint_excludes_all() {
        let infra = Infrastructure::in_process().unwrap();
        infra
            .spawn_server(ServerSpec::echo("Svc2", "fb-only"))
            .unwrap();
        infra.set_background("fb-only", 9.0);
        infra.advance_in_steps(Duration::from_secs(300), Duration::from_secs(30));
        // Constraint excludes the only host; the relaxed query binds it
        // anyway (paper Section V).
        let proxy = infra
            .smart_proxy("Svc2")
            .constraint("LoadAvg < 0.5")
            .preference("min LoadAvg")
            .build()
            .unwrap();
        assert!(proxy.current_target().is_some());
    }

    #[test]
    fn no_servers_means_no_suitable_offer() {
        let infra = Infrastructure::in_process().unwrap();
        infra
            .trader()
            .add_type(ServiceTypeDef::new("Ghost"))
            .unwrap();
        let err = infra.smart_proxy("Ghost").build().unwrap_err();
        assert!(matches!(err, CoreError::NoSuitableOffer { .. }));
        // Lazy build defers the error to the first invocation.
        let proxy = infra.smart_proxy("Ghost").lazy().build().unwrap();
        assert!(matches!(
            proxy.invoke("op", vec![]),
            Err(CoreError::Unbound(_))
        ));
    }

    #[test]
    fn crash_triggers_failover_to_another_server() {
        let infra = Infrastructure::in_process().unwrap();
        let a = infra
            .spawn_server(ServerSpec::echo("FSvc", "fo-a"))
            .unwrap();
        infra
            .spawn_server(ServerSpec::echo("FSvc", "fo-b"))
            .unwrap();
        let proxy = infra
            .smart_proxy("FSvc")
            .preference("with Host == 'fo-a'")
            .build()
            .unwrap();
        assert_eq!(proxy.invoke("whoami", vec![]).unwrap(), Value::from("fo-a"));
        a.crash();
        // Next invocation fails over.
        let who = proxy.invoke("whoami", vec![]).unwrap();
        assert_eq!(who, Value::from("fo-b"));
        assert_eq!(proxy.failovers(), 1);
        assert!(proxy.rebinds() >= 2);
    }

    #[test]
    fn image_server_serves_deterministic_payloads() {
        let infra = Infrastructure::in_process().unwrap();
        infra
            .spawn_server(ServerSpec::image("ImageService", "img-1", 3, 256))
            .unwrap();
        let proxy = infra.smart_proxy("ImageService").build().unwrap();
        assert_eq!(proxy.invoke("imageCount", vec![]).unwrap(), Value::Long(3));
        let img = proxy.invoke("getImage", vec![Value::Long(1)]).unwrap();
        let bytes = img.as_bytes().unwrap();
        assert_eq!(bytes.len(), 256);
        // Same request, same payload.
        let again = proxy.invoke("getImage", vec![Value::Long(1)]).unwrap();
        assert_eq!(img, again);
        assert!(proxy.invoke("getImage", vec![Value::Long(99)]).is_err());
    }

    #[test]
    fn script_server_spec_works() {
        let infra = Infrastructure::in_process().unwrap();
        infra
            .spawn_server(ServerSpec::script(
                "ScriptedSvc",
                "scr-1",
                r#"return { greet = function(self, who) return "oi " .. who end }"#,
            ))
            .unwrap();
        let proxy = infra.smart_proxy("ScriptedSvc").build().unwrap();
        assert_eq!(
            proxy.invoke("greet", vec![Value::from("ana")]).unwrap(),
            Value::from("oi ana")
        );
    }

    #[test]
    fn requests_feed_host_load() {
        let infra = Infrastructure::in_process().unwrap();
        let server = infra
            .spawn_server(ServerSpec::echo("LoadSvc", "load-1"))
            .unwrap();
        let proxy = infra.smart_proxy("LoadSvc").build().unwrap();
        for _ in 0..5 {
            proxy.invoke("hello", vec![Value::from("x")]).unwrap();
        }
        assert_eq!(server.sim_host().total_requests(), 5);
    }
}
