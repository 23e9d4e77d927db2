//! Service agents: the server-side element announcing offers.
//!
//! "Service agents are the elements responsible for announcing service
//! offers to a trader. Besides managing the service offers of one or
//! more server components, these service agents — typically implemented
//! as Lua scripts — can create new monitors or configure existing ones."
//! (Section IV.) [`ServiceAgent`] provides that role natively, including
//! the standard wiring of a host's load monitor into an offer's dynamic
//! properties; script-driven agents use
//! [`MonitorHost::eval`](adapta_monitor::MonitorHost::eval) plus
//! [`announce`](ServiceAgent::announce).

use std::sync::Arc;

use adapta_idl::Value;
use adapta_monitor::{Monitor, MonitorServant};
use adapta_orb::{ObjRef, Orb};
use adapta_trading::{ExportRequest, OfferId, TradingService};
use parking_lot::Mutex;

use crate::Result;

/// Announces and manages the offers of one or more server components.
///
/// Offers exported through an agent are withdrawn when the agent is
/// dropped — and when the agent's orb [shuts down](Orb::shutdown), so a
/// gracefully stopping node disappears from the trader before its
/// transports close.
pub struct ServiceAgent {
    orb: Orb,
    trader: Arc<dyn TradingService>,
    offers: Arc<Mutex<Vec<OfferId>>>,
    /// The servant reference of each monitor announced, so every offer
    /// of one monitor names it by one reference.
    monitors: Mutex<Vec<(Monitor, ObjRef)>>,
}

impl std::fmt::Debug for ServiceAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceAgent")
            .field("offers", &self.offers.lock().len())
            .finish_non_exhaustive()
    }
}

impl ServiceAgent {
    /// Creates an agent exporting through `trader` and serving monitors
    /// on `orb`.
    pub fn new(orb: &Orb, trader: Arc<dyn TradingService>) -> Self {
        let offers = Arc::new(Mutex::new(Vec::new()));
        // Withdraw this node's offers during graceful shutdown, in the
        // hook window where outbound invocations (to a remote trader)
        // still work.
        let hook_offers = Arc::downgrade(&offers);
        let hook_trader = trader.clone();
        orb.on_shutdown(move || {
            let Some(offers) = hook_offers.upgrade() else {
                return;
            };
            let ids: Vec<OfferId> = std::mem::take(&mut *offers.lock());
            for id in ids {
                let _ = hook_trader.withdraw(&id);
            }
        });
        ServiceAgent {
            orb: orb.clone(),
            trader,
            offers,
            monitors: Mutex::default(),
        }
    }

    /// Exports an offer and tracks it for withdrawal.
    ///
    /// # Errors
    ///
    /// Trading schema errors.
    pub fn announce(&self, request: ExportRequest) -> Result<OfferId> {
        let id = self.trader.export(request)?;
        self.offers.lock().push(id.clone());
        Ok(id)
    }

    /// The standard load-monitored announcement used by the paper's
    /// example: export `target` with the dynamic properties `LoadAvg`
    /// (the host's 1-minute load average) and `LoadAvgIncreasing`
    /// (`"yes"`/`"no"`), both evaluated by `monitor`, plus any static
    /// properties.
    ///
    /// The scalar `LoadAvg` and `LoadAvgIncreasing` aspects are defined
    /// on the monitor at its first announce (natively, so agents work
    /// with any monitor whose property is either the Figure-3 three-tuple
    /// or a plain number), which also activates its servant; every later
    /// offer of the monitor names that one servant.
    ///
    /// # Errors
    ///
    /// Broker or trading errors.
    pub fn announce_load_monitored(
        &self,
        service_type: &str,
        target: ObjRef,
        monitor: &Monitor,
        static_props: Vec<(String, Value)>,
    ) -> Result<OfferId> {
        let monitor_ref = self.serve(monitor);
        let mut request = ExportRequest::new(service_type, target)
            .with_dynamic_property("LoadAvg", monitor_ref.clone())
            .with_dynamic_property("LoadAvgIncreasing", monitor_ref);
        for (name, value) in static_props {
            request = request.with_property(name, value);
        }
        self.announce(request)
    }

    /// The reference `monitor` is served under, activated on the first
    /// announce with the `LoadAvg` and `LoadAvgIncreasing` aspects. One
    /// reference per monitor lets a peer that holds one registration for
    /// two offers cancel it through either.
    fn serve(&self, monitor: &Monitor) -> ObjRef {
        let mut monitors = self.monitors.lock();
        if let Some((_, objref)) = monitors.iter().find(|(m, _)| m.same_monitor(monitor)) {
            return objref.clone();
        }
        monitor.define_aspect_native("LoadAvg", |v| match v {
            Value::Seq(items) => items.first().cloned().unwrap_or(Value::Double(0.0)),
            other => other.clone(),
        });
        monitor.define_aspect_native("LoadAvgIncreasing", |v| {
            let increasing = match v {
                Value::Seq(items) => {
                    let one = items.first().and_then(Value::as_double).unwrap_or(0.0);
                    let five = items.get(1).and_then(Value::as_double).unwrap_or(0.0);
                    one > five
                }
                _ => false,
            };
            Value::from(if increasing { "yes" } else { "no" })
        });
        let objref = self.orb.activate_auto(MonitorServant::new(monitor.clone()));
        monitors.push((monitor.clone(), objref.clone()));
        objref
    }

    /// Offers currently managed by this agent.
    pub fn offers(&self) -> Vec<OfferId> {
        self.offers.lock().clone()
    }

    /// Withdraws one managed offer.
    ///
    /// # Errors
    ///
    /// Trading errors (unknown offer).
    pub fn withdraw(&self, id: &OfferId) -> Result<()> {
        self.trader.withdraw(id)?;
        self.offers.lock().retain(|o| o != id);
        Ok(())
    }

    /// Withdraws every managed offer (best effort).
    pub fn withdraw_all(&self) {
        let ids = std::mem::take(&mut *self.offers.lock());
        for id in ids {
            let _ = self.trader.withdraw(&id);
        }
    }
}

impl Drop for ServiceAgent {
    fn drop(&mut self) {
        self.withdraw_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapta_bridge::Isolate;
    use adapta_idl::TypeCode;
    use adapta_sim::SimTime;
    use adapta_trading::{PropDef, PropMode, PropValue, Query, ServiceTypeDef, Trader};

    fn setup() -> (Orb, Trader) {
        let orb = Orb::new("agent-test");
        let trader = Trader::new(&orb);
        trader
            .add_type(
                ServiceTypeDef::new("Hello")
                    .with_property(PropDef::new("LoadAvg", TypeCode::Double, PropMode::Normal))
                    .with_property(PropDef::new(
                        "LoadAvgIncreasing",
                        TypeCode::Str,
                        PropMode::Normal,
                    ))
                    .with_property(PropDef::new("Host", TypeCode::Str, PropMode::Readonly)),
            )
            .unwrap();
        (orb, trader)
    }

    #[test]
    fn load_monitored_offer_exposes_dynamic_scalar() {
        let (orb, trader) = setup();
        let actor = Isolate::new("agent-test", |_| {});
        // A Figure-3-shaped monitor: value is the 1/5/15 table.
        let monitor = Monitor::builder("LoadAvg")
            .source_native(|_| {
                Value::Seq(vec![Value::from(12.0), Value::from(8.0), Value::from(3.0)])
            })
            .build(&actor, &orb)
            .unwrap();
        let agent = ServiceAgent::new(&orb, Arc::new(trader.clone()));
        let target = ObjRef::new(orb.endpoint(), "svc", "Hello");
        agent
            .announce_load_monitored(
                "Hello",
                target,
                &monitor,
                vec![("Host".into(), Value::from("node1"))],
            )
            .unwrap();
        monitor.tick(SimTime::ZERO);

        let matches = trader
            .query(&Query::new("Hello").constraint("LoadAvg < 50 and LoadAvgIncreasing == yes"))
            .unwrap();
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].prop("LoadAvg"), Some(&Value::from(12.0)));
        assert!(matches[0].dynamic_ref("LoadAvg").is_some());
        assert_eq!(matches[0].prop("Host"), Some(&Value::from("node1")));
    }

    #[test]
    fn scalar_monitors_work_too() {
        let (orb, trader) = setup();
        let actor = Isolate::new("agent-test2", |_| {});
        let monitor = Monitor::builder("LoadAvg")
            .source_native(|_| Value::from(7.5))
            .build(&actor, &orb)
            .unwrap();
        let agent = ServiceAgent::new(&orb, Arc::new(trader.clone()));
        let target = ObjRef::new(orb.endpoint(), "svc", "Hello");
        agent
            .announce_load_monitored("Hello", target, &monitor, vec![])
            .unwrap();
        monitor.tick(SimTime::ZERO);
        let matches = trader
            .query(&Query::new("Hello").constraint("LoadAvg == 7.5"))
            .unwrap();
        assert_eq!(matches.len(), 1);
        assert_eq!(
            matches[0].prop("LoadAvgIncreasing"),
            Some(&Value::from("no"))
        );
    }

    #[test]
    fn offers_of_one_monitor_name_one_servant() {
        let (orb, trader) = setup();
        let actor = Isolate::new("agent-test3", |_| {});
        let build = || {
            Monitor::builder("LoadAvg")
                .source_native(|_| Value::from(1.0))
                .build(&actor, &orb)
                .unwrap()
        };
        let (shared, other) = (build(), build());
        let agent = ServiceAgent::new(&orb, Arc::new(trader.clone()));
        let target = ObjRef::new(orb.endpoint(), "svc", "Hello");
        let monitor_of = |monitor: &Monitor| {
            let id = agent
                .announce_load_monitored("Hello", target.clone(), monitor, vec![])
                .unwrap();
            let offer = trader.describe(&id).unwrap();
            offer.properties.into_iter().find_map(|(name, v)| match v {
                PropValue::Dynamic(monitor) if name == "LoadAvg" => Some(monitor),
                _ => None,
            })
        };
        let first = monitor_of(&shared).unwrap();
        assert_eq!(monitor_of(&shared), Some(first.clone()));
        assert_ne!(monitor_of(&other), Some(first));
    }

    #[test]
    fn dropping_the_agent_withdraws_offers() {
        let (orb, trader) = setup();
        let target = ObjRef::new(orb.endpoint(), "svc", "Hello");
        {
            let agent = ServiceAgent::new(&orb, Arc::new(trader.clone()));
            agent
                .announce(
                    ExportRequest::new("Hello", target).with_property("LoadAvg", Value::from(1.0)),
                )
                .unwrap();
            assert_eq!(trader.query(&Query::new("Hello")).unwrap().len(), 1);
            assert_eq!(agent.offers().len(), 1);
        }
        assert_eq!(trader.query(&Query::new("Hello")).unwrap().len(), 0);
    }

    #[test]
    fn explicit_withdraw() {
        let (orb, trader) = setup();
        let agent = ServiceAgent::new(&orb, Arc::new(trader.clone()));
        let target = ObjRef::new(orb.endpoint(), "svc", "Hello");
        let id = agent
            .announce(
                ExportRequest::new("Hello", target).with_property("LoadAvg", Value::from(1.0)),
            )
            .unwrap();
        agent.withdraw(&id).unwrap();
        assert!(agent.offers().is_empty());
        assert!(agent.withdraw(&id).is_err());
    }
}
