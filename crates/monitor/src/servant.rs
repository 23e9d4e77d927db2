//! The monitor as a remote object and as a trading dynamic property.

use adapta_idl::Value;
use adapta_orb::{OrbError, OrbResult, Servant};

use crate::monitor::{Monitor, ObserverId, ObserverTarget};

/// Exposes a [`Monitor`] over the ORB.
///
/// Implements the union of the paper's interfaces (Figures 1 and 2):
///
/// * `BasicMonitor` — `getValue`, `setValue`;
/// * `AspectsManager` — `getAspectValue`, `definedAspects`,
///   `defineAspect(name, code)`;
/// * `EventMonitor` — `attachEventObserver(observer, evid, code)`,
///   `detachEventObserver(id)`;
/// * the trading dynamic-property hook — `evalDP(name)` returns the
///   property value (for the monitor's own property name) or an aspect
///   value, which is what lets a service agent export the monitor
///   directly as a dynamic property of its offers.
///
/// The `code` parameters are script source shipped by remote clients —
/// the remote-evaluation paradigm. They are compiled into the monitor's
/// script state on arrival.
#[derive(Debug, Clone)]
pub struct MonitorServant {
    monitor: Monitor,
}

impl MonitorServant {
    /// Wraps a monitor for remote access.
    pub fn new(monitor: Monitor) -> Self {
        MonitorServant { monitor }
    }

    /// The wrapped monitor.
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }
}

fn str_arg(args: &[Value], i: usize, op: &str) -> OrbResult<String> {
    args.get(i)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| OrbError::exception(format!("{op}: argument {i} must be a string")))
}

impl Servant for MonitorServant {
    fn interface(&self) -> &str {
        "EventMonitor"
    }

    fn invoke(&self, op: &str, args: Vec<Value>) -> OrbResult<Value> {
        match op {
            // Both spellings appear in the paper's listings.
            "getValue" | "getvalue" => Ok(self.monitor.value()),
            "setValue" | "setvalue" => {
                self.monitor
                    .set_value(args.into_iter().next().unwrap_or(Value::Null));
                Ok(Value::Null)
            }
            "getAspectValue" => {
                let name = str_arg(&args, 0, "getAspectValue")?;
                Ok(self.monitor.aspect_value(&name).unwrap_or(Value::Null))
            }
            "definedAspects" => Ok(Value::Seq(
                self.monitor
                    .defined_aspects()
                    .into_iter()
                    .map(Value::from)
                    .collect(),
            )),
            "defineAspect" => {
                let name = str_arg(&args, 0, "defineAspect")?;
                let code = str_arg(&args, 1, "defineAspect")?;
                // Shipped code: run it in the sandboxed isolate, charged
                // to the remote installer's quota.
                self.monitor
                    .define_aspect_script_remote("remote", name, &code)
                    .map_err(|e| OrbError::exception(e.to_string()))?;
                Ok(Value::Null)
            }
            "attachEventObserver" => {
                let observer = args
                    .first()
                    .and_then(Value::as_objref)
                    .cloned()
                    .ok_or_else(|| {
                        OrbError::exception(
                            "attachEventObserver: observer must be an object reference",
                        )
                    })?;
                let event_id = str_arg(&args, 1, "attachEventObserver")?;
                let code = str_arg(&args, 2, "attachEventObserver")?;
                // Quota installs by the observer's node so one pushy
                // client cannot crowd out the others.
                let installer = observer.endpoint.clone();
                let id = self
                    .monitor
                    .attach_observer_script_remote(
                        &installer,
                        ObserverTarget::Remote(observer),
                        event_id,
                        &code,
                    )
                    .map_err(|e| OrbError::exception(e.to_string()))?;
                Ok(Value::Long(id.0 as i64))
            }
            "detachEventObserver" => {
                let id = args.first().and_then(Value::as_long).ok_or_else(|| {
                    OrbError::exception("detachEventObserver: id must be a number")
                })?;
                Ok(Value::Bool(
                    self.monitor.detach_observer(ObserverId(id as u64)),
                ))
            }
            "evalDP" => {
                let name = str_arg(&args, 0, "evalDP")?;
                // Aspects take precedence: an aspect may refine the raw
                // property under the same name (e.g. a scalar `LoadAvg`
                // over the 3-tuple property).
                if let Some(v) = self.monitor.aspect_value(&name) {
                    Ok(v)
                } else if name == self.monitor.property() {
                    Ok(self.monitor.value())
                } else {
                    Err(OrbError::exception(format!(
                        "no property or aspect named `{name}`"
                    )))
                }
            }
            other => Err(OrbError::unknown_operation("EventMonitor", other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapta_bridge::Isolate;
    use adapta_orb::Orb;
    use adapta_sim::SimTime;

    fn serve_monitor() -> (Orb, Orb, Monitor, adapta_orb::Proxy) {
        let server = Orb::new("msvnt-server");
        let actor = Isolate::new("msvnt", |_| {});
        let monitor = Monitor::builder("LoadAvg")
            .source_native(|now| Value::from(now.as_secs() as f64))
            .build(&actor, &server)
            .unwrap();
        let objref = server
            .activate("mon", MonitorServant::new(monitor.clone()))
            .unwrap();
        let client = Orb::new("msvnt-client");
        let proxy = client.proxy(&objref);
        (server, client, monitor, proxy)
    }

    #[test]
    fn get_set_value_remotely() {
        let (_s, _c, monitor, proxy) = serve_monitor();
        monitor.tick(SimTime::from_secs(42));
        assert_eq!(proxy.invoke("getValue", vec![]).unwrap(), Value::from(42.0));
        proxy.invoke("setValue", vec![Value::from(7.0)]).unwrap();
        assert_eq!(monitor.value(), Value::from(7.0));
    }

    #[test]
    fn remote_define_aspect_runs_shipped_code() {
        let (_s, _c, monitor, proxy) = serve_monitor();
        proxy
            .invoke(
                "defineAspect",
                vec![
                    Value::from("High"),
                    Value::from("function(self, currval, monitor) return currval > 30 end"),
                ],
            )
            .unwrap();
        monitor.tick(SimTime::from_secs(50));
        assert_eq!(
            proxy
                .invoke("getAspectValue", vec![Value::from("High")])
                .unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            proxy.invoke("definedAspects", vec![]).unwrap(),
            Value::Seq(vec![Value::from("High")])
        );
        assert_eq!(
            proxy
                .invoke("getAspectValue", vec![Value::from("Nope")])
                .unwrap(),
            Value::Null
        );
    }

    #[test]
    fn remote_attach_detach_observer() {
        let (_s, client, monitor, proxy) = serve_monitor();
        let seen = std::sync::Arc::new(parking_lot::Mutex::new(0u32));
        let seen_clone = seen.clone();
        let obs_ref = client
            .activate(
                "obs",
                adapta_orb::ServantFn::new("EventObserver", move |_, _| {
                    *seen_clone.lock() += 1;
                    Ok(Value::Null)
                }),
            )
            .unwrap();
        let id = proxy
            .invoke(
                "attachEventObserver",
                vec![
                    Value::ObjRef(obs_ref),
                    Value::from("Overload"),
                    Value::from("function(o, v, m) return v > 50 end"),
                ],
            )
            .unwrap();
        monitor.tick(SimTime::from_secs(10));
        assert_eq!(*seen.lock(), 0);
        monitor.tick(SimTime::from_secs(100));
        assert_eq!(*seen.lock(), 1);
        assert_eq!(
            proxy.invoke("detachEventObserver", vec![id]).unwrap(),
            Value::Bool(true)
        );
        monitor.tick(SimTime::from_secs(200));
        assert_eq!(*seen.lock(), 1);
    }

    #[test]
    fn eval_dp_serves_property_and_aspects() {
        let (_s, _c, monitor, proxy) = serve_monitor();
        monitor.define_aspect_native("Doubled", |v| {
            Value::from(v.as_double().unwrap_or(0.0) * 2.0)
        });
        monitor.tick(SimTime::from_secs(21));
        assert_eq!(
            proxy
                .invoke("evalDP", vec![Value::from("LoadAvg")])
                .unwrap(),
            Value::from(21.0)
        );
        assert_eq!(
            proxy
                .invoke("evalDP", vec![Value::from("Doubled")])
                .unwrap(),
            Value::from(42.0)
        );
        assert!(proxy.invoke("evalDP", vec![Value::from("Nope")]).is_err());
    }

    #[test]
    fn unknown_operation_is_rejected() {
        let (_s, _c, _m, proxy) = serve_monitor();
        assert!(proxy.invoke("frobnicate", vec![]).is_err());
    }
}
