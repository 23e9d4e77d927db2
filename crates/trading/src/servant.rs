//! Remote access to a trader: the servant exposing it over the ORB and
//! the client-side wrapper, both behind one [`TradingService`] trait.

use std::time::Duration;

use adapta_idl::{TypeCode, Value};
use adapta_orb::{OrbError, Proxy, Servant};

use crate::error::TradingError;
use crate::offer::{ExportRequest, OfferId, OfferMatch, PropValue};
use crate::query::Query;
use crate::service_type::{PropDef, PropMode, ServiceTypeDef};
use crate::trader::Trader;
use crate::Result;

/// The operations shared by local and remote traders, letting clients
/// (smart proxies, service agents) stay agnostic of trader placement.
pub trait TradingService: Send + Sync {
    /// Registers a service type.
    ///
    /// # Errors
    ///
    /// Duplicate or unresolvable types.
    fn add_type(&self, def: ServiceTypeDef) -> Result<()>;

    /// Exports an offer; returns its id.
    ///
    /// # Errors
    ///
    /// Schema violations (see [`Trader::export`]).
    fn export(&self, request: ExportRequest) -> Result<OfferId>;

    /// Withdraws an offer.
    ///
    /// # Errors
    ///
    /// Unknown offers.
    fn withdraw(&self, id: &OfferId) -> Result<()>;

    /// Renews an offer's liveness lease (and lifts quarantine); see
    /// [`Trader::renew`].
    ///
    /// # Errors
    ///
    /// Unknown (or already swept) offers.
    fn renew(&self, id: &OfferId, ttl: Option<Duration>) -> Result<()>;

    /// Modifies an offer's properties.
    ///
    /// # Errors
    ///
    /// Unknown offers, readonly or ill-typed properties.
    fn modify(&self, id: &OfferId, props: Vec<(String, PropValue)>) -> Result<()>;

    /// Runs an import query.
    ///
    /// # Errors
    ///
    /// Unknown type or illegal constraint/preference.
    fn query(&self, q: &Query) -> Result<Vec<OfferMatch>>;
}

impl TradingService for Trader {
    fn add_type(&self, def: ServiceTypeDef) -> Result<()> {
        Trader::add_type(self, def)
    }
    fn export(&self, request: ExportRequest) -> Result<OfferId> {
        Trader::export(self, request)
    }
    fn withdraw(&self, id: &OfferId) -> Result<()> {
        Trader::withdraw(self, id)
    }
    fn renew(&self, id: &OfferId, ttl: Option<Duration>) -> Result<()> {
        Trader::renew(self, id, ttl)
    }
    fn modify(&self, id: &OfferId, props: Vec<(String, PropValue)>) -> Result<()> {
        Trader::modify(self, id, props)
    }
    fn query(&self, q: &Query) -> Result<Vec<OfferMatch>> {
        Trader::query(self, q)
    }
}

// ---- wire helpers -------------------------------------------------------

fn type_code_to_string(tc: &TypeCode) -> String {
    tc.to_string()
}

fn type_code_from_string(s: &str) -> Option<TypeCode> {
    Some(match s {
        "void" => TypeCode::Void,
        "any" => TypeCode::Any,
        "boolean" => TypeCode::Boolean,
        "long" => TypeCode::Long,
        "double" => TypeCode::Double,
        "string" => TypeCode::Str,
        "octets" => TypeCode::Octets,
        "struct" => TypeCode::AnyStruct,
        "Object" => TypeCode::Object(String::new()),
        other => {
            if let Some(inner) = other
                .strip_prefix("sequence<")
                .and_then(|r| r.strip_suffix('>'))
            {
                TypeCode::Sequence(Box::new(type_code_from_string(inner)?))
            } else if let Some(id) = other
                .strip_prefix("Object<")
                .and_then(|r| r.strip_suffix('>'))
            {
                TypeCode::Object(id.to_owned())
            } else {
                return None;
            }
        }
    })
}

fn mode_to_str(mode: PropMode) -> &'static str {
    match mode {
        PropMode::Normal => "normal",
        PropMode::Readonly => "readonly",
        PropMode::Mandatory => "mandatory",
        PropMode::MandatoryReadonly => "mandatory_readonly",
    }
}

fn mode_from_str(s: &str) -> Option<PropMode> {
    Some(match s {
        "normal" => PropMode::Normal,
        "readonly" => PropMode::Readonly,
        "mandatory" => PropMode::Mandatory,
        "mandatory_readonly" => PropMode::MandatoryReadonly,
        _ => return None,
    })
}

/// Encodes a service-type definition for the wire.
pub fn service_type_to_value(def: &ServiceTypeDef) -> Value {
    Value::map([
        ("name", Value::from(def.name.as_str())),
        (
            "base",
            def.base.as_deref().map(Value::from).unwrap_or(Value::Null),
        ),
        (
            "props",
            Value::Seq(
                def.properties
                    .iter()
                    .map(|p| {
                        Value::map([
                            ("name", Value::from(p.name.as_str())),
                            ("type", Value::from(type_code_to_string(&p.type_code))),
                            ("mode", Value::from(mode_to_str(p.mode))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Decodes a service-type definition; `None` on malformed input.
pub fn service_type_from_value(v: &Value) -> Option<ServiceTypeDef> {
    let mut def = ServiceTypeDef::new(v.get("name")?.as_str()?);
    if let Some(base) = v.get("base").and_then(Value::as_str) {
        def.base = Some(base.to_owned());
    }
    for p in v.get("props")?.as_seq()? {
        def.properties.push(PropDef::new(
            p.get("name")?.as_str()?,
            type_code_from_string(p.get("type")?.as_str()?)?,
            mode_from_str(p.get("mode")?.as_str()?)?,
        ));
    }
    Some(def)
}

fn props_to_value(props: &[(String, PropValue)]) -> Value {
    Value::Map(
        props
            .iter()
            .map(|(k, v)| (k.clone(), v.to_value()))
            .collect(),
    )
}

fn props_from_value(v: &Value) -> Option<Vec<(String, PropValue)>> {
    v.as_map()?
        .iter()
        .map(|(k, pv)| Some((k.clone(), PropValue::from_value(pv)?)))
        .collect()
}

/// Decodes an optional lease-TTL argument (milliseconds as `Long`, or
/// `Null`/absent for no lease). Outer `None` means malformed.
fn lease_from_arg(v: Option<&Value>) -> Option<Option<Duration>> {
    match v {
        None | Some(Value::Null) => Some(None),
        Some(v) => {
            let ms = u64::try_from(v.as_long()?).ok()?;
            Some(Some(Duration::from_millis(ms)))
        }
    }
}

fn lease_to_arg(lease: Option<Duration>) -> Value {
    match lease {
        Some(ttl) => Value::Long(i64::try_from(ttl.as_millis()).unwrap_or(i64::MAX)),
        None => Value::Null,
    }
}

fn bad_args(what: &str) -> OrbError {
    OrbError::exception(format!("malformed arguments to {what}"))
}

fn to_orb_err(e: TradingError) -> OrbError {
    OrbError::exception(e.to_string())
}

// ---- servant -------------------------------------------------------------

/// Exposes a [`Trader`] as an ORB servant (interface `Trader`).
///
/// Operations: `addType`, `export` (optional fourth argument: lease TTL
/// in milliseconds), `withdraw`, `renew`, `modify`, `query`,
/// `listLinks`, `addLink`.
#[derive(Debug, Clone)]
pub struct TraderServant {
    trader: Trader,
}

impl TraderServant {
    /// Wraps a trader for remote access.
    pub fn new(trader: Trader) -> Self {
        TraderServant { trader }
    }
}

impl Servant for TraderServant {
    fn interface(&self) -> &str {
        "Trader"
    }

    fn invoke(&self, op: &str, args: Vec<Value>) -> adapta_orb::OrbResult<Value> {
        match op {
            "addType" => {
                let def = args
                    .first()
                    .and_then(service_type_from_value)
                    .ok_or_else(|| bad_args("addType"))?;
                self.trader.add_type(def).map_err(to_orb_err)?;
                Ok(Value::Null)
            }
            "export" => {
                let service_type = args
                    .first()
                    .and_then(Value::as_str)
                    .ok_or_else(|| bad_args("export"))?;
                let target = args
                    .get(1)
                    .and_then(Value::as_objref)
                    .ok_or_else(|| bad_args("export"))?;
                let properties = args
                    .get(2)
                    .and_then(props_from_value)
                    .ok_or_else(|| bad_args("export"))?;
                let lease = lease_from_arg(args.get(3)).ok_or_else(|| bad_args("export"))?;
                let id = self
                    .trader
                    .export(ExportRequest {
                        service_type: service_type.to_owned(),
                        target: target.clone(),
                        properties,
                        lease,
                    })
                    .map_err(to_orb_err)?;
                Ok(Value::from(id.as_str()))
            }
            "withdraw" => {
                let id = args
                    .first()
                    .and_then(Value::as_str)
                    .ok_or_else(|| bad_args("withdraw"))?;
                self.trader
                    .withdraw(&OfferId::from_string(id))
                    .map_err(to_orb_err)?;
                Ok(Value::Null)
            }
            "renew" => {
                let id = args
                    .first()
                    .and_then(Value::as_str)
                    .ok_or_else(|| bad_args("renew"))?;
                let ttl = lease_from_arg(args.get(1)).ok_or_else(|| bad_args("renew"))?;
                self.trader
                    .renew(&OfferId::from_string(id), ttl)
                    .map_err(to_orb_err)?;
                Ok(Value::Null)
            }
            "modify" => {
                let id = args
                    .first()
                    .and_then(Value::as_str)
                    .ok_or_else(|| bad_args("modify"))?;
                let props = args
                    .get(1)
                    .and_then(props_from_value)
                    .ok_or_else(|| bad_args("modify"))?;
                self.trader
                    .modify(&OfferId::from_string(id), props)
                    .map_err(to_orb_err)?;
                Ok(Value::Null)
            }
            "query" => {
                let q = args
                    .first()
                    .and_then(Query::from_value)
                    .ok_or_else(|| bad_args("query"))?;
                let matches = self.trader.query(&q).map_err(to_orb_err)?;
                Ok(Value::Seq(
                    matches.iter().map(OfferMatch::to_value).collect(),
                ))
            }
            "addLink" => {
                let name = args
                    .first()
                    .and_then(Value::as_str)
                    .ok_or_else(|| bad_args("addLink"))?;
                let target = args
                    .get(1)
                    .and_then(Value::as_objref)
                    .ok_or_else(|| bad_args("addLink"))?;
                self.trader.add_link(name, target.clone());
                Ok(Value::Null)
            }
            "listLinks" => Ok(Value::Seq(
                self.trader
                    .link_names()
                    .into_iter()
                    .map(Value::from)
                    .collect(),
            )),
            other => Err(OrbError::unknown_operation("Trader", other)),
        }
    }
}

// ---- remote client ---------------------------------------------------------

/// A client-side trader handle backed by a proxy to a remote
/// [`TraderServant`].
#[derive(Debug, Clone)]
pub struct RemoteTrader {
    proxy: Proxy,
}

impl RemoteTrader {
    /// Wraps a proxy to a trader servant.
    pub fn new(proxy: Proxy) -> Self {
        RemoteTrader { proxy }
    }
}

/// Runs a query against a remote trader (shared with federation).
pub(crate) fn remote_query(remote: &RemoteTrader, q: &Query) -> Result<Vec<OfferMatch>> {
    let reply = remote
        .proxy
        .invoke("query", vec![q.to_value()])
        .map_err(TradingError::Orb)?;
    let items = reply.as_seq().ok_or_else(|| {
        TradingError::Orb(OrbError::Marshal("query reply must be a sequence".into()))
    })?;
    items
        .iter()
        .map(|v| {
            OfferMatch::from_value(v)
                .ok_or_else(|| TradingError::Orb(OrbError::Marshal("malformed offer match".into())))
        })
        .collect()
}

impl TradingService for RemoteTrader {
    fn add_type(&self, def: ServiceTypeDef) -> Result<()> {
        self.proxy
            .invoke("addType", vec![service_type_to_value(&def)])
            .map_err(TradingError::Orb)?;
        Ok(())
    }

    fn export(&self, request: ExportRequest) -> Result<OfferId> {
        let reply = self
            .proxy
            .invoke(
                "export",
                vec![
                    Value::from(request.service_type.as_str()),
                    Value::ObjRef(request.target.clone()),
                    props_to_value(&request.properties),
                    lease_to_arg(request.lease),
                ],
            )
            .map_err(TradingError::Orb)?;
        let id = reply.as_str().ok_or_else(|| {
            TradingError::Orb(OrbError::Marshal("export reply must be a string".into()))
        })?;
        Ok(OfferId::from_string(id))
    }

    fn withdraw(&self, id: &OfferId) -> Result<()> {
        self.proxy
            .invoke("withdraw", vec![Value::from(id.as_str())])
            .map_err(TradingError::Orb)?;
        Ok(())
    }

    fn renew(&self, id: &OfferId, ttl: Option<Duration>) -> Result<()> {
        self.proxy
            .invoke("renew", vec![Value::from(id.as_str()), lease_to_arg(ttl)])
            .map_err(TradingError::Orb)?;
        Ok(())
    }

    fn modify(&self, id: &OfferId, props: Vec<(String, PropValue)>) -> Result<()> {
        self.proxy
            .invoke(
                "modify",
                vec![Value::from(id.as_str()), props_to_value(&props)],
            )
            .map_err(TradingError::Orb)?;
        Ok(())
    }

    fn query(&self, q: &Query) -> Result<Vec<OfferMatch>> {
        remote_query(self, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapta_idl::ObjRefData;
    use adapta_orb::Orb;
    use adapta_telemetry::registry;

    fn remote_pair() -> (Orb, RemoteTrader) {
        let trader_orb = Orb::new("t-svnt-trader");
        let trader = Trader::new(&trader_orb);
        let objref = trader_orb
            .activate("trader", TraderServant::new(trader))
            .unwrap();
        let client_orb = Orb::new("t-svnt-client");
        let remote = RemoteTrader::new(client_orb.proxy(&objref));
        (client_orb, remote)
    }

    fn hello_type() -> ServiceTypeDef {
        ServiceTypeDef::new("Hello").with_property(PropDef::new(
            "LoadAvg",
            TypeCode::Double,
            PropMode::Mandatory,
        ))
    }

    #[test]
    fn full_remote_lifecycle() {
        let (_client, remote) = remote_pair();
        remote.add_type(hello_type()).unwrap();
        let id = remote
            .export(
                ExportRequest::new("Hello", ObjRefData::new("inproc://s", "h", "Hello"))
                    .with_property("LoadAvg", Value::from(10.0)),
            )
            .unwrap();
        let matches = remote
            .query(&Query::new("Hello").constraint("LoadAvg < 50"))
            .unwrap();
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].prop("LoadAvg"), Some(&Value::from(10.0)));

        remote
            .modify(&id, vec![("LoadAvg".into(), Value::from(99.0).into())])
            .unwrap();
        assert!(remote
            .query(&Query::new("Hello").constraint("LoadAvg < 50"))
            .unwrap()
            .is_empty());

        remote.withdraw(&id).unwrap();
        assert!(remote.query(&Query::new("Hello")).unwrap().is_empty());
    }

    #[test]
    fn remote_lease_and_renew() {
        let (_client, remote) = remote_pair();
        remote.add_type(hello_type()).unwrap();
        let id = remote
            .export(
                ExportRequest::new("Hello", ObjRefData::new("inproc://s", "h", "Hello"))
                    .with_property("LoadAvg", Value::from(1.0))
                    .with_lease(Duration::from_millis(25)),
            )
            .unwrap();
        assert_eq!(remote.query(&Query::new("Hello")).unwrap().len(), 1);
        std::thread::sleep(Duration::from_millis(40));
        assert!(remote.query(&Query::new("Hello")).unwrap().is_empty());
        remote.renew(&id, Some(Duration::from_millis(500))).unwrap();
        assert_eq!(remote.query(&Query::new("Hello")).unwrap().len(), 1);
        assert!(remote
            .renew(&OfferId::from_string("offer-99"), None)
            .is_err());
    }

    #[test]
    fn remote_errors_surface() {
        let (_client, remote) = remote_pair();
        let err = remote.query(&Query::new("Nope")).unwrap_err();
        assert!(matches!(err, TradingError::Orb(_)));
        let err = remote
            .withdraw(&OfferId::from_string("offer-1"))
            .unwrap_err();
        assert!(err.to_string().contains("offer-1"));
    }

    #[test]
    fn type_code_string_round_trip() {
        for tc in [
            TypeCode::Void,
            TypeCode::Any,
            TypeCode::Boolean,
            TypeCode::Long,
            TypeCode::Double,
            TypeCode::Str,
            TypeCode::Octets,
            TypeCode::AnyStruct,
            TypeCode::Object(String::new()),
            TypeCode::Object("Monitor".into()),
            TypeCode::Sequence(Box::new(TypeCode::Double)),
            TypeCode::Sequence(Box::new(TypeCode::Sequence(Box::new(TypeCode::Str)))),
        ] {
            assert_eq!(
                type_code_from_string(&type_code_to_string(&tc)),
                Some(tc.clone()),
                "round trip of {tc}"
            );
        }
        assert_eq!(type_code_from_string("garbage<"), None);
    }

    #[test]
    fn service_type_wire_round_trip() {
        let def = ServiceTypeDef::new("ImageService")
            .extends("Service")
            .with_property(PropDef::new(
                "LoadAvg",
                TypeCode::Double,
                PropMode::Mandatory,
            ))
            .with_property(PropDef::new("Host", TypeCode::Str, PropMode::Readonly));
        assert_eq!(
            service_type_from_value(&service_type_to_value(&def)),
            Some(def)
        );
    }

    /// A DII importer's `search_card` of 1e9 reaches the trader as it
    /// was sent, and the trader clamps it (and counts the clamp).
    #[test]
    fn a_dii_query_with_a_huge_search_card_is_clamped_and_counted() {
        let trader_orb = Orb::new("t-svnt-clamp-trader");
        let trader = Trader::new(&trader_orb);
        trader.add_type(hello_type()).unwrap();
        trader
            .export(
                ExportRequest::new("Hello", ObjRefData::new("inproc://s", "h", "Hello"))
                    .with_property("LoadAvg", Value::from(5.0)),
            )
            .unwrap();
        let objref = trader_orb
            .activate("trader", TraderServant::new(trader))
            .unwrap();
        let client = Orb::new("t-svnt-clamp-client");
        let query = Value::map([
            ("type", Value::from("Hello")),
            ("constraint", Value::from("LoadAvg < 50")),
            ("preference", Value::from("")),
            (
                "policies",
                Value::map([("search_card", Value::Long(1_000_000_000))]),
            ),
        ]);
        let clamped = registry().counter("trading.policy_clamped");
        let before = clamped.value();
        let reply = client.proxy(&objref).invoke("query", vec![query]).unwrap();
        assert_eq!(reply.as_seq().map(<[Value]>::len), Some(1));
        assert!(clamped.value() > before, "the clamp was not counted");
    }

    #[test]
    fn federation_follows_links() {
        // Trader B holds the offer; trader A links to B.
        let orb_b = Orb::new("t-fed-b");
        let trader_b = Trader::new(&orb_b);
        trader_b.add_type(hello_type()).unwrap();
        trader_b
            .export(
                ExportRequest::new("Hello", ObjRefData::new("inproc://s", "h", "Hello"))
                    .with_property("LoadAvg", Value::from(5.0)),
            )
            .unwrap();
        let b_ref = orb_b
            .activate("trader", TraderServant::new(trader_b))
            .unwrap();

        let orb_a = Orb::new("t-fed-a");
        let trader_a = Trader::new(&orb_a);
        trader_a.add_type(hello_type()).unwrap();
        trader_a.add_link("to-b", b_ref);

        // One hop reaches B's offer.
        let matches = trader_a.query(&Query::new("Hello").hops(1)).unwrap();
        assert_eq!(matches.len(), 1);
        // Zero hops stays local.
        assert!(trader_a
            .query(&Query::new("Hello").hops(0))
            .unwrap()
            .is_empty());
    }
}
