//! Import queries and policies.

use adapta_idl::Value;

/// Import policies bounding a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Policies {
    /// Maximum offers considered (constraint evaluations).
    pub search_card: u32,
    /// Maximum matches returned.
    pub return_card: u32,
    /// When true, subtype offers are not returned.
    pub exact_type_match: bool,
    /// When false, dynamic properties are left unresolved (offers whose
    /// constraint needs them will not match).
    pub use_dynamic_properties: bool,
    /// How many federation links a query may still traverse.
    pub hop_count: u32,
    /// Identifies a forwarded query, as the OMG trader's `request_id`
    /// policy does: a trader answers an id it has already seen with no
    /// matches, so a link cycle visits each trader once. Set by the
    /// first trader that forwards the query.
    pub request_id: Option<String>,
}

impl Default for Policies {
    fn default() -> Self {
        Policies {
            search_card: 1000,
            return_card: 100,
            exact_type_match: false,
            use_dynamic_properties: true,
            hop_count: 1,
            request_id: None,
        }
    }
}

impl Policies {
    /// Encodes for the wire; `request_id` only when set, so the
    /// encoding of a query that was never forwarded is unchanged.
    pub fn to_value(&self) -> Value {
        let mut fields = vec![
            ("search_card", Value::from(self.search_card)),
            ("return_card", Value::from(self.return_card)),
            ("exact_type_match", Value::from(self.exact_type_match)),
            (
                "use_dynamic_properties",
                Value::from(self.use_dynamic_properties),
            ),
            ("hop_count", Value::from(self.hop_count)),
        ];
        if let Some(id) = &self.request_id {
            fields.push(("request_id", Value::from(id.as_str())));
        }
        Value::map(fields)
    }

    /// Decodes the wire form, falling back to defaults per field.
    pub fn from_value(v: &Value) -> Policies {
        let d = Policies::default();
        let get_u32 = |name: &str, dft: u32| {
            v.get(name)
                .and_then(Value::as_long)
                .map(|n| n.clamp(0, u32::MAX as i64) as u32)
                .unwrap_or(dft)
        };
        let get_bool = |name: &str, dft: bool| v.get(name).and_then(Value::as_bool).unwrap_or(dft);
        Policies {
            search_card: get_u32("search_card", d.search_card),
            return_card: get_u32("return_card", d.return_card),
            exact_type_match: get_bool("exact_type_match", d.exact_type_match),
            use_dynamic_properties: get_bool("use_dynamic_properties", d.use_dynamic_properties),
            hop_count: get_u32("hop_count", d.hop_count),
            request_id: v
                .get("request_id")
                .and_then(Value::as_str)
                .map(str::to_owned),
        }
    }
}

/// An import query.
///
/// ```
/// use adapta_trading::Query;
///
/// let q = Query::new("HelloService")
///     .constraint("LoadAvg < 50")
///     .preference("min LoadAvg")
///     .return_card(3);
/// assert_eq!(q.policies.return_card, 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The service type looked for.
    pub service_type: String,
    /// Constraint source (empty matches everything).
    pub constraint: String,
    /// Preference source (empty means `first`).
    pub preference: String,
    /// Import policies.
    pub policies: Policies,
}

impl Query {
    /// Creates a match-everything query for a service type.
    pub fn new(service_type: impl Into<String>) -> Self {
        Query {
            service_type: service_type.into(),
            constraint: String::new(),
            preference: String::new(),
            policies: Policies::default(),
        }
    }

    /// Sets the constraint; returns `self` for chaining.
    pub fn constraint(mut self, c: impl Into<String>) -> Self {
        self.constraint = c.into();
        self
    }

    /// Sets the preference; returns `self` for chaining.
    pub fn preference(mut self, p: impl Into<String>) -> Self {
        self.preference = p.into();
        self
    }

    /// Caps the number of returned matches.
    pub fn return_card(mut self, n: u32) -> Self {
        self.policies.return_card = n;
        self
    }

    /// Caps the number of offers considered.
    pub fn search_card(mut self, n: u32) -> Self {
        self.policies.search_card = n;
        self
    }

    /// Requires exact service-type equality (no subtypes).
    pub fn exact_type(mut self, on: bool) -> Self {
        self.policies.exact_type_match = on;
        self
    }

    /// Enables/disables dynamic-property evaluation.
    pub fn use_dynamic(mut self, on: bool) -> Self {
        self.policies.use_dynamic_properties = on;
        self
    }

    /// Sets the federation hop budget.
    pub fn hops(mut self, n: u32) -> Self {
        self.policies.hop_count = n;
        self
    }

    /// Encodes for the wire.
    pub fn to_value(&self) -> Value {
        Value::map([
            ("type", Value::from(self.service_type.as_str())),
            ("constraint", Value::from(self.constraint.as_str())),
            ("preference", Value::from(self.preference.as_str())),
            ("policies", self.policies.to_value()),
        ])
    }

    /// Decodes the wire form; `None` on malformed input.
    pub fn from_value(v: &Value) -> Option<Query> {
        Some(Query {
            service_type: v.get("type")?.as_str()?.to_owned(),
            constraint: v.get("constraint")?.as_str()?.to_owned(),
            preference: v.get("preference")?.as_str()?.to_owned(),
            policies: Policies::from_value(v.get("policies").unwrap_or(&Value::Null)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let q = Query::new("T")
            .constraint("A < 1")
            .preference("min A")
            .return_card(2)
            .exact_type(true)
            .use_dynamic(false)
            .hops(0);
        assert_eq!(q.constraint, "A < 1");
        assert!(q.policies.exact_type_match);
        assert!(!q.policies.use_dynamic_properties);
        assert_eq!(q.policies.hop_count, 0);
    }

    #[test]
    fn wire_round_trip() {
        let q = Query::new("T").constraint("A < 1").preference("max A");
        assert_eq!(Query::from_value(&q.to_value()), Some(q));
    }

    #[test]
    fn a_request_id_is_encoded_only_when_set() {
        let mut q = Query::new("T").hops(3);
        assert!(q.policies.to_value().get("request_id").is_none());
        q.policies.request_id = Some("r-1".into());
        assert_eq!(Query::from_value(&q.to_value()), Some(q));
    }

    #[test]
    fn policies_decode_with_defaults() {
        let p = Policies::from_value(&Value::map([("return_card", Value::from(7i64))]));
        assert_eq!(p.return_card, 7);
        assert_eq!(p.search_card, Policies::default().search_card);
        let p = Policies::from_value(&Value::Null);
        assert_eq!(p, Policies::default());
    }
}
