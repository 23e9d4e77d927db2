//! Fault injection: scripted chaos on the broker's transports.
//!
//! A [`FaultPlan`] holds an ordered list of [`FaultRule`]s. Every
//! outgoing message — in-process *and* TCP, two-way and oneway — is
//! offered to the plan at the transport funnel (`Orb::route`); the
//! first rule whose endpoint/operation filters match and whose
//! probability fires decides the message's fate:
//!
//! * [`FaultAction::Drop`] — the request vanishes: a two-way call fails
//!   with [`OrbError::DeadlineExpired`] (what the caller would have
//!   observed after a real black hole, minus the wait), a oneway is
//!   silently discarded;
//! * [`FaultAction::Delay`] — the call is stalled before proceeding;
//! * [`FaultAction::Corrupt`] — the frame is treated as mangled on the
//!   wire: the call fails with [`OrbError::Transport`];
//! * [`FaultAction::Disconnect`] — the pooled connection to the target
//!   endpoint is torn down (waking every call multiplexed on it) and
//!   the call fails with [`OrbError::Transport`];
//! * [`FaultAction::Error`] — the call fails with a synthetic
//!   application exception (*not* retryable, unlike the others).
//!
//! Rules fire by probability (seeded, so chaos runs are reproducible)
//! and can carry a *budget* — a maximum number of injections — which
//! turns a probabilistic plan into a schedule ("fail the first N calls,
//! then heal"). Every node also hosts a `_faults` servant so a plan can
//! be scripted remotely over the ORB itself — the paper's
//! remote-evaluation idiom turned on ourselves.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use adapta_idl::Value;
use adapta_telemetry::registry;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::adapter::Servant;
use crate::error::OrbError;
use crate::OrbResult;

/// What happens to a message selected by a fault rule.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// The request disappears; a two-way caller sees a deadline expiry.
    Drop,
    /// The request is stalled for the given duration, then proceeds.
    Delay(Duration),
    /// The frame is mangled in flight; the caller sees a transport error.
    Corrupt,
    /// The pooled connection to the endpoint is killed before failing.
    Disconnect,
    /// The caller receives a synthetic application exception.
    Error(String),
}

impl FaultAction {
    /// Every [`kind`](Self::kind).
    pub(crate) const KINDS: [&'static str; 5] = ["drop", "delay", "corrupt", "disconnect", "error"];

    /// Short label used in metric names (`faults.injected.<kind>`).
    fn kind(&self) -> &'static str {
        match self {
            FaultAction::Drop => "drop",
            FaultAction::Delay(_) => "delay",
            FaultAction::Corrupt => "corrupt",
            FaultAction::Disconnect => "disconnect",
            FaultAction::Error(_) => "error",
        }
    }

    /// Parses the wire spelling used by the `_faults` servant:
    /// `drop`, `corrupt`, `disconnect`, `delay:<ms>`, `error:<message>`.
    pub fn parse(spec: &str) -> Option<FaultAction> {
        Some(match spec {
            "drop" => FaultAction::Drop,
            "corrupt" => FaultAction::Corrupt,
            "disconnect" => FaultAction::Disconnect,
            _ => {
                if let Some(ms) = spec.strip_prefix("delay:") {
                    FaultAction::Delay(Duration::from_millis(ms.parse().ok()?))
                } else if let Some(msg) = spec.strip_prefix("error:") {
                    FaultAction::Error(msg.to_owned())
                } else {
                    return None;
                }
            }
        })
    }

    /// The wire spelling accepted by [`FaultAction::parse`].
    pub fn spec(&self) -> String {
        match self {
            FaultAction::Drop => "drop".into(),
            FaultAction::Corrupt => "corrupt".into(),
            FaultAction::Disconnect => "disconnect".into(),
            FaultAction::Delay(d) => format!("delay:{}", d.as_millis()),
            FaultAction::Error(m) => format!("error:{m}"),
        }
    }
}

/// One injection rule: which messages it selects and what it does.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// Endpoint filter: `"*"` matches everything, otherwise a substring
    /// of the target endpoint (`tcp://host:port` or `inproc://node`).
    pub endpoint: String,
    /// Operation filter: `"*"` matches everything, otherwise the exact
    /// operation name.
    pub operation: String,
    /// Probability a selected message is actually hit, in `[0, 1]`.
    pub probability: f64,
    /// Maximum number of injections; `None` is unlimited. A budget turns
    /// the rule into a schedule: "fail the first N, then heal".
    pub budget: Option<u64>,
    /// What to do with a hit message.
    pub action: FaultAction,
}

impl FaultRule {
    /// A rule that always hits matching messages, with no budget.
    pub fn new(
        endpoint: impl Into<String>,
        operation: impl Into<String>,
        action: FaultAction,
    ) -> Self {
        FaultRule {
            endpoint: endpoint.into(),
            operation: operation.into(),
            probability: 1.0,
            budget: None,
            action,
        }
    }

    /// Sets the hit probability.
    #[must_use]
    pub fn probability(mut self, p: f64) -> Self {
        self.probability = p.clamp(0.0, 1.0);
        self
    }

    /// Caps the rule at `n` injections.
    #[must_use]
    pub fn budget(mut self, n: u64) -> Self {
        self.budget = Some(n);
        self
    }

    fn selects(&self, endpoint: &str, operation: &str) -> bool {
        (self.endpoint == "*" || endpoint.contains(self.endpoint.as_str()))
            && (self.operation == "*" || self.operation == operation)
    }
}

struct RuleState {
    rule: FaultRule,
    injected: u64,
}

/// A runtime-mutable set of fault rules attached to one node's
/// transports. Obtain a node's plan with `Orb::fault_plan()` or script
/// it remotely through the node's `_faults` object.
pub struct FaultPlan {
    rules: Mutex<Vec<RuleState>>,
    /// Number of installed rules, mirrored out of the lock so the
    /// common no-chaos case stays a single relaxed load on the hot path.
    armed: AtomicUsize,
    enabled: AtomicBool,
    rng: Mutex<StdRng>,
    injected: AtomicU64,
    metric_prefix: String,
}

impl FaultPlan {
    /// An empty, enabled plan for the named node.
    pub(crate) fn for_node(node: &str) -> Self {
        FaultPlan {
            rules: Mutex::new(Vec::new()),
            armed: AtomicUsize::new(0),
            enabled: AtomicBool::new(true),
            rng: Mutex::new(StdRng::seed_from_u64(0xC4A0_5A10)),
            injected: AtomicU64::new(0),
            metric_prefix: format!("orb.{node}.faults"),
        }
    }

    /// Removes the injection counters of the node named `node`'s plan
    /// from the registry.
    pub(crate) fn forget_metrics(node: &str) {
        for kind in FaultAction::KINDS {
            registry().remove(&format!("orb.{node}.faults.injected.{kind}"));
        }
    }

    /// Reseeds the probability source so a chaos run is reproducible.
    pub fn reseed(&self, seed: u64) {
        *self.rng.lock() = StdRng::seed_from_u64(seed);
    }

    /// Installs a rule; returns its index.
    pub fn add(&self, rule: FaultRule) -> usize {
        let mut rules = self.rules.lock();
        rules.push(RuleState { rule, injected: 0 });
        self.armed.store(rules.len(), Ordering::Release);
        rules.len() - 1
    }

    /// Removes every rule.
    pub fn clear(&self) {
        let mut rules = self.rules.lock();
        rules.clear();
        self.armed.store(0, Ordering::Release);
    }

    /// Enables or disables the plan without touching its rules.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Release);
    }

    /// Total number of faults injected since construction.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// One human-readable line per rule (used by the `_faults` servant).
    pub fn describe(&self) -> Vec<String> {
        self.rules
            .lock()
            .iter()
            .map(|st| {
                format!(
                    "{} op={} p={} budget={} injected={} action={}",
                    st.rule.endpoint,
                    st.rule.operation,
                    st.rule.probability,
                    st.rule
                        .budget
                        .map_or_else(|| "-".to_owned(), |b| b.to_string()),
                    st.injected,
                    st.rule.action.spec(),
                )
            })
            .collect()
    }

    /// Offers one outgoing message to the plan; returns the action of
    /// the first rule that selects and hits it, if any.
    pub(crate) fn decide(&self, endpoint: &str, operation: &str) -> Option<FaultAction> {
        if self.armed.load(Ordering::Acquire) == 0 || !self.enabled.load(Ordering::Acquire) {
            return None;
        }
        let mut rules = self.rules.lock();
        for st in rules.iter_mut() {
            if !st.rule.selects(endpoint, operation) {
                continue;
            }
            if st.rule.budget.is_some_and(|b| st.injected >= b) {
                continue;
            }
            if st.rule.probability < 1.0 && !self.rng.lock().gen_bool(st.rule.probability) {
                continue;
            }
            st.injected += 1;
            self.injected.fetch_add(1, Ordering::Relaxed);
            registry()
                .counter(&format!(
                    "{}.injected.{}",
                    self.metric_prefix,
                    st.rule.action.kind()
                ))
                .incr();
            return Some(st.rule.action.clone());
        }
        None
    }
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("rules", &self.armed.load(Ordering::Relaxed))
            .field("enabled", &self.enabled.load(Ordering::Relaxed))
            .field("injected", &self.injected.load(Ordering::Relaxed))
            .finish()
    }
}

/// The `_faults` servant every node hosts: lets a remote operator (or a
/// Rua script) install chaos on a running node.
///
/// Operations:
///
/// * `inject(endpoint, operation, action [, probability [, budget]])`
///   — installs a rule and returns its index; `action` uses the
///   [`FaultAction::parse`] spelling;
/// * `clear()` — removes every rule;
/// * `enable(bool)` — toggles the plan;
/// * `list()` — one descriptive string per rule;
/// * `injected()` — total faults injected so far.
pub struct FaultServant {
    plan: Arc<FaultPlan>,
}

impl FaultServant {
    /// Wraps a node's fault plan.
    pub(crate) fn new(plan: Arc<FaultPlan>) -> Self {
        FaultServant { plan }
    }
}

impl Servant for FaultServant {
    fn interface(&self) -> &str {
        "FaultInjector"
    }

    fn invoke(&self, op: &str, args: Vec<Value>) -> OrbResult<Value> {
        match op {
            "inject" => {
                let endpoint = args
                    .first()
                    .and_then(Value::as_str)
                    .ok_or_else(|| OrbError::exception("inject: endpoint must be a string"))?;
                let operation = args
                    .get(1)
                    .and_then(Value::as_str)
                    .ok_or_else(|| OrbError::exception("inject: operation must be a string"))?;
                let action = args
                    .get(2)
                    .and_then(Value::as_str)
                    .and_then(FaultAction::parse)
                    .ok_or_else(|| {
                        OrbError::exception(
                            "inject: action must be drop|corrupt|disconnect|delay:<ms>|error:<msg>",
                        )
                    })?;
                let mut rule = FaultRule::new(endpoint, operation, action);
                if let Some(p) = args.get(3).and_then(Value::as_double) {
                    rule = rule.probability(p);
                }
                if let Some(b) = args.get(4).and_then(Value::as_long) {
                    rule = rule.budget(b.max(0) as u64);
                }
                Ok(Value::Long(self.plan.add(rule) as i64))
            }
            "clear" => {
                self.plan.clear();
                Ok(Value::Null)
            }
            "enable" => {
                let on = args.first().and_then(Value::as_bool).unwrap_or(true);
                self.plan.set_enabled(on);
                Ok(Value::Null)
            }
            "list" => Ok(Value::Seq(
                self.plan.describe().into_iter().map(Value::from).collect(),
            )),
            "injected" => Ok(Value::Long(self.plan.injected() as i64)),
            _ => Err(OrbError::unknown_operation("FaultInjector", op)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_spec_round_trips() {
        for action in [
            FaultAction::Drop,
            FaultAction::Corrupt,
            FaultAction::Disconnect,
            FaultAction::Delay(Duration::from_millis(7)),
            FaultAction::Error("boom".into()),
        ] {
            assert_eq!(FaultAction::parse(&action.spec()), Some(action));
        }
        assert_eq!(FaultAction::parse("explode"), None);
        assert_eq!(FaultAction::parse("delay:xyz"), None);
    }

    #[test]
    fn rules_filter_by_endpoint_and_operation() {
        let plan = FaultPlan::for_node("t");
        plan.add(FaultRule::new("tcp://a:1", "ping", FaultAction::Drop));
        assert_eq!(plan.decide("tcp://a:1", "ping"), Some(FaultAction::Drop));
        assert_eq!(plan.decide("tcp://b:2", "ping"), None);
        assert_eq!(plan.decide("tcp://a:1", "pong"), None);
        // endpoint filters match by substring, operations exactly
        plan.clear();
        plan.add(FaultRule::new("a:1", "*", FaultAction::Corrupt));
        assert_eq!(plan.decide("tcp://a:1", "x"), Some(FaultAction::Corrupt));
    }

    #[test]
    fn budget_limits_injections() {
        let plan = FaultPlan::for_node("t");
        plan.add(FaultRule::new("*", "*", FaultAction::Drop).budget(2));
        assert!(plan.decide("e", "o").is_some());
        assert!(plan.decide("e", "o").is_some());
        assert!(plan.decide("e", "o").is_none());
        assert_eq!(plan.injected(), 2);
    }

    #[test]
    fn disabled_plans_inject_nothing() {
        let plan = FaultPlan::for_node("t");
        plan.add(FaultRule::new("*", "*", FaultAction::Drop));
        plan.set_enabled(false);
        assert!(plan.decide("e", "o").is_none());
        plan.set_enabled(true);
        assert!(plan.decide("e", "o").is_some());
    }

    #[test]
    fn probability_is_respected_roughly() {
        let plan = FaultPlan::for_node("t");
        plan.reseed(42);
        plan.add(FaultRule::new("*", "*", FaultAction::Drop).probability(0.3));
        let hits = (0..1000)
            .filter(|_| plan.decide("e", "o").is_some())
            .count();
        assert!((200..400).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn servant_scripts_the_plan() {
        let plan = Arc::new(FaultPlan::for_node("t"));
        let servant = FaultServant::new(plan.clone());
        let idx = servant
            .invoke(
                "inject",
                vec![
                    Value::from("*"),
                    Value::from("*"),
                    Value::from("error:chaos"),
                ],
            )
            .unwrap();
        assert_eq!(idx, Value::Long(0));
        assert_eq!(
            plan.decide("e", "o"),
            Some(FaultAction::Error("chaos".into()))
        );
        let listing = servant.invoke("list", vec![]).unwrap();
        assert!(matches!(&listing, Value::Seq(v) if v.len() == 1));
        servant.invoke("clear", vec![]).unwrap();
        assert_eq!(plan.decide("e", "o"), None);
        assert_eq!(servant.invoke("injected", vec![]).unwrap(), Value::Long(1));
    }
}
