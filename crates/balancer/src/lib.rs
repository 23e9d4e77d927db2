//! Replica-set management and adaptive request routing.
//!
//! The paper's evaluation is *client-driven load sharing*: clients
//! re-select servers as monitored load shifts. This crate generalizes
//! that from one-shot selection to continuous routing:
//!
//! * a [`ReplicaSet`] materializes a trader query into a live set of
//!   candidate offers — refreshed on a jittered interval, with
//!   delta-based add/evict so per-replica state survives refreshes;
//! * every replica carries [`ReplicaStats`] — EWMA latency, in-flight
//!   count, error count, and the last monitor-pushed load value — fed by
//!   call outcomes and monitor events — and its target's
//!   [`TargetHealth`]: the dead-target TTL and an optional circuit
//!   breaker, one record per target;
//! * a pluggable [`RoutingPolicy`] picks the replica for each call:
//!   [`Bound`] (the paper's classic proxy: one replica, kept until a
//!   strategy re-selects), [`RoundRobin`], [`LeastInflight`], [`P2cEwma`]
//!   (power-of-two-choices over EWMA latency), [`WeightedProperty`]
//!   (weights from a monitored dynamic property), and
//!   [`ConsistentHash`] (session affinity).
//!
//! Every `adapta-core` `SmartProxy` owns one set and routes every
//! invocation through its policy; a classic proxy's set is under
//! [`Bound`].
//!
//! ```
//! use std::sync::Arc;
//! use adapta_balancer::ReplicaSet;
//! use adapta_trading::{Trader, ServiceTypeDef, PropDef, PropMode, ExportRequest, Query};
//! use adapta_idl::{TypeCode, Value, ObjRefData};
//! use adapta_orb::Orb;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let orb = Orb::new("balancer-doc");
//! let trader = Trader::new(&orb);
//! trader.add_type(
//!     ServiceTypeDef::new("Hello")
//!         .with_property(PropDef::new("LoadAvg", TypeCode::Double, PropMode::Mandatory)),
//! )?;
//! trader.export(
//!     ExportRequest::new("Hello", ObjRefData::new("inproc://a", "svc", "Hello"))
//!         .with_property("LoadAvg", Value::from(0.5)),
//! )?;
//!
//! let set = ReplicaSet::new(Arc::new(trader), Query::new("Hello"));
//! set.refresh()?;
//! set.set_policy_named("p2c_ewma");
//! let replica = set.pick(None).expect("one replica");
//! assert_eq!(replica.target().endpoint, "inproc://a");
//! # Ok(())
//! # }
//! ```

mod health;
mod policy;
mod replica_set;
mod stats;

pub use health::{Admission, BreakerConfig, BreakerState, HealthTable, TargetHealth};
pub use policy::{
    policy_named, Bound, ConsistentHash, LeastInflight, P2cEwma, RoundRobin, RoutingPolicy,
    WeightedProperty,
};
pub use replica_set::{RefreshSummary, Replica, ReplicaSet};
pub use stats::ReplicaStats;
