//! The auto-adaptation infrastructure — the paper's contribution
//! (Sections IV–V).
//!
//! The pieces, mirroring Figure 6:
//!
//! * [`SmartProxy`] — the client-side representative of a *service*
//!   (not a server): it selects the concrete component through the
//!   trading service using constraints over nonfunctional properties,
//!   subscribes to the monitors behind those properties, queues event
//!   notifications, and — immediately before the next invocation —
//!   runs the adaptation strategies registered for the queued events
//!   (*postponed handling*). Strategies can be native Rust or Rua code
//!   installed and replaced at run time.
//! * [`ServiceAgent`] — the server-side element that announces service
//!   offers to the trader, wiring monitors in as *dynamic properties*,
//!   and runs configuration scripts on the host's script state.
//! * [`Infrastructure`] — one-call wiring of a trader, servers with
//!   simulated hosts and load monitors, and smart-proxy clients; the
//!   quickest way to reproduce the paper's HelloWorld and load-sharing
//!   examples.
//! * [`policies`] — the three client binding policies compared in the
//!   evaluation: static random binding, trade-once (the Badidi et al.
//!   baseline) and the auto-adaptive smart proxy.
//! * [`ScriptServant`] / [`script_env`] — the LuaCorba analogues:
//!   implement a servant *in the scripting language* (DSI side) and
//!   invoke remote objects *from* scripts through generated proxy
//!   tables (DII side).

mod agent;
mod error;
mod infra;
pub mod interceptors;
pub mod policies;
mod resilience;
pub mod script_env;
mod script_servant;
mod smart_proxy;

pub use adapta_balancer::{Admission, BreakerConfig, BreakerState};
pub use agent::ServiceAgent;
pub use error::CoreError;
pub use infra::{Infrastructure, ServerHandle, ServerSpec};
pub use interceptors::AdaptiveRedirect;
pub use resilience::RetryPolicy;
pub use script_servant::ScriptServant;
pub use smart_proxy::{
    BalancerConfig, NativeStrategy, SmartProxy, SmartProxyBuilder, Strategy, Subscription,
    RELAXED_QUERY_EVENT,
};

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
