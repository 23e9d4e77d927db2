//! A dynamic object request broker — the CORBA analogue of the `adapta`
//! stack.
//!
//! The paper's infrastructure uses CORBA exclusively through its
//! *dynamic* faces: the Dynamic Invocation Interface on the client side
//! and the Dynamic Skeleton Interface on the server side (that is what
//! LuaCorba is built on). This crate provides exactly those:
//!
//! * [`Servant`] — the DSI analogue: one `invoke(op, args)` entry point
//!   per object (the paper's *dynamic implementation routine*);
//! * [`ObjectAdapter`] — activation of servants under object keys;
//! * [`Proxy`] / [`Request`] — the DII analogue: build an operation call
//!   with a dynamically assembled argument list and invoke it, two-way or
//!   `oneway`;
//! * [`ObjRef`]/stringified references — the IOR analogue;
//! * marshalling — a CDR-like self-describing binary codec;
//! * transports — in-process (between named [`Orb`] nodes in one
//!   process, with full marshalling so measurements stay honest) and TCP
//!   (length-prefixed frames, GIOP-like request/reply);
//! * a tiny naming service so bootstrap references can be found by name;
//! * observability — requests carry the caller's trace ids across hops,
//!   beside a [`ServiceContext`] of other entries, and every node hosts
//!   a `_telemetry` object serving the process-wide metrics snapshot
//!   and span buffer as JSON.
//!
//! ```
//! use adapta_orb::{Orb, Servant, OrbResult, OrbError};
//! use adapta_idl::Value;
//!
//! struct Hello;
//! impl Servant for Hello {
//!     fn interface(&self) -> &str { "Hello" }
//!     fn invoke(&self, op: &str, args: Vec<Value>) -> OrbResult<Value> {
//!         match op {
//!             "hello" => Ok(Value::from(format!(
//!                 "hello, {}", args[0].as_str().unwrap_or("?")))),
//!             _ => Err(OrbError::unknown_operation("Hello", op)),
//!         }
//!     }
//! }
//!
//! # fn main() -> OrbResult<()> {
//! let server = Orb::new("server");
//! let objref = server.activate("hello-1", Hello)?;
//! let client = Orb::new("client");
//! let proxy = client.proxy(&objref);
//! let out = proxy.invoke("hello", vec![Value::from("world")])?;
//! assert_eq!(out, Value::from("hello, world"));
//! # Ok(())
//! # }
//! ```

mod adapter;
mod error;
mod fault;
pub mod interceptor;
mod marshal;
mod message;
mod naming;
mod orb;
mod proxy;
mod reference;
mod telemetry_servant;
pub mod transport;

pub use adapter::{ObjectAdapter, Servant, ServantFn};
pub use error::OrbError;
pub use fault::{FaultAction, FaultPlan, FaultRule, FaultServant};
pub use interceptor::{
    ClientAction, ClientInterceptor, ClientInterceptorFn, ClientRequestInfo, ServerAction,
    ServerInterceptor, ServerInterceptorFn, ServerRequestInfo, TimingObserver,
};
pub use marshal::{decode_value, encode_value};
pub use message::{IncomingRequest, Message, ReplyBody, RequestBody, ServiceContext};
pub use orb::{InvokeOptions, Orb, OrbOptions, OrbStats};
pub use proxy::{Proxy, Request};
pub use reference::ObjRef;
pub use telemetry_servant::TelemetryServant;

/// Result alias for broker operations.
pub type OrbResult<T> = std::result::Result<T, OrbError>;
