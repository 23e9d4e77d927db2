//! Bridges the [Rua](adapta_script) interpreter into the `adapta`
//! distributed stack.
//!
//! Three pieces:
//!
//! * [`from_wire`]/[`to_wire`] — lossless-where-possible mapping between script values
//!   and wire [`Value`](adapta_idl::Value)s (the LuaCorba parameter
//!   mapping);
//! * [`ScriptActor`] — a dedicated thread owning one interpreter (a
//!   "script state"), serving closures sent over a channel. This is how
//!   a single-threaded interpreter can back thread-safe servants,
//!   monitors and smart proxies — the analogue of the LuaCorba adapter
//!   that funnels all DSI upcalls into one Lua state;
//! * [`Stored`] — the owning handle of a script value kept in an
//!   actor, released when its last clone drops.

mod actor;
mod convert;

pub use actor::{ActorError, ScriptActor, Stored};
pub use convert::{from_wire, to_wire};
