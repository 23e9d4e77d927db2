//! Bridges the [Rua](adapta_script) interpreter into the `adapta`
//! distributed stack.
//!
//! Three pieces:
//!
//! * [`from_wire`]/[`to_wire`] — lossless-where-possible mapping between
//!   script values and wire [`Value`](adapta_idl::Value)s (the LuaCorba
//!   parameter mapping);
//! * [`Isolate`] — one interpreter (a "script state") behind a lock, run
//!   on the calling thread, backing thread-safe servants, monitors and
//!   smart proxies — the analogue of the LuaCorba adapter that funnels
//!   all DSI upcalls into one Lua state;
//! * [`Stored`] — the owning handle of a script value kept in an
//!   isolate, released when its last clone drops.

mod convert;
mod isolate;

pub use convert::{from_wire, to_wire};
pub use isolate::{ActorError, Isolate, Stored};
