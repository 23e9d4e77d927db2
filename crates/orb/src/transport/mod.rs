//! Transports.
//!
//! * in-process routing lives in [`crate::Orb`] itself (node registry +
//!   full marshalling round trip);
//! * [`tcp`] carries frames between processes: `u32` little-endian
//!   length prefix + message body (see [`crate::Message`]). Client
//!   connections are *multiplexed* — one pooled socket per endpoint
//!   carries any number of concurrent requests, correlated by request
//!   id — and each server connection is served by leader/followers:
//!   the thread that reads a request passes the lead on and serves it,
//!   so slow servants don't head-of-line-block a connection.

pub mod tcp;
