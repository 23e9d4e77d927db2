//! Simulation substrate for the `adapta` workspace.
//!
//! The paper's evaluation ran on departmental Linux machines, reading
//! `/proc/loadavg` and sharing load between live CORBA servers. This crate
//! provides the laptop-scale, deterministic equivalent:
//!
//! * [`clock`] — a [`Clock`] with real and virtual implementations,
//!   and [`Periodic`], the background job behind monitor drivers,
//!   replica-set refreshers and trader liveness sweeps;
//! * [`scheduler`] — a discrete-event [`Scheduler`]
//!   used by the experiment harness;
//! * [`host`] — [`SimHost`], a simulated machine with a
//!   ready queue and Linux-style 1/5/15-minute load averages, the signal
//!   the paper's `LoadAvg` monitor observes;
//! * [`workload`] — seeded open- and closed-loop request generators;
//! * [`metrics`] — latency/counter collection used to print experiment
//!   tables.
//!
//! Everything here is deterministic given a seed, so the experiments in
//! `adapta-bench` are exactly reproducible.

pub mod clock;
pub mod host;
pub mod metrics;
pub mod scheduler;
pub mod workload;

pub use clock::{Clock, Periodic, RealClock, SimTime, VirtualClock};
pub use host::{LoadAvg, SimHost};
pub use metrics::{Counter, Histogram};
pub use scheduler::Scheduler;
