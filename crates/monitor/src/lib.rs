//! Extensible monitoring — the LuaMonitor reproduction.
//!
//! A [`Monitor`] represents one observed property (the paper's
//! `BasicMonitor`): it holds a current value, refreshed periodically
//! from a *value source* — a native Rust closure or a script function
//! installed at run time. On top of that:
//!
//! * **aspects** (`AspectsManager`, Figure 1): derived statistics whose
//!   update functions are supplied *as code* at run time
//!   ([`Monitor::define_aspect_script`]) and re-evaluated on every
//!   monitor tick. The paper's example is `Increasing` — whether the
//!   1-minute load average exceeds the 5-minute one;
//! * **event observation** (`EventMonitor`, Figure 2): observers
//!   register with an event id and an *event-diagnosing predicate*
//!   shipped as code and evaluated at the monitor (the remote-evaluation
//!   paradigm). When the predicate fires, the monitor sends a `oneway
//!   notifyEvent(evid)` to the observer;
//! * **dynamic properties**: any monitor doubles as a trading-service
//!   dynamic property through its `evalDP` operation
//!   (see [`MonitorServant`]);
//! * a **script-side API** ([`MonitorHost`]) that lets the paper's
//!   listings run verbatim: `EventMonitor.new(name, updatef, period)`,
//!   `mon:defineAspect(...)`, `mon:attachEventObserver(...)`;
//! * the **LoadAverage monitor** of Figure 3 ([`load_average_monitor`]),
//!   reading a synthetic `/proc/loadavg` backed by a simulated host.
//!
//! Monitors are passive with respect to time: something must call
//! [`Monitor::tick`]. Use [`MonitorDriver`] (a thread that sleeps
//! between ticks and ends when the driver drops) for wall-clock
//! deployments, or drive ticks from a simulation scheduler.

mod driver;
mod facade;
mod guard;
mod loadavg;
mod monitor;
mod servant;

pub use adapta_bridge::{ActorError, Isolate, Stored};
pub use driver::MonitorDriver;
pub use facade::MonitorHost;
pub use loadavg::{load_average_monitor, loadavg_reader, LOAD_AVERAGE_MONITOR_SOURCE};
pub use monitor::{
    Monitor, MonitorBuilder, ObserverId, ObserverTarget, EVICT_AFTER_FAILED_PUSHES,
    MAX_INSTALLS_PER_INSTALLER, OBSERVER_QUEUE_CAP,
};
pub use servant::MonitorServant;
