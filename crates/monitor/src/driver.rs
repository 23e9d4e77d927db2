//! Wall-clock driving of monitors.
//!
//! Monitors are passive ([`Monitor::tick`] must be called). In a real
//! deployment the paper's "internal timing mechanism" is this driver: a
//! [`Periodic`] job ticking the monitor every period. Simulations
//! schedule ticks on a virtual clock instead.

use std::sync::Arc;
use std::time::Duration;

use adapta_sim::{Clock, Periodic};

use crate::monitor::Monitor;

/// A background thread ticking a monitor at its period. It paces itself
/// in wall time, stamps each tick with the clock's `now()`, and ends as
/// soon as the driver drops.
#[derive(Debug)]
pub struct MonitorDriver(Periodic);

impl MonitorDriver {
    /// Starts driving `monitor` every `period`, stamping ticks from `clock`.
    pub fn start(monitor: Monitor, clock: Arc<dyn Clock>, period: Duration) -> MonitorDriver {
        let name = format!("mon-driver-{}", monitor.property());
        MonitorDriver(Periodic::start(name, period, move || {
            monitor.tick(clock.now());
            Some(period)
        }))
    }

    /// Starts driving at the monitor's own period hint.
    pub fn start_default(monitor: Monitor, clock: Arc<dyn Clock>) -> MonitorDriver {
        let period = monitor.period();
        Self::start(monitor, clock, period)
    }

    /// Stops the driver (also happens on drop).
    pub fn stop(&self) {
        self.0.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapta_bridge::Isolate;
    use adapta_idl::Value;
    use adapta_orb::Orb;
    use adapta_sim::RealClock;

    #[test]
    fn driver_ticks_until_stopped() {
        let orb = Orb::new("driver-test");
        let actor = Isolate::new("driver-test", |_| {});
        let monitor = Monitor::builder("T")
            .source_native(|_| Value::from(1.0))
            .build(&actor, &orb)
            .unwrap();
        let clock: Arc<dyn Clock> = Arc::new(RealClock::new());
        let driver = MonitorDriver::start(monitor.clone(), clock, Duration::from_millis(5));
        for _ in 0..200 {
            if monitor.ticks() >= 3 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(monitor.ticks() >= 3, "driver should have ticked");
        driver.stop();
        let after_stop = monitor.ticks();
        std::thread::sleep(Duration::from_millis(50));
        // Allow at most one in-flight tick after stop.
        assert!(monitor.ticks() <= after_stop + 1);
    }
}
