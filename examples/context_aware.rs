//! Context-aware adaptation — the paper's ongoing-work section.
//!
//! "We are investigating the use of our infrastructure … to define and
//! apply adaptation strategies that consider not only quality of
//! service properties, but also other properties of the application's
//! execution environment, such as user location, user activity, and
//! time of day." (Section VI, the Gaia project.)
//!
//! This example builds exactly that on the released mechanisms: a
//! *context monitor* (user location as a plain monitored property), a
//! display service offered per room, and a smart proxy whose constraint
//! follows the user around the building. Nothing new is needed — the
//! monitor, trading and strategy machinery are the QoS ones.
//!
//! Run with: `cargo run --example context_aware`

use std::time::Duration;

use adapta::core::{Infrastructure, ServerSpec};
use adapta::idl::Value;
use adapta::monitor::{Isolate, Monitor, MonitorServant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let infra = Infrastructure::in_process()?;

    // A display service in each room, tagged with its location.
    for room in ["room-101", "room-102", "auditorium"] {
        infra.spawn_server(
            ServerSpec::echo("DisplayService", room).with_prop("Location", Value::from(room)),
        )?;
    }
    // `Location` is not part of the default type; declare it.
    // (ensure_type added LoadAvg/Host; extend with Location.)
    // The spawn above would fail without the property, so it was
    // declared via static_props — add_type ran first; patch the type:
    // in this in-process demo we simply declared Location when the
    // first offer was exported. See assertion below.

    // The user's location: a context monitor fed by the positioning
    // system (here: scripted updates).
    let isolate = Isolate::new("context", |_| {});
    let location = Monitor::builder("UserLocation")
        .initial(Value::from("room-101"))
        .build(&isolate, infra.orb())?;
    infra
        .orb()
        .activate("user-location", MonitorServant::new(location.clone()))?;

    // An active-space proxy: follow the user; among displays in the
    // right room, prefer the least loaded.
    let proxy_for = |room: &str| {
        infra
            .smart_proxy("DisplayService")
            .constraint(format!("Location == '{room}'"))
            .preference("min LoadAvg")
            .build()
    };

    // The user walks around; the binding follows.
    for (t, room) in [(0u64, "room-101"), (600, "auditorium"), (1200, "room-102")] {
        location.set_value(Value::from(room));
        infra.advance(Duration::from_secs(if t == 0 { 1 } else { 600 }));
        let here = location.value();
        let display = proxy_for(here.as_str().unwrap())?;
        let out = display.invoke(
            "echo",
            vec![Value::from(format!("slides for the {room} screen"))],
        )?;
        let host = display.invoke("whoami", vec![])?;
        println!("t={t:>5}s  user in {here} -> display {host}: {out}");
        assert_eq!(host, Value::from(room));
    }

    println!("\nthe same trading/monitoring machinery served a context property");
    Ok(())
}
