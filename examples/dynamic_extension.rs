//! Dynamic extension of live components (Section II) and
//! interceptor-based adaptation (Section VI, the paper's ongoing work).
//!
//! "Components implemented with a scripting language can be dynamically
//! modified and extended without compiling or linking phases, and so,
//! without interrupting their services. With an interpreted language,
//! it is easy to send code across a network, which allows the system to
//! do automatic or interactive remote modifications and extensions to
//! distributed components and services."
//!
//! This example (1) upgrades a script-implemented server's method while
//! a client keeps calling it, (2) *extends* it with a brand-new
//! operation shipped as source code, and (3) shows a completely
//! standard proxy being adapted by an [`AdaptiveRedirect`] interceptor —
//! no smart proxy anywhere.
//!
//! Run with: `cargo run --example dynamic_extension`

use std::sync::Arc;
use std::time::Duration;

use adapta::core::{AdaptiveRedirect, Infrastructure, ScriptServant, ServerSpec};
use adapta::idl::Value;
use adapta::monitor::Isolate;
use adapta::orb::Orb;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- a component implemented in the scripting language ---
    let isolate = Isolate::new("greeter-host", |_| {});
    let servant = ScriptServant::from_source(
        &isolate,
        "Greeter",
        r#"return { greet = function(self, who) return "hello, " .. who end }"#,
    )?;
    let orb = Orb::new("greeter-node");
    let objref = orb.activate("greeter", servant.clone())?;
    let client = orb.proxy(&objref);

    println!(
        "v1:           {}",
        client.invoke("greet", vec![Value::from("ana")])?
    );

    // --- live modification: the new method body arrives as source ---
    servant.update_method("greet", r#"function(self, who) return "olá, " .. who end"#)?;
    println!(
        "v2 (patched): {}",
        client.invoke("greet", vec![Value::from("ana")])?
    );

    // --- live extension: a brand-new operation appears ---
    servant.update_method(
        "greet_many",
        r#"function(self, names)
            local out = {}
            for i, name in ipairs(names) do
                out[i] = self:greet(name)
            end
            return out
        end"#,
    )?;
    let many = client.invoke(
        "greet_many",
        vec![Value::Seq(vec![Value::from("ana"), Value::from("noemi")])],
    )?;
    println!("v3 (extended): greet_many -> {many}");

    // --- interceptor-based adaptation of a *standard* proxy ---
    // (Section VI: "plug our dynamic adaptation support into standard
    // CORBA applications" — the client below knows nothing about
    // adaptation; a request interceptor location-forwards its calls.)
    let infra = Infrastructure::in_process()?;
    let busy = infra.spawn_server(ServerSpec::echo("Compute", "ext-busy"))?;
    infra.spawn_server(ServerSpec::echo("Compute", "ext-calm"))?;
    let handle = AdaptiveRedirect::new(
        Arc::new(infra.trader().clone()),
        "Compute",
        "LoadAvg < 3 and LoadAvgIncreasing == no",
        "min LoadAvg",
    )
    .install(infra.orb());

    let standard = infra.orb().proxy(busy.target());
    println!(
        "\nstandard proxy initially served by {}",
        standard.invoke("whoami", vec![])?
    );
    infra.set_background("ext-busy", 6.0);
    infra.advance_in_steps(Duration::from_secs(180), Duration::from_secs(30));
    println!(
        "after the load spike, the same proxy is served by {} \
         ({} requests were location-forwarded)",
        standard.invoke("whoami", vec![])?,
        handle.redirects()
    );
    assert_eq!(standard.invoke("whoami", vec![])?, Value::from("ext-calm"));
    Ok(())
}
