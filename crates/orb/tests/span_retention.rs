//! What the span collector retains stays bounded when a remote caller
//! picks huge names: a key near the frame limit is cut in every span
//! that records it, and a reused slot gives the excess capacity back.
//!
//! Its own test binary: it shrinks the process-wide collector.

use adapta_orb::{ObjRef, Orb, OrbError};
use adapta_telemetry::{collector, MAX_TEXT_LEN, RETAINED_SPAN_BYTES};

#[test]
fn huge_keys_to_a_missing_object_leave_the_collector_bounded() {
    const CAPACITY: usize = 64;
    collector().set_capacity(CAPACITY);
    let server = Orb::new("retention-server");
    let endpoint = server.listen_tcp("127.0.0.1:0").unwrap();
    let client = Orb::new("retention-client");
    let key = "k".repeat(1 << 20);
    let target = ObjRef::new(endpoint, key.as_str(), "Missing");
    let proxy = client.proxy(&target);
    for _ in 0..100 {
        match proxy.invoke("ping", vec![]) {
            Err(OrbError::ObjectNotFound { key: missing }) => assert_eq!(missing.len(), key.len()),
            other => panic!("expected object-not-found, got {other:?}"),
        }
    }
    // 100 calls record 200 spans: the ring wrapped three times.
    assert!(collector().dropped() >= 100);
    let bytes = collector().heap_bytes();
    assert!(
        bytes <= CAPACITY * RETAINED_SPAN_BYTES,
        "{bytes} bytes retained, bound {}",
        CAPACITY * RETAINED_SPAN_BYTES
    );
    let spans = collector().finished();
    let served = spans
        .iter()
        .find(|s| s.name == "server:ping")
        .expect("server span retained");
    for name in ["key", "error"] {
        let (_, value) = served
            .attrs
            .iter()
            .find(|(k, _)| k == name)
            .unwrap_or_else(|| panic!("no `{name}` attribute"));
        assert!(
            value.len() <= MAX_TEXT_LEN,
            "`{name}`: {} bytes",
            value.len()
        );
        assert!(value.ends_with('…'), "`{name}` carries no cut marker");
    }
}
