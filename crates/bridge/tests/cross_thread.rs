//! An isolate's interpreter runs on whichever thread enters it. These
//! tests check that it stays one consistent script state when many
//! threads take turns, and that handles dropped on threads that never
//! entered it still release its values.

use std::sync::Barrier;

use adapta_bridge::{Isolate, Stored};
use adapta_idl::Value;
use adapta_script::Value as Script;

const THREADS: usize = 8;
const CALLS: usize = 500;

#[test]
fn eight_threads_share_one_stateful_closure() {
    let isolate = Isolate::new("xthread", |_| {});
    let counter = isolate
        .store_function(
            "local n = 0
             return function(read) if not read then n = n + 1 end return n end",
        )
        .unwrap();
    let start = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                start.wait();
                for _ in 0..CALLS {
                    isolate
                        .with(|interp| Isolate::call_in(interp, &counter, vec![]))
                        .unwrap()
                        .unwrap();
                }
            });
        }
    });
    let total = isolate
        .with(|interp| Isolate::call_in(interp, &counter, vec![Script::Bool(true)]))
        .unwrap()
        .unwrap();
    assert_eq!(total, vec![Value::Long((THREADS * CALLS) as i64)]);
}

#[test]
fn handles_dropped_on_foreign_threads_are_released_at_the_next_entry() {
    let isolate = Isolate::new("xthread-drop", |_| {});
    let handles: Vec<Vec<Stored>> = (0..THREADS)
        .map(|t| {
            (0..CALLS / 10)
                .map(|i| {
                    isolate
                        .store_function(&format!("function() return {t} * {i} end"))
                        .unwrap()
                })
                .collect()
        })
        .collect();
    assert_eq!(isolate.stored_count().unwrap(), THREADS * CALLS / 10);
    // Each batch drops on a thread that never enters the isolate.
    std::thread::scope(|s| {
        for batch in handles {
            s.spawn(move || drop(batch));
        }
    });
    assert_eq!(isolate.stored_count().unwrap(), 0);
}
