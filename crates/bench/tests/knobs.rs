//! The knob registry refuses a value it cannot parse: the driver exits
//! non-zero naming the knob before it does any work, instead of silently
//! running on the default.

use std::process::Command;

#[test]
fn unparsable_knob_stops_the_driver_and_names_the_knob() {
    let out = Command::new(env!("CARGO_BIN_EXE_chaos_soak"))
        .env("STELLAR_TICK_WORKERS", "eight")
        .output()
        .expect("run chaos_soak");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("STELLAR_TICK_WORKERS=\"eight\""),
        "stderr: {stderr}"
    );
    assert!(out.stdout.is_empty(), "the sweep must not have started");
}
