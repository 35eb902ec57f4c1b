//! The `evirel-serve` command line: a mistyped flag is a usage error
//! (exit 2, usage on stderr), never a relation file to load. Each case
//! exits before the server binds a socket.

use std::process::{Command, Output};

fn serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_evirel-serve"))
        .args(args)
        .output()
        .expect("evirel-serve runs")
}

#[test]
fn an_unknown_flag_is_a_usage_error() {
    for args in [&["--bogus"][..], &["--worker", "4"]] {
        let out = serve(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: evirel-serve"), "{args:?}: {stderr}");
    }
}

#[test]
fn a_flag_without_its_value_is_a_usage_error() {
    let out = serve(&["--workers"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--workers requires a value"), "{stderr}");
}

#[test]
fn help_prints_the_usage_and_exits_0() {
    let out = serve(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: evirel-serve"));
}
