//! `repro_tables`' command line: a table it does not have, or a
//! `--table` without a number, is a usage error that runs nothing — not
//! a pass over zero checks.

use std::process::{Command, Output};

fn repro_tables(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro_tables"))
        .args(args)
        .output()
        .expect("repro_tables runs")
}

#[test]
fn one_table_runs_its_checks_and_passes() {
    let out = repro_tables(&["--table", "4"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("[PASS] Table 4:"), "{stdout}");
    assert!(!stdout.contains("Table 2"), "{stdout}");
    assert!(stdout.ends_with("ALL CHECKS PASSED\n"), "{stdout}");
}

#[test]
fn a_table_it_does_not_have_is_a_usage_error() {
    for args in [
        &["--table", "9"][..],
        &["--table", "0"],
        &["--table", "four"],
        &["--table", "-1"],
        &["--table"],
        &["--table", "4", "--nope"],
    ] {
        let out = repro_tables(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stdout}");
        assert!(stdout.is_empty(), "{args:?} ran checks: {stdout}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage: repro_tables"),
            "{args:?}"
        );
    }
}
