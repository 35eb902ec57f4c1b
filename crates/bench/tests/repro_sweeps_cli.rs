//! `repro_sweeps`' command line: an argument that names no series is a
//! usage error that runs nothing, and a reader that stops taking rows
//! early — `repro_sweeps conflict | head -1` — ends the run quietly.

use std::io::{BufRead, BufReader};
use std::process::{Command, Output, Stdio};

fn repro_sweeps(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro_sweeps"))
        .args(args)
        .output()
        .expect("repro_sweeps runs")
}

#[test]
fn one_series_writes_its_csv_only() {
    let out = repro_sweeps(&["discount"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(
        stdout.starts_with("# series: discount\nalpha,kappa,bel_left_value\n"),
        "{stdout}"
    );
    assert_eq!(stdout.lines().count(), 2 + 11, "{stdout}");
    assert!(!stdout.contains("# series: conflict"), "{stdout}");
}

#[test]
fn an_argument_that_names_no_series_is_a_usage_error() {
    for args in [
        &["bogus"][..],
        &[""],
        &["Conflict"],
        &["conflict", "overlap"],
        &["--all"],
    ] {
        let out = repro_sweeps(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran a series");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage: repro_sweeps"),
            "{args:?}"
        );
    }
}

/// The reader takes the first line and closes the pipe while the series
/// is still computing its first row; the next write finds the pipe
/// broken, and the run ends with exit 0 and nothing on stderr.
#[test]
fn a_reader_that_stops_early_ends_the_run_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro_sweeps"))
        .arg("conflict")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("repro_sweeps runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("the first line arrives");
    assert_eq!(first, "# series: conflict\n");
    let out = child.wait_with_output().expect("repro_sweeps ends");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}
