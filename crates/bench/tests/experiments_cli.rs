//! End-to-end check of the `experiments` binary's output handling.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn a_reader_that_stops_early_ends_the_run_cleanly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["all", "--runs", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("experiments starts");
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut first = String::new();
    BufReader::new(stdout)
        .read_line(&mut first)
        .expect("experiments writes a first line");
    assert!(!first.is_empty(), "experiments wrote nothing");
    // The reader is dropped here: the pipe is closed with output pending.
    let output = child.wait_with_output().expect("experiments exits");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(output.status.success(), "{:?}\n{stderr}", output.status);
}
