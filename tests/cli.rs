//! The `metaleak` binary rejects malformed option values with a usage
//! error (exit 1) instead of falling back to a default or panicking.

use std::process::{Command, Output};

fn metaleak(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_metaleak")).args(args).output().expect("spawn metaleak")
}

fn assert_usage_error(args: &[&str], option: &str) {
    let out = metaleak(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1; stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    assert!(stderr.contains(option), "{args:?} must name {option}: {stderr}");
    assert!(stderr.contains("USAGE:"), "{args:?} must print the usage text: {stderr}");
}

#[test]
fn malformed_counts_are_usage_errors() {
    assert_usage_error(&["covert-t", "--bits", "abc"], "--bits");
    assert_usage_error(&["covert-t", "--bits"], "--bits");
    assert_usage_error(&["covert-t", "--bits", "0"], "--bits");
    assert_usage_error(&["covert-t", "--bits", "99999999999"], "--bits");
    assert_usage_error(&["covert-c", "--symbols", "0"], "--symbols");
    assert_usage_error(&["covert-c", "--symbols", "-3"], "--symbols");
    assert_usage_error(&["steal-image", "--size", "big"], "--size");
}

#[test]
fn a_valid_count_runs_the_channel() {
    let out = metaleak(&["covert-t", "--bits", "8"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("8 bits"), "stdout: {stdout}");
    assert!(stdout.contains("accuracy"), "stdout: {stdout}");
}
