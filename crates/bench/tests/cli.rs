//! Argument handling of the `experiments` binary. The case here is
//! rejected while the arguments are parsed, before any workload is built,
//! so the test runs the binary for milliseconds.

use std::process::Command;

#[test]
fn engine_is_an_unknown_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["tables678", "--quick", "--engine", "sparse"])
        .output()
        .expect("the experiments binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("error: unknown flag `--engine`"),
        "stderr: {stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing runs before the check");
}
