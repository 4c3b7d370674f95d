//! A flag the subcommand does not read ends the process with exit code 2
//! and names the flag, instead of being silently ignored.

use std::process::Command;

#[test]
fn retired_ingress_flag_exits_with_code_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_frame-cli"))
        .args([
            "broker",
            "--manifest",
            "topics.json",
            "--ingress",
            "threaded",
        ])
        .output()
        .expect("frame-cli runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown flag `--ingress`"),
        "stderr: {stderr}"
    );
}
