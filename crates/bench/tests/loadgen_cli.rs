//! The `loadgen` binary rejects a bad `--rps` the way it rejects every
//! other bad flag: a message naming the flag and exit code 2, before any
//! fleet is built — never a panic.

use std::process::Command;

#[test]
fn non_finite_and_non_positive_rates_exit_2() {
    for rps in ["nan", "inf", "-inf", "0", "-5", "1000,NaN"] {
        let out = Command::new(env!("CARGO_BIN_EXE_loadgen"))
            .args(["--rps", rps, "--requests", "4"])
            .output()
            .expect("the loadgen binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--rps {rps}: {stderr}");
        assert!(stderr.contains("--rps"), "--rps {rps}: {stderr}");
    }
}
