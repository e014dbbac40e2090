//! The `loadgen` binary rejects bad flags — a bad `--rps` or a zero
//! `--max-batch` entry — with a message naming the flag and exit code 2,
//! before any fleet is built: never a panic.

use std::process::Command;

#[test]
fn non_finite_and_non_positive_rates_exit_2() {
    let bad_flags = [
        ("--rps", "nan"),
        ("--rps", "inf"),
        ("--rps", "-inf"),
        ("--rps", "0"),
        ("--rps", "-5"),
        ("--rps", "1000,NaN"),
        ("--max-batch", "0"),
        ("--max-batch", "8,0"),
    ];
    for (flag, value) in bad_flags {
        let out = Command::new(env!("CARGO_BIN_EXE_loadgen"))
            .args([flag, value, "--requests", "4"])
            .output()
            .expect("the loadgen binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(stderr.contains(flag), "{flag} {value}: {stderr}");
    }
}
