//! The `loadgen` binary rejects bad flags — a bad `--rps`, a zero
//! `--max-batch` entry, a non-finite or negative duration, or a flag it
//! does not know — with a message naming the flag and exit code 2,
//! before any fleet is built: never a panic. A stdout closed before the
//! run prints anything costs none of the files it was asked to write.

use std::process::{Command, Stdio};

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
        ("--max-wait-us", "nan"),
        ("--max-wait-us", "-1"),
        ("--slo-us", "inf"),
        ("--slo-us", "-200"),
        ("--max-lag-us", "NaN"),
        ("--max-lag-us", "-50"),
        ("--duration-ms", "inf"),
        ("--duration-ms", "-1"),
        ("--scrape-us", "nan"),
        ("--scrape-us", "-500"),
        ("--autoscale-cooldown-us", "-inf"),
        ("--autoscale-cooldown-us", "-1"),
        ("--brownout-cooldown-us", "nan"),
        ("--brownout-cooldown-us", "-1"),
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

#[test]
fn unknown_arguments_exit_2_naming_them() {
    let cases: [&[&str]; 3] = [
        &["--requests", "4", "--bogus", "1"],
        &["--model-only", "--requests", "4", "--stream"],
        &["--mix", "stray"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_loadgen"))
            .args(args)
            .output()
            .expect("the loadgen binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let unknown = args
            .iter()
            .find(|a| ["--bogus", "--stream", "stray"].contains(a));
        assert!(stderr.contains(unknown.unwrap()), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: loadgen"), "{args:?}: {stderr}");
    }
}

#[test]
fn closed_stdout_still_writes_every_file() {
    let dir = std::env::temp_dir().join(format!("loadgen-closed-stdout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let files = ["run.json", "run.trace.json", "run.prom"].map(|f| dir.join(f));
    let mut child = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args(["--model-only", "--requests", "200", "--replicas", "1"])
        .args(
            ["--json", "--trace", "--metrics"]
                .iter()
                .zip(&files)
                .flat_map(|(flag, f)| [std::ffi::OsStr::new(flag), f.as_os_str()]),
        )
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the loadgen binary runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("loadgen finishes");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    for f in &files {
        let written = std::fs::metadata(f).map_or(0, |m| m.len());
        assert!(written > 0, "{} not written: {stderr}", f.display());
    }
    std::fs::remove_dir_all(&dir).ok();
}
