//! The `redsim` binary rejects a bad flag value — an unknown `--design`
//! or `--macros`, a zero, unparsable or missing `--scale` — and a bad
//! `custom` layer field with a line naming it, the usage text and exit
//! code 2, instead of running with a default; and it exits quietly with
//! status 0 when its stdout closes early.

use std::process::{Command, Stdio};

fn redsim(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_redsim"))
        .args(args)
        .output()
        .expect("the redsim binary runs")
}

#[test]
fn bad_flag_values_exit_2_naming_the_flag() {
    let cases: [&[&str]; 8] = [
        &["estimate", "GAN_Deconv3", "--design", "bogus"],
        &["estimate", "GAN_Deconv3", "--macros", "7"],
        &[
            "estimate", "custom", "8", "512", "256", "5", "2", "2", "--design", "x",
        ],
        &["compare", "GAN_Deconv1", "--macros", "7"],
        &["run", "GAN_Deconv3", "--scale", "0"],
        &["run", "GAN_Deconv3", "--scale", "abc"],
        &["run", "GAN_Deconv3", "--scale"],
        &["run", "GAN_Deconv3", "--design", "bogus"],
    ];
    for args in cases {
        let flag = args.iter().find(|a| a.starts_with("--")).unwrap();
        let out = redsim(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        // The first line names the bad flag; the usage text follows.
        let first = stderr.lines().next().unwrap_or_default();
        assert!(first.contains(flag), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
    let out = redsim(&[
        "estimate",
        "GAN_Deconv3",
        "--design",
        "pf",
        "--macros",
        "128",
    ]);
    assert!(out.status.success(), "valid values still run");
}

#[test]
fn every_custom_field_must_parse() {
    // (args, the text the first stderr line must name)
    let cases: [(&[&str], &str); 5] = [
        (
            &[
                "estimate", "custom", "8", "512", "abc", "256", "5", "2", "2",
            ],
            "M \"abc\"",
        ),
        (
            &["estimate", "custom", "8", "512", "256", "5", "2", "-1"],
            "P \"-1\"",
        ),
        (
            &["compare", "custom", "8", "512", "256", "5", "2", "2", "x"],
            "OP \"x\"",
        ),
        (
            &["estimate", "custom", "8", "512", "256", "5", "2"],
            "got 5 fields",
        ),
        (
            &[
                "estimate", "custom", "8", "512", "256", "5", "2", "2", "1", "9",
            ],
            "got 8 fields",
        ),
    ];
    for (args, named) in cases {
        let out = redsim(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(first.contains(named), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
    for args in [
        &["estimate", "custom", "8", "512", "256", "5", "2", "2"][..],
        &[
            "estimate", "custom", "8", "512", "256", "5", "2", "2", "1", "--design", "pf",
        ],
        &["compare", "custom", "8", "512", "256", "5", "2", "2"],
    ] {
        assert!(redsim(args).status.success(), "{args:?} still runs");
    }
}

/// A reader that closes its end of the pipe before `redsim` prints — as
/// `redsim ... | head -1` does after one line — ends `redsim` with
/// status 0 and no panic.
#[test]
fn closed_stdout_exits_0_without_panicking() {
    for args in [
        &["estimate", "custom", "8", "512", "256", "5", "2", "2"][..],
        &["list"],
        &["compare", "FCN_Deconv2"],
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_redsim"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("the redsim binary runs");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("redsim finishes");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
