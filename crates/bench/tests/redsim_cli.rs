//! The `redsim` binary rejects a bad flag value — an unknown `--design`
//! or `--macros`, a zero, unparsable or missing `--scale` — with a line
//! naming the flag, the usage text and exit code 2, instead of running
//! with a default.

use std::process::Command;

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
