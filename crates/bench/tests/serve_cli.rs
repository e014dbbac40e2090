//! The `serve` binary rejects an argument it does not know — a misspelt
//! flag or a stray value — with usage naming it and exit code 2, before
//! any chip is compiled, as it rejects a bad value; every flag it
//! documents, `--csv` included, still parses, and a flag is never taken
//! as another flag's value.

use std::process::Command;

#[test]
fn unknown_arguments_exit_2_naming_them() {
    let cases: [&[&str]; 4] = [
        &["--batch", "2", "--scale", "8", "--noisey", "full"],
        &["--bogus"],
        &["--verify", "stray"],
        &["--batch", "2", "-v"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(args)
            .output()
            .expect("the serve binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let unknown = args
            .iter()
            .find(|a| ["--noisey", "--bogus", "stray", "-v"].contains(a));
        assert!(stderr.contains(unknown.unwrap()), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: serve"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran: {stderr}");
    }
}

#[test]
fn documented_flags_parse() {
    let dir = std::env::temp_dir().join(format!("serve-cli-{}", std::process::id()));
    let json = dir.join("serve.json");
    let out = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--batch", "1", "--scale", "64", "--verify", "--csv"])
        .arg(&dir)
        .arg("--json")
        .arg(&json)
        .output()
        .expect("the serve binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(dir.join("serve.csv").exists(), "{stderr}");
    assert!(json.exists(), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A `--csv` followed by another flag writes to `results/`, as a trailing
/// `--csv` does, and the flag after it still takes effect.
#[test]
fn csv_followed_by_a_flag_writes_to_results() {
    let dir = std::env::temp_dir().join(format!("serve-cli-csv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--batch", "1", "--scale", "64", "--csv", "--verify"])
        .current_dir(&dir)
        .output()
        .expect("the serve binary runs");
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(dir.join("results/serve.csv").exists(), "{stdout}");
    assert!(!dir.join("--verify").exists(), "{stdout}");
    assert!(stdout.contains("outputs verified bit-exact"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}
