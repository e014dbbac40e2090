//! The figure binaries reject an argument they do not know with their
//! usage and exit code 2, before they compute or write anything; the
//! four that write a CSV still take `--csv <dir>`.

use std::process::Command;

#[test]
fn figure_binaries_reject_unknown_arguments() {
    let dir = std::env::temp_dir().join(format!("figure-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let binaries = [
        ("fig4", env!("CARGO_BIN_EXE_fig4")),
        ("fig7", env!("CARGO_BIN_EXE_fig7")),
        ("fig8", env!("CARGO_BIN_EXE_fig8")),
        ("fig9", env!("CARGO_BIN_EXE_fig9")),
        ("table1", env!("CARGO_BIN_EXE_table1")),
        ("headline", env!("CARGO_BIN_EXE_headline")),
        ("ablation", env!("CARGO_BIN_EXE_ablation")),
        ("experiments", env!("CARGO_BIN_EXE_experiments")),
    ];
    for (name, exe) in binaries {
        // `experiments` writes into its working directory when it runs.
        let out = Command::new(exe)
            .arg("--bogus")
            .current_dir(&dir)
            .output()
            .expect("the binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(stderr.contains("--bogus"), "{name}: {stderr}");
        assert!(
            stderr.contains(&format!("usage: {name}")),
            "{name}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{name} ran: {stderr}");
    }
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "a rejected run wrote"
    );
    let csv = dir.join("csv");
    let out = Command::new(env!("CARGO_BIN_EXE_fig4"))
        .arg("--csv")
        .arg(&csv)
        .output()
        .expect("fig4 runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(csv.join("fig4.csv").exists(), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
