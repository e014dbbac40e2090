//! Every binary that reads JSON (`benchdiff`, `analyze`, `tracecheck`)
//! answers a document nested far past `minijson`'s depth limit with an
//! ordinary error exit and a message, never a stack overflow.

use std::process::Command;

#[test]
fn deeply_nested_json_is_an_error_not_a_crash() {
    let path = std::env::temp_dir().join(format!("deep-json-{}.json", std::process::id()));
    let depth = 50_000;
    std::fs::write(&path, format!("{}{}", "[".repeat(depth), "]".repeat(depth)))
        .expect("temp file");
    let file = path.as_os_str();
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_benchdiff"), vec![file, file]),
        (env!("CARGO_BIN_EXE_analyze"), vec![file]),
        (env!("CARGO_BIN_EXE_tracecheck"), vec![file]),
    ] {
        let out = Command::new(bin)
            .args(args)
            .output()
            .expect("the binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            matches!(out.status.code(), Some(1 | 2)),
            "{bin}: {:?} {stderr}",
            out.status
        );
        assert!(!stderr.contains("overflowed"), "{bin}: {stderr}");
        assert!(stderr.contains("nesting deeper than"), "{bin}: {stderr}");
    }
    std::fs::remove_file(&path).ok();
}
