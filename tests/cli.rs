//! The `sapred` binary's argument handling: a misspelt or foreign flag is
//! an error that names it, never silently ignored.

use std::process::Command;

#[test]
fn unknown_flags_are_rejected_by_name() {
    let cases: [(&[&str], &str); 3] = [
        (&["reproduce", "--queries", "5"], "--queries"),
        (&["explain", "--sql", "SELECT 1", "--sacle", "3"], "--sacle"),
        (&["trace", "bing", "--queue_cap", "3"], "--queue_cap"),
    ];
    for (args, flag) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_sapred"))
            .args(args)
            .output()
            .expect("the sapred binary starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "sapred {args:?} succeeded");
        assert!(stderr.contains(&format!("unknown flag `{flag}`")), "sapred {args:?}: {stderr}");
    }
}

#[test]
fn trace_accepts_every_shed_policy_spelling_fleet_accepts() {
    // `largest_wrd` is a spelling `fleet` accepts; `trace` must parse it the
    // same way and fail only on the bad `--guard` value, before any training.
    let out = Command::new(env!("CARGO_BIN_EXE_sapred"))
        .args(["trace", "bing", "--shed-policy", "largest_wrd", "--guard", "maybe"])
        .output()
        .expect("the sapred binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a bad --guard value must fail");
    assert!(stderr.contains("--guard expects on|off"), "{stderr}");
    assert!(!stderr.contains("unknown shed policy"), "{stderr}");
}
