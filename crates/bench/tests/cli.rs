//! `repro`'s command line is a trust boundary: what the grammar does not
//! generate exits 2 with the usage line instead of running something
//! other than what was asked for.

use std::process::Command;

fn repro(args: &[&str]) -> (Option<i32>, String) {
    let dir = std::env::temp_dir().join(format!("repro-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("repro runs");
    let stray = std::fs::read_dir(&dir).expect("scratch dir").count();
    std::fs::remove_dir_all(&dir).expect("scratch dir removed");
    assert_eq!(stray, 0, "{args:?} left files behind");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn repro_rejects_what_its_grammar_does_not_generate() {
    for (args, why) in [
        // A mistyped flag must not silently measure the default.
        (
            &["intro", "--small", "--bogus-flag", "7"][..],
            "unknown flag",
        ),
        (&["intro", "--small", "--wire-codex", "lz"], "unknown flag"),
        // A flag must not swallow the next flag as its value (this one
        // used to write a ledger file named `--small`).
        (&["--small", "--ledger", "--small"], "requires a value"),
        (&["intro", "--small", "--trace"], "requires a value"),
        // kib << 10 used to wrap to a budget of 0: spill everything.
        (
            &["--small", "--shuffle-mem-kib", "18014398509481984"],
            "not a KiB count",
        ),
        (&["--small", "--shuffle-mem-kib", "-1"], "not a KiB count"),
        (&["intro", "fig3", "--small"], "more than one experiment"),
    ] {
        let (code, stderr) = repro(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(why), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: repro [EXPERIMENT] [--small] [--trace <path>]"),
            "{args:?}: {stderr}"
        );
    }
    let (code, stderr) = repro(&["intro", "--small"]);
    assert_eq!(code, Some(0), "{stderr}");
}
