//! The command-line tools refuse bad input instead of panicking: a flag
//! value that does not parse, a removed flag or an invalid study prints
//! an `error: …` line naming the flag or the problem, and the process
//! exits 1.

use std::process::Command;

/// Runs `bin` with `args` and asserts that it exits 1 without a panic,
/// with an `error:` line on stderr that contains `names`.
fn refuses(bin: &str, args: &[&str], names: &str) {
    let cmd = format!("{bin} {}", args.join(" "));
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("the binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{cmd} panicked:\n{stderr}");
    assert_eq!(out.status.code(), Some(1), "{cmd}:\n{stderr}");
    assert!(
        stderr
            .lines()
            .any(|line| line.starts_with("error:") && line.contains(names)),
        "{cmd}: no error line naming `{names}`:\n{stderr}"
    );
}

#[test]
fn repro_reports_bad_flags_and_invalid_studies_as_errors() {
    let repro = env!("CARGO_BIN_EXE_repro");
    // A store under the test's own directory, should a check ever let a
    // study start.
    let store = format!("{}/cli-store", env!("CARGO_TARGET_TMPDIR"));
    let results = ["--results", store.as_str()];
    for (args, names) in [
        (&["fig5", "--injections", "abc"][..], "--injections"),
        (&["fig5", "--seed", "-3"], "--seed"),
        (&["fig5", "--threads", "two"], "--threads"),
        (&["fig5", "--jobs", "1.5"], "--jobs"),
        (&["fig5", "--target-margin", "tight"], "--target-margin"),
        (&["fig5", "--prune", "maybe"], "--prune"),
        (&["fig5", "--threads", "0"], "threads must be at least 1"),
        (&["serve", "--spawn-workers", "x"], "--spawn-workers"),
        (&["serve", "--lease-ms", "soon"], "--lease-ms"),
        (&["serve", "--listen", "nowhere"], "--listen"),
        (&["serve", "--threads", "0"], "threads must be at least 1"),
    ] {
        refuses(repro, &[args, &results[..]].concat(), names);
    }
    // A flag that ends the command line has no value.
    refuses(repro, &["fig5", "--seed"], "--seed");
}

#[test]
fn campaign_reports_bad_flags_as_errors() {
    let campaign = env!("CARGO_BIN_EXE_campaign");
    for (args, names) in [
        (&["--injections", "abc"][..], "injection count"),
        (&["--target-margin", "2"], "--target-margin"),
        (&["--prune", "maybe"], "prune mode"),
        (&["worker", "--capacity", "x"], "--capacity"),
        (&["worker", "--max-cells", "2"], "--max-cells"),
        (&["worker", "--abandon-after", "1"], "--abandon-after"),
        (&["worker", "--name", "w"], "--connect"),
    ] {
        refuses(campaign, args, names);
    }
}
