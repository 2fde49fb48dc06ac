//! CLI contract of the `runner` binary: bad flag *names* and bad flag
//! *values* both fail loudly with exit code 2 and a named error, never
//! silently falling back to a default, and the cached comm tier parses
//! end to end.

use std::process::Command;

fn runner() -> Command {
    Command::new(env!("CARGO_BIN_EXE_runner"))
}

/// Run with the given args and return (exit code, stderr).
fn run_err(args: &[&str]) -> (i32, String) {
    let out = runner().args(args).output().expect("spawn runner");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unknown_flag_name_is_a_named_error() {
    // A typo like --comm-node must not be swallowed into the arg map
    // (which would silently train with the default mode).
    let (code, err) = run_err(&["--comm-node", "sparse"]);
    assert_eq!(code, 2);
    assert!(err.contains("unknown flag '--comm-node'"), "stderr: {err}");
}

#[test]
fn bad_comm_mode_values_are_named_errors() {
    let (code, err) = run_err(&["--comm-mode", "spares"]);
    assert_eq!(code, 2);
    assert!(err.contains("dense|sparse|cached:<k>"), "stderr: {err}");

    let (code, err) = run_err(&["--comm-mode", "cached:0"]);
    assert_eq!(code, 2);
    assert!(err.contains(">= 1"), "stderr: {err}");

    let (code, err) = run_err(&["--comm-mode", "cached:two"]);
    assert_eq!(code, 2);
    assert!(err.contains("integer refresh period"), "stderr: {err}");
}

#[test]
fn bad_overlap_and_transport_values_are_named_errors() {
    let (code, err) = run_err(&["--overlap", "maybe"]);
    assert_eq!(code, 2);
    assert!(err.contains("--overlap must be on|off"), "stderr: {err}");

    let (code, err) = run_err(&["--transport", "tcp"]);
    assert_eq!(code, 2);
    assert!(
        err.contains("--transport must be shared|socket"),
        "stderr: {err}"
    );
}

#[test]
fn cached_mode_runs_end_to_end() {
    let out = runner()
        .args([
            "--dataset",
            "rmat:6:4",
            "--algo",
            "1d",
            "--processes",
            "2",
            "--epochs",
            "2",
            "--comm-mode",
            "cached:2",
            "--json",
        ])
        .output()
        .expect("spawn runner");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "runner failed: {err}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.trim_start().starts_with('['),
        "expected a JSON row, got: {stdout}"
    );
}

#[test]
fn bad_geometry_and_numeric_values_are_named_errors() {
    // P = 0 fits no geometry; 2D used to pass the check and panic in
    // the cluster instead.
    let (code, err) = run_err(&["--processes", "0", "--algo", "2d"]);
    assert_eq!(code, 2);
    assert!(err.contains("2d does not support P=0"), "stderr: {err}");

    let (code, err) = run_err(&["--processes", "four"]);
    assert_eq!(code, 2);
    assert!(
        err.contains("--processes: cannot parse 'four'"),
        "stderr: {err}"
    );

    // Zero epochs used to print a 0 ms epoch and NaN words per epoch.
    let (code, err) = run_err(&["--epochs", "0"]);
    assert_eq!(code, 2);
    assert!(
        err.contains("--epochs must be at least 1, got 0"),
        "stderr: {err}"
    );

    let (code, err) = run_err(&["--algo", "1.5d:x"]);
    assert_eq!(code, 2);
    assert!(
        err.contains("--algo 1.5d:<c>: cannot parse 'x'"),
        "stderr: {err}"
    );

    // A NaN or negative α or β used to panic in the cost model's
    // clamps; a zero bandwidth printed a null epoch time and exited 0.
    for (args, named) in [
        (
            ["--alpha", "-1"],
            "--alpha must be finite and >= 0, got '-1'",
        ),
        (
            ["--alpha", "nan"],
            "--alpha must be finite and >= 0, got 'nan'",
        ),
        (
            ["--beta-gbps", "-3"],
            "--beta-gbps must be finite and > 0, got '-3'",
        ),
        (
            ["--beta-gbps", "0"],
            "--beta-gbps must be finite and > 0, got '0'",
        ),
    ] {
        let (code, err) = run_err(&args);
        assert_eq!(code, 2, "{args:?}: {err}");
        assert!(err.contains(named), "{args:?}: {err}");
    }

    // `1 << 70` vertices wrapped and panicked in the COO builder.
    let (code, err) = run_err(&["--dataset", "rmat:70:8"]);
    assert_eq!(code, 2);
    let named = format!(
        "rmat:<scale>:<degree>: scale must be below {}, got 70",
        usize::BITS
    );
    assert!(err.contains(&named), "stderr: {err}");

    // `2^63 · 8` edges wrapped and panicked with a capacity overflow in
    // the generator.
    let (code, err) = run_err(&["--dataset", "rmat:63:8"]);
    assert_eq!(code, 2);
    assert!(
        err.contains("--dataset rmat:<scale>:<degree>: 2^63 · 8 edges overflow usize"),
        "stderr: {err}"
    );

    // More ranks than vertices panicked in the 1D trainer's set-up.
    let (code, err) = run_err(&["--dataset", "rmat:4:2", "--processes", "64", "--algo", "1d"]);
    assert_eq!(code, 2);
    assert!(
        err.contains("--processes 64 exceeds the 16 vertices of rmat:4:2"),
        "stderr: {err}"
    );
}
