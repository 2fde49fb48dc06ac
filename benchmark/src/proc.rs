//! Starting a child of this binary, bounding its run time, and making
//! sure nothing it started outlives it.

use crate::json::Json;
use std::io::Read;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}
const SIGKILL: i32 = 9;

/// `(state, process group)` of a live process, from `/proc/<pid>/stat`.
fn proc_stat(pid: u32) -> Option<(char, u32)> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The fields after the parenthesised command name: state, ppid, pgrp.
    let mut fields = stat.rsplit_once(')')?.1.split_whitespace();
    let state = fields.next()?.chars().next()?;
    Some((state, fields.nth(1)?.parse().ok()?))
}

/// Whether `pid` still runs. A killed worker stays a zombie until its
/// (dead) launcher's reaper collects it; a zombie has ended for our
/// purposes.
fn is_running(pid: u32) -> bool {
    proc_stat(pid).is_some_and(|(state, _)| state != 'Z')
}

/// Kill every process of the child's group (the child and any
/// `CAGNET_WORKER_*` socket workers it spawned) and wait until all of
/// them are gone.
fn kill_group(pgid: u32) {
    let members: Vec<u32> = std::fs::read_dir("/proc")
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
        .filter(|pid| proc_stat(*pid).is_some_and(|(_, pgrp)| pgrp == pgid))
        .collect();
    // SAFETY: `kill(2)` takes two integers and touches no memory of this
    // process. A negative pid addresses the process group, which the
    // child was made leader of at spawn, so only its descendants are hit.
    unsafe {
        kill(-(pgid as i32), SIGKILL);
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline && members.iter().any(|pid| is_running(*pid)) {
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Run `exe` with `args`, wait at most until `deadline`, and parse the
/// last line of its stdout as a JSON record.
///
/// The child leads its own process group so that a timeout can take its
/// socket workers down with it. `scratch` is where the library's hub
/// socket files go (via `TMPDIR`).
pub fn run_child(
    exe: &Path,
    args: &[String],
    deadline: Instant,
    scratch: &Path,
) -> Result<Json, String> {
    let mut cmd = Command::new(exe);
    cmd.args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .process_group(0);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("CAGNET_") {
            cmd.env_remove(key);
        }
    }
    // A Unix socket path holds about 100 bytes; the library appends
    // "cagnet-<pid>-<n>.sock" to the temp dir. Keep the sockets inside
    // the checkout whenever the path fits.
    if scratch.as_os_str().len() < 60 && std::fs::create_dir_all(scratch).is_ok() {
        cmd.env("TMPDIR", scratch);
    }
    let mut child = cmd.spawn().map_err(|e| format!("spawn: {e}"))?;
    let pid = child.id();
    let mut stdout = child.stdout.take().ok_or("child stdout missing")?;
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) if status.success() => break Ok(()),
            Ok(Some(status)) => break Err(format!("exited with {status}")),
            Ok(None) if Instant::now() >= deadline => break Err("timed out".to_string()),
            Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => break Err(format!("wait: {e}")),
        }
    };
    if status.is_err() {
        // A launcher that panicked has reaped its own workers; one that
        // hangs, or was killed from outside, has not.
        kill_group(pid);
        let _ = child.wait();
    }
    let text = reader.join().map_err(|_| "stdout reader panicked")?;
    status?;
    let line = text.lines().last().ok_or("child printed nothing")?;
    Json::parse(line).map_err(|e| format!("child record: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str, timeout: Duration) -> Result<Json, String> {
        run_child(
            Path::new("sh"),
            &["-c".to_string(), script.to_string()],
            Instant::now() + timeout,
            Path::new("/nonexistent-so-tmpdir-stays-default-because-this-path-is-too-long"),
        )
    }

    #[test]
    fn returns_the_last_stdout_line_as_a_record() {
        let rec = sh(
            "echo noise; echo '{\"epochs\": 3}'",
            Duration::from_secs(20),
        );
        assert_eq!(rec.and_then(|r| r.num("epochs")), Ok(3.0));
        assert!(sh("exit 3", Duration::from_secs(20))
            .unwrap_err()
            .contains("exit"));
    }

    #[test]
    fn a_hung_child_is_killed_with_its_descendants() {
        // The shell starts a background grandchild, reports its pid, and
        // hangs; both must be gone when the timeout returns.
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&out).expect("out dir");
        let pidfile = out.join(format!("grandchild-{}.pid", std::process::id()));
        let script = format!("sleep 60 & echo $! > {}; wait", pidfile.display());
        let started = Instant::now();
        let out = sh(&script, Duration::from_millis(300));
        assert_eq!(out, Err("timed out".to_string()));
        assert!(started.elapsed() < Duration::from_secs(10));
        let pid = std::fs::read_to_string(&pidfile).expect("grandchild pid recorded");
        let _ = std::fs::remove_file(&pidfile);
        let pid: u32 = pid.trim().parse().expect("pid");
        assert!(!is_running(pid), "grandchild {pid} still running");
    }
}
