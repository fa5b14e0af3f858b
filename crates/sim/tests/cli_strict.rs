//! Spawn tests for strict argument parsing: every binary rejects
//! unknown flags with exit code 2, the offending argument, and a usage
//! line — a typo'd `--qiuck` must not silently run the full experiment
//! it was trying to abbreviate. A malformed store-cap environment
//! variable gets the same treatment.
//!
//! These run the real release of each binary via `CARGO_BIN_EXE_*`, so
//! they pin the end-to-end behaviour (argv → exit status → stderr), not
//! just the parsing helper.

use std::io::{BufRead, BufReader};
use std::process::{Command, Output, Stdio};
use std::sync::mpsc;
use std::time::Duration;

fn run(exe: &str, args: &[&str], env: &[(&str, &str)]) -> Output {
    command(exe, args, env).output().expect("binary spawns")
}

fn command(exe: &str, args: &[&str], env: &[(&str, &str)]) -> Command {
    let mut cmd = Command::new(exe);
    cmd.args(args);
    // The suite's own store/connect env must not leak into the spawned
    // binaries; tests set exactly what they mean to test.
    for var in [
        "CONFLUENCE_STORE",
        "CONFLUENCE_STORE_CAP",
        "CONFLUENCE_CONNECT",
        "CONFLUENCE_PEER",
    ] {
        cmd.env_remove(var);
    }
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd
}

/// Asserts the rejection contract: exit 2, named offender, usage line.
fn assert_rejects(exe: &str, args: &[&str], offender: &str) {
    let out = run(exe, args, &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{exe} {args:?} must exit 2, stderr: {stderr}"
    );
    assert!(
        stderr.contains(&format!("unrecognized argument '{offender}'")),
        "{exe} {args:?} must name the offender, stderr: {stderr}"
    );
    assert!(
        stderr.contains("usage:"),
        "{exe} {args:?} must print usage, stderr: {stderr}"
    );
}

#[test]
fn figure_binaries_reject_typoed_flags() {
    assert_rejects(env!("CARGO_BIN_EXE_fig1"), &["--qiuck"], "--qiuck");
    assert_rejects(env!("CARGO_BIN_EXE_fig9"), &["--quick", "extra"], "extra");
    // A switch given a value is not the switch.
    assert_rejects(env!("CARGO_BIN_EXE_table2"), &["--quick=1"], "--quick=1");
}

#[test]
fn batch_binaries_reject_typoed_flags() {
    assert_rejects(
        env!("CARGO_BIN_EXE_all_experiments"),
        &["--qiuck"],
        "--qiuck",
    );
    assert_rejects(
        env!("CARGO_BIN_EXE_sweeps"),
        &["--stduy", "history"],
        "--stduy",
    );
    assert_rejects(env!("CARGO_BIN_EXE_timing_figs"), &["--sreial"], "--sreial");
    // `--threads 1` is the one spelling of a serial run.
    assert_rejects(
        env!("CARGO_BIN_EXE_all_experiments"),
        &["--quick", "--serial"],
        "--serial",
    );
    // A removed flag is as unknown as a typo.
    assert_rejects(
        env!("CARGO_BIN_EXE_all_experiments"),
        &["--quick", "--no-warm-artifacts"],
        "--no-warm-artifacts",
    );
}

#[test]
fn pure_arithmetic_and_daemon_binaries_reject_typoed_flags() {
    assert_rejects(env!("CARGO_BIN_EXE_area_table"), &["--csvv"], "--csvv");
    assert_rejects(
        env!("CARGO_BIN_EXE_confluence-serve"),
        &[
            "--socket",
            "/tmp/confluence-cli-strict-unused.sock",
            "--bogus",
        ],
        "--bogus",
    );
}

#[test]
fn well_formed_invocations_still_run() {
    // area_table simulates nothing, so it doubles as the cheap positive
    // control that strict parsing accepts the documented spellings.
    let out = run(env!("CARGO_BIN_EXE_area_table"), &["--csv"], &[]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("structure,"));
    let out = run(env!("CARGO_BIN_EXE_area_table"), &["--markdown"], &[]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("| structure |"));
}

#[test]
fn peer_flags_parse_strictly_in_every_binary() {
    // Typos stay typos now that --peer is a known flag elsewhere.
    assert_rejects(
        env!("CARGO_BIN_EXE_fig1"),
        &["--quick", "--perr", "/tmp/x"],
        "--perr",
    );
    assert_rejects(
        env!("CARGO_BIN_EXE_timing_figs"),
        &["--quick", "--peers", "/tmp/x"],
        "--peers",
    );
    assert_rejects(
        env!("CARGO_BIN_EXE_confluence-serve"),
        &["--socket", "/tmp/unused.sock", "--peer-timeout", "10"],
        "--peer-timeout",
    );

    // A --peer with no value is its own exit-2 case with a precise
    // message, from every binary that accepts the flag.
    for (exe, args) in [
        (
            env!("CARGO_BIN_EXE_fig1"),
            &["--quick", "--peer"] as &[&str],
        ),
        (
            env!("CARGO_BIN_EXE_all_experiments"),
            &["--quick", "--peer"],
        ),
        (env!("CARGO_BIN_EXE_sweeps"), &["--quick", "--peer"]),
        (env!("CARGO_BIN_EXE_timing_figs"), &["--quick", "--peer"]),
        (
            env!("CARGO_BIN_EXE_confluence-serve"),
            &["--socket", "/tmp/unused.sock", "--quick", "--peer"],
        ),
    ] {
        let out = run(exe, args, &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{exe}: stderr: {stderr}");
        assert!(
            stderr.contains("--peer requires a socket path"),
            "{exe} must name the missing value: {stderr}"
        );
    }

    // Malformed --peer-timeout-ms: exit 2, named flag and value.
    let out = run(
        env!("CARGO_BIN_EXE_fig1"),
        &[
            "--quick",
            "--peer",
            "/tmp/x.sock",
            "--peer-timeout-ms",
            "soon",
        ],
        &[],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("--peer-timeout-ms") && stderr.contains("soon"),
        "stderr must name the flag and value: {stderr}"
    );

    // --peer without a store has nowhere to promote fetched entries:
    // exit 2 pointing at --store-dir, before any workload generates.
    let out = run(
        env!("CARGO_BIN_EXE_fig1"),
        &["--quick", "--no-store", "--peer", "/tmp/x.sock"],
        &[],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("--peer requires a persistent store"),
        "stderr must explain the store requirement: {stderr}"
    );

    // The CONFLUENCE_PEER environment fallback hits the same gate.
    let out = run(
        env!("CARGO_BIN_EXE_fig1"),
        &["--quick", "--no-store"],
        &[("CONFLUENCE_PEER", "/tmp/a.sock,/tmp/b.sock")],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("--peer requires a persistent store"),
        "env-supplied peers must hit the same gate: {stderr}"
    );
}

#[test]
fn malformed_store_cap_env_exits_2() {
    let out = run(
        env!("CARGO_BIN_EXE_fig1"),
        &["--quick"],
        &[("CONFLUENCE_STORE_CAP", "banana")],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("CONFLUENCE_STORE_CAP"),
        "stderr must name the variable: {stderr}"
    );
}

#[test]
fn argument_errors_come_before_workload_generation() {
    // --peer needs a store to promote into. --compare-serial times a
    // local serial run, so against a daemon it would time a simulation
    // against a round trip: refused whether the socket comes from the
    // flag or the environment, and without connecting. A daemon socket
    // that cannot be bound is refused too, and a file in its place is
    // left as it was.
    let connect_env = [("CONFLUENCE_CONNECT", "/nonexistent.sock")];
    let notes = std::env::temp_dir().join(format!(
        "confluence-cli-strict-notes-{}.txt",
        std::process::id()
    ));
    std::fs::write(&notes, b"notes").expect("temp dir writable");
    let notes_arg = notes.to_str().expect("utf-8 temp path");
    let all_experiments = env!("CARGO_BIN_EXE_all_experiments");
    let daemon = env!("CARGO_BIN_EXE_confluence-serve");
    for (exe, args, env, named) in [
        (
            all_experiments,
            &["--quick", "--no-store", "--peer", "/tmp/x.sock"] as &[&str],
            &[] as &[(&str, &str)],
            &["--peer requires a persistent store"] as &[&str],
        ),
        (
            all_experiments,
            &[
                "--quick",
                "--compare-serial",
                "--connect",
                "/nonexistent.sock",
            ],
            &[],
            &["--compare-serial", "--connect"],
        ),
        (
            all_experiments,
            &["--quick", "--compare-serial"],
            &connect_env,
            &["--compare-serial", "--connect"],
        ),
        (
            daemon,
            &["--socket", notes_arg, "--quick", "--no-store"],
            &[],
            &["cannot bind", "is not a socket"],
        ),
        (
            daemon,
            &[
                "--socket",
                "/nonexistent-dir/d.sock",
                "--quick",
                "--no-store",
            ],
            &[],
            &["cannot bind /nonexistent-dir/d.sock"],
        ),
    ] {
        let out = run(exe, args, env);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} {env:?}: {stderr}");
        assert!(
            named.iter().all(|n| stderr.contains(n)),
            "{args:?} {env:?} must name {named:?}: {stderr}"
        );
        assert!(
            !stderr.contains("generating workloads"),
            "{args:?} {env:?} must be refused before any workload: {stderr}"
        );
    }
    assert_eq!(std::fs::read(&notes).expect("file left in place"), b"notes");
    let _ = std::fs::remove_file(&notes);
}

#[test]
fn daemon_starts_when_the_client_connect_env_is_set() {
    // The daemon declares no --connect, so the clients' CONFLUENCE_CONNECT
    // exported in the same shell is not its business.
    let sock = std::env::temp_dir().join(format!(
        "confluence-cli-strict-daemon-{}.sock",
        std::process::id()
    ));
    let mut child = command(
        env!("CARGO_BIN_EXE_confluence-serve"),
        &["--socket", sock.to_str().unwrap(), "--quick", "--no-store"],
        &[("CONFLUENCE_CONNECT", "/nonexistent.sock")],
    )
    .stderr(Stdio::piped())
    .spawn()
    .expect("binary spawns");
    let stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
    let (tx, lines) = mpsc::channel();
    std::thread::spawn(move || {
        stderr
            .lines()
            .map_while(Result::ok)
            .try_for_each(|l| tx.send(l))
    });
    // Watchdog: quick workloads generate in well under a second in a
    // release build, and a debug build is slower but not this slow. The
    // channel also ends if the daemon exits.
    let mut seen = Vec::new();
    let listening = loop {
        match lines.recv_timeout(Duration::from_secs(300)) {
            Ok(line) if line.contains("listening on") => break true,
            Ok(line) => seen.push(line),
            Err(_) => break false,
        }
    };
    let _ = child.kill();
    let status = child.wait();
    let _ = std::fs::remove_file(&sock);
    assert!(
        listening,
        "the daemon must listen with CONFLUENCE_CONNECT set (exit {status:?}): {seen:?}"
    );
}
