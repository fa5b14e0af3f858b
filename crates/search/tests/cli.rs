//! Spawn tests for the `search` binary's argument surface: strict
//! rejection of unknown flags, the study registry listing, and
//! malformed study/seed values — all without running a simulation.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_search"));
    cmd.args(args);
    for var in [
        "CONFLUENCE_STORE",
        "CONFLUENCE_STORE_CAP",
        "CONFLUENCE_CONNECT",
        "CONFLUENCE_PEER",
    ] {
        cmd.env_remove(var);
    }
    cmd.output().expect("binary spawns")
}

#[test]
fn unknown_flags_exit_2_with_usage() {
    for (args, offender) in [
        (vec!["--qiuck"], "--qiuck"),
        (vec!["--study", "ipc-per-mm2", "--sede", "7"], "--sede"),
        (vec!["--quick", "stray"], "stray"),
        (vec!["--perr", "/tmp/x.sock"], "--perr"),
    ] {
        let out = run(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unrecognized argument '{offender}'")),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
}

#[test]
fn list_prints_every_registered_study_and_exits_0() {
    let out = run(&["--list"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for study in confluence_search::registry() {
        assert!(
            stdout.contains(study.name),
            "--list must mention '{}': {stdout}",
            study.name
        );
    }
}

#[test]
fn bad_study_and_seed_values_exit_2() {
    let out = run(&["--study", "no-such-study"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("no-such-study") && stderr.contains("--list"));

    let out = run(&["--study", "ipc-per-mm2", "--seed", "banana"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--seed"), "{stderr}");
}

#[test]
fn peer_flags_hit_the_shared_gates() {
    // Missing value: exit 2 naming the flag.
    let out = run(&["--quick", "--peer"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--peer requires a socket path"), "{stderr}");

    // Peers without a store to promote into: the same exit-2 gate as
    // every other binary.
    let out = run(&["--quick", "--no-store", "--peer", "/tmp/x.sock"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("--peer requires a persistent store"),
        "{stderr}"
    );
}
