//! The `experiments` binary's argument handling, driven as a subprocess.

use std::process::Command;

fn experiments(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn the experiments binary")
}

#[test]
fn unknown_flag_is_rejected_before_any_table_runs() {
    let out = experiments(&["--no-such-flag"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: experiments [--quick]"), "{stderr}");
    assert!(stderr.contains("--no-such-flag"), "{stderr}");
    assert!(out.stdout.is_empty(), "no table on stdout");
}

#[test]
fn quick_prints_the_tables_and_exits_zero() {
    let out = experiments(&["--quick"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("E-T1.1 (Theorem 1.1)"), "{stdout}");
    assert!(stdout.trim_end().ends_with("done."), "{stdout}");
}
