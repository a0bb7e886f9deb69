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

/// Holds `got` to `want` line by line. A failure names the first line that
/// differs and prints it with the next few of each side; if the change in a
/// table is intended, regenerate `file` and let its diff show the change.
fn assert_same_lines(file: &str, want: &str, got: &str) {
    let (want, got): (Vec<&str>, Vec<&str>) = (want.lines().collect(), got.lines().collect());
    let Some(first) = (0..want.len().max(got.len())).find(|&i| want.get(i) != got.get(i)) else {
        return;
    };
    let show = |side: &[&str]| {
        let end = side.len().min(first + 5);
        side[first.min(end)..end].join("\n")
    };
    panic!(
        "{file} differs from line {} on ({} lines expected, {} printed)\n\
         --- expected:\n{}\n--- printed:\n{}",
        first + 1,
        want.len(),
        got.len(),
        show(&want),
        show(&got),
    );
}

/// The quick tables, every number in them, against
/// `tests/golden/experiments_quick.txt` (regenerate it with
/// `experiments --quick > tests/golden/experiments_quick.txt`).
#[test]
fn quick_prints_the_tables_and_exits_zero() {
    let out = experiments(&["--quick"]);
    assert_eq!(out.status.code(), Some(0));
    assert_same_lines(
        "tests/golden/experiments_quick.txt",
        include_str!("../../../tests/golden/experiments_quick.txt"),
        &String::from_utf8_lossy(&out.stdout),
    );
}
