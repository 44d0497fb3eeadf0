//! The `repro` command line refuses usage errors at parse time with exit
//! status 2, instead of panicking or silently running nothing.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

#[test]
fn unknown_scenario_exits_with_status_2_and_lists_the_valid_names() {
    for name in ["nosuch", ""] {
        let out = repro(&["--scenario", name]);
        assert_eq!(out.status.code(), Some(2), "--scenario {name:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("wallclock"), "{stderr}");
        assert!(out.stdout.is_empty(), "no experiment may run");
    }
}

#[test]
fn malformed_option_values_exit_with_status_2_before_any_experiment_runs() {
    let missing_dir = std::env::temp_dir()
        .join("repro-cli-no-such-dir")
        .join("out.json");
    let missing_dir = missing_dir.to_str().expect("utf-8 temp path");
    let cases: &[&[&str]] = &[
        &["--max-log-n", "abc"],
        &["--max-log-n"],
        &["--json"],
        &["--trace"],
        &["--check-baseline"],
        &["--baseline-tolerance", "150"],
        &["--baseline-tolerance", "abc"],
        &["--experiment", "work", "--json", missing_dir],
        &["--experiment", "work", "--trace", missing_dir],
    ];
    for args in cases {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        assert!(!out.stderr.is_empty(), "{args:?} gave no message");
    }
}
