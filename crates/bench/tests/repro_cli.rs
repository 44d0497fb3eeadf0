//! The `repro` command line refuses experiment names it does not know,
//! instead of silently running nothing.

use std::process::Command;

#[test]
fn unknown_scenario_exits_with_status_2_and_lists_the_valid_names() {
    for name in ["nosuch", ""] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--scenario", name])
            .output()
            .expect("repro runs");
        assert_eq!(out.status.code(), Some(2), "--scenario {name:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("wallclock"), "{stderr}");
        assert!(out.stdout.is_empty(), "no experiment may run");
    }
}
