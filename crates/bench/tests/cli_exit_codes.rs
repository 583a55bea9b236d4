//! Exit codes of `df3-experiments`: a bad argument exits 2, before any
//! simulation runs, for the suite and for every subcommand alike; a run
//! that fails exits 1.

use std::process::Command;

fn exit_code(args: &[&str]) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_df3-experiments"))
        .args(args)
        .output()
        .expect("the binary starts")
        .status
        .code()
}

#[test]
fn argument_errors_exit_2() {
    for args in [
        &["--fsat"][..],
        &["report", "--bogus"],
        &["snapshot", "--bogus"],
        &["resume", "--bogus"],
        &["branch", "--bogus"],
        &["report", "--preset", "mars_colony"],
        &["snapshot", "--hours", "3", "--at", "3h"],
        &["resume", "--hours", "0"],
        &["resume", "--hours", "3000000000"],
        &["snapshot", "--hours", "3", "--at", "3000000000h"],
        &["branch", "--sweep", "0"],
    ] {
        assert_eq!(exit_code(args), Some(2), "df3-experiments {args:?}");
    }
}

#[test]
fn a_failed_run_exits_1() {
    let missing = std::env::temp_dir().join("df3_cli_exit_codes_missing.df3snap");
    let missing = missing.to_str().expect("a UTF-8 temp path");
    let args = ["resume", "--preset", "small_winter", "--snapshot", missing];
    assert_eq!(exit_code(&args), Some(1));
}
