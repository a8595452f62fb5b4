//! The RDT search and evaluation strategies are test and bench oracles
//! chosen through `ExecConfig`, not command-line flags: `vrd-exp`
//! rejects `--search` and `--eval` like any other unknown argument.

use std::process::{Command, Output};

fn vrd_exp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vrd-exp")).args(args).output().expect("spawn vrd-exp")
}

#[test]
fn strategy_flags_are_unknown_arguments() {
    for (flag, value) in [("--search", "linear"), ("--eval", "scalar")] {
        let run = vrd_exp(&["fig5", flag, value]);
        assert_eq!(run.status.code(), Some(2), "{flag} must exit 2: {run:?}");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(stderr.contains("unknown argument") && stderr.contains(flag), "{stderr}");
    }
}
