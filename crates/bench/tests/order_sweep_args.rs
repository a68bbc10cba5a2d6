//! `order_sweep` rejects bad positional arguments with exit code 1 and a
//! message instead of panicking or silently falling back to a default.

use std::process::Command;

/// Runs `order_sweep` with `args`; returns its exit code and stderr.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_order_sweep"))
        .args(args)
        .env("MRE_PAR_THREADS", "1")
        .output()
        .expect("order_sweep runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn bad_positional_arguments_exit_1_without_panicking() {
    for args in [
        // A zero subcommunicator size once divided by zero.
        ["16,2,2,8", "0", "alltoall", "1024"],
        // Unparsable sizes once fell back to 16 procs / 4 MiB silently.
        ["16,2,2,8", "16", "alltoall", "x"],
        ["16,2,2,8", "x", "alltoall", "1024"],
        ["16,2,2,8", "-4", "alltoall", "1024"],
    ] {
        let (code, stderr) = run(&args);
        assert_eq!(code, Some(1), "{args:?}: stderr {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(!stderr.trim().is_empty(), "{args:?}: no message");
    }
}
