//! The CLIs reject bad arguments with a non-zero exit code and a message
//! instead of panicking or silently falling back to a default.

use std::process::Command;

/// Runs the binary `bin` with `args`; returns its exit code and stderr.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin)
        .args(args)
        .env("MRE_PAR_THREADS", "1")
        .output()
        .expect("binary runs");
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
        let (code, stderr) = run(env!("CARGO_BIN_EXE_order_sweep"), &args);
        assert_eq!(code, Some(1), "{args:?}: stderr {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(!stderr.trim().is_empty(), "{args:?}: no message");
    }
}

#[test]
fn unknown_flags_and_surplus_arguments_exit_1() {
    for args in [
        // A typo for --rail-policy once ran the round-robin default.
        &[
            "16,2,2,8", "16", "alltoall", "1048576", "--nics", "2", "--policy", "src-hash",
        ][..],
        // A typo for --fluid once ran the lockstep engine.
        &["16,2,2,8", "16", "alltoall", "1048576", "--flud"],
        &["--flud"],
        &["16,2,2,8", "16", "alltoall", "1048576", "extra"],
    ] {
        let (code, stderr) = run(env!("CARGO_BIN_EXE_order_sweep"), args);
        assert_eq!(code, Some(1), "{args:?}: stderr {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(!stderr.trim().is_empty(), "{args:?}: no message");
    }
}

#[test]
fn unknown_collectives_are_rejected_by_every_cli() {
    // All four CLIs parse the collective through `Collective::parse`;
    // each keeps its own exit code for the rejection.
    for (bin, args, exit) in [
        (
            env!("CARGO_BIN_EXE_order_sweep"),
            &["16,2,2,8", "16", "bogus", "1024"][..],
            1,
        ),
        (
            env!("CARGO_BIN_EXE_trace_report"),
            &["--collective", "bogus"],
            2,
        ),
        (
            env!("CARGO_BIN_EXE_congestion_report"),
            &["--collective", "bogus"],
            2,
        ),
        (
            env!("CARGO_BIN_EXE_trace_diff"),
            &[
                "--workload",
                "micro",
                "--procs",
                "4",
                "--collective",
                "bogus",
            ],
            2,
        ),
    ] {
        let (code, stderr) = run(bin, args);
        assert_eq!(code, Some(exit), "{bin} {args:?}: stderr {stderr}");
        assert_eq!(
            stderr, "unknown collective \"bogus\" (alltoall|allreduce|allgather)\n",
            "{bin} {args:?}"
        );
    }
}

#[test]
fn zero_nodes_exit_2_without_panicking() {
    // A zero node count once panicked building the machine presets.
    let congestion = env!("CARGO_BIN_EXE_congestion_report");
    let trace = env!("CARGO_BIN_EXE_trace_report");
    let diff = env!("CARGO_BIN_EXE_trace_diff");
    for (bin, args) in [
        (congestion, &["--nodes", "0"][..]),
        (congestion, &["--machine", "lumi", "--nodes", "0"]),
        (trace, &["--nodes", "0"]),
        (trace, &["--machine", "lumi", "--nodes", "0"]),
        (diff, &["--nodes", "0"]),
    ] {
        let (code, stderr) = run(bin, args);
        assert_eq!(code, Some(2), "{bin} {args:?}: stderr {stderr}");
        assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
        assert!(!stderr.trim().is_empty(), "{bin} {args:?}: no message");
    }
}

#[test]
fn out_of_range_trace_options_exit_2_without_panicking() {
    let trace = env!("CARGO_BIN_EXE_trace_report");
    let diff = env!("CARGO_BIN_EXE_trace_diff");
    // 2^61 bytes once overflowed the autotuner's tagged cache key, and a
    // zero snapshot period once tripped the metrics registry's assertion.
    let too_large = "2305843009213693952";
    for (bin, args) in [
        (trace, &["--autotune", "--bytes", too_large][..]),
        (trace, &["--fluid", "--bytes", too_large]),
        (
            diff,
            &[
                "--workload",
                "stencil",
                "--dims",
                "2x4",
                "--snapshot-every",
                "0",
            ],
        ),
    ] {
        let (code, stderr) = run(bin, args);
        assert_eq!(code, Some(2), "{bin} {args:?}: stderr {stderr}");
        assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
        assert!(!stderr.trim().is_empty(), "{bin} {args:?}: no message");
    }
}

#[test]
fn pruned_congestion_says_the_runner_up_was_pruned_not_missing() {
    // On one worker the ladder costs only the winner of the Hydra default;
    // the other 7 classes exist but were pruned, so the comparison must not
    // claim there is only one class.
    let out = Command::new(env!("CARGO_BIN_EXE_order_sweep"))
        .args([
            "16,2,2,8",
            "16",
            "alltoall",
            "1048576",
            "--pruned",
            "--congestion",
            "--threads",
            "1",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("branch-and-bound: 1 costed, 7 pruned"),
        "{stdout}"
    );
    assert!(
        stdout.contains(
            "congestion: the bound ladder pruned 7 of 8 classes, so the runner-up was not costed"
        ),
        "{stdout}"
    );
    assert!(!stdout.contains("only one equivalence class"), "{stdout}");
}
