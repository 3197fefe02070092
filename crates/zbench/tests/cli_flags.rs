//! Command-line hardening for `zbench`, driven by the flag table.
//!
//! Every flag is declared once, in `zbench::cli::FLAGS`, and the table
//! tests below walk it, so a new flag is covered when it is declared.
//! Every command-line error must exit 2 with the offending flag named
//! and the usage printed, before any downstream `panic!`/`assert!` can
//! be reached.

use std::process::{Command, Output};
use zbench::cli::{Command as Cmd, Kind, FLAGS};

fn zbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_zbench"))
        .args(args)
        .output()
        .expect("failed to spawn zbench")
}

/// Asserts the invocation exits 2 with `needle` (usually the flag) on
/// stderr along with the usage text, and that nothing panicked.
fn assert_rejected(args: &[&str], needle: &str) {
    let out = zbench(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?}: expected exit 2, got {:?}\nstderr: {stderr}",
        out.status.code()
    );
    assert!(
        stderr.contains(needle),
        "{args:?}: stderr missing {needle:?}: {stderr}"
    );
    assert!(
        stderr.contains("usage:"),
        "{args:?}: stderr missing usage: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?}: panicked: {stderr}");
}

/// A value the kind rejects (text flags take any value).
fn malformed(kind: Kind) -> Option<&'static str> {
    match kind {
        Kind::Int { .. } => Some("x"),
        Kind::IntList => Some("64,x"),
        Kind::Float { .. } => Some("NaN"),
        Kind::Choice(_) => Some("no-such-choice"),
        Kind::Switch | Kind::Text(_) => None,
    }
}

/// A value the kind accepts (`None` for switches).
fn valid(kind: Kind) -> Option<&'static str> {
    match kind {
        Kind::Switch => None,
        Kind::Int { .. } | Kind::Float { .. } => Some("1"),
        Kind::IntList => Some("64"),
        Kind::Choice(words) => Some(words[0]),
        Kind::Text(_) => Some("x"),
    }
}

#[test]
fn every_value_flag_rejects_malformed_and_missing_values() {
    for flag in FLAGS {
        if flag.kind == Kind::Switch {
            continue;
        }
        let command = Cmd::ALL.into_iter().find(|&c| flag.applies_to(c)).unwrap();
        if let Some(bad) = malformed(flag.kind) {
            assert_rejected(&[command.name(), flag.name, bad], flag.name);
        }
        if let Kind::Int { min: min @ 1.., .. } = flag.kind {
            let below = (min - 1).to_string();
            assert_rejected(&[command.name(), flag.name, &below], flag.name);
        }
        assert_rejected(&[command.name(), flag.name], "requires a value");
    }
}

#[test]
fn every_flag_rejects_the_commands_it_does_not_apply_to() {
    for flag in FLAGS {
        for command in Cmd::ALL.into_iter().filter(|&c| !flag.applies_to(c)) {
            let mut args = vec![command.name(), flag.name];
            args.extend(valid(flag.kind));
            assert_rejected(&args, &format!("{} does not apply to", flag.name));
        }
    }
}

#[test]
fn unknown_commands_flags_and_operands_exit_2() {
    assert_rejected(&[], "missing command");
    assert_rejected(&["fig6"], "unknown command");
    assert_rejected(&["fig3", "--nosuch"], "--nosuch");
    assert_rejected(&["trace"], "operand");
    assert_rejected(&["dumptrace", "canneal"], "operand");
    assert_rejected(&["table2", "extra"], "operand");
    // fig3 always prints all four panels; it takes no --design.
    assert_rejected(&["fig3", "--design", "skew"], "--design");
    // fig4/fig5 take the policies they sweep, not check's lfu.
    assert_rejected(&["fig4", "--policy", "lfu"], "--policy");
}

#[test]
fn float_flags_check_their_floors() {
    assert_rejected(&["predict", "--tol", "NaN"], "--tol");
    assert_rejected(&["predict", "--tol", "-0.1"], "--tol");
    // Zero tolerance is finite and >= 0 but still meaningless.
    assert_rejected(&["predict", "--tol", "0"], "--tol");
    // The tenants quota pool must be a finite non-negative fraction.
    assert_rejected(&["tenants", "--quota-frac", "NaN"], "--quota-frac");
    assert_rejected(&["tenants", "--quota-frac", "-0.5"], "--quota-frac");
    assert_rejected(&["tenants", "--quota-frac", "inf"], "--quota-frac");
    // Integers are bounded by the width of the option they set.
    assert_rejected(&["check", "--ways", "4294967296"], "--ways");
    assert_rejected(&["tenants", "--jobs", "-1"], "--jobs");
    // Counts that mean nothing at 0 start at 1. At 0, --digest-every
    // panicked inside the lockstep sweep (exit 101), --reps ran one rep
    // anyway and --accesses printed a NaN miss ratio.
    assert_rejected(&["check", "--digest-every", "0"], "--digest-every");
    assert_rejected(
        &["tenants", "--check", "--digest-every", "0"],
        "--digest-every",
    );
    assert_rejected(&["perf", "--reps", "0"], "--reps");
    assert_rejected(&["perf", "--accesses", "0"], "--accesses");
}

#[test]
fn mutate_needs_check() {
    assert_rejected(&["tenants", "--mutate", "quota-bypass"], "requires --check");
    assert_rejected(
        &["tenants", "--check", "--mutate", "row-hammer"],
        "--mutate",
    );
}

#[test]
fn bad_cache_geometry_exits_2_before_the_sweep() {
    // Each geometry used to panic inside a sweep worker (exit 101) on an
    // array constructor's assert.
    assert_rejected(&["check", "--lines", "60"], "--lines");
    assert_rejected(&["check", "--ways", "0"], "--ways");
    assert_rejected(&["check", "--lines", "0"], "--lines");
    assert_rejected(&["check", "--design", "fully", "--lines", "0"], "--lines");
    assert_rejected(&["tenants", "--lines", "100"], "--lines");
    assert_rejected(&["tenants", "--ways", "0"], "--ways");
    assert_rejected(&["tenants", "--check", "--lines", "60"], "--lines");
    // Too small for the sweep's walk-budget duels (fewer than 4 x ways
    // frames): rejected before ShadowDuel::for_geometry's assert.
    assert_rejected(&["tenants", "--lines", "4"], "--lines");
    assert_rejected(&["tenants", "--lines", "8"], "--lines");
    // Ways do not constrain the fully-associative design.
    let out = zbench(&[
        "check",
        "--design",
        "fully",
        "--lines",
        "60",
        "--accesses",
        "500",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The lockstep grid builds no duel, so four frames are enough.
    let out = zbench(&["tenants", "--check", "--lines", "4", "--accesses", "2000"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn perf_profile_flag_is_hardened() {
    // Unknown profile kinds die in the flag loop, before any measurement
    // (or BENCH artifact write) can start.
    assert_rejected(&["perf", "--profile", "cachegrind"], "--profile");
    assert_rejected(&["perf", "--profile", "Walks"], "--profile");
    assert_rejected(&["perf", "--profile", ""], "--profile");
}

#[test]
fn perf_filter_rejects_malformed_patterns() {
    // More than one ':' cannot name a design:policy pair.
    assert_rejected(&["perf", "--filter", "z3:lru:extra"], "--filter");
    // Well-formed but matching nothing is also a hard error (exit 2).
    let out = zbench(&["perf", "--smoke", "--filter", "nosuch:lru"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("matched no rows"), "{stderr}");
}

#[test]
fn predict_rejects_bad_size_grids() {
    // Not a power of two.
    assert_rejected(&["predict", "--sizes", "100"], "--sizes");
    // Below the 64-line floor.
    assert_rejected(&["predict", "--sizes", "32"], "--sizes");
    // Non-numeric entry in the list.
    assert_rejected(&["predict", "--sizes", "1024,x"], "--sizes");
}
