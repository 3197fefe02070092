//! Float-valued flag hardening for the `zbench` CLI.
//!
//! `f64::from_str` happily parses `"NaN"`, `"inf"` and negative
//! values, so every float flag goes through `parse_float`, which
//! rejects anything non-finite or below the flag's floor by printing
//! the offending flag plus the usage line and exiting 2 — before any
//! downstream `panic!`/`assert!` (e.g. `YcsbGen::new`'s validation
//! panic) can be reached from the command line.

use std::process::{Command, Output};

fn zbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_zbench"))
        .args(args)
        .output()
        .expect("failed to spawn zbench")
}

/// Asserts the invocation exits 2 with the flag named on stderr along
/// with the usage line, and that nothing panicked.
fn assert_rejected(args: &[&str], flag: &str) {
    let out = zbench(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?}: expected exit 2, got {:?}\nstderr: {stderr}",
        out.status.code()
    );
    assert!(
        stderr.contains(flag),
        "{args:?}: stderr missing {flag:?}: {stderr}"
    );
    assert!(
        stderr.contains("usage:"),
        "{args:?}: stderr missing usage: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?}: panicked: {stderr}");
}

#[test]
fn malformed_float_flags_exit_2_with_flag_and_usage() {
    // NaN parses as a float but is rejected as non-finite; the serve
    // benchmark must never start.
    assert_rejected(&["serve", "--zipf-s", "NaN"], "--zipf-s");
    assert_rejected(&["serve", "--zipf-s", "-1"], "--zipf-s");
    assert_rejected(&["serve", "--zipf-s", "inf"], "--zipf-s");
    assert_rejected(&["serve", "--read-prop", "-0.5"], "--read-prop");
    assert_rejected(&["serve", "--read-prop", "NaN"], "--read-prop");
    assert_rejected(&["serve", "--update-prop", "abc"], "--update-prop");
    assert_rejected(&["serve", "--insert-prop", "-inf"], "--insert-prop");
    assert_rejected(&["predict", "--tol", "NaN"], "--tol");
    assert_rejected(&["predict", "--tol", "-0.1"], "--tol");
    // Zero tolerance is finite and >= 0 but still meaningless.
    assert_rejected(&["predict", "--tol", "0"], "--tol");
    // The tenants quota pool must be a finite non-negative fraction.
    assert_rejected(&["tenants", "--quota-frac", "NaN"], "--quota-frac");
    assert_rejected(&["tenants", "--quota-frac", "-0.5"], "--quota-frac");
    assert_rejected(&["tenants", "--quota-frac", "inf"], "--quota-frac");
}

#[test]
fn tenants_flags_are_hardened() {
    // Integer flags route through parse_num.
    assert_rejected(&["tenants", "--accesses", "x"], "--accesses");
    assert_rejected(&["tenants", "--lines", "12.5"], "--lines");
    assert_rejected(&["tenants", "--jobs", "-1"], "--jobs");
    assert_rejected(
        &["tenants", "--check", "--digest-every", "many"],
        "--digest-every",
    );
    // --mutate is only meaningful under --check, and only knows
    // quota-bypass.
    let out = zbench(&["tenants", "--mutate", "quota-bypass"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("requires --check"), "{stderr}");
    let out = zbench(&["tenants", "--check", "--mutate", "row-hammer"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("unknown mutation"), "{stderr}");
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
}

#[test]
fn tenants_sweep_runs_end_to_end() {
    // A tiny sweep through the full CLI path: both standard mixes
    // reported, with the per-tenant solo/shared/part columns and the
    // Jain fairness lines present.
    let out = zbench(&[
        "tenants",
        "--accesses",
        "4000",
        "--lines",
        "128",
        "--jobs",
        "2",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("zipf-hot+scans"), "{stdout}");
    assert!(stdout.contains("zipf-twins"), "{stdout}");
    assert!(stdout.contains("Jain fairness"), "{stdout}");
    assert!(stdout.contains("occ/quota"), "{stdout}");
}

#[test]
fn perf_profile_flag_is_hardened() {
    // Unknown profile kinds die in the flag loop, before any measurement
    // (or BENCH artifact write) can start.
    assert_rejected(&["perf", "--profile", "cachegrind"], "--profile");
    assert_rejected(&["perf", "--profile", "Walks"], "--profile");
    assert_rejected(&["perf", "--profile", ""], "--profile");
    // The profile reads the access path; there is no --sim variant.
    assert_rejected(&["perf", "--sim", "--profile", "walks"], "--profile");
}

#[test]
fn perf_profile_walks_is_deterministic() {
    let run = || {
        let out = zbench(&[
            "perf",
            "--profile",
            "walks",
            "--smoke",
            "--filter",
            "z3:lru",
        ]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let a = run();
    let stdout = String::from_utf8_lossy(&a);
    // Counts, not clocks: the header says so and the rows carry the
    // per-level breakdown.
    assert!(stdout.contains("Walk profile"), "{stdout}");
    assert!(stdout.contains("lvl3"), "{stdout}");
    assert!(stdout.contains("z3"), "{stdout}");
    // A profile run must never touch the pinned BENCH artifact, so its
    // stdout has no "wrote" line.
    assert!(!stdout.contains("wrote"), "{stdout}");
    // Byte-stable across runs.
    assert_eq!(a, run());
}

#[test]
fn perf_filter_rejects_malformed_patterns() {
    // More than one ':' cannot name a design:policy pair — both the
    // access and the --sim paths reject it with the usage line.
    assert_rejected(&["perf", "--filter", "z3:lru:extra"], "--filter");
    assert_rejected(&["perf", "--sim", "--filter", "a:b:c"], "--filter");
    // Well-formed but matching nothing is also a hard error (exit 2).
    let out = zbench(&["perf", "--smoke", "--filter", "nosuch:lru"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("matched no rows"), "{stderr}");
}

#[test]
fn flags_missing_values_exit_2() {
    let out = zbench(&["serve", "--zipf-s"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--zipf-s requires a value"), "{stderr}");
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

#[test]
fn zero_mass_ycsb_spec_is_a_clean_error_not_a_panic() {
    // Individually valid proportions whose total mass is zero pass
    // parse_float but fail spec validation; the CLI must report that
    // itself rather than reach YcsbGen::new's panic.
    let out = zbench(&[
        "serve",
        "--smoke",
        "--read-prop",
        "0",
        "--update-prop",
        "0",
        "--insert-prop",
        "0",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("invalid YCSB spec"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn valid_float_flags_are_accepted() {
    // A pure-prediction run (no simulation) with explicit sizes and
    // tolerance: the whole flag path wired end to end.
    let out = zbench(&[
        "predict",
        "--smoke",
        "--workloads",
        "1",
        "--sizes",
        "512,1024",
        "--tol",
        "0.2",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("Z4/52"), "{stdout}");
    assert!(stdout.contains("1024"), "{stdout}");
}
