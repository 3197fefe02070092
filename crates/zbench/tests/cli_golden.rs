//! Byte-for-byte goldens of `zbench` stdout.
//!
//! Every case runs one command at a small size and compares its stdout
//! with `tests/golden/<name>.txt`, at `--jobs 1` and at `--jobs 4` when
//! the command takes `--jobs`. `TMP` stands for a scratch directory,
//! which the goldens show as `<tmp>`. To re-record a golden after an
//! intended output change, run the case's command line and redirect its
//! stdout into the file.

use std::process::Command;
use zbench::cli::{self, FLAGS};

/// `(golden name, command line)`, in run order: `trace` replays the
/// file `dumptrace` writes.
const CASES: &[(&str, &str)] = &[
    ("table1", "table1"),
    ("table2", "table2"),
    (
        "fig3",
        "fig3 --scale small --cores 4 --instrs 2000 --workloads 1",
    ),
    (
        "fig4",
        "fig4 --scale small --cores 4 --instrs 2000 --workloads 1",
    ),
    (
        "fig5",
        "fig5 --scale small --cores 4 --instrs 2000 --workloads 1",
    ),
    (
        "bandwidth",
        "bandwidth --scale small --cores 4 --instrs 2000 --workloads 1",
    ),
    (
        "ablate",
        "ablate --scale small --cores 4 --instrs 2000 --workloads 1",
    ),
    (
        "adaptive",
        "adaptive --scale small --cores 4 --instrs 2000 --workloads 1",
    ),
    (
        "conflicts",
        "conflicts --scale small --cores 4 --instrs 2000 --workloads 1",
    ),
    ("predict-smoke", "predict --smoke"),
    (
        "predict-sizes",
        "predict --smoke --workloads 1 --sizes 512,1024 --tol 0.2",
    ),
    ("check", "check --accesses 20000"),
    ("tenants", "tenants --accesses 4000 --lines 128"),
    ("tenants-check", "tenants --check --accesses 5000"),
    (
        "dumptrace",
        "dumptrace canneal TMP/canneal.trace --cores 4 --instrs 5000",
    ),
    ("trace", "trace TMP/canneal.trace"),
    (
        "perf-profile-walks",
        "perf --profile walks --smoke --filter z3:",
    ),
    ("serve-smoke", "serve --smoke --out TMP/serve.json"),
];

#[test]
fn stdout_matches_the_goldens_at_any_job_count() {
    let jobs_flag = FLAGS.iter().find(|f| f.name == "--jobs").unwrap();
    let golden_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
    let mut mismatches = Vec::new();
    for jobs in [1, 4] {
        let tmp = std::env::temp_dir().join(format!("zbench-golden-{}-{jobs}", std::process::id()));
        std::fs::create_dir_all(&tmp).unwrap();
        let tmp = tmp.to_str().unwrap();
        for &(name, line) in CASES {
            let mut args: Vec<String> = line
                .replace("TMP", tmp)
                .split(' ')
                .map(String::from)
                .collect();
            let takes_jobs = jobs_flag.applies_to(cli::Command::from_name(&args[0]).unwrap());
            if !takes_jobs && jobs != 1 {
                continue;
            }
            if takes_jobs {
                args.extend(["--jobs".to_string(), jobs.to_string()]);
            }
            let out = Command::new(env!("CARGO_BIN_EXE_zbench"))
                .args(&args)
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{args:?} failed: {stderr}");
            let golden = std::fs::read_to_string(format!("{golden_dir}/{name}.txt")).unwrap();
            if String::from_utf8_lossy(&out.stdout).replace(tmp, "<tmp>") != golden {
                mismatches.push(format!("{name} ({args:?})"));
            }
        }
        std::fs::remove_dir_all(tmp).ok();
    }
    assert!(
        mismatches.is_empty(),
        "stdout differs from tests/golden/: {mismatches:#?}"
    );
}
