//! Every pinned `zbench` output, regenerated and compared byte for byte.
//!
//! `tests/pinned.sh` lists each pinned file with the `zbench` arguments
//! that regenerate it, and running it rewrites them all from the release
//! binary. This test parses its `pin` lines (`pin_full` lines run at
//! default size, which only the script does) and runs each with the
//! debug binary, at `--jobs 1` and at `--jobs 4` when the command takes
//! `--jobs`. Every run must exit 0, and its stdout, or the file it
//! writes through `--out` (redirected to a scratch path here), must
//! equal the pinned file. `$tmp` stands for a scratch directory, which
//! pinned stdout shows as `<tmp>`.

use std::path::Path;
use std::process::Command;
use zbench::cli::{self, FLAGS};

/// One `pin FILE ARGS...` line of the manifest.
struct Pin {
    /// The pinned file, relative to the repository root.
    file: String,
    /// The `zbench` arguments that regenerate it.
    args: Vec<String>,
}

/// The `pin` lines of `tests/pinned.sh`, in run order. Their words must
/// need no shell quoting, so bash and this parser read them alike.
fn pins(manifest: &str) -> Vec<Pin> {
    let plain = |w: &str| {
        w.replace("$tmp", "")
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "-_./,:".contains(c))
    };
    manifest
        .lines()
        .filter_map(|line| {
            let mut words = line.split_whitespace();
            if words.next() != Some("pin") {
                return None;
            }
            let words: Vec<String> = words.map(String::from).collect();
            assert!(words.iter().all(|w| plain(w)), "needs quoting: {line}");
            let (file, args) = words.split_first().expect("pin FILE ARGS...");
            Some(Pin {
                file: file.clone(),
                args: args.to_vec(),
            })
        })
        .collect()
}

/// Runs every pin at `jobs` workers and returns the mismatches.
fn run_pins(root: &Path, pins: &[Pin], jobs: usize) -> Vec<String> {
    let jobs_flag = FLAGS.iter().find(|f| f.name == "--jobs").unwrap();
    let tmp = std::env::temp_dir().join(format!("zbench-pinned-{}-{jobs}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap();
    let scratch = tmp.join("out");
    let tmp = tmp.to_str().unwrap();
    let mut mismatches = Vec::new();
    for pin in pins {
        let mut args: Vec<String> = pin.args.iter().map(|a| a.replace("$tmp", tmp)).collect();
        let takes_jobs = jobs_flag.applies_to(cli::Command::from_name(&args[0]).unwrap());
        if !takes_jobs && jobs != 1 {
            continue;
        }
        if takes_jobs {
            args.extend(["--jobs".to_string(), jobs.to_string()]);
        }
        let out_value = (args.windows(2))
            .position(|w| w[0] == "--out" && w[1] == pin.file)
            .map(|i| i + 1);
        if let Some(i) = out_value {
            args[i] = scratch.to_str().unwrap().to_string();
        }
        let out = Command::new(env!("CARGO_BIN_EXE_zbench"))
            .args(&args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?} failed: {stderr}");
        let produced = match out_value {
            Some(_) => std::fs::read(&scratch).unwrap(),
            None => (String::from_utf8_lossy(&out.stdout).replace(tmp, "<tmp>")).into_bytes(),
        };
        if produced != std::fs::read(root.join(&pin.file)).unwrap() {
            mismatches.push(format!("{} ({args:?})", pin.file));
        }
    }
    std::fs::remove_dir_all(tmp).ok();
    mismatches
}

#[test]
fn pinned_outputs_match_at_any_job_count() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let manifest = std::fs::read_to_string(root.join("crates/zbench/tests/pinned.sh")).unwrap();
    let pins = pins(&manifest);
    // The two passes share nothing, so they run side by side.
    let (root, pins) = (&root, &pins);
    let mismatches: Vec<String> = std::thread::scope(|s| {
        let passes = [1, 4].map(|jobs| s.spawn(move || run_pins(root, pins, jobs)));
        passes.into_iter().flat_map(|p| p.join().unwrap()).collect()
    });
    assert!(
        mismatches.is_empty(),
        "output differs from the pinned file; if the change is intended, \
         run crates/zbench/tests/pinned.sh to regenerate: {mismatches:#?}"
    );
}
