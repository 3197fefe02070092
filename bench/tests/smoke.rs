//! Runs the benchmark binary end to end at `--smoke` size (1/50 of every
//! workload). One test, so the timed untraced pass never shares the
//! machine with the traced one.

use std::process::Command;
use std::time::Instant;

const BIN: &str = env!("CARGO_BIN_EXE_zcache-bench");
const WORKLOADS: [&str; 6] = [
    "array-z4-52",
    "tenants-quota",
    "fig4-sweep",
    "exec-z4-52",
    "conflicts-fa",
    "serve-ycsb",
];

fn run(args: &[&str]) -> String {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{args:?} failed ({}):\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

/// The metric names of the `name value unit` lines and of the JSON line,
/// which must agree; also checks the result is correct.
fn metric_names(stdout: &str) -> Vec<String> {
    let (json, body) = stdout
        .trim_end()
        .lines()
        .collect::<Vec<_>>()
        .split_last()
        .map(|(j, b)| (j.to_string(), b.to_vec()))
        .expect("output ends with a result line");
    assert!(json.starts_with("{\"correct\": true, "), "{json}");
    let printed: Vec<String> = body
        .iter()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split_whitespace().next().unwrap_or_default().to_string())
        .collect();
    // Every piece but the last ends with the quoted key of the next value.
    let pieces: Vec<&str> = json.split(": {\"value\": ").collect();
    let in_json: Vec<String> = pieces[..pieces.len() - 1]
        .iter()
        .map(|p| {
            let quoted = p.strip_suffix('"').expect("key ends with a quote");
            quoted.rsplit_once('"').expect("quoted key").1.to_string()
        })
        .collect();
    assert_eq!(printed, in_json, "printed names and JSON keys differ");
    for name in &printed {
        assert!(valid_name(name), "bad metric name {name:?}");
    }
    printed
}

#[test]
fn smoke_pass_of_every_workload() {
    let t0 = Instant::now();
    let all = run(&["--workload", "all", "--smoke", "--seconds", "0"]);
    let secs = t0.elapsed().as_secs_f64();
    assert!(secs < 10.0, "the untraced smoke pass took {secs:.1} s");
    let names = metric_names(&all);
    assert_eq!(names.len(), WORKLOADS.len() * 3, "{names:?}");

    for wl in WORKLOADS {
        let names = metric_names(&run(&["--workload", wl, "--smoke", "--trace", "1"]));
        assert_eq!(names.len(), 69, "{wl}: {names:?}");
        assert!(names.contains(&"trace.attributed_frac".to_string()));
    }
}
