//! One command that benchmarks the zcache reproduction end to end.
//!
//! `--workload <name>` runs one of six workloads through the public entry
//! points users call, checks every output record against the goldens in
//! `golden/`, and prints each metric as `name value unit` and then one
//! JSON result line. With `--trace 1` it instead re-drives the same work
//! with spans and histograms around each layer and prints the per-layer
//! metrics. `README.md` describes the workloads, metrics and bounds.

mod golden;
mod heap;
mod metrics;
mod speed;
mod trace;
mod workloads;

use golden::Check;
use metrics::{json_line, median, Metric, END_TO_END};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::Tracer;
use workloads::Workload;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

const USAGE: &str = "\
usage: zcache-bench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--bless]

  --workload  array-z4-52 | tenants-quota | fig4-sweep | exec-z4-52 | conflicts-fa
              | serve-ycsb | all (each workload in its own child process)
  --seed      input seed (default 1)
  --seconds   keep repeating timed reps until this much time has passed (default 15)
  --trace 1   one untraced and one traced rep; print the per-layer metrics
  --smoke     every workload at 1/50 of its size (goldens are not checked)
  --bless     write golden/<workload>.txt for seeds 1-10 from full-size runs";

/// Timed reps per run, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Size divisor of `--smoke` runs.
const SMOKE_DIV: u64 = 50;
/// Seeds `--bless` records goldens for.
const BLESS_SEEDS: std::ops::RangeInclusive<u64> = 1..=10;
/// Failed checks printed in full; every rep repeats a broken record.
const MAX_PROBLEMS_SHOWN: usize = 4;
/// Share of the traced drive that named spans must cover.
const MIN_ATTRIBUTED: f64 = 0.9;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    bless: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        smoke: false,
        bless: false,
    };
    let mut i = 0;
    while i < argv.len() {
        let value = |i: usize| {
            argv.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", argv[i]))
        };
        match argv[i].as_str() {
            "--workload" => args.workload = value(i)?.clone(),
            "--seed" => {
                args.seed = value(i)?
                    .parse()
                    .map_err(|_| format!("--seed: not a whole number: {:?}", argv[i + 1]))?
            }
            "--seconds" => {
                let s: f64 = value(i)?
                    .parse()
                    .map_err(|_| format!("--seconds: not a number: {:?}", argv[i + 1]))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds: {s} is outside 0..=3600"));
                }
                args.seconds = s;
            }
            // `--trace` alone means `--trace 1`.
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some("0") => args.trace = false,
                Some("1") => args.trace = true,
                _ => {
                    args.trace = true;
                    i += 1;
                    continue;
                }
            },
            "--smoke" => {
                args.smoke = true;
                i += 1;
                continue;
            }
            "--bless" => {
                args.bless = true;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if args.workload != "all" && Workload::parse(&args.workload).is_none() {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if args.bless && (args.smoke || args.trace) {
        return Err("--bless records full-size untraced runs; drop --smoke and --trace".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<Workload> = match Workload::parse(&args.workload) {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    if args.bless {
        return bless(&workloads);
    }
    if workloads.len() > 1 {
        return run_all(&args);
    }
    let wl = workloads[0];
    let div = if args.smoke { SMOKE_DIV } else { 1 };
    let result = if args.trace {
        run_traced(wl, &args, div)
    } else {
        run_untraced(wl, &args, div)
    };
    match result {
        Ok((check, metrics)) => {
            for p in check.problems.iter().take(MAX_PROBLEMS_SHOWN) {
                eprintln!("{}: check failed: {p}", wl.name());
            }
            if let Some(more) = check.problems.len().checked_sub(MAX_PROBLEMS_SHOWN) {
                eprintln!("{}: ... and {more} more failed checks", wl.name());
            }
            for m in &metrics {
                println!("{}", m.line());
            }
            println!(
                "{}",
                json_line(check.correct(), check.attempted, check.failed, &metrics)
            );
            if check.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{}: {e}", wl.name());
            ExitCode::FAILURE
        }
    }
}

/// The goldens of this run, or `None` (reps then check each other).
fn golden_for(wl: Workload, args: &Args) -> Result<Option<Vec<String>>, String> {
    let golden = if args.smoke {
        None
    } else {
        golden::load(wl.name(), args.seed)?
    };
    println!(
        "# workload={} seed={} checked={}",
        wl.name(),
        args.seed,
        golden.is_some()
    );
    Ok(golden)
}

/// Reps until `--seconds` have passed (at least [`MIN_REPS`]). Reports
/// the median of each phase over the reps the host ran at full speed,
/// corrected to nominal speed (see [`speed`]), with its spread, and the
/// peak heap after the first [`MIN_REPS`] reps, a fixed amount of work.
fn run_untraced(wl: Workload, args: &Args, div: u64) -> Result<(Check, Vec<Metric>), String> {
    let mut check = Check::new(golden_for(wl, args)?);
    let (mut setup, mut wall) = (Vec::new(), Vec::new());
    let mut peak_heap = 0.0;
    let start = Instant::now();
    while wall.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        let rep = wl.rep(args.seed, div);
        let what = format!("rep {}", wall.len() + 1);
        check.records(&what, &rep.records);
        check.ops(&what, rep.client_ops.0, rep.client_ops.1);
        setup.push(rep.setup);
        wall.push(rep.wall);
        if wall.len() == MIN_REPS {
            peak_heap = heap::peak_mb();
        }
    }
    let summary = |phases: &[speed::Phase]| {
        let kept: Vec<f64> = speed::full_speed(phases, MIN_REPS)
            .iter()
            .map(|p| p.corrected())
            .collect();
        let min = kept.iter().copied().fold(f64::INFINITY, f64::min);
        let max = kept.iter().copied().fold(0.0, f64::max);
        (median(&kept), Some((min, max, kept.len())))
    };
    let raw: Vec<f64> = wall.iter().map(|p| p.raw_s).collect();
    let kernel: Vec<f64> = wall.iter().map(|p| p.kernel_s).collect();
    println!(
        "# {} reps; uncorrected wall_s median {} s; reference kernel median {} s (nominal {} s)",
        wall.len(),
        median(&raw),
        median(&kernel),
        speed::NOMINAL_S
    );
    let values = [summary(&setup), summary(&wall), (peak_heap, None)];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, spread))| Metric {
            name: name.into(),
            value,
            unit: unit.into(),
            spread,
        })
        .collect();
    Ok((check, metrics))
}

/// One untraced rep, then the traced drive of the same work; the drive's
/// records must equal the rep's.
fn run_traced(wl: Workload, args: &Args, div: u64) -> Result<(Check, Vec<Metric>), String> {
    let mut check = Check::new(golden_for(wl, args)?);
    let rep = wl.rep(args.seed, div);
    check.records("untraced rep", &rep.records);
    check.ops("untraced rep", rep.client_ops.0, rep.client_ops.1);
    let mut tr = Tracer::new();
    let traced = wl.traced(args.seed, div, &mut tr);
    check.compare("traced drive", &rep.records, &traced.records);
    for p in traced.problems {
        check.problem(p);
    }

    let drives: Vec<usize> = tr.roots("drive").collect();
    if drives.is_empty() {
        return Err("the traced drive recorded no `drive` span".into());
    }
    let drive_ns = drives.iter().map(|&i| tr.spans()[i].dur_ns()).sum::<u64>() as f64;
    let covered_ns = drives.iter().map(|&i| tr.children_ns(i)).sum::<u64>() as f64;
    let attributed = covered_ns / drive_ns;
    if attributed < MIN_ATTRIBUTED {
        check.problem(format!(
            "named spans cover {:.1} % of the traced drive, below {:.0} %",
            attributed * 100.0,
            MIN_ATTRIBUTED * 100.0
        ));
    }
    let trace_file = write_out(
        &format!("{}-seed{}.trace.json", wl.name(), args.seed),
        &tr.to_json(wl.name(), args.seed),
    )?;
    println!("# spans written to {}", trace_file.display());

    let mut values: Vec<(String, f64)> = traced.layers.0;
    values.push((
        "trace.overhead_frac".into(),
        drive_ns / (rep.wall.raw_s * 1e9) - 1.0,
    ));
    values.push(("trace.attributed_frac".into(), attributed));
    let mut metrics = Vec::new();
    for (name, unit, _) in metrics::per_layer() {
        let value = values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v);
        metrics.push(Metric {
            name,
            value,
            unit: unit.into(),
            spread: None,
        });
    }
    for (name, value) in &values {
        assert!(
            metrics.iter().any(|m| m.name == *name),
            "{name} is not a per-layer metric"
        );
        assert!(value.is_finite(), "{name} = {value}");
    }
    Ok((check, metrics))
}

/// Runs every workload in its own child process, so each one's peak heap
/// is its own, and sums their results.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for wl in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", wl.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit());
        if args.smoke {
            cmd.arg("--smoke");
        }
        let out = match cmd.output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("cannot run {}: {e}", exe.display());
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let lines: Vec<&str> = stdout.lines().collect();
        let Some((result, body)) = lines.split_last() else {
            eprintln!("{} printed nothing ({})", wl.name(), out.status);
            correct = false;
            continue;
        };
        for line in body {
            if line.starts_with('#') {
                println!("{line}");
                continue;
            }
            println!("{}.{line}", wl.name());
            let mut parts = line.split_whitespace();
            let value = parts.next().zip(parts.next().and_then(|v| v.parse().ok()));
            if let (Some((name, value)), Some(unit)) = (value, parts.next()) {
                metrics.push(Metric {
                    name: format!("{}.{name}", wl.name()),
                    value,
                    unit: unit.to_string(),
                    spread: None,
                });
            }
        }
        correct &= out.status.success() && result.contains("\"correct\": true");
        attempted += json_u64(result, "attempted").unwrap_or(0);
        failed += json_u64(result, "failed").unwrap_or(0);
    }
    println!("{}", json_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes `text` to `bench/out/<name>`.
fn write_out(name: &str, text: &str) -> Result<std::path::PathBuf, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let file = dir.join(name);
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&file, text))
        .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
    Ok(file)
}

/// The whole-number value of `"key": N` in a result line.
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
    rest[..rest.find(|c: char| !c.is_ascii_digit())?]
        .parse()
        .ok()
}

/// Records the goldens of every blessed seed from full-size runs, and the
/// `zbench` report text of seed 1 beside them for cross-checking against
/// the `zbench` command line.
fn bless(workloads: &[Workload]) -> ExitCode {
    for &wl in workloads {
        let mut per_seed = Vec::new();
        for seed in BLESS_SEEDS {
            let rep = wl.rep(seed, 1);
            if rep.client_ops.1 > 0 {
                eprintln!(
                    "{} seed {seed}: {} client ops failed; refusing to bless",
                    wl.name(),
                    rep.client_ops.1
                );
                return ExitCode::FAILURE;
            }
            if let (1, Some(report)) = (seed, &rep.report) {
                if let Err(e) = write_out(&format!("{}-seed1.report.txt", wl.name()), report) {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
            per_seed.push((seed, rep.records));
        }
        match golden::write(wl.name(), &per_seed) {
            Ok(path) => println!("# blessed {} seeds into {}", per_seed.len(), path.display()),
            Err(e) => {
                eprintln!("cannot write the goldens of {}: {e}", wl.name());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args(&[
            "--workload",
            "fig4-sweep",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("fig4-sweep", 7, 10.0, true)
        );
        let a = args(&["--trace", "0", "--workload", "all"]).unwrap();
        assert!(!a.trace);
        let a = args(&["--workload", "serve-ycsb", "--trace", "--smoke"]).unwrap();
        assert!(a.trace && a.smoke);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "1"],
            &["--workload", "all", "--seed", "x"],
            &["--workload", "all", "--seconds", "-1"],
            &["--workload", "all", "--trace", "2"],
            &["--workload", "all", "--bless", "--smoke"],
            &["--workload"],
        ] {
            assert!(args(bad).is_err(), "{bad:?} was accepted");
        }
    }

    #[test]
    fn reads_counts_from_result_lines() {
        let line = json_line(true, 1234, 5, &[]);
        assert_eq!(json_u64(&line, "attempted"), Some(1234));
        assert_eq!(json_u64(&line, "failed"), Some(5));
        assert_eq!(json_u64(&line, "missing"), None);
    }
}
