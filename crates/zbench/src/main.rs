//! `zbench` — regenerate every table and figure of the zcache paper.
//!
//! `zbench <command> [options]`; run it without arguments for the usage
//! text. Every flag — its value kind and bounds, the commands it applies
//! to and its help line — is declared once, in [`zbench::cli::FLAGS`].
//!
//! `check` and `tenants --check` exit 1 on divergence and `serve --chaos`
//! on invariant violations, after shrinking each failure to a minimal
//! repro under `tests/corpus/`.

use std::io;
use std::path::{Path, PathBuf};
use zbench::cli::{self, Args, Command};
use zbench::opts::ExpOpts;
use zbench::{
    exp_ablate, exp_adaptive, exp_bandwidth, exp_check, exp_conflicts, exp_fig2, exp_fig3,
    exp_fig4, exp_fig5, exp_perf, exp_predict, exp_serve, exp_table2, exp_tenants, exp_trace,
};
use zcache_core::PolicyKind;
use zworkloads::suite::Scale;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = cli::parse(&argv).unwrap_or_else(|e| cli::fail(e));
    let opts = exp_opts(&args);
    match args.command {
        Command::Table1 => table1(&opts),
        Command::Table2 => println!("{}", exp_table2::report(&exp_table2::run())),
        Command::Fig2 => fig2(&opts),
        Command::Fig3 => fig3(&opts),
        Command::Fig4 => {
            for policy in policies(&args) {
                println!("{}", exp_fig4::report(&exp_fig4::run(policy, &opts)));
            }
        }
        Command::Fig5 => {
            for policy in policies(&args) {
                println!("{}", exp_fig5::report(&exp_fig5::run(policy, &opts)));
            }
        }
        Command::Bandwidth => println!("{}", exp_bandwidth::report(&exp_bandwidth::run(&opts))),
        Command::Ablate => println!("{}", exp_ablate::report(&exp_ablate::run(&opts))),
        Command::Adaptive => println!("{}", exp_adaptive::report(&exp_adaptive::run(&opts))),
        Command::Conflicts => println!("{}", exp_conflicts::report(&exp_conflicts::run(&opts))),
        Command::Predict => predict(&args, opts),
        Command::Trace => trace(&args, &opts),
        Command::Dumptrace => dumptrace(&args, &opts),
        Command::Check => check(&args, &opts),
        Command::Tenants => tenants(&args, &opts),
        Command::Perf => perf(&args, &opts),
        Command::Serve => serve(&args, &opts),
        Command::All => {
            table1(&opts);
            println!("{}", exp_table2::report(&exp_table2::run()));
            fig2(&opts);
            fig3(&opts);
            for policy in policies(&args) {
                println!("{}", exp_fig4::report(&exp_fig4::run(policy, &opts)));
                println!("{}", exp_fig5::report(&exp_fig5::run(policy, &opts)));
            }
            println!("{}", exp_bandwidth::report(&exp_bandwidth::run(&opts)));
            println!("{}", exp_ablate::report(&exp_ablate::run(&opts)));
            println!("{}", exp_adaptive::report(&exp_adaptive::run(&opts)));
            println!("{}", exp_conflicts::report(&exp_conflicts::run(&opts)));
        }
    }
}

/// The shared experiment options, from the flags that set them.
fn exp_opts(args: &Args) -> ExpOpts {
    let d = ExpOpts::quick();
    ExpOpts {
        scale: match args.text("--scale") {
            Some("paper") => Scale::PAPER,
            _ => d.scale,
        },
        cores: args.get("--cores").unwrap_or(d.cores),
        instrs_per_core: args.get("--instrs").unwrap_or(d.instrs_per_core),
        max_workloads: args.get("--workloads").or(d.max_workloads),
        seed: args.get("--seed").unwrap_or(d.seed),
        jobs: args.get("--jobs").unwrap_or(d.jobs),
    }
}

/// The `--policy` of fig4/fig5 (default OPT, then LRU).
fn policies(args: &Args) -> Vec<PolicyKind> {
    match args.text("--policy") {
        None => vec![PolicyKind::Opt, PolicyKind::Lru],
        Some("lru") => vec![PolicyKind::Lru],
        Some("opt") => vec![PolicyKind::Opt],
        Some(other) => cli::fail(format!(
            "--policy {other}: {} takes lru|opt",
            args.command.name()
        )),
    }
}

/// Writes a JSON artifact to `--out` (default `default`) and names it
/// on stdout.
fn write_artifact(args: &Args, default: &str, json: &str) {
    let path = args.text("--out").unwrap_or(default);
    if let Err(e) = std::fs::write(path, json) {
        cli::fail(format!("cannot write {path}: {e}"));
    }
    println!("wrote {path}");
}

/// The divergence workflow of `check`, `tenants --check` and `serve
/// --chaos`: `shrink` writes a minimal repro of each failure into
/// `tests/corpus/`, which the corpus regression tests replay, and the
/// process exits 1 if there was any failure.
fn shrink_failures<T>(failures: &[T], shrink: impl Fn(&T, &Path) -> io::Result<PathBuf>) {
    if failures.is_empty() {
        return;
    }
    for failure in failures {
        match shrink(failure, Path::new("tests/corpus")) {
            Ok(path) => eprintln!("  wrote repro {}", path.display()),
            Err(e) => eprintln!("  failed to write repro: {e}"),
        }
    }
    std::process::exit(1);
}

fn fig2(opts: &ExpOpts) {
    let rows = exp_fig2::default_run(opts.scale, opts.seed);
    println!("{}", exp_fig2::report(&rows));
}

fn fig3(opts: &ExpOpts) {
    for panel in exp_fig3::Fig3Panel::all() {
        let rows = exp_fig3::run(panel, opts);
        println!("{}", exp_fig3::report(panel, &rows));
    }
}

fn predict(args: &Args, opts: ExpOpts) {
    let mut popts = if args.on("--smoke") {
        let mut p = exp_predict::PredictOpts::smoke();
        p.exp.seed = opts.seed;
        p.exp.jobs = opts.jobs;
        p.exp.max_workloads = opts.max_workloads.or(p.exp.max_workloads);
        p
    } else {
        exp_predict::PredictOpts::from_exp(opts)
    };
    popts.sizes = args.list("--sizes").unwrap_or(popts.sizes);
    popts.tol = args.get("--tol").unwrap_or(popts.tol);
    if let Err(e) = popts.validate_sizes() {
        cli::fail(format!("--sizes: {e}"));
    }
    if !args.on("--validate") {
        println!("{}", exp_predict::report(&exp_predict::run(&popts)));
        return;
    }
    let rows = exp_predict::validate(&popts);
    println!("{}", exp_predict::report_validation(&rows, popts.tol));
    write_artifact(
        args,
        "BENCH_predict.json",
        &exp_predict::to_json(&rows, &popts),
    );
    if !exp_predict::within_tolerance(&rows, popts.tol) {
        eprintln!(
            "cross-validation failed: a design exceeds tolerance {:.4} (see table)",
            popts.tol
        );
        std::process::exit(1);
    }
}

/// Streams a trace file through the lineup: memory stays bounded by the
/// caches even for multi-gigabyte files.
fn trace(args: &Args, opts: &ExpOpts) {
    let path = &args.operands[0];
    let file =
        std::fs::File::open(path).unwrap_or_else(|e| cli::fail(format!("cannot open {path}: {e}")));
    let reader = zworkloads::trace_io::TraceReader::new(std::io::BufReader::new(file));
    let lines = opts.scale.l2_lines / 8;
    let (rows, trace_len) = exp_trace::run_streaming(reader, lines, opts.seed)
        .unwrap_or_else(|e| cli::fail(format!("cannot read {path}: {e}")));
    println!("{}", exp_trace::report(&rows, trace_len, lines));
}

/// Records a workload's L2 reference stream and exports it in the
/// trace_io format, for `zbench trace` or other simulators.
fn dumptrace(args: &Args, opts: &ExpOpts) {
    let (name, path) = (&args.operands[0], &args.operands[1]);
    let wl = zworkloads::suite::by_name(name, opts.cores as usize, opts.scale)
        .unwrap_or_else(|| cli::fail(format!("unknown workload {name:?}")));
    let trace = zsim::trace::record_trace(&opts.sim_config(), &wl);
    let refs: Vec<zworkloads::MemRef> = trace
        .refs
        .iter()
        .map(|r| zworkloads::MemRef {
            line: r.line,
            write: r.write,
            gap: r.work.max(1),
        })
        .collect();
    let file = std::fs::File::create(path)
        .unwrap_or_else(|e| cli::fail(format!("cannot create {path}: {e}")));
    zworkloads::trace_io::write_trace(std::io::BufWriter::new(file), &refs)
        .unwrap_or_else(|e| cli::fail(format!("cannot write {path}: {e}")));
    println!(
        "wrote {} references ({} instructions recorded) to {path}",
        refs.len(),
        trace.instructions
    );
}

/// Runs the differential conformance sweep against the zoracle models.
fn check(args: &Args, opts: &ExpOpts) {
    let d = exp_check::CheckOpts::default();
    let copts = exp_check::CheckOpts {
        accesses: args.get("--accesses").unwrap_or(d.accesses),
        lines: args.get("--lines").unwrap_or(d.lines),
        ways: args.get("--ways").unwrap_or(d.ways),
        seed: opts.seed,
        jobs: opts.jobs,
        design: args
            .text("--design")
            .map(|n| zoracle::CheckDesign::from_name(n).expect("--design choices")),
        policy: args
            .text("--policy")
            .map(|n| zoracle::CheckPolicy::from_name(n).expect("--policy choices")),
        digest_every: args.get("--digest-every").unwrap_or(d.digest_every),
    };
    for design in zoracle::CheckDesign::ALL {
        let kind = design.array_kind();
        if copts.design.is_none_or(|want| want == design) {
            if let Err(e) = kind.check_geometry(copts.lines, copts.ways) {
                let (lines, ways) = (copts.lines, copts.ways);
                cli::fail(format!(
                    "--lines {lines} --ways {ways}: cannot build {kind}: {e}"
                ));
            }
        }
    }

    let rows = exp_check::run(&copts);
    println!("{}", exp_check::report(&rows, copts.accesses));
    let diverged: Vec<_> = rows.iter().filter(|r| r.result.is_err()).collect();
    shrink_failures(&diverged, |row, corpus| {
        Ok(exp_check::shrink_repro(row, &copts, corpus)?.0)
    });
}

/// Runs the multi-tenant sweep, or with `--check` the partition lockstep
/// grid. Under `--mutate` the roles invert: every pair is expected to
/// diverge, the first caught divergence is shrunk into the corpus (so
/// the regression test replays the mutant forever), and an undetected
/// mutant exits 1.
fn tenants(args: &Args, opts: &ExpOpts) {
    let check = args.on("--check");
    let bypass = args.on("--mutate");
    if bypass && !check {
        cli::fail("--mutate requires --check");
    }
    let d = exp_tenants::TenantOpts::default();
    // The lockstep grid recomputes the reference exhaustively per
    // access, so it defaults to check-scale geometry.
    let (lines, accesses) = if check {
        (64, 30_000)
    } else {
        (d.lines, d.accesses)
    };
    let topts = exp_tenants::TenantOpts {
        accesses: args.get("--accesses").unwrap_or(accesses),
        lines: args.get("--lines").unwrap_or(lines),
        ways: args.get("--ways").unwrap_or(d.ways),
        seed: opts.seed,
        jobs: opts.jobs,
        quota_frac: args.get("--quota-frac").unwrap_or(d.quota_frac),
        digest_every: args.get("--digest-every").unwrap_or(d.digest_every),
        ..d
    };
    if let Err(e) = exp_tenants::check_geometry(&topts, check) {
        cli::fail(format!(
            "--lines {} --ways {}: {e}",
            topts.lines, topts.ways
        ));
    }
    if !check {
        let summaries = exp_tenants::run(&topts);
        println!("{}", exp_tenants::report(&summaries, &topts));
        return;
    }

    let rows = exp_tenants::run_check(&topts, bypass);
    println!("{}", exp_tenants::report_check(&rows, &topts, bypass));
    let caught: Vec<_> = rows.iter().filter(|r| r.result.is_err()).collect();
    let shrink = |row: &&exp_tenants::PartCheckRow, corpus: &Path| {
        Ok(exp_tenants::shrink_check_repro(row, &topts, bypass, corpus)?.0)
    };
    if !bypass {
        shrink_failures(&caught, shrink);
        return;
    }
    // One caught mutant is enough for the corpus.
    if let Some(row) = caught.first() {
        match shrink(row, Path::new("tests/corpus")) {
            Ok(path) => eprintln!("  wrote mutant repro {}", path.display()),
            Err(e) => eprintln!("  failed to write repro: {e}"),
        }
    }
    if caught.len() < rows.len() {
        eprintln!(
            "quota-bypass mutant ESCAPED {} of {} pairs",
            rows.len() - caught.len(),
            rows.len()
        );
        std::process::exit(1);
    }
}

fn perf(args: &Args, opts: &ExpOpts) {
    let smoke = args.on("--smoke");
    let filter = args.text("--filter").map(|pattern| {
        exp_perf::RowFilter::parse(pattern).unwrap_or_else(|| {
            cli::fail(format!(
                "--filter: malformed pattern {pattern:?} (expected design:policy)"
            ))
        })
    });
    let no_rows = || -> ! {
        cli::fail(
            "--filter matched no rows (designs: sa-h3, skew, z2, z3, z4, fully; \
             policies: lru, bucketed-lru, lfu)",
        )
    };

    let mut popts = if smoke {
        exp_perf::PerfOpts::smoke()
    } else {
        exp_perf::PerfOpts::default()
    };
    popts.seed = opts.seed;
    if let Some(n) = args.get("--accesses") {
        popts.accesses = n;
        popts.warmup = n / 4;
    }
    if args.on("--profile") {
        let rows = exp_perf::run_walk_profile(&popts, filter.as_ref());
        if rows.is_empty() {
            no_rows();
        }
        // Counts only, and no BENCH json: a profile run must never
        // overwrite the throughput artifact.
        println!("{}", exp_perf::report_walk_profile(&rows, &popts));
        return;
    }
    popts.reps = args.get("--reps").unwrap_or(popts.reps);
    let rows = exp_perf::run(&popts, filter.as_ref());
    if rows.is_empty() {
        no_rows();
    }
    println!("{}", exp_perf::report(&rows, &popts));
    write_artifact(args, "BENCH_access.json", &exp_perf::to_json(&rows, &popts));
}

/// Runs the zserve service-tier benchmark; with `--chaos`, the full
/// fault-injection soak matrix.
fn serve(args: &Args, opts: &ExpOpts) {
    let smoke = args.on("--smoke");
    let chaos = args.on("--chaos");
    let mut cfg = if smoke {
        zserve::ServeConfig::default().smoke()
    } else {
        zserve::ServeConfig::default()
    };
    cfg.seed = opts.seed;
    let records = cfg.spec.record_count;
    cfg.spec = match args.text("--workload") {
        Some("b") => zworkloads::ycsb::YcsbSpec::workload_b(),
        Some("c") => zworkloads::ycsb::YcsbSpec::workload_c(),
        Some("d") => zworkloads::ycsb::YcsbSpec::workload_d(),
        _ => zworkloads::ycsb::YcsbSpec::workload_a(),
    }
    .records(records);
    if let Some(n) = args.get("--ops") {
        cfg.total_ops = n;
        // Leave generous virtual-time headroom so a heavier point is
        // reported as livelocked only if it genuinely stops draining.
        cfg.tick_limit = cfg.issue_horizon() * 4 + 512;
    }
    let mode = if chaos {
        exp_serve::ServeMode::Chaos
    } else {
        exp_serve::ServeMode::Baseline
    };
    // Full runs sweep four seeds per schedule; smoke keeps CI short.
    let seeds: Vec<u64> = if smoke {
        vec![cfg.seed]
    } else {
        (cfg.seed..cfg.seed + 4).collect()
    };
    let soak = exp_serve::run(&cfg, &seeds, mode, opts.jobs, chaos);
    println!("{}", exp_serve::report(&soak, &cfg));
    write_artifact(
        args,
        "BENCH_serve.json",
        &exp_serve::to_json(&soak, &cfg, &seeds),
    );

    let violated: Vec<_> = soak
        .rows
        .iter()
        .filter(|r| !r.violations.is_empty())
        .collect();
    shrink_failures(&violated, |row, corpus| {
        let file = corpus.join(format!("serve_violation_{}_{}.txt", row.schedule, row.seed));
        let repro = (row.repro.as_deref())
            .ok_or_else(|| io::Error::other("only --chaos shrinks a failing point"))?;
        std::fs::create_dir_all(corpus)?;
        std::fs::write(&file, repro)?;
        Ok(file)
    });
}

fn table1(opts: &ExpOpts) {
    let cfg = opts.sim_config();
    println!("Table I — simulated CMP configuration\n");
    println!(
        "  cores               {} in-order x86-like, IPC=1 except memory, 2 GHz",
        cfg.cores
    );
    println!(
        "  L1 caches           {} KB, {}-way set-associative, 1-cycle latency",
        cfg.l1_lines * 64 / 1024,
        cfg.l1_ways
    );
    println!(
        "  L2 cache            {} MB, {} banks, shared, inclusive, MESI directory,",
        cfg.l2_lines * 64 / 1024 / 1024,
        cfg.l2_banks
    );
    println!(
        "                      {}-cycle avg L1-to-L2 latency, {}-cycle bank latency ({})",
        cfg.l1_to_l2_latency,
        cfg.effective_l2_latency(),
        cfg.l2.label()
    );
    println!(
        "  MCU                 {} memory controllers, {}-cycle zero-load latency,",
        cfg.mem_controllers, cfg.mem_latency
    );
    println!(
        "                      {} cycles/64B transfer (64 GB/s peak at paper scale)",
        cfg.mem_cycles_per_transfer
    );
    println!();
}
