//! `zbench` — regenerate every table and figure of the zcache paper.
//!
//! ```text
//! zbench <command> [options]
//!
//! Commands:
//!   table1      Print the simulated machine configuration (Table I)
//!   table2      Cache timing/area/power across designs (Table II)
//!   fig2        Associativity CDFs under the uniformity assumption
//!   fig3        Associativity distributions of real designs (4 panels)
//!   fig4        MPKI/IPC improvements vs baseline (--policy lru|opt)
//!   fig5        IPC and BIPS/W, serial vs parallel lookups
//!   bandwidth   §VI-D tag-bandwidth / self-throttling study
//!   ablate      Design-choice ablations (walk order, early stop, …)
//!   adaptive    §VIII adaptive walk throttling (future work)
//!   conflicts   §IV conflict-miss decomposition vs fully-associative
//!   predict     Analytical miss-ratio fast-path: profile each workload's
//!               reuse distances once, predict the whole design×size grid
//!               without simulation; --validate cross-checks against
//!               simulated LRU and writes BENCH_predict.json
//!   trace       Run a trace file (zworkloads::trace_io format) through the lineup
//!   dumptrace   Record a workload's L2 stream and export it as a trace file
//!   check       Differential conformance sweep vs the zoracle reference models
//!   tenants     Multi-tenant quota-partitioning sweep: per-tenant MPKI solo vs
//!               shared vs partitioned plus Jain fairness; --check runs the
//!               partition lockstep grid vs zoracle, --mutate quota-bypass
//!               verifies the lockstep catches the enforcement mutant and
//!               writes a shrunk .ptrace repro to tests/corpus/
//!   perf        Access-path throughput (accesses/sec); writes BENCH_access.json
//!   serve       Sharded service tier benchmark; --chaos runs the fault-injection
//!               soak matrix and writes BENCH_serve.json
//!   all         Everything above (except check, perf and serve)
//!
//! Options:
//!   --scale small|paper     cache scale (default small)
//!   --cores N               simulated cores (default 32)
//!   --instrs N              instructions per core (default 100000)
//!   --workloads N           limit to first N workloads
//!   --policy lru|opt        policy for fig4/fig5 (default both);
//!                           check also accepts lfu
//!   --seed N                RNG seed (default 1)
//!   --jobs N                sweep worker threads (default: all cores);
//!                           output is byte-identical for any N
//!   --accesses N            check: accesses per pair (default 100000)
//!   --design NAME           check: sa-bitsel|sa-h3|skew|z2|z3|fully (default all)
//!   --lines N               check: cache frames (default 64)
//!   --ways N                check: ways per design (default 4)
//!   --digest-every N        check: full-state digest interval (default 1024)
//!   --smoke                 perf/serve: short CI configuration
//!   --reps N                perf: timed repetitions per pair; best rep is reported
//!   --sim                   perf: measure end-to-end zsim throughput instead of
//!                           the raw array path; writes BENCH_sim.json
//!   --filter D:P            perf: keep only rows matching design:policy (either
//!                           side empty = wildcard, e.g. z3: or :lru)
//!   --out FILE              perf/serve: JSON artifact path (default
//!                           BENCH_access.json, BENCH_sim.json with --sim,
//!                           BENCH_serve.json for serve)
//!   --chaos                 serve: run the full fault-injection soak matrix
//!                           (stall, slowdown, drop, burst, poison, mixed,
//!                           overload) instead of the fault-free baseline
//!   --workload a|b|c|d      serve: YCSB workload mix (default a)
//!   --ops N                 serve: operations per soak point
//!   --zipf-s S              serve: Zipf exponent of the request distribution
//!   --read-prop P           serve: override the read proportion
//!   --update-prop P         serve: override the update proportion
//!   --insert-prop P         serve: override the insert proportion
//!   --quota-frac F          tenants: fraction of the array granted as quotas
//!                           (default 1.0; > 1 overcommits)
//!   --check                 tenants: run the partition lockstep grid instead of
//!                           the isolation sweep (exits 1 on divergence)
//!   --mutate NAME           tenants --check: apply a production-side mutation
//!                           (quota-bypass); exits 1 if any pair MISSES it
//!   --sizes N,N,...         predict: cache sizes in lines (powers of two >= 64)
//!   --tol T                 predict: cross-validation error tolerance
//!   --validate              predict: also simulate every grid point, compare,
//!                           and write the BENCH_predict.json artifact
//!
//! `check` exits 1 on divergence, after delta-debugging the failing
//! stream to a minimal repro and writing it to tests/corpus/. `serve
//! --chaos` exits 1 on invariant violations, after shrinking each
//! failing fault schedule and writing the repro to tests/corpus/.
//! ```

use zbench::opts::ExpOpts;
use zbench::{
    exp_ablate, exp_adaptive, exp_bandwidth, exp_conflicts, exp_fig2, exp_fig3, exp_fig4, exp_fig5,
    exp_table2,
};
use zcache_core::{ArrayKind, PolicyKind};
use zworkloads::suite::Scale;

const USAGE: &str = "usage: zbench <table1|table2|fig2|fig3|fig4|fig5|bandwidth|ablate|adaptive|\
                     conflicts|predict|trace|dumptrace|check|tenants|perf|serve|all> \
                     [--scale small|paper] \
                     [--cores N] [--instrs N] [--workloads N] [--policy lru|lfu|opt] [--seed N] \
                     [--jobs N] [--accesses N] [--design NAME] [--lines N] [--ways N] \
                     [--digest-every N] [--quota-frac F] [--check] [--mutate NAME] [--smoke] \
                     [--reps N] [--sim] [--filter D:P] [--profile walks] [--out FILE] \
                     [--chaos] [--workload a|b|c|d] [--ops N] [--zipf-s S] [--read-prop P] \
                     [--update-prop P] [--insert-prop P] [--sizes N,N,...] [--tol T] [--validate]";

/// Parses a numeric flag value; on failure prints the offending flag
/// and value plus the usage line and exits 2 instead of panicking.
fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: expected an integer, got {value:?}");
        eprintln!("{USAGE}");
        std::process::exit(2);
    })
}

/// Parses a float flag value, rejecting non-finite values (NaN, ±inf —
/// `f64::from_str` happily accepts the strings "NaN" and "inf") and
/// anything below `min`. On failure prints the offending flag and value
/// plus the usage line and exits 2, so no malformed float reaches a
/// downstream `panic!`/`assert!`.
fn parse_float(flag: &str, value: &str, min: f64) -> f64 {
    let parsed: Option<f64> = value.parse().ok();
    match parsed {
        Some(v) if v.is_finite() && v >= min => v,
        _ => {
            eprintln!("{flag}: expected a finite number >= {min}, got {value:?}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

/// Exits 2 with the flags and the usage line unless an array of `kind`
/// can be built with `lines` frames and `ways` ways, so a bad
/// `--lines`/`--ways` never reaches an array constructor's assert inside
/// a sweep worker.
fn validate_geometry(kind: ArrayKind, lines: u64, ways: u32) {
    if let Err(e) = kind.check_geometry(lines, ways) {
        eprintln!("--lines {lines} --ways {ways}: cannot build {kind}: {e}");
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().cloned() else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };

    let mut opts = ExpOpts::quick();
    let mut policy_arg: Option<String> = None;
    let mut check_opts = zbench::exp_check::CheckOpts::default();
    let mut design_arg: Option<String> = None;
    let mut accesses_arg: Option<usize> = None;
    let mut reps_arg: Option<usize> = None;
    let mut smoke = false;
    let mut sim = false;
    let mut chaos = false;
    let mut workload_arg: Option<String> = None;
    let mut ops_arg: Option<u64> = None;
    let mut filter_arg: Option<String> = None;
    let mut profile_arg: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut tuning = ServeTuning::default();
    let mut sizes_arg: Option<Vec<u64>> = None;
    let mut tol_arg: Option<f64> = None;
    let mut validate = false;
    let mut lines_arg: Option<u64> = None;
    let mut ways_arg: Option<u32> = None;
    let mut digest_arg: Option<u64> = None;
    let mut quota_frac_arg: Option<f64> = None;
    let mut do_check = false;
    let mut mutate_arg: Option<String> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        if !flag.starts_with("--") {
            positional.push(flag.to_string());
            i += 1;
            continue;
        }
        let value = args.get(i + 1).cloned();
        let take = |name: &str| -> String {
            value.clone().unwrap_or_else(|| {
                eprintln!("{name} requires a value");
                std::process::exit(2);
            })
        };
        match flag {
            "--scale" => {
                opts.scale = match take("--scale").as_str() {
                    "small" => Scale::SMALL,
                    "paper" => Scale::PAPER,
                    other => {
                        eprintln!("unknown scale {other:?} (small|paper)");
                        std::process::exit(2);
                    }
                };
                i += 2;
            }
            "--cores" => {
                opts.cores = parse_num("--cores", &take("--cores"));
                i += 2;
            }
            "--instrs" => {
                opts.instrs_per_core = parse_num("--instrs", &take("--instrs"));
                i += 2;
            }
            "--workloads" => {
                opts.max_workloads = Some(parse_num("--workloads", &take("--workloads")));
                i += 2;
            }
            "--policy" => {
                // Validated at the command site: fig4/fig5 accept
                // lru|opt, check also accepts lfu.
                policy_arg = Some(take("--policy"));
                i += 2;
            }
            "--accesses" => {
                check_opts.accesses = parse_num("--accesses", &take("--accesses"));
                accesses_arg = Some(check_opts.accesses);
                i += 2;
            }
            "--smoke" => {
                smoke = true;
                i += 1;
            }
            "--sim" => {
                sim = true;
                i += 1;
            }
            "--chaos" => {
                chaos = true;
                i += 1;
            }
            "--workload" => {
                workload_arg = Some(take("--workload"));
                i += 2;
            }
            "--ops" => {
                ops_arg = Some(parse_num("--ops", &take("--ops")));
                i += 2;
            }
            "--zipf-s" => {
                tuning.zipf_s = Some(parse_float("--zipf-s", &take("--zipf-s"), 0.0));
                i += 2;
            }
            "--read-prop" => {
                tuning.read_prop = Some(parse_float("--read-prop", &take("--read-prop"), 0.0));
                i += 2;
            }
            "--update-prop" => {
                tuning.update_prop =
                    Some(parse_float("--update-prop", &take("--update-prop"), 0.0));
                i += 2;
            }
            "--insert-prop" => {
                tuning.insert_prop =
                    Some(parse_float("--insert-prop", &take("--insert-prop"), 0.0));
                i += 2;
            }
            "--sizes" => {
                let raw = take("--sizes");
                sizes_arg = Some(
                    raw.split(',')
                        .map(|s| parse_num("--sizes", s.trim()))
                        .collect(),
                );
                i += 2;
            }
            "--tol" => {
                let t = parse_float("--tol", &take("--tol"), 0.0);
                if t <= 0.0 {
                    eprintln!("--tol: tolerance must be positive, got {t}");
                    eprintln!("{USAGE}");
                    std::process::exit(2);
                }
                tol_arg = Some(t);
                i += 2;
            }
            "--validate" => {
                validate = true;
                i += 1;
            }
            "--filter" => {
                filter_arg = Some(take("--filter"));
                i += 2;
            }
            "--profile" => {
                let v = take("--profile");
                if v != "walks" {
                    eprintln!("--profile: unknown profile {v:?} (expected \"walks\")");
                    eprintln!("{USAGE}");
                    std::process::exit(2);
                }
                profile_arg = Some(v);
                i += 2;
            }
            "--reps" => {
                reps_arg = Some(parse_num("--reps", &take("--reps")));
                i += 2;
            }
            "--out" => {
                out_path = Some(take("--out"));
                i += 2;
            }
            "--design" => {
                design_arg = Some(take("--design"));
                i += 2;
            }
            "--lines" => {
                check_opts.lines = parse_num("--lines", &take("--lines"));
                lines_arg = Some(check_opts.lines);
                i += 2;
            }
            "--ways" => {
                check_opts.ways = parse_num("--ways", &take("--ways"));
                ways_arg = Some(check_opts.ways);
                i += 2;
            }
            "--digest-every" => {
                check_opts.digest_every = parse_num("--digest-every", &take("--digest-every"));
                digest_arg = Some(check_opts.digest_every);
                i += 2;
            }
            "--quota-frac" => {
                quota_frac_arg = Some(parse_float("--quota-frac", &take("--quota-frac"), 0.0));
                i += 2;
            }
            "--check" => {
                do_check = true;
                i += 1;
            }
            "--mutate" => {
                mutate_arg = Some(take("--mutate"));
                i += 2;
            }
            "--seed" => {
                opts.seed = parse_num("--seed", &take("--seed"));
                i += 2;
            }
            "--jobs" => {
                opts.jobs = parse_num("--jobs", &take("--jobs"));
                i += 2;
            }
            other => {
                eprintln!("unknown option {other:?}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }

    match command.as_str() {
        "table1" => table1(&opts),
        "table2" => println!("{}", exp_table2::report(&exp_table2::run())),
        "fig2" => println!(
            "{}",
            exp_fig2::report(&exp_fig2::default_run(opts.scale, opts.seed))
        ),
        "fig3" => {
            for panel in exp_fig3::Fig3Panel::all() {
                let rows = exp_fig3::run(panel, &opts);
                println!("{}", exp_fig3::report(panel, &rows));
            }
        }
        "fig4" => {
            for policy in policies(policy_arg.as_deref()) {
                let res = exp_fig4::run(policy, &opts);
                println!("{}", exp_fig4::report(&res));
            }
        }
        "fig5" => {
            for policy in policies(policy_arg.as_deref()) {
                let res = exp_fig5::run(policy, &opts);
                println!("{}", exp_fig5::report(&res));
            }
        }
        "bandwidth" => println!("{}", exp_bandwidth::report(&exp_bandwidth::run(&opts))),
        "ablate" => println!("{}", exp_ablate::report(&exp_ablate::run(&opts))),
        "adaptive" => println!("{}", exp_adaptive::report(&exp_adaptive::run(&opts))),
        "conflicts" => println!("{}", exp_conflicts::report(&exp_conflicts::run(&opts))),
        "predict" => {
            let mut popts = if smoke {
                let mut p = zbench::exp_predict::PredictOpts::smoke();
                p.exp.seed = opts.seed;
                p.exp.jobs = opts.jobs;
                if opts.max_workloads.is_some() {
                    p.exp.max_workloads = opts.max_workloads;
                }
                p
            } else {
                zbench::exp_predict::PredictOpts::from_exp(opts)
            };
            if let Some(sizes) = sizes_arg {
                popts.sizes = sizes;
            }
            if let Some(t) = tol_arg {
                popts.tol = t;
            }
            if let Err(e) = popts.validate_sizes() {
                eprintln!("--sizes: {e}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
            if validate {
                let rows = zbench::exp_predict::validate(&popts);
                println!(
                    "{}",
                    zbench::exp_predict::report_validation(&rows, popts.tol)
                );
                let path = out_path.unwrap_or_else(|| "BENCH_predict.json".to_string());
                let json = zbench::exp_predict::to_json(&rows, &popts);
                if let Err(e) = std::fs::write(&path, json) {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(2);
                }
                println!("wrote {path}");
                if !zbench::exp_predict::within_tolerance(&rows, popts.tol) {
                    eprintln!(
                        "cross-validation failed: a design exceeds tolerance {:.4} (see table)",
                        popts.tol
                    );
                    std::process::exit(1);
                }
            } else {
                println!(
                    "{}",
                    zbench::exp_predict::report(&zbench::exp_predict::run(&popts))
                );
            }
        }
        "dumptrace" => {
            // Record a workload's L2 reference stream and export it in
            // the trace_io format, so it can be replayed (`zbench trace`)
            // or fed to other simulators.
            let (Some(name), Some(path)) = (positional.first(), positional.get(1)) else {
                eprintln!("usage: zbench dumptrace <workload> <file> [--cores N --instrs N]");
                std::process::exit(2);
            };
            let Some(wl) = zworkloads::suite::by_name(name, opts.cores as usize, opts.scale) else {
                eprintln!("unknown workload {name:?}");
                std::process::exit(2);
            };
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
            let file = std::fs::File::create(path).unwrap_or_else(|e| {
                eprintln!("cannot create {path}: {e}");
                std::process::exit(2);
            });
            zworkloads::trace_io::write_trace(std::io::BufWriter::new(file), &refs).unwrap_or_else(
                |e| {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(2);
                },
            );
            println!(
                "wrote {} references ({} instructions recorded) to {path}",
                refs.len(),
                trace.instructions
            );
        }
        "trace" => {
            let path = positional.first().cloned().unwrap_or_else(|| {
                eprintln!("usage: zbench trace <file> [--scale small|paper]");
                std::process::exit(2);
            });
            let file = std::fs::File::open(&path).unwrap_or_else(|e| {
                eprintln!("cannot open {path}: {e}");
                std::process::exit(2);
            });
            // Stream the trace through the lineup in lockstep: memory
            // stays bounded by the caches even for multi-gigabyte files.
            let reader = zworkloads::trace_io::TraceReader::new(std::io::BufReader::new(file));
            let lines = opts.scale.l2_lines / 8;
            let (rows, trace_len) = zbench::exp_trace::run_streaming(reader, lines, opts.seed)
                .unwrap_or_else(|e| {
                    eprintln!("cannot read {path}: {e}");
                    std::process::exit(2);
                });
            println!("{}", zbench::exp_trace::report(&rows, trace_len, lines));
        }
        "check" => {
            check_opts.seed = opts.seed;
            check_opts.jobs = opts.jobs;
            check(check_opts, design_arg.as_deref(), policy_arg.as_deref());
        }
        "tenants" => {
            let mut topts = zbench::exp_tenants::TenantOpts {
                seed: opts.seed,
                jobs: opts.jobs,
                ..Default::default()
            };
            if do_check {
                // The lockstep grid recomputes the reference exhaustively
                // per access, so it defaults to check-scale geometry.
                topts.lines = lines_arg.unwrap_or(64);
                topts.accesses = accesses_arg.unwrap_or(30_000);
            } else {
                topts.lines = lines_arg.unwrap_or(topts.lines);
                topts.accesses = accesses_arg.unwrap_or(topts.accesses);
            }
            topts.ways = ways_arg.unwrap_or(topts.ways);
            topts.digest_every = digest_arg.unwrap_or(topts.digest_every);
            topts.quota_frac = quota_frac_arg.unwrap_or(topts.quota_frac);
            tenants(&topts, do_check, mutate_arg.as_deref());
        }
        "perf" => {
            let filter = filter_arg.as_deref().map(|pattern| {
                zbench::exp_perf::RowFilter::parse(pattern).unwrap_or_else(|| {
                    eprintln!("--filter: malformed pattern {pattern:?} (expected design:policy)");
                    eprintln!("{USAGE}");
                    std::process::exit(2);
                })
            });
            if let Some(p) = &profile_arg {
                if sim {
                    eprintln!(
                        "--profile {p} profiles the access path; it cannot combine with --sim"
                    );
                    eprintln!("{USAGE}");
                    std::process::exit(2);
                }
                let mut popts = if smoke {
                    zbench::exp_perf::PerfOpts::smoke()
                } else {
                    zbench::exp_perf::PerfOpts::default()
                };
                popts.seed = opts.seed;
                if let Some(n) = accesses_arg {
                    popts.accesses = n;
                    popts.warmup = n / 4;
                }
                let rows = zbench::exp_perf::run_walk_profile(&popts, filter.as_ref());
                if rows.is_empty() {
                    eprintln!(
                        "--filter matched no rows (designs: sa-h3, skew, z2, z3, z4, fully; \
                         policies: lru, bucketed-lru, lfu)"
                    );
                    std::process::exit(2);
                }
                // Counts only — deliberately no BENCH json: a profile run
                // must never overwrite the pinned throughput artifact.
                println!("{}", zbench::exp_perf::report_walk_profile(&rows, &popts));
                return;
            }
            if sim {
                let mut sopts = if smoke {
                    zbench::exp_perf::SimPerfOpts::smoke()
                } else {
                    zbench::exp_perf::SimPerfOpts::default()
                };
                sopts.seed = opts.seed;
                if let Some(r) = reps_arg {
                    sopts.reps = r.max(1);
                }
                let mut rows = zbench::exp_perf::run_sim(&sopts);
                if let Some(f) = &filter {
                    rows.retain(|r| f.matches(r.design, r.policy));
                }
                if rows.is_empty() {
                    eprintln!(
                        "--filter matched no rows (designs: exec-sa4, exec-z4, fig4; \
                         policies: lru, opt)"
                    );
                    std::process::exit(2);
                }
                println!("{}", zbench::exp_perf::report_sim(&rows));
                let path = out_path.unwrap_or_else(|| "BENCH_sim.json".to_string());
                let json = zbench::exp_perf::to_json_sim(&rows, &sopts);
                if let Err(e) = std::fs::write(&path, json) {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(2);
                }
                println!("wrote {path}");
            } else {
                let mut popts = if smoke {
                    zbench::exp_perf::PerfOpts::smoke()
                } else {
                    zbench::exp_perf::PerfOpts::default()
                };
                popts.seed = opts.seed;
                if let Some(n) = accesses_arg {
                    popts.accesses = n;
                    popts.warmup = n / 4;
                }
                if let Some(r) = reps_arg {
                    popts.reps = r.max(1);
                }
                let rows = zbench::exp_perf::run_filtered(&popts, filter.as_ref());
                if rows.is_empty() {
                    eprintln!(
                        "--filter matched no rows (designs: sa-h3, skew, z2, z3, z4, fully; \
                         policies: lru, bucketed-lru, lfu)"
                    );
                    std::process::exit(2);
                }
                println!("{}", zbench::exp_perf::report(&rows));
                let path = out_path.unwrap_or_else(|| "BENCH_access.json".to_string());
                let json = zbench::exp_perf::to_json(&rows, &popts);
                if let Err(e) = std::fs::write(&path, json) {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(2);
                }
                println!("wrote {path}");
            }
        }
        "serve" => serve(
            &opts,
            chaos,
            smoke,
            workload_arg.as_deref(),
            ops_arg,
            out_path.as_deref(),
            &tuning,
        ),
        "all" => {
            table1(&opts);
            println!("{}", exp_table2::report(&exp_table2::run()));
            println!(
                "{}",
                exp_fig2::report(&exp_fig2::default_run(opts.scale, opts.seed))
            );
            for panel in exp_fig3::Fig3Panel::all() {
                let rows = exp_fig3::run(panel, &opts);
                println!("{}", exp_fig3::report(panel, &rows));
            }
            for policy in policies(policy_arg.as_deref()) {
                println!("{}", exp_fig4::report(&exp_fig4::run(policy, &opts)));
                println!("{}", exp_fig5::report(&exp_fig5::run(policy, &opts)));
            }
            println!("{}", exp_bandwidth::report(&exp_bandwidth::run(&opts)));
            println!("{}", exp_ablate::report(&exp_ablate::run(&opts)));
            println!("{}", exp_adaptive::report(&exp_adaptive::run(&opts)));
            println!("{}", exp_conflicts::report(&exp_conflicts::run(&opts)));
        }
        other => {
            eprintln!("unknown command {other:?}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

/// CLI overrides for the YCSB workload spec (`--zipf-s`, `--*-prop`).
/// Values arrive through [`parse_float`], so each is already finite and
/// non-negative; the assembled spec is still re-validated before the
/// generator is built, keeping `YcsbGen::new`'s panic path unreachable
/// from the CLI.
#[derive(Debug, Default, Clone, Copy)]
struct ServeTuning {
    zipf_s: Option<f64>,
    read_prop: Option<f64>,
    update_prop: Option<f64>,
    insert_prop: Option<f64>,
}

/// Runs the zserve service-tier benchmark; with `chaos`, the full
/// fault-injection soak matrix. On invariant violations, writes each
/// shrunk fault schedule to `tests/corpus/` and exits 1, mirroring
/// `check`'s divergence workflow.
fn serve(
    opts: &ExpOpts,
    chaos: bool,
    smoke: bool,
    workload: Option<&str>,
    ops: Option<u64>,
    out: Option<&str>,
    tuning: &ServeTuning,
) {
    let mut cfg = if smoke {
        zserve::ServeConfig::default().smoke()
    } else {
        zserve::ServeConfig::default()
    };
    cfg.seed = opts.seed;
    let records = cfg.spec.record_count;
    cfg.spec = match workload.unwrap_or("a") {
        "a" => zworkloads::ycsb::YcsbSpec::workload_a(),
        "b" => zworkloads::ycsb::YcsbSpec::workload_b(),
        "c" => zworkloads::ycsb::YcsbSpec::workload_c(),
        "d" => zworkloads::ycsb::YcsbSpec::workload_d(),
        other => {
            eprintln!("unknown workload {other:?} (a|b|c|d)");
            std::process::exit(2);
        }
    }
    .records(records);
    if let Some(s) = tuning.zipf_s {
        cfg.spec = cfg.spec.dist(zworkloads::ycsb::RequestDist::Zipfian(s));
    }
    if let Some(p) = tuning.read_prop {
        cfg.spec = cfg.spec.read(p);
    }
    if let Some(p) = tuning.update_prop {
        cfg.spec = cfg.spec.update(p);
    }
    if let Some(p) = tuning.insert_prop {
        cfg.spec = cfg.spec.insert(p);
    }
    if let Err(e) = cfg.spec.validate() {
        eprintln!("invalid YCSB spec: {e}");
        std::process::exit(2);
    }
    if let Some(n) = ops {
        cfg.total_ops = n;
        // Leave generous virtual-time headroom so a heavier point is
        // reported as livelocked only if it genuinely stops draining.
        cfg.tick_limit = cfg.issue_horizon() * 4 + 512;
    }
    let mode = if chaos {
        zbench::exp_serve::ServeMode::Chaos
    } else {
        zbench::exp_serve::ServeMode::Baseline
    };
    // Full runs sweep four seeds per schedule; smoke keeps CI short.
    let seeds: Vec<u64> = if smoke {
        vec![cfg.seed]
    } else {
        (cfg.seed..cfg.seed + 4).collect()
    };
    let soak = zbench::exp_serve::run(&cfg, &seeds, mode, opts.jobs, chaos);
    println!("{}", zbench::exp_serve::report(&soak, &cfg));

    let path = out.unwrap_or("BENCH_serve.json");
    let json = zbench::exp_serve::to_json(&soak, &cfg, &seeds);
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    }
    println!("wrote {path}");

    if soak.violations() > 0 {
        let corpus = std::path::Path::new("tests/corpus");
        if let Err(e) = std::fs::create_dir_all(corpus) {
            eprintln!("cannot create {}: {e}", corpus.display());
            std::process::exit(1);
        }
        for row in soak.rows.iter().filter(|r| !r.violations.is_empty()) {
            let Some(repro) = &row.repro else { continue };
            let file = corpus.join(format!("serve_violation_{}_{}.txt", row.schedule, row.seed));
            match std::fs::write(&file, repro) {
                Ok(()) => eprintln!(
                    "  wrote shrunk fault schedule to {} (replay with the soak corpus test)",
                    file.display()
                ),
                Err(e) => eprintln!("  failed to write repro {}: {e}", file.display()),
            }
        }
        std::process::exit(1);
    }
}

fn policies(filter: Option<&str>) -> Vec<PolicyKind> {
    match filter {
        Some("lru") => vec![PolicyKind::Lru],
        Some("opt") => vec![PolicyKind::Opt],
        Some(other) => {
            eprintln!("unknown policy {other:?} for this command (lru|opt)");
            std::process::exit(2);
        }
        None => vec![PolicyKind::Opt, PolicyKind::Lru],
    }
}

/// Runs the differential conformance sweep; on divergence, shrinks each
/// failing stream to a minimal repro under `tests/corpus/` and exits 1.
fn check(mut copts: zbench::exp_check::CheckOpts, design: Option<&str>, policy: Option<&str>) {
    if let Some(name) = design {
        copts.design = Some(zoracle::CheckDesign::from_name(name).unwrap_or_else(|| {
            eprintln!("unknown design {name:?} (sa-bitsel|sa-h3|skew|z2|z3|fully)");
            std::process::exit(2);
        }));
    }
    if let Some(name) = policy {
        copts.policy = Some(zoracle::CheckPolicy::from_name(name).unwrap_or_else(|| {
            eprintln!("unknown policy {name:?} for check (lru|lfu|opt)");
            std::process::exit(2);
        }));
    }

    for d in zoracle::CheckDesign::ALL {
        if copts.design.is_none_or(|want| want == d) {
            validate_geometry(d.array_kind(), copts.lines, copts.ways);
        }
    }

    let rows = zbench::exp_check::run(&copts);
    println!("{}", zbench::exp_check::report(&rows, copts.accesses));

    let corpus_dir = std::path::Path::new("tests/corpus");
    let mut diverged = false;
    for row in rows.iter().filter(|r| r.result.is_err()) {
        diverged = true;
        eprintln!(
            "shrinking {} divergence to a minimal repro...",
            row.cfg.label()
        );
        match zbench::exp_check::shrink_repro(row, &copts, corpus_dir) {
            Ok((path, len)) => eprintln!(
                "  wrote {len}-access repro to {} (replayed by the corpus regression test)",
                path.display()
            ),
            Err(e) => eprintln!("  failed to write repro: {e}"),
        }
    }
    if diverged {
        std::process::exit(1);
    }
}

/// Runs the multi-tenant sweep, or with `check` the partition lockstep
/// grid (optionally against a production-side mutation).
///
/// Exit codes mirror `check`: a real divergence shrinks a `.ptrace`
/// repro into `tests/corpus/` and exits 1; under `--mutate` the roles
/// invert — every pair is *expected* to diverge, the first caught
/// divergence is shrunk into the corpus (so the regression test replays
/// the mutant forever), and an *undetected* mutant exits 1.
fn tenants(topts: &zbench::exp_tenants::TenantOpts, check: bool, mutate: Option<&str>) {
    let bypass = match mutate {
        None => false,
        Some("quota-bypass") if check => true,
        Some("quota-bypass") => {
            eprintln!("--mutate requires --check");
            std::process::exit(2);
        }
        Some(other) => {
            eprintln!("unknown mutation {other:?} (quota-bypass)");
            std::process::exit(2);
        }
    };
    validate_geometry(
        ArrayKind::ZCache {
            levels: topts.levels,
        },
        topts.lines,
        topts.ways,
    );
    if !check {
        let summaries = zbench::exp_tenants::run(topts);
        println!("{}", zbench::exp_tenants::report(&summaries, topts));
        return;
    }

    let rows = zbench::exp_tenants::run_check(topts, bypass);
    println!(
        "{}",
        zbench::exp_tenants::report_check(&rows, topts, bypass)
    );
    let corpus_dir = std::path::Path::new("tests/corpus");

    if bypass {
        let caught = rows.iter().filter(|r| r.result.is_err()).count();
        if let Some(row) = rows.iter().find(|r| r.result.is_err()) {
            eprintln!("shrinking one caught divergence into the regression corpus...");
            match zbench::exp_tenants::shrink_check_repro(row, topts, true, corpus_dir) {
                Ok((path, len)) => eprintln!(
                    "  wrote {len}-access mutant repro to {} (replayed by partition_conformance)",
                    path.display()
                ),
                Err(e) => eprintln!("  failed to write repro: {e}"),
            }
        }
        if caught < rows.len() {
            eprintln!(
                "quota-bypass mutant ESCAPED {} of {} pairs",
                rows.len() - caught,
                rows.len()
            );
            std::process::exit(1);
        }
        return;
    }

    let mut diverged = false;
    for row in rows.iter().filter(|r| r.result.is_err()) {
        diverged = true;
        eprintln!(
            "shrinking {} divergence to a minimal repro...",
            row.cfg.label()
        );
        match zbench::exp_tenants::shrink_check_repro(row, topts, false, corpus_dir) {
            Ok((path, len)) => eprintln!(
                "  wrote {len}-access repro to {} (replayed by partition_conformance)",
                path.display()
            ),
            Err(e) => eprintln!("  failed to write repro: {e}"),
        }
    }
    if diverged {
        std::process::exit(1);
    }
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
