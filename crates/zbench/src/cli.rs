//! The `zbench` command line, declared once.
//!
//! [`FLAGS`] lists every flag with its value kind, the commands it
//! applies to and one help line. Parsing, validation and the usage text
//! all derive from it, and every command-line error leaves through
//! [`fail`]: the message, the usage text, exit code 2.

use std::fmt::Display;
use std::str::FromStr;

/// A `zbench` command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Table I: the simulated machine.
    Table1,
    /// Table II: cache timing, area and power.
    Table2,
    /// Fig. 2: associativity CDFs under the uniformity assumption.
    Fig2,
    /// Fig. 3: associativity distributions of real designs.
    Fig3,
    /// Fig. 4: MPKI and IPC improvements.
    Fig4,
    /// Fig. 5: IPC and BIPS/W, serial vs parallel lookups.
    Fig5,
    /// §VI-D: tag bandwidth and self-throttling.
    Bandwidth,
    /// Design-choice ablations.
    Ablate,
    /// §VIII: adaptive walk throttling.
    Adaptive,
    /// §IV: conflict-miss decomposition.
    Conflicts,
    /// The analytical miss-ratio fast path.
    Predict,
    /// Run a trace file through the lineup.
    Trace,
    /// Record a workload's L2 stream as a trace file.
    Dumptrace,
    /// Differential conformance against zoracle.
    Check,
    /// Multi-tenant quota partitioning.
    Tenants,
    /// Access-path throughput.
    Perf,
    /// The sharded service tier.
    Serve,
    /// Every table and figure.
    All,
}

use Command::*;

impl Command {
    /// Every command, in usage order.
    pub const ALL: [Command; 18] = [
        Table1, Table2, Fig2, Fig3, Fig4, Fig5, Bandwidth, Ablate, Adaptive, Conflicts, Predict,
        Trace, Dumptrace, Check, Tenants, Perf, Serve, All,
    ];

    /// The command's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Table1 => "table1",
            Table2 => "table2",
            Fig2 => "fig2",
            Fig3 => "fig3",
            Fig4 => "fig4",
            Fig5 => "fig5",
            Bandwidth => "bandwidth",
            Ablate => "ablate",
            Adaptive => "adaptive",
            Conflicts => "conflicts",
            Predict => "predict",
            Trace => "trace",
            Dumptrace => "dumptrace",
            Check => "check",
            Tenants => "tenants",
            Perf => "perf",
            Serve => "serve",
            All => "all",
        }
    }

    /// The command's operands, as the usage text names them.
    fn operands(self) -> &'static [&'static str] {
        match self {
            Trace => &["FILE"],
            Dumptrace => &["WORKLOAD", "FILE"],
            _ => &[],
        }
    }

    /// One help line.
    fn help(self) -> &'static str {
        match self {
            Table1 => "Print the simulated machine configuration (Table I)",
            Table2 => "Cache timing/area/power across designs (Table II)",
            Fig2 => "Associativity CDFs under the uniformity assumption",
            Fig3 => "Associativity distributions of real designs (4 panels)",
            Fig4 => "MPKI/IPC improvements vs the SA-4 baseline",
            Fig5 => "IPC and BIPS/W, serial vs parallel lookups",
            Bandwidth => "§VI-D tag-bandwidth / self-throttling study",
            Ablate => "Design-choice ablations (walk order, early stop, …)",
            Adaptive => "§VIII adaptive walk throttling (future work)",
            Conflicts => "§IV conflict-miss decomposition vs fully-associative",
            Predict => "Analytical miss ratios for the design×size grid",
            Trace => "Run a trace file (trace_io format) through the lineup",
            Dumptrace => "Export a workload's L2 stream as a trace file",
            Check => "Conformance sweep vs zoracle; shrinks a repro on divergence",
            Tenants => "Multi-tenant quota partitioning (MPKI, Jain fairness)",
            Perf => "Access-path throughput (median/min/max per pair)",
            Serve => "Sharded service tier; --chaos runs the fault-injection soak",
            All => "Everything from table1 to conflicts",
        }
    }

    /// The command named `name`.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|c| c.name() == name)
    }

    const fn bit(self) -> u32 {
        1 << self as u32
    }
}

/// What a flag takes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// No value: the flag is on or off.
    Switch,
    /// An integer in `min..=max`.
    Int {
        /// Smallest accepted value (1 where 0 has no meaning).
        min: u64,
        /// Largest accepted value (the width of the option it sets).
        max: u64,
    },
    /// Comma-separated integers.
    IntList,
    /// A finite number above `floor` (or equal to it, if `inclusive`).
    Float {
        /// Lower bound.
        floor: f64,
        /// Whether `floor` itself is accepted.
        inclusive: bool,
    },
    /// One of a fixed set of words.
    Choice(&'static [&'static str]),
    /// Free text the command interprets (a path or a pattern), shown as
    /// the given placeholder.
    Text(&'static str),
}

impl Kind {
    /// Checks `value` against the kind and its bounds.
    fn check(self, value: &str) -> Result<(), String> {
        match self {
            Kind::Switch | Kind::Text(_) => Ok(()),
            Kind::Int { min, max } => match value.parse::<u64>() {
                Ok(n) if (min..=max).contains(&n) => Ok(()),
                _ => Err(match (min, max) {
                    (0, u64::MAX) => "expected an integer".into(),
                    (0, _) => format!("expected an integer <= {max}"),
                    (_, u64::MAX) => format!("expected an integer >= {min}"),
                    _ => format!("expected an integer in {min}..={max}"),
                }),
            },
            Kind::IntList if value.split(',').all(|s| s.trim().parse::<u64>().is_ok()) => Ok(()),
            Kind::IntList => Err("expected comma-separated integers".into()),
            Kind::Float { floor, inclusive } => match value.parse::<f64>() {
                Ok(v) if v.is_finite() && (v > floor || inclusive && v == floor) => Ok(()),
                _ => Err(format!(
                    "expected a finite number {} {floor}",
                    if inclusive { ">=" } else { ">" }
                )),
            },
            Kind::Choice(words) if words.contains(&value) => Ok(()),
            Kind::Choice(words) => Err(format!("expected {}", words.join("|"))),
        }
    }

    /// The value placeholder in the usage text.
    fn placeholder(self) -> String {
        match self {
            Kind::Switch => String::new(),
            Kind::Int { .. } => "N".into(),
            Kind::IntList => "N,N,...".into(),
            Kind::Float { .. } => "X".into(),
            Kind::Choice(words) => words.join("|"),
            Kind::Text(name) => name.into(),
        }
    }
}

/// One command-line flag.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The flag, with its leading `--`.
    pub name: &'static str,
    /// What it takes.
    pub kind: Kind,
    /// The commands it applies to, one bit per [`Command`].
    commands: u32,
    /// One help line.
    pub help: &'static str,
}

impl Flag {
    const fn new(name: &'static str, kind: Kind) -> Self {
        Self {
            name,
            kind,
            commands: 0,
            help: "",
        }
    }

    const fn on(mut self, commands: u32) -> Self {
        self.commands = commands;
        self
    }

    const fn help(mut self, help: &'static str) -> Self {
        self.help = help;
        self
    }

    /// Whether the flag applies to `command`.
    pub fn applies_to(&self, command: Command) -> bool {
        self.commands & command.bit() != 0
    }
}

/// The set of `commands`, as a [`Flag`] stores it.
const fn set(commands: &[Command]) -> u32 {
    let mut set = 0;
    let mut i = 0;
    while i < commands.len() {
        set |= commands[i].bit();
        i += 1;
    }
    set
}

/// The sweeps that take the whole [`ExpOpts`](crate::opts::ExpOpts).
const EXP: u32 = set(&[
    Fig3, Fig4, Fig5, Bandwidth, Ablate, Adaptive, Conflicts, All,
]);

const fn int(min: u64, max: u64) -> Kind {
    Kind::Int { min, max }
}

const fn float(floor: f64, inclusive: bool) -> Kind {
    Kind::Float { floor, inclusive }
}

/// The designs `check` compares against zoracle.
const CHECK_DESIGNS: &[&str] = &["sa-bitsel", "sa-h3", "skew", "z2", "z3", "fully"];

/// Every `zbench` flag.
pub static FLAGS: &[Flag] = &[
    Flag::new("--scale", Kind::Choice(&["small", "paper"]))
        .on(EXP | set(&[Table1, Fig2, Predict, Trace, Dumptrace]))
        .help("cache scale (default small)"),
    // 1 to 64: the MESI directory's sharer masks are `u64`.
    Flag::new("--cores", int(1, 64))
        .on(EXP | set(&[Table1, Predict, Dumptrace]))
        .help("simulated cores, 1 to 64 (default 32)"),
    Flag::new("--instrs", int(0, u64::MAX))
        .on(EXP | set(&[Predict, Dumptrace]))
        .help("instructions per core (default 100000)"),
    // fig3 and conflicts sweep fixed selections, ablate and adaptive
    // named workloads.
    Flag::new("--workloads", int(1, usize::MAX as u64))
        .on(set(&[Fig4, Fig5, Bandwidth, Predict, All]))
        .help("sweep the first N of the 72 suite workloads"),
    Flag::new("--seed", int(0, u64::MAX))
        .on(EXP | set(&[Fig2, Predict, Trace, Dumptrace, Check, Tenants, Perf, Serve]))
        .help("RNG seed (default 1)"),
    // adaptive runs serially.
    Flag::new("--jobs", int(1, usize::MAX as u64))
        .on((EXP & !Adaptive.bit()) | set(&[Predict, Check, Tenants, Serve]))
        .help("sweep worker threads (default: all cores); output is byte-identical for any N"),
    Flag::new("--policy", Kind::Choice(&["lru", "lfu", "opt"]))
        .on(set(&[Fig4, Fig5, Check, All]))
        .help("one policy (default: opt and lru; check: all three); only check takes lfu"),
    Flag::new("--accesses", int(1, usize::MAX as u64))
        .on(set(&[Check, Tenants, Perf]))
        .help("accesses per pair or mix (check 100000, tenants 200000)"),
    Flag::new("--design", Kind::Choice(CHECK_DESIGNS))
        .on(set(&[Check]))
        .help("one design (default all)"),
    Flag::new("--lines", int(0, u64::MAX))
        .on(set(&[Check, Tenants]))
        .help("cache frames (check 64, tenants 1024)"),
    Flag::new("--ways", int(0, u32::MAX as u64))
        .on(set(&[Check, Tenants]))
        .help("ways per array (default 4)"),
    Flag::new("--digest-every", int(1, u64::MAX))
        .on(set(&[Check]))
        .help("full-state digest interval of the lockstep (default 1024)"),
    Flag::new("--mutate", Kind::Choice(&["quota-bypass"]))
        .on(set(&[Check]))
        .help("strip quota enforcement from the partitioned pairs; exits 1 if any pair misses it"),
    Flag::new("--quota-frac", float(0.0, true))
        .on(set(&[Tenants]))
        .help("fraction of the array granted as quotas (default 1.0; > 1 overcommits)"),
    Flag::new("--smoke", Kind::Switch)
        .on(set(&[Predict, Perf, Serve]))
        .help("short CI configuration"),
    Flag::new("--reps", int(1, usize::MAX as u64))
        .on(set(&[Perf]))
        .help("timed repetitions per pair; their median, min and max are reported (default 5)"),
    Flag::new("--filter", Kind::Text("D:P"))
        .on(set(&[Perf]))
        .help("keep rows matching design:policy (an empty side matches all, e.g. z3: or :lru)"),
    Flag::new("--profile", Kind::Choice(&["walks"]))
        .on(set(&[Perf]))
        .help("print a count-only per-miss walk profile instead of timing"),
    Flag::new("--out", Kind::Text("FILE"))
        .on(set(&[Predict, Perf, Serve]))
        .help("write the JSON artifact to FILE (without it, nothing is written)"),
    Flag::new("--chaos", Kind::Switch)
        .on(set(&[Serve]))
        .help("run the fault-injection soak matrix (exits 1 on invariant violations)"),
    Flag::new("--workload", Kind::Choice(&["a", "b", "c", "d"]))
        .on(set(&[Serve]))
        .help("YCSB workload mix (default a)"),
    Flag::new("--ops", int(1, u64::MAX))
        .on(set(&[Serve]))
        .help("operations per soak point"),
    Flag::new("--sizes", Kind::IntList)
        .on(set(&[Predict]))
        .help("cache sizes in lines (powers of two >= 64)"),
    Flag::new("--tol", float(0.0, false))
        .on(set(&[Predict]))
        .help("cross-validation error tolerance"),
    Flag::new("--validate", Kind::Switch)
        .on(set(&[Predict]))
        .help("also simulate every grid point and compare (exits 1 past --tol)"),
];

/// A parsed command line whose every flag value passed its kind and
/// bounds.
#[derive(Debug, Clone)]
pub struct Args {
    /// The command.
    pub command: Command,
    /// The command's operands, one per declared operand.
    pub operands: Vec<String>,
    /// `(flag, value)` in command-line order; switches carry `""`.
    values: Vec<(&'static str, String)>,
}

impl Args {
    /// The text of `flag`'s value (`""` for a switch).
    pub fn text(&self, flag: &str) -> Option<&str> {
        debug_assert!(
            FLAGS.iter().any(|f| f.name == flag),
            "{flag} is not in FLAGS"
        );
        // The last occurrence wins.
        self.values
            .iter()
            .rev()
            .find(|(name, _)| *name == flag)
            .map(|(_, v)| v.as_str())
    }

    /// Whether `flag` was given.
    pub fn on(&self, flag: &str) -> bool {
        self.text(flag).is_some()
    }

    /// `flag`'s value as a `T`.
    ///
    /// # Panics
    ///
    /// Panics if the value does not parse as `T`, which means the
    /// flag's bounds in [`FLAGS`] are wider than `T`.
    pub fn get<T: FromStr>(&self, flag: &str) -> Option<T> {
        self.text(flag).map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{flag} {v}: FLAGS bounds exceed the option's type"))
        })
    }

    /// `flag`'s comma-separated integers.
    pub fn list(&self, flag: &str) -> Option<Vec<u64>> {
        self.text(flag).map(|v| {
            v.split(',')
                .map(|s| s.trim().parse().expect("checked by Kind::IntList"))
                .collect()
        })
    }
}

/// Parses `argv` (without the program name) against [`FLAGS`].
///
/// # Errors
///
/// Returns the message for a missing or unknown command, a wrong number
/// of operands, an unknown flag, a flag the command does not take, and
/// a missing, malformed or out-of-range value.
pub fn parse(argv: &[String]) -> Result<Args, String> {
    let (name, rest) = argv.split_first().ok_or("missing command")?;
    let command = Command::from_name(name).ok_or_else(|| format!("unknown command {name:?}"))?;
    let mut args = Args {
        command,
        operands: Vec::new(),
        values: Vec::new(),
    };
    let mut rest = rest.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            args.operands.push(arg.clone());
            continue;
        }
        let flag = FLAGS
            .iter()
            .find(|f| f.name == arg)
            .ok_or_else(|| format!("unknown option {arg:?}"))?;
        if !flag.applies_to(command) {
            return Err(format!(
                "{} does not apply to {name} (it applies to {})",
                flag.name,
                commands_of(flag)
            ));
        }
        let value = match flag.kind {
            Kind::Switch => String::new(),
            kind => {
                let value = rest
                    .next()
                    .ok_or_else(|| format!("{} requires a value", flag.name))?;
                kind.check(value)
                    .map_err(|e| format!("{}: {e}, got {value:?}", flag.name))?;
                value.clone()
            }
        };
        args.values.push((flag.name, value));
    }
    let operands = command.operands();
    if args.operands.len() != operands.len() {
        return Err(format!(
            "{name} takes {} operand(s) ({}), got {}",
            operands.len(),
            operands.join(" "),
            args.operands.len()
        ));
    }
    Ok(args)
}

fn commands_of(flag: &Flag) -> String {
    Command::ALL
        .into_iter()
        .filter(|&c| flag.applies_to(c))
        .map(Command::name)
        .collect::<Vec<_>>()
        .join(" ")
}

/// Exit status of a run whose stdout reader closed the pipe: the status
/// a shell reports for a process ended by `SIGPIPE`.
pub const EXIT_STDOUT_CLOSED: i32 = 141;

/// The usage text, generated from the commands and [`FLAGS`].
pub fn usage() -> String {
    let mut out = String::from("usage: zbench <command> [options]\n\ncommands:\n");
    for command in Command::ALL {
        let call = [&[command.name()], command.operands()].concat().join(" ");
        out.push_str(&format!("  {call:<23} {}\n", command.help()));
    }
    out.push_str("\noptions:\n");
    for flag in FLAGS {
        let call = format!("{} {}", flag.name, flag.kind.placeholder());
        out.push_str(&format!("  {:<23} {}\n", call.trim_end(), flag.help));
        out.push_str(&format!("  {:<23} [{}]\n", "", commands_of(flag)));
    }
    out.push_str(&format!(
        "\nexit status: 0 done, 1 a failed check (check, serve --chaos, \
         predict --validate),\n  2 a command-line error, {EXIT_STDOUT_CLOSED} stdout closed by its reader\n"
    ));
    out
}

/// Prints `message` and the usage text to stderr and exits 2: the one
/// way out for every command-line error.
pub fn fail(message: impl Display) -> ! {
    eprintln!("{message}");
    eprint!("{}", usage());
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_flags_are_unique() {
        for c in Command::ALL {
            assert_eq!(Command::from_name(c.name()), Some(c));
        }
        for (i, f) in FLAGS.iter().enumerate() {
            assert!(f.name.starts_with("--"), "{}", f.name);
            assert!(f.commands != 0, "{} applies to no command", f.name);
            assert!(
                FLAGS[i + 1..].iter().all(|g| g.name != f.name),
                "{}",
                f.name
            );
        }
    }

    #[test]
    fn values_parse_as_the_options_they_set() {
        let argv = "predict --sizes 64,128 --tol 0.5 --seed 3 --seed 9".split(' ');
        let args = parse(&argv.map(String::from).collect::<Vec<_>>()).unwrap();
        assert_eq!(args.list("--sizes"), Some(vec![64, 128]));
        assert_eq!(args.get::<f64>("--tol"), Some(0.5));
        assert_eq!(args.get::<u64>("--seed"), Some(9), "the last one wins");
        assert!(!args.on("--smoke"));
    }

    #[test]
    fn check_choices_match_the_oracle() {
        for w in CHECK_DESIGNS {
            assert!(zoracle::CheckDesign::from_name(w).is_some(), "{w}");
        }
        assert_eq!(CHECK_DESIGNS.len(), zoracle::CheckDesign::ALL.len());
        let policy = FLAGS.iter().find(|f| f.name == "--policy").unwrap();
        let Kind::Choice(words) = policy.kind else {
            unreachable!()
        };
        for w in words {
            assert!(zoracle::CheckPolicy::from_name(w).is_some(), "{w}");
        }
    }
}
