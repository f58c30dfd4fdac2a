//! `taster` — command-line front end for the spam-feed analysis
//! toolkit.
//!
//! ```text
//! taster report                    regenerate tables/figures
//! taster sweep <seeding|mx-size>   parameter sweeps
//! taster summary                   world statistics only
//! taster profile                   per-stage profile and pipeline bench
//! taster serve                     guarded streaming daemon
//! taster loadgen                   deterministic query storms
//! taster replicate                 N-seed replication with CIs
//! taster ab --treatment NAME       paired A/B scenario comparison,
//!                                  the four ablations included
//! ```
//!
//! Each command accepts exactly the flags its code reads: one row of
//! the `COMMANDS` table per command. Any other flag, a bad value, a
//! `--format` outside the row, or a missing or unknown operand exits 2
//! with that command's usage line, rendered from the same row, before
//! any world is built. A scenario that cannot run — an invalid
//! configuration, or an event spill that cannot be created or read —
//! exits 1 with `cannot run scenario: …` from every command that
//! builds a world.
//!
//! Sections for `report`: `table1 table2 table3 fig1 … fig12 selection
//! blocking campaigns granularity concentration all` (default `all`).
//!
//! `--faults <profile>` (`report`, `serve`, `replicate`, `profile`)
//! runs under a named fault-injection profile (`off flaky-crawler
//! feed-outage lossy-feeds delayed-blacklists blackout`); the default
//! `off` leaves every byte of output identical to a fault-free build.
//! Faulted reports prepend a "Fault model" section. `ab` names the
//! profiles as scenarios, beside the presets and the ablations
//! (`no-poisoning`, `unrestricted-blacklists`, `no-provider-filter`,
//! `broad-ac2`), so `ab --treatment lossy-feeds` measures what a
//! profile costs each metric over paired seeds.
//! `loadgen --faults <storm>` picks a client storm instead (`off
//! slow-client query-storm kill-midrun`).
//!
//! `--threads`, `--chunk` and `--max-mem-bytes` change speed and peak
//! memory, never an output byte. `--threads N` (else the available
//! cores) sets the workers of the three fan-outs: the collection
//! driver's event shards, the crawl's domain shards and `replicate`'s
//! seeds; `sweep` and `summary` run serially. `--chunk N` caps the rows
//! one out-of-core read of the collection driver decodes (default
//! 65 536). `--max-mem-bytes B` is the event log's budget: it bounds
//! the rows of the sorted cache, the sort runs and the read buffers,
//! not the process (at scale 1 under 32 MiB a report still peaks near
//! 160 MB resident), and `serve` never sheds a request over it.
//! `replicate` and `ab` derive replicate seeds from `(master seed,
//! index)` and key every bootstrap resample by `(seed, metric,
//! resample index)`, so they too are identical at any `--threads`.
//!
//! `--metrics` (`report`) appends the deterministic "Pipeline metrics"
//! section (`profile` always records them); `--trace PATH` (`report`,
//! `profile`) writes the span/event log as JSON lines, whose wall-clock
//! nanoseconds are the only bytes that differ run to run.

// The CLI is the one target that talks to stdout/stderr by design;
// unwrap/expect stay denied via the workspace lint table.
#![allow(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use std::fmt::Display;
use std::str::FromStr;
use taster::core::{ab, build_world, profile, replicate, report, sweep, Experiment, Scenario};
use taster::feeds::PipelineError;
use taster::serve::Storm;
use taster::sim::{FaultProfile, Obs, Stage};

/// A flag and how its value is written in a usage line (`None` for a
/// switch).
type Flag = (&'static str, Option<&'static str>);

const SCALE: Flag = ("--scale", Some("S"));
/// `profile`'s `--scale`, which also takes a comma-separated list.
const SCALES: Flag = ("--scale", Some("S[,S...]"));
const SEED: Flag = ("--seed", Some("N"));
const THREADS: Flag = ("--threads", Some("N"));
const CHUNK: Flag = ("--chunk", Some("N"));
const MAX_MEM: Flag = ("--max-mem-bytes", Some("B"));
const FAULTS: Flag = ("--faults", Some("PROFILE"));
/// `loadgen`'s `--faults`, which names a client storm.
const STORM: Flag = ("--faults", Some("STORM"));
const SECTION: Flag = ("--section", Some("NAME"));
const METRICS: Flag = ("--metrics", None);
const TRACE: Flag = ("--trace", Some("PATH"));
const OUT: Flag = ("--out", Some("PATH"));
const MIN_RATE: Flag = ("--min-events-per-sec", Some("R"));
const GATE: Flag = ("--overhead-gate", Some("FRAC"));
const SOCKET: Flag = ("--socket", Some("PATH"));
const ROUNDS: Flag = ("--rounds", Some("N"));
const TIMEOUT: Flag = ("--request-timeout-ms", Some("MS"));
const BASELINE: Flag = ("--baseline", Some("NAME"));
const TREATMENT: Flag = ("--treatment", Some("NAME"));

/// Scale, seed and the three resource knobs of world building.
const WORLD: &[Flag] = &[SCALE, SEED, THREADS, CHUNK, MAX_MEM];
/// What a serial, fault-free world-building command reads.
const SERIAL_WORLD: &[Flag] = &[SCALE, SEED, MAX_MEM];
/// The replication knobs of `replicate` and `ab`.
const REPLICATION: &[Flag] = &[
    ("--seeds", Some("N")),
    ("--resamples", Some("N")),
    ("--level", Some("F")),
];
/// The daemon's own flags.
const DAEMON: &[Flag] = &[
    SOCKET,
    ("--checkpoint-dir", Some("DIR")),
    ("--resume", None),
    ("--epoch-events", Some("N")),
    ("--tick-rows", Some("N")),
    ("--max-pending", Some("N")),
    TIMEOUT,
    ("--watchdog-ms", Some("MS")),
    ("--final-report", Some("PATH")),
    ("--exit-when-done", None),
    ("--test-hooks", None),
];

/// One subcommand and everything its code reads from the command line.
struct Command {
    name: &'static str,
    /// Accepted values of the one operand (empty: the command takes
    /// none).
    operands: &'static [&'static str],
    /// Every flag the command reads, in usage order.
    flags: &'static [&'static [Flag]],
    /// Accepted `--format` values as `a|b`, the default first (empty:
    /// the command takes no `--format`).
    formats: &'static str,
    run: fn(&Args),
}

/// A row without an operand.
const fn row(
    name: &'static str,
    flags: &'static [&'static [Flag]],
    formats: &'static str,
    run: fn(&Args),
) -> Command {
    Command {
        name,
        operands: &[],
        flags,
        formats,
        run,
    }
}

/// The flag table: one row per command.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    row("report", &[WORLD, &[FAULTS, SECTION, METRICS, TRACE]], "text|csv", report),
    Command { operands: &["seeding", "mx-size"], ..row("sweep", &[SERIAL_WORLD], "", do_sweep) },
    row("summary", &[SERIAL_WORLD], "", summary),
    row("profile", &[&[SCALES, SEED, THREADS, CHUNK, MAX_MEM, FAULTS, TRACE, OUT, MIN_RATE, GATE]], "", profile_cmd),
    row("serve", &[WORLD, &[FAULTS], DAEMON], "", serve_cmd),
    row("loadgen", &[&[SEED, STORM, SOCKET, ROUNDS, TIMEOUT, OUT]], "", loadgen_cmd),
    row("replicate", &[WORLD, &[FAULTS], REPLICATION], "text|json", replicate_cmd),
    row("ab", &[WORLD, &[BASELINE, TREATMENT], REPLICATION], "text|json", ab_cmd),
];

impl Command {
    /// Every flag of the row, `--format` included.
    fn flags(&self) -> impl Iterator<Item = Flag> + '_ {
        let format = (!self.formats.is_empty()).then_some(("--format", Some(self.formats)));
        self.flags
            .iter()
            .flat_map(|group| group.iter().copied())
            .chain(format)
    }

    /// `taster <name> …`, rendered from the row.
    fn usage(&self) -> String {
        let mut line = format!("taster {}", self.name);
        if !self.operands.is_empty() {
            line.push_str(&format!(" <{}>", self.operands.join("|")));
        }
        for (flag, value) in self.flags() {
            match value {
                Some(value) => line.push_str(&format!(" [{flag} {value}]")),
                None => line.push_str(&format!(" [{flag}]")),
            }
        }
        line
    }
}

/// Every command's usage line.
fn usage() -> String {
    let lines: Vec<String> = COMMANDS.iter().map(Command::usage).collect();
    format!("usage: {}", lines.join("\n       "))
}

/// The parsed command line. A field the command does not read keeps
/// its default.
#[derive(Default)]
struct Args {
    operand: Option<String>,
    scales: Vec<f64>,
    seed: u64,
    section: String,
    format: &'static str,
    threads: Option<usize>,
    faults: FaultProfile,
    storm: Storm,
    out: Option<String>,
    metrics: bool,
    trace: Option<String>,
    overhead_gate: Option<f64>,
    chunk: Option<usize>,
    max_mem_bytes: Option<u64>,
    min_events_per_sec: Option<f64>,
    baseline: String,
    socket: String,
    checkpoint_dir: Option<String>,
    resume: bool,
    epoch_events: usize,
    final_report: Option<String>,
    exit_when_done: bool,
    test_hooks: bool,
    request_timeout_ms: u64,
    watchdog_ms: u64,
    max_pending: usize,
    tick_rows: usize,
    rounds: usize,
    seeds: usize,
    resamples: usize,
    level: f64,
    treatment: String,
}

/// Parses `argv` (without the program name) against the command's row
/// of `COMMANDS`. The error carries the usage line to print.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<(&'static Command, Args), String> {
    let mut argv = argv.into_iter();
    let name = argv.next().ok_or_else(usage)?;
    let Some(command) = COMMANDS.iter().find(|c| c.name == name) else {
        return Err(format!("unknown command {name}\n{}", usage()));
    };
    let mut args = Args::new();
    let fail = |e: String| format!("{e}\nusage: {}", command.usage());
    while let Some(arg) = argv.next() {
        if !arg.starts_with('-') {
            if !command.operands.contains(&arg.as_str()) || args.operand.is_some() {
                return Err(fail(format!("{name} does not take the operand {arg}")));
            }
            args.operand = Some(arg);
            continue;
        }
        let Some((flag, value)) = command.flags().find(|&(f, _)| f == arg) else {
            return Err(fail(format!("{name} does not take {arg}")));
        };
        let raw = match value {
            Some(_) => argv
                .next()
                .ok_or_else(|| fail(format!("{flag} needs a value")))?,
            None => String::new(),
        };
        args.set((flag, value), raw).map_err(fail)?;
    }
    if args.operand.is_none() && !command.operands.is_empty() {
        return Err(fail(format!("{name} needs an operand")));
    }
    if args.format == "csv" && report::section(&args.section).and_then(|s| s.csv).is_none() {
        return Err(fail(format!(
            "section {} has no CSV form (try table1..3, fig2..5, fig7..12)",
            args.section
        )));
    }
    if command.name == "ab" && args.treatment.is_empty() {
        return Err(fail("ab needs --treatment NAME".to_string()));
    }
    Ok((command, args))
}

/// Parses `flag`'s value.
fn parse<T: FromStr>(flag: &str, raw: &str) -> Result<T, String>
where
    T::Err: Display,
{
    raw.parse().map_err(|e| format!("bad {flag}: {e}"))
}

/// Parses a count or size that must be at least 1.
fn at_least_one<T: FromStr + PartialOrd + From<u8>>(flag: &str, raw: &str) -> Result<T, String>
where
    T::Err: Display,
{
    let n: T = parse(flag, raw)?;
    if n >= T::from(1) {
        Ok(n)
    } else {
        Err(format!("{flag} must be at least 1"))
    }
}

/// Parses a finite value above zero.
fn positive(flag: &str, raw: &str) -> Result<f64, String> {
    let x: f64 = parse(flag, raw)?;
    if x.is_finite() && x > 0.0 {
        Ok(x)
    } else {
        Err(format!("{flag} must be positive"))
    }
}

impl Args {
    /// Every flag at its default.
    fn new() -> Args {
        Args {
            scales: vec![1.0],
            seed: 20_100_801,
            section: "all".to_string(),
            format: "text",
            socket: "taster-serve.sock".to_string(),
            epoch_events: 50_000,
            request_timeout_ms: 500,
            watchdog_ms: 2_000,
            max_pending: 8,
            tick_rows: 8_192,
            rounds: 100,
            seeds: 8,
            resamples: 200,
            level: 0.95,
            baseline: "paper".to_string(),
            ..Args::default()
        }
    }

    /// Applies one flag of the command's row, `raw` being its value
    /// (empty for a switch).
    fn set(&mut self, (flag, value): Flag, raw: String) -> Result<(), String> {
        match flag {
            "--scale" => {
                let scales = raw
                    .split(',')
                    .map(|s| positive(flag, s.trim()))
                    .collect::<Result<Vec<f64>, _>>()?;
                if scales.len() > 1 && (flag, value) != SCALES {
                    return Err("only profile accepts a --scale list".to_string());
                }
                self.scales = scales;
            }
            "--seed" => self.seed = parse(flag, &raw)?,
            "--threads" => self.threads = Some(at_least_one(flag, &raw)?),
            "--chunk" => self.chunk = Some(at_least_one(flag, &raw)?),
            "--max-mem-bytes" => self.max_mem_bytes = Some(at_least_one(flag, &raw)?),
            "--faults" if (flag, value) == STORM => {
                self.storm = Storm::by_name(&raw).ok_or_else(|| {
                    let known: Vec<&str> = Storm::ALL.iter().map(|s| s.name).collect();
                    format!("unknown storm {raw}; known: {}", known.join(" "))
                })?;
            }
            "--faults" => {
                self.faults = FaultProfile::by_name(&raw).ok_or_else(|| {
                    format!(
                        "unknown fault profile {raw}; known: off {}",
                        FaultProfile::CANONICAL.join(" ")
                    )
                })?;
            }
            "--section" => {
                if raw != "all" && report::section(&raw).is_none() {
                    return Err(format!("unknown section {raw}"));
                }
                self.section = raw;
            }
            "--format" => {
                let formats = value.unwrap_or_default();
                let Some(format) = formats.split('|').find(|&f| f == raw) else {
                    return Err(format!("unknown format {raw}; known: {formats}"));
                };
                self.format = format;
            }
            "--metrics" => self.metrics = true,
            "--trace" => self.trace = Some(raw),
            "--out" => self.out = Some(raw),
            "--min-events-per-sec" => self.min_events_per_sec = Some(positive(flag, &raw)?),
            "--overhead-gate" => self.overhead_gate = Some(positive(flag, &raw)?),
            "--socket" => self.socket = raw,
            "--checkpoint-dir" => self.checkpoint_dir = Some(raw),
            "--resume" => self.resume = true,
            "--epoch-events" => self.epoch_events = at_least_one(flag, &raw)?,
            "--tick-rows" => self.tick_rows = at_least_one(flag, &raw)?,
            "--max-pending" => self.max_pending = at_least_one(flag, &raw)?,
            "--request-timeout-ms" => self.request_timeout_ms = at_least_one(flag, &raw)?,
            "--watchdog-ms" => self.watchdog_ms = at_least_one(flag, &raw)?,
            "--final-report" => self.final_report = Some(raw),
            "--exit-when-done" => self.exit_when_done = true,
            "--test-hooks" => self.test_hooks = true,
            "--rounds" => self.rounds = parse(flag, &raw)?,
            "--seeds" => self.seeds = at_least_one(flag, &raw)?,
            "--resamples" => self.resamples = at_least_one(flag, &raw)?,
            "--level" => {
                let level: f64 = parse(flag, &raw)?;
                if !(level > 0.0 && level < 1.0) {
                    return Err("--level must be in (0, 1)".to_string());
                }
                self.level = level;
            }
            "--baseline" | "--treatment" => {
                // Every scale and seed resolve the same names.
                ab::scenario_by_name(&raw, 1.0, 0).map_err(|e| format!("{flag}: {e}"))?;
                match flag {
                    "--baseline" => self.baseline = raw,
                    _ => self.treatment = raw,
                }
            }
            other => return Err(format!("no parser for {other}")),
        }
        Ok(())
    }

    /// The paper scenario at `--scale` and `--seed`, tuned and faulted
    /// by this command's flags.
    fn scenario(&self) -> Scenario {
        self.scenario_at(self.scales[0])
    }

    /// [`Args::scenario`] at `scale`, one entry of `profile`'s list.
    fn scenario_at(&self, scale: f64) -> Scenario {
        self.tune(
            Scenario::default_paper()
                .with_scale(scale)
                .with_seed(self.seed),
        )
        .with_faults(self.faults.clone())
    }

    /// Applies the resource flags (`--threads`, `--chunk`,
    /// `--max-mem-bytes`) to `scenario`.
    fn tune(&self, mut scenario: Scenario) -> Scenario {
        if let Some(n) = self.threads {
            scenario = scenario.with_threads(n);
        }
        if let Some(c) = self.chunk {
            scenario.feeds.chunk_size = c;
        }
        if let Some(b) = self.max_mem_bytes {
            scenario.ecosystem.max_mem_bytes = Some(b);
        }
        scenario
    }
}

fn main() {
    match parse_args(std::env::args().skip(1)) {
        Ok((command, args)) => (command.run)(&args),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

/// Unwraps a pipeline result, or exits 1 with `cannot run scenario: …`
/// like every world-building command.
fn or_exit<T>(result: Result<T, PipelineError>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("cannot run scenario: {e}");
        std::process::exit(1);
    })
}

/// Writes the trace JSONL of an observed run, exiting on I/O failure.
fn write_trace(exp: &Experiment, path: &str) {
    if let Err(e) = std::fs::write(path, exp.obs.trace.to_jsonl()) {
        eprintln!("cannot write trace {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote trace {path}");
}

fn report(args: &Args) {
    let scenario = args.scenario();
    eprintln!("running {}", scenario.name);
    let obs = Obs::with(args.metrics, args.trace.is_some());
    let e = or_exit(Experiment::try_run_observed(&scenario, obs));
    // `all`, the one name parsing admits outside `SECTIONS`: the full
    // render. It ends with the metrics section when `--metrics` is on.
    // One section renders alone, as text or (parsing admits `--format
    // csv` only with a section that has one) as CSV. Either way the
    // render is timed as the `render` stage like every other stage.
    let text = match report::section(&args.section) {
        None => or_exit(e.try_render_report()) + "\n",
        Some(section) => e.obs.stage(Stage::Render, || {
            if args.format == "csv" {
                return section.render_csv(&e).unwrap_or_default();
            }
            let mut text = or_exit(section.render(&e));
            if args.metrics {
                text.push('\n');
                report::write_metrics(&e, &mut text);
            }
            text + "\n"
        }),
    };
    // After the render, so the log holds its span.
    if let Some(path) = &args.trace {
        write_trace(&e, path);
    }
    print!("{text}");
}

/// `taster profile`: one fully-observed run per `--scale` value. Each
/// prints its deterministic span tree + metrics, then every span's wall
/// and self seconds, and becomes one entry of the bench JSON, which
/// `--out` writes (nothing is written without it): its `<stage>_secs`
/// are the top-level spans the tree shows, and its `peak_rss_bytes` is
/// the process's running high-water mark (`VmHWM`), so across a
/// `--scale` list an entry holds the peak of every run so far, not of
/// its own. `--trace` writes the span
/// log of each run to the same path, so a `--scale` list leaves the
/// last one. Gates, each checked per scale after the JSON is written
/// (exit 1 on failure):
/// `--min-events-per-sec R` is a floor on collect-stage throughput,
/// and then also refuses an untimed wall over 10% of the total;
/// `--overhead-gate FRAC` re-times collection instrumented vs.
/// uninstrumented (best of 12) and fails when the overhead fraction
/// exceeds the gate.
fn profile_cmd(args: &Args) {
    let mut runs = Vec::new();
    for &scale in &args.scales {
        let scenario = args.scenario_at(scale);
        eprintln!("profiling {}", scenario.name);
        let (e, e2e) = or_exit(profile::run_end_to_end(&scenario));
        if let Some(path) = &args.trace {
            write_trace(&e, path);
        }
        print!("{}", profile::deterministic_profile(&e));
        print!("{}", profile::render_profile_tree(&e));
        eprintln!(
            "scale {scale}: {} events in {:.3}s ({:.0} events/s end to end, \
             collect {:.0} events/s), untimed {:.1}%",
            e2e.events,
            e2e.total,
            e2e.events_per_sec(),
            e2e.collect_events_per_sec(),
            e2e.untimed_fraction() * 100.0,
        );
        runs.push((scale, e2e));
    }
    if let Some(out) = &args.out {
        let json = profile::bench_json_string(args.seed, &runs);
        if let Err(err) = std::fs::write(out, &json) {
            eprintln!("cannot write {out}: {err}");
            std::process::exit(1);
        }
        eprintln!("wrote {out}");
    }
    for (scale, e2e) in &runs {
        if let Some(floor) = args.min_events_per_sec {
            let rate = e2e.collect_events_per_sec();
            if rate < floor {
                eprintln!(
                    "scale {scale}: collect throughput {rate:.0} events/s \
                     is below the floor {floor:.0}"
                );
                std::process::exit(1);
            }
            // A throughput floor is only meaningful if the stage
            // inventory covers the run: refuse to pass when more than
            // 10% of the end-to-end wall went to untimed work.
            let frac = e2e.untimed_fraction();
            if frac > 0.10 {
                eprintln!(
                    "scale {scale}: untimed wall {:.3}s is {:.1}% of the {:.3}s total \
                     (over the 10% ceiling); the stage inventory is incomplete",
                    e2e.untimed(),
                    frac * 100.0,
                    e2e.total,
                );
                std::process::exit(1);
            }
            eprintln!(
                "scale {scale}: meets the {floor:.0} events/s floor (untimed wall within 10%)"
            );
        }
        if let Some(gate) = args.overhead_gate {
            // Best-of-12: the streaming core shrank the measured collect
            // stage to tens of milliseconds, so a stable minimum needs
            // more reps than the old multi-hundred-ms stage did.
            let (off, on) = match profile::collect_overhead(&args.scenario_at(*scale), 12) {
                Ok(pair) => pair,
                Err(err) => {
                    eprintln!("overhead measurement failed: {err}");
                    std::process::exit(1);
                }
            };
            let overhead = if off > 0.0 { on / off - 1.0 } else { 0.0 };
            eprintln!(
                "scale {scale}: collect overhead: off {off:.4}s, instrumented {on:.4}s ({:+.2}%)",
                overhead * 100.0
            );
            if overhead > gate {
                eprintln!(
                    "metrics overhead {:.2}% exceeds gate {:.2}%",
                    overhead * 100.0,
                    gate * 100.0
                );
                std::process::exit(1);
            }
        }
    }
}

fn do_sweep(args: &Args) {
    let scenario = args.scenario();
    let world = or_exit(build_world(&scenario, &Obs::off()));
    let points = if args.operand.as_deref() == Some("seeding") {
        sweep::seeding_sweep(&scenario, &world)
    } else {
        sweep::mx_size_sweep(&world, &[0.02, 0.05, 0.1, 0.2, 0.4, 0.8])
    };
    let points = or_exit(points);
    println!(
        "{:<44} {:>10} {:>9} {:>8}",
        "parameter", "samples", "unique", "tagged"
    );
    for p in points {
        println!(
            "{:<44} {:>10} {:>9} {:>8}",
            p.label, p.samples, p.unique_domains, p.tagged_domains
        );
    }
}

fn summary(args: &Args) {
    let scenario = args.scenario();
    let world = or_exit(build_world(&scenario, &Obs::off()));
    let t = &world.truth;
    println!("scenario ........ {}", scenario.name);
    println!("seed ............ {}", t.seed);
    println!("window .......... {} days", t.config.days);
    println!("campaigns ....... {}", t.campaigns.len());
    println!("delivered copies  {}", t.total_volume());
    println!("domains ......... {}", t.universe.len());
    println!("web-spam corpus . {}", t.webspam.len());
    println!(
        "botnets ......... {} ({} monitored)",
        t.botnets.len(),
        t.botnets.iter().filter(|b| b.monitored).count()
    );
    println!(
        "programs ........ {} ({} tagged)",
        t.roster.programs.len(),
        t.roster.tagged_programs().count()
    );
    println!("affiliates ...... {}", t.roster.affiliates.len());
    println!("user reports .... {}", world.provider.reports.len());
    println!("benign trap mail  {}", world.benign_mail.len());
    println!("oracle messages . {}", world.provider.oracle.total());
}

/// `taster serve`: run the guarded streaming daemon over a Unix
/// socket. Ingestion advances epoch by epoch between socket polls;
/// `--checkpoint-dir` makes each sealed epoch durable and `--resume`
/// replays only the tail after a crash. Exit codes: 0 clean shutdown
/// (drain or `--exit-when-done`), 2 setup/serving failure.
fn serve_cmd(args: &Args) {
    use taster::serve::{core as serve_core, server, ServeConfig};

    let scenario = args.scenario();
    let config = ServeConfig {
        epoch_events: args.epoch_events,
        checkpoint_dir: args.checkpoint_dir.clone().map(std::path::PathBuf::from),
    };
    let built = if args.resume {
        serve_core::ServeCore::resume(&scenario, config)
    } else {
        serve_core::ServeCore::new(&scenario, config)
    };
    let mut core = match built {
        Ok(c) => c,
        Err(e) => {
            eprintln!("serve: cannot build ingestion state: {e}");
            std::process::exit(2);
        }
    };
    let server_cfg = server_config(args);
    eprintln!(
        "serve: listening on {} (epoch every {} events, resume={})",
        args.socket, args.epoch_events, args.resume
    );
    match server::run(&mut core, &server_cfg, &scenario.parallelism) {
        Ok(stats) => {
            eprintln!("serve: clean shutdown\n{}", stats.render(&core));
        }
        Err(e) => {
            eprintln!("serve: {e}");
            std::process::exit(2);
        }
    }
}

/// The daemon's socket settings. A request's end-to-end budget is twice
/// `--request-timeout-ms`, saturating, so a huge timeout never wraps
/// to a zero budget that would refuse every request, `shutdown`
/// included.
fn server_config(args: &Args) -> taster::serve::ServerConfig {
    taster::serve::ServerConfig {
        socket: std::path::PathBuf::from(&args.socket),
        request_timeout: std::time::Duration::from_millis(args.request_timeout_ms),
        request_deadline: std::time::Duration::from_millis(
            args.request_timeout_ms.saturating_mul(2),
        ),
        max_pending: args.max_pending,
        watchdog: std::time::Duration::from_millis(args.watchdog_ms),
        tick_rows: args.tick_rows,
        final_report: args.final_report.clone().map(std::path::PathBuf::from),
        exit_when_done: args.exit_when_done,
        test_hooks: args.test_hooks,
    }
}

/// `taster loadgen`: replay a deterministic keyed-RNG query storm
/// against a running daemon (`--faults` picks the storm:
/// `slow-client`, `query-storm`, `kill-midrun`), print its counts and,
/// with `--out`, write serving-path latencies/shed counts there as
/// JSON. Exit codes: 0 storm completed, 2 the daemon never answered.
fn loadgen_cmd(args: &Args) {
    use taster::serve::{loadgen, LoadgenConfig};

    let cfg = LoadgenConfig {
        socket: std::path::PathBuf::from(&args.socket),
        seed: args.seed,
        storm: args.storm,
        rounds: args.rounds,
        request_timeout: std::time::Duration::from_millis(args.request_timeout_ms),
    };
    let outcome = match loadgen::run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("loadgen: {e}");
            std::process::exit(2);
        }
    };
    if let Some(out) = &args.out {
        let json = outcome.render_json(args.storm.name, args.seed);
        if let Err(e) = std::fs::write(out, &json) {
            eprintln!("loadgen: cannot write {out}: {e}");
            std::process::exit(2);
        }
    }
    eprintln!(
        "loadgen: {} requests ({} ok, {} timeout, {} shed, {} not-ready), killed_daemon={}{}",
        outcome.sent,
        outcome.ok,
        outcome.timeouts,
        outcome.overloaded,
        outcome.not_ready,
        outcome.killed_daemon,
        args.out
            .as_ref()
            .map_or(String::new(), |out| format!(" -> {out}"))
    );
}

/// The replication knobs of `replicate` and `ab`.
fn replicate_options(args: &Args) -> replicate::ReplicateOptions {
    replicate::ReplicateOptions {
        seeds: args.seeds,
        resamples: args.resamples,
        level: args.level,
    }
}

/// `taster replicate`: run the scenario under `--seeds` independent
/// replicate seeds and print per-metric bootstrap confidence intervals.
/// Exit codes: 0 on success, 1 on pipeline failure, 2 on bad options.
fn replicate_cmd(args: &Args) {
    let scenario = args.scenario();
    let options = replicate_options(args);
    eprintln!(
        "replicating {} over {} seeds ({} resamples)",
        scenario.name, options.seeds, options.resamples
    );
    let rep = or_exit(replicate::replicate(&scenario, options));
    if args.format == "json" {
        print!("{}", replicate::render_replication_json(&rep));
    } else {
        print!("{}", replicate::render_replication(&rep));
    }
}

/// `taster ab`: paired A/B comparison between two named scenarios
/// (`--baseline`, `--treatment`), each replicated over `--seeds`
/// replicate seeds anchored on the baseline master seed. Exit codes:
/// 0 on success, 1 on pipeline failure, 2 on bad options.
fn ab_cmd(args: &Args) {
    // Parsing already refused a name that does not resolve.
    let resolve = |name: &str| {
        let scenario = ab::scenario_by_name(name, args.scales[0], args.seed);
        args.tune(or_exit(scenario.map_err(PipelineError::InvalidScenario)))
    };
    let (baseline, treatment) = (resolve(&args.baseline), resolve(&args.treatment));
    let options = replicate_options(args);
    eprintln!(
        "ab: {} vs {} over {} paired seeds",
        baseline.name, treatment.name, options.seeds
    );
    let cmp = or_exit(ab::ab_compare(&baseline, &treatment, options));
    if args.format == "json" {
        print!("{}", ab::render_ab_json(&cmp));
    } else {
        print!("{}", ab::render_ab(&cmp));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<(&'static Command, Args), String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    /// The command with its operand, if it needs one, and `ab`'s
    /// required `--treatment`.
    fn invocation(c: &Command) -> String {
        match (c.operands.first(), c.name) {
            (Some(op), _) => format!("{} {op}", c.name),
            (None, "ab") => "ab --treatment paper".to_string(),
            (None, _) => c.name.to_string(),
        }
    }

    /// A value `flag` accepts in `c`'s row.
    fn sample(c: &Command, flag: Flag) -> &'static str {
        match flag {
            ("--faults", Some("STORM")) => "query-storm",
            ("--faults", _) => "lossy-feeds",
            ("--format", _) => c.formats.split('|').next().unwrap(),
            ("--section", _) => "table2",
            ("--baseline" | "--treatment", _) => "quiet-world",
            (_, Some("S" | "S[,S...]" | "F" | "FRAC" | "R")) => "0.5",
            (_, Some("N" | "B" | "MS")) => "3",
            (_, Some(_)) => "x",
            (_, None) => "",
        }
    }

    #[test]
    fn every_listed_pair_parses() {
        for c in COMMANDS {
            for flag in c.flags() {
                let line = format!("{} {} {}", invocation(c), flag.0, sample(c, flag));
                match parse(&line) {
                    Ok((command, _)) => assert_eq!(command.name, c.name),
                    Err(e) => panic!("{line}: {e}"),
                }
            }
            for format in c.formats.split_terminator('|') {
                // Only a section with a CSV form takes `--format csv`.
                let section = if format == "csv" {
                    " --section table2"
                } else {
                    ""
                };
                let line = format!("{} --format {format}{section}", invocation(c));
                assert_eq!(parse(&line).map(|(_, a)| a.format).ok(), Some(format));
            }
        }
    }

    #[test]
    fn every_other_flag_is_refused_with_the_command_usage() {
        let mut flags: Vec<&str> = COMMANDS
            .iter()
            .flat_map(|c| c.flags().map(|(f, _)| f))
            .collect();
        flags.sort_unstable();
        flags.dedup();
        assert_eq!(flags.len(), 30, "{flags:?}");
        for c in COMMANDS {
            for &flag in flags.iter().filter(|&&f| c.flags().all(|(g, _)| g != f)) {
                let line = format!("{} {flag} 3", invocation(c));
                let Err(e) = parse(&line) else {
                    panic!("{line} parsed");
                };
                let want = format!("{} does not take {flag}\nusage: {}", c.name, c.usage());
                assert_eq!(e, want);
            }
        }
    }

    #[test]
    fn silently_ignored_flags_are_refused() {
        for line in [
            "report --treatment quiet-world",
            "summary --resume",
            "report --format xml",
            "summary --faults blackout",
            "profile --metrics",
            "sweep seeding --faults lossy-feeds",
            "loadgen --scale 1",
            "ab --faults lossy-feeds --treatment paper",
            "profile --section table2",
        ] {
            let name = line.split(' ').next().unwrap_or_default();
            match parse(line) {
                Ok(_) => panic!("{line} parsed"),
                Err(e) => assert!(e.contains(&format!("\nusage: taster {name} ")), "{e}"),
            }
        }
    }

    #[test]
    fn values_and_operands_are_checked_while_parsing() {
        // Parsing precedes every world build, so none of these runs.
        for (line, want) in [
            ("report --format xml", "unknown format xml; known: text|csv"),
            ("replicate --format csv", "unknown format csv"),
            ("report --faults nope", "unknown fault profile nope"),
            ("report --scale 0.1,1", "only profile accepts"),
            ("report --scale -1", "--scale must be positive"),
            ("report --threads 0", "--threads must be at least 1"),
            ("replicate --seeds 0", "--seeds must be at least 1"),
            ("serve --tick-rows 0", "--tick-rows must be at least 1"),
            ("ab --level 1.5", "--level must be in (0, 1)"),
            ("profile --overhead-gate 0", "must be positive"),
            ("report --seed", "--seed needs a value"),
            ("report --seed x", "bad --seed"),
            ("sweep", "sweep needs an operand"),
            ("sweep nope", "sweep does not take the operand nope"),
            ("sweep seeding mx-size", "the operand mx-size"),
            ("report all", "report does not take the operand all"),
            ("nope", "unknown command nope"),
            ("bench-json", "unknown command bench-json"),
            ("lint", "unknown command lint"),
            ("ablate", "unknown command ablate"),
            ("degradation", "unknown command degradation"),
            ("report --faults clean", "unknown fault profile clean"),
            // The serve storms are `loadgen`'s alone, and `loadgen`
            // takes no collection fault profile.
            (
                "report --faults query-storm",
                "unknown fault profile query-storm",
            ),
            (
                "serve --faults kill-midrun",
                "unknown fault profile kill-midrun",
            ),
            (
                "replicate --faults slow-client",
                "unknown fault profile slow-client",
            ),
            (
                "profile --faults query-storm",
                "unknown fault profile query-storm",
            ),
            ("loadgen --faults lossy-feeds", "unknown storm lossy-feeds"),
            (
                "report --section nope",
                "unknown section nope\nusage: taster report ",
            ),
            (
                "report --section fig6 --format csv",
                "section fig6 has no CSV form (try table1..3, fig2..5, fig7..12)\n\
                 usage: taster report ",
            ),
            (
                "report --format csv",
                "section all has no CSV form (try table1..3, fig2..5, fig7..12)\n\
                 usage: taster report ",
            ),
            ("ab", "ab needs --treatment NAME\nusage: taster ab "),
            (
                "ab --treatment nope",
                "--treatment: unknown scenario nope; known: paper ",
            ),
            (
                "ab --baseline nope --treatment paper",
                "--baseline: unknown scenario nope; known: paper ",
            ),
            (
                "ab --treatment query-storm",
                "--treatment: unknown scenario query-storm; known: paper ",
            ),
        ] {
            let Err(e) = parse(line) else {
                panic!("{line} parsed");
            };
            assert!(e.contains(want), "{line}: {e}");
            // A known command refuses with its own usage line.
            let name = line.split(' ').next().unwrap_or_default();
            if let Some(c) = COMMANDS.iter().find(|c| c.name == name) {
                assert!(e.ends_with(&format!("\nusage: {}", c.usage())), "{e}");
            }
        }
        assert!(parse("").is_err_and(|e| e.starts_with("usage: taster report")));
        let usage = |name| COMMANDS.iter().find(|c| c.name == name).map(Command::usage);
        let sweep = "taster sweep <seeding|mx-size> [--scale S] [--seed N] [--max-mem-bytes B]";
        assert_eq!(usage("sweep").as_deref(), Some(sweep));
        let loadgen = "taster loadgen [--seed N] [--faults STORM] [--socket PATH] [--rounds N] \
                       [--request-timeout-ms MS] [--out PATH]";
        assert_eq!(usage("loadgen").as_deref(), Some(loadgen));
    }

    #[test]
    fn the_request_budget_saturates_instead_of_wrapping() {
        let budget = |ms: u64| {
            let line = format!("serve --request-timeout-ms {ms}");
            let (_, args) = parse(&line).unwrap();
            server_config(&args).request_deadline
        };
        let ms = std::time::Duration::from_millis;
        assert_eq!(budget(500), ms(1_000));
        assert_eq!(budget(1 << 63), ms(u64::MAX));
        assert_eq!(budget(u64::MAX), ms(u64::MAX));
    }

    #[test]
    fn documented_invocations_parse() {
        for line in [
            // CI
            "profile --scale 0.05 --seed 11 --trace trace.jsonl --out BENCH_profile.json \
             --overhead-gate 0.05",
            "profile --scale 0.1 --out BENCH_pipeline.json --min-events-per-sec 500000",
            "profile --scale 0.1 --max-mem-bytes 4194304 --out BENCH_pipeline_oog.json \
             --min-events-per-sec 500000",
            "report --scale 0.1 --max-mem-bytes 4194304 --chunk 7 --threads 2",
            "serve --scale 0.1 --seed 11 --socket serve.sock --checkpoint-dir ckpts \
             --epoch-events 10000 --tick-rows 2048 --test-hooks",
            "loadgen --seed 11 --socket serve.sock --faults kill-midrun --rounds 200 \
             --out BENCH_serve_kill.json",
            "serve --scale 0.1 --seed 11 --socket serve.sock --checkpoint-dir ckpts \
             --epoch-events 10000 --resume --exit-when-done --max-mem-bytes 4194304 \
             --final-report serve-report.txt",
            "loadgen --seed 11 --socket storm.sock --faults query-storm --rounds 5 \
             --out BENCH_serve_storm.json",
            "replicate --scale 0.03 --seed 11 --seeds 4 --resamples 200 --format json",
            "ab --baseline paper --treatment quiet-world --scale 0.03 --seed 11 --seeds 4 \
             --resamples 200 --format json",
            "ab --treatment no-poisoning --scale 0.03 --seeds 2 --resamples 50",
            "ab --treatment unrestricted-blacklists --scale 0.03 --seeds 2 --resamples 50",
            "ab --treatment no-provider-filter --scale 0.03 --seeds 2 --resamples 50",
            "ab --treatment broad-ac2 --scale 0.03 --seeds 2 --resamples 50",
            "ab --treatment flaky-crawler --scale 0.03 --seeds 2 --resamples 50",
            "ab --treatment feed-outage --scale 0.03 --seeds 2 --resamples 50",
            "ab --treatment lossy-feeds --scale 0.03 --seeds 2 --resamples 50",
            "ab --treatment delayed-blacklists --scale 0.03 --seeds 2 --resamples 50",
            "ab --treatment blackout --scale 0.03 --seeds 2 --resamples 50",
            // tests/
            "sweep seeding --scale 0.02 --max-mem-bytes 65536",
            "summary --scale 0.02 --max-mem-bytes 65536",
            "ab --treatment lossy-feeds --seeds 2 --scale 0.02 --max-mem-bytes 65536",
            "profile --scale 0.02,0.03 --seed 5 --out x.json",
            "profile --scale 0.02 --min-events-per-sec 1e15",
            // README
            "report --section table2 --format csv",
            "sweep mx-size",
            "ab --treatment lossy-feeds --scale 0.1",
            "serve --socket /tmp/taster.sock --checkpoint-dir /tmp/ckpts --resume \
             --exit-when-done --final-report report.txt",
            "profile --scale 0.1,1,10 --out BENCH_pipeline.json",
            "loadgen --socket /tmp/taster.sock --faults query-storm --rounds 10 \
             --out BENCH_serve.json",
            // EXPERIMENTS.md
            "ab --treatment broad-ac2 --scale 0.3 --seeds 4",
            // the end-to-end benchmark
            "serve --scale 1 --seed 3 --threads 1 --socket s.sock --checkpoint-dir ck \
             --final-report r.txt",
            "report --scale 0.05 --seed 3",
        ] {
            if let Err(e) = parse(line) {
                panic!("{line}: {e}");
            }
        }
        let bench = parse("profile --scale 0.1,1,10")
            .ok()
            .map(|(_, a)| a.scales);
        assert_eq!(bench, Some(vec![0.1, 1.0, 10.0]));
    }
}
