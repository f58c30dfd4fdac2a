//! `taster` — command-line front end for the spam-feed analysis
//! toolkit.
//!
//! ```text
//! taster report                    regenerate tables/figures
//! taster ablate                    run the four ablation studies
//! taster sweep <seeding|mx-size>   parameter sweeps
//! taster summary                   world statistics only
//! taster degradation               canonical fault-profile sweep
//! taster bench-json                pipeline scaling benchmark
//! taster profile                   per-stage observability profile
//! taster serve                     guarded streaming daemon
//! taster loadgen                   deterministic query storms
//! taster replicate                 N-seed replication with CIs
//! taster ab --treatment NAME       paired A/B scenario comparison
//! taster lint                      workspace invariants clippy cannot check
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
//! `--faults <profile>` runs under a named fault-injection profile
//! (`off clean flaky-crawler feed-outage lossy-feeds delayed-blacklists
//! blackout`, plus the serve-only storms for `loadgen`); the default
//! `off` leaves every byte of output identical to a fault-free build.
//! Faulted reports prepend a "Fault model" section. `degradation`
//! sweeps the canonical profiles itself; `ab` names them as scenarios.
//!
//! `--threads`, `--chunk` and `--max-mem-bytes` change speed and peak
//! memory, never an output byte. `--threads N` (else `TASTER_THREADS`,
//! else the available cores) sets the workers of the parallel stages;
//! `sweep` and `summary` run serially. `--chunk N` caps the rows one
//! out-of-core read of the collection driver decodes (default 65 536).
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
use taster::analysis::classify::Category;
use taster::core::{
    ab, ablation, build_world, degradation, profile, replicate, sweep, Experiment, Scenario,
};
use taster::sim::{FaultProfile, Obs};

/// A flag and how its value is written in a usage line (`None` for a
/// switch).
type Flag = (&'static str, Option<&'static str>);

const SCALE: Flag = ("--scale", Some("S"));
/// `bench-json`'s `--scale`, which also takes a comma-separated list.
const SCALES: Flag = ("--scale", Some("S[,S...]"));
const SEED: Flag = ("--seed", Some("N"));
const THREADS: Flag = ("--threads", Some("N"));
const CHUNK: Flag = ("--chunk", Some("N"));
const MAX_MEM: Flag = ("--max-mem-bytes", Some("B"));
const FAULTS: Flag = ("--faults", Some("PROFILE"));
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
const GRAPH: Flag = ("--graph", None);
const SELF_TEST: Flag = ("--self-test", None);

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
    row("ablate", &[WORLD, &[FAULTS]], "", ablate),
    Command { operands: &["seeding", "mx-size"], ..row("sweep", &[SERIAL_WORLD], "", do_sweep) },
    row("summary", &[SERIAL_WORLD], "", summary),
    row("degradation", &[WORLD], "", degradation_cmd),
    row("bench-json", &[&[SCALES, SEED, THREADS, CHUNK, MAX_MEM, OUT, MIN_RATE]], "", bench_json),
    row("profile", &[WORLD, &[FAULTS, TRACE, OUT, GATE]], "", profile_cmd),
    row("serve", &[WORLD, &[FAULTS], DAEMON], "", serve_cmd),
    row("loadgen", &[&[SEED, FAULTS, SOCKET, ROUNDS, TIMEOUT, OUT]], "", loadgen_cmd),
    row("replicate", &[WORLD, &[FAULTS], REPLICATION], "text|json", replicate_cmd),
    row("ab", &[WORLD, &[BASELINE, TREATMENT], REPLICATION], "text|json", ab_cmd),
    row("lint", &[&[THREADS, GRAPH, SELF_TEST]], "text|json", lint_cmd),
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
    out: String,
    metrics: bool,
    trace: Option<String>,
    overhead_gate: Option<f64>,
    chunk: Option<usize>,
    max_mem_bytes: Option<u64>,
    min_events_per_sec: Option<f64>,
    self_test: bool,
    baseline: Option<String>,
    graph: bool,
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
    treatment: Option<String>,
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
            out: "BENCH_pipeline.json".to_string(),
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
                    return Err("only bench-json accepts a --scale list".to_string());
                }
                self.scales = scales;
            }
            "--seed" => self.seed = parse(flag, &raw)?,
            "--threads" => self.threads = Some(at_least_one(flag, &raw)?),
            "--chunk" => self.chunk = Some(at_least_one(flag, &raw)?),
            "--max-mem-bytes" => self.max_mem_bytes = Some(at_least_one(flag, &raw)?),
            "--faults" => {
                self.faults = FaultProfile::by_name(&raw).ok_or_else(|| {
                    format!(
                        "unknown fault profile {raw}; known: off {}",
                        FaultProfile::CANONICAL.join(" ")
                    )
                })?;
            }
            "--section" => self.section = raw,
            "--format" => {
                let formats = value.unwrap_or_default();
                let Some(format) = formats.split('|').find(|&f| f == raw) else {
                    return Err(format!("unknown format {raw}; known: {formats}"));
                };
                self.format = format;
            }
            "--metrics" => self.metrics = true,
            "--trace" => self.trace = Some(raw),
            "--out" => self.out = raw,
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
            "--baseline" => self.baseline = Some(raw),
            "--treatment" => self.treatment = Some(raw),
            "--graph" => self.graph = true,
            "--self-test" => self.self_test = true,
            other => return Err(format!("no parser for {other}")),
        }
        Ok(())
    }

    /// The paper scenario at `--scale` and `--seed`, tuned and faulted
    /// by this command's flags.
    fn scenario(&self) -> Scenario {
        self.tune(
            Scenario::default_paper()
                .with_scale(self.scales[0])
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

/// `taster lint`: check the workspace invariants clippy cannot express
/// (layering, workspace-lint inheritance, RNG keys, hash-order
/// dataflow, socket deadlines). Exit codes: 0 clean, 1 findings (or a
/// failed self-test), 2 setup problems. `--graph` emits the
/// item/dependency graph as JSON instead of linting; `--threads` pins
/// the scan's worker count (output is byte-identical at any count).
fn lint_cmd(args: &Args) {
    use taster::lint::{self, LintConfig};

    if args.self_test {
        let results = match lint::selftest::self_test() {
            Ok(r) => r,
            Err(e) => {
                eprintln!("lint --self-test could not build its fixture workspace: {e}");
                std::process::exit(2);
            }
        };
        let mut failed = false;
        for r in &results {
            println!(
                "{:.<24} {}",
                r.rule,
                if r.fired { "fires" } else { "DID NOT FIRE" }
            );
            failed |= !r.fired;
        }
        if failed {
            eprintln!("lint self-test FAILED: at least one rule no longer matches");
            std::process::exit(1);
        }
        eprintln!("lint self-test passed: every rule fires on its injected violation");
        return;
    }

    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot read current directory: {e}");
            std::process::exit(2);
        }
    };
    let Some(root) = lint::find_workspace_root(&cwd) else {
        eprintln!("cannot find the workspace root (Cargo.toml + crates/) above {cwd:?}");
        std::process::exit(2);
    };
    let config = LintConfig {
        root,
        workers: args.threads.unwrap_or(0),
    };
    let rendered = if args.graph {
        lint::graph_json(&config).map(|json| (json, true))
    } else {
        lint::run(&config).map(|report| {
            let text = if args.format == "json" {
                report.render_json()
            } else {
                report.render_text()
            };
            (text, report.is_clean())
        })
    };
    match rendered {
        Ok((text, clean)) => {
            print!("{text}");
            if !clean {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

/// Unwraps a pipeline result, or exits 1 with `cannot run scenario: …`
/// like every world-building command.
fn or_exit<T>(result: Result<T, taster::feeds::PipelineError>) -> T {
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

fn degradation_cmd(args: &Args) {
    let scenario = args.scenario();
    eprintln!("sweeping canonical fault profiles over {}", scenario.name);
    let sweep = or_exit(degradation::degradation_sweep(&scenario));
    print!(
        "{}",
        degradation::render_degradation(&scenario.name, &sweep)
    );
}

fn report(args: &Args) {
    let scenario = args.scenario();
    let section = args.section.as_str();
    eprintln!("running {}", scenario.name);
    let obs = Obs::with(args.metrics, args.trace.is_some());
    let e = or_exit(Experiment::try_run_observed(&scenario, obs));
    if let Some(path) = &args.trace {
        write_trace(&e, path);
    }
    if args.format == "csv" {
        match taster::core::export::CsvExport::new(&e).section(section) {
            Some(csv) => {
                print!("{csv}");
                return;
            }
            None => {
                eprintln!("section {section} has no CSV form (try table1..3, fig2..5, fig7..12)");
                std::process::exit(2);
            }
        }
    }
    let r = e.report();
    let text = match section {
        // The full render goes through the timed stage wrapper, so
        // `--trace`/profiled runs see it on the same clock as every
        // other stage. Byte-identical to `r.full_report()`.
        "all" => match e.try_render_report() {
            Ok(text) => text,
            Err(err) => {
                eprintln!("cannot render report: {err}");
                std::process::exit(1);
            }
        },
        "table1" => r.table1_feed_summary(),
        "table2" => r.table2_purity(),
        "table3" => r.table3_coverage(),
        "fig1" => r.fig1_exclusive_scatter(),
        "fig2" => format!(
            "{}\n{}",
            r.fig2_pairwise(Category::Live),
            r.fig2_pairwise(Category::Tagged)
        ),
        "fig3" => r.fig3_volume(),
        "fig4" => r.fig4_programs(),
        "fig5" => r.fig5_affiliates(),
        "fig6" => r.fig6_revenue(),
        "fig7" => r.fig7_variation(),
        "fig8" => r.fig8_kendall(),
        "fig9" => r.fig9_first_appearance(),
        "fig10" => r.fig10_first_appearance_honeypots(),
        "fig11" => r.fig11_last_appearance(),
        "fig12" => r.fig12_duration(),
        "blocking" => r.blocking_study(),
        "campaigns" => r.campaign_study(),
        "granularity" => r.granularity_study(),
        "concentration" => r.concentration_study(),
        "selection" => format!(
            "{}\n{}",
            r.selection_study(Category::Live),
            r.selection_study(Category::Tagged)
        ),
        other => {
            eprintln!("unknown section {other}");
            std::process::exit(2);
        }
    };
    println!("{text}");
    // `full_report` already appends the metrics section; single
    // sections get it appended here so `--metrics` always surfaces.
    if args.metrics && section != "all" {
        println!("{}", r.metrics_section());
    }
}

/// One fully-observed run: deterministic span tree + metrics, then the
/// wall-clock self-time table, then `BENCH_pipeline.json`-compatible
/// stage timings and that run's end-to-end wall accounting to `--out`.
/// With `--overhead-gate FRAC`, also measures instrumented vs.
/// uninstrumented collection and exits 1 when the overhead fraction
/// exceeds the gate.
fn profile_cmd(args: &Args) {
    let scenario = args.scenario();
    eprintln!("profiling {}", scenario.name);
    let (e, e2e) = or_exit(profile::run_end_to_end(&scenario, Obs::on()));
    if let Some(path) = &args.trace {
        write_trace(&e, path);
    }
    print!("{}", profile::deterministic_profile(&e));
    print!("{}", profile::render_profile_tree(&e));
    let row = profile::StageBench::from_registry(&e.obs, e.scenario.parallelism.workers());
    let entry = profile::ScaleBench::new(
        args.scales[0],
        &scenario.name,
        e.world.truth.log.len as u64,
        scenario.feeds.chunk_size,
        vec![row],
    )
    .with_end_to_end(e2e);
    let json = profile::bench_json_string(scenario.seed, 1, &[entry]);
    if let Err(err) = std::fs::write(&args.out, &json) {
        eprintln!("cannot write {}: {err}", args.out);
        std::process::exit(1);
    }
    eprintln!("wrote {}", args.out);
    if let Some(gate) = args.overhead_gate {
        // Best-of-12: the streaming core shrank the measured collect
        // stage to tens of milliseconds, so a stable minimum needs
        // more reps than the old multi-hundred-ms stage did.
        let (off, on) = match profile::collect_overhead(&scenario, 12) {
            Ok(pair) => pair,
            Err(err) => {
                eprintln!("overhead measurement failed: {err}");
                std::process::exit(1);
            }
        };
        let overhead = if off > 0.0 { on / off - 1.0 } else { 0.0 };
        eprintln!(
            "collect overhead: off {off:.4}s, instrumented {on:.4}s ({:+.2}%)",
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

fn ablate(args: &Args) {
    let scenario = args.scenario();
    eprintln!("running four ablations over {}", scenario.name);
    let p = or_exit(ablation::poisoning(&scenario));
    println!("== poisoning");
    println!(
        "  Bot DNS purity: {:.1}% with, {:.1}% without",
        p.bot_dns_with * 100.0,
        p.bot_dns_without * 100.0
    );
    println!(
        "  mx2 DNS purity: {:.1}% with, {:.1}% without",
        p.mx2_dns_with * 100.0,
        p.mx2_dns_without * 100.0
    );

    let r = or_exit(ablation::blacklist_restriction(&scenario));
    println!("== blacklist crawl-subset restriction");
    println!(
        "  dbl:   {} of {} entries survive ({:.1}% dropped)",
        r.dbl.0,
        r.dbl.1,
        r.dbl_dropped_fraction() * 100.0
    );
    println!(
        "  uribl: {} of {} entries survive ({:.1}% dropped)",
        r.uribl.0,
        r.uribl.1,
        r.uribl_dropped_fraction() * 100.0
    );

    let f = or_exit(ablation::provider_filter(&scenario));
    println!("== provider report-driven filtering");
    println!(
        "  Hu samples: {} with filter, {} without ({:.1}x)",
        f.hu_samples_with,
        f.hu_samples_without,
        f.hu_samples_without as f64 / f.hu_samples_with.max(1) as f64
    );
    println!(
        "  Hu tagged coverage: {} with, {} without",
        f.hu_tagged_with, f.hu_tagged_without
    );

    let s = or_exit(ablation::ac2_seeding(&scenario));
    println!("== Ac2 seeding breadth");
    println!(
        "  Ac2∩Ac1 / Ac1 (tagged): {:.1}% narrow, {:.1}% broad",
        s.overlap_narrow * 100.0,
        s.overlap_broad * 100.0
    );
}

fn do_sweep(args: &Args) {
    let scenario = args.scenario();
    let world = or_exit(build_world(&scenario, &Obs::off()));
    let points = if args.operand.as_deref() == Some("seeding") {
        sweep::seeding_sweep(&scenario, &world)
    } else {
        sweep::mx_size_sweep(&scenario, &world, &[0.02, 0.05, 0.1, 0.2, 0.4, 0.8])
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

/// Times feed collection, crawl/classification (clean and under the
/// `lossy-feeds`/`flaky-crawler` fault profiles), and the four
/// analysis stages (coverage, purity, proportionality, timing) at
/// 1/2/4/8 workers over one shared world per `--scale` value and
/// writes the results as JSON — per scale: the event count, streaming
/// chunk size, peak-buffer estimate, and per-run events/sec. Every
/// number is sourced from the observability layer's metrics registry
/// ([`profile::bench_stages`]); every timed run produces bit-identical
/// output, only wall-clock varies. With `--min-events-per-sec R`, the
/// command exits 1 when any scale's best collect throughput falls
/// below the floor (the CI perf-smoke gate).
fn bench_json(args: &Args) {
    let reps = 3usize;
    let mut entries: Vec<profile::ScaleBench> = Vec::new();
    for &scale in &args.scales {
        let scenario = args.tune(
            Scenario::default_paper()
                .with_scale(scale)
                .with_seed(args.seed),
        );
        eprintln!("building world for {}", scenario.name);
        let world = or_exit(build_world(&scenario, &Obs::off()));
        let events = world.truth.log.len as u64;
        let mut rows: Vec<profile::StageBench> = Vec::new();
        for workers in [1usize, 2, 4, 8] {
            let best = match profile::bench_stages(&world, &scenario, workers, reps) {
                Ok(row) => row,
                Err(e) => {
                    eprintln!("bench failed at {workers} workers: {e}");
                    std::process::exit(1);
                }
            };
            eprintln!(
                "workers {workers}: collect {:.3}s ({:.0} events/s) classify {:.3}s \
                 faulted collect {:.3}s classify {:.3}s analyze {:.4}s",
                best.collect,
                profile::events_per_sec(events, best.collect),
                best.classify,
                best.collect_faulted,
                best.classify_faulted,
                best.analyze(),
            );
            rows.push(best);
        }
        // One fully-observed end-to-end run per scale: generate through
        // render on one clock, so the untimed remainder is measurable.
        eprintln!("timing end-to-end (generate through render)");
        let e2e = match profile::run_end_to_end(&scenario, Obs::with(true, false)) {
            Ok((_, e2e)) => e2e,
            Err(e) => {
                eprintln!("end-to-end bench failed: {e}");
                std::process::exit(1);
            }
        };
        eprintln!(
            "end-to-end {:.3}s: generate {:.3}s, render {:.3}s, untimed {:.3}s ({:.1}%)",
            e2e.total,
            e2e.generate,
            e2e.render,
            e2e.untimed(),
            e2e.untimed_fraction() * 100.0,
        );
        // One small observed replication per scale, so the bench tracks
        // the cost of the statistical-rigor layer alongside the
        // pipeline stages it fans out.
        eprintln!("timing replicate (2 seeds)");
        let rep_obs = Obs::with(true, false);
        let rep_opts = replicate::ReplicateOptions {
            seeds: 2,
            resamples: 100,
            level: 0.95,
        };
        if let Err(e) = replicate::replicate_observed(&scenario, rep_opts, &rep_obs) {
            eprintln!("replicate bench failed: {e}");
            std::process::exit(1);
        }
        let replicate_secs = rep_obs
            .metrics
            .timing(replicate::STAGE_REPLICATE)
            .unwrap_or(0.0);
        eprintln!("replicate (2 seeds) {replicate_secs:.3}s");
        let entry = profile::ScaleBench::new(
            scale,
            &scenario.name,
            events,
            scenario.feeds.chunk_size,
            rows,
        )
        .with_stream_peak_bytes(profile::budget_peak_bytes(
            &scenario.ecosystem,
            events,
            scenario.feeds.chunk_size,
        ))
        .with_end_to_end(e2e)
        .with_replicate_secs(replicate_secs);
        eprintln!(
            "scale {scale}: {events} events, chunk {}, ~{:.1} MB peak event buffers, \
             best {:.0} events/s",
            entry.chunk_size,
            entry.stream_peak_bytes as f64 / 1e6,
            entry.best_events_per_sec(),
        );
        entries.push(entry);
    }
    let json = profile::bench_json_string(args.seed, reps, &entries);
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("cannot write {}: {e}", args.out);
        std::process::exit(1);
    }
    eprintln!("wrote {}", args.out);
    if let Some(floor) = args.min_events_per_sec {
        for entry in &entries {
            let best = entry.best_events_per_sec();
            if best < floor {
                eprintln!(
                    "scale {}: best collect throughput {best:.0} events/s \
                     is below the floor {floor:.0}",
                    entry.scale
                );
                std::process::exit(1);
            }
            // A throughput floor is only meaningful if the stage
            // inventory covers the run: refuse to pass when more than
            // 10% of the end-to-end wall went to untimed work.
            if let Some(e2e) = &entry.end_to_end {
                let frac = e2e.untimed_fraction();
                if frac > 0.10 {
                    eprintln!(
                        "scale {}: untimed wall {:.3}s is {:.1}% of the {:.3}s total \
                         (over the 10% ceiling); the stage inventory is incomplete",
                        entry.scale,
                        e2e.untimed(),
                        frac * 100.0,
                        e2e.total,
                    );
                    std::process::exit(1);
                }
            }
        }
        eprintln!("all scales meet the {floor:.0} events/s floor (untimed wall within 10%)");
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
    use taster::serve::{core as serve_core, server, ServeConfig, ServerConfig};

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
    let server_cfg = ServerConfig {
        socket: std::path::PathBuf::from(&args.socket),
        request_timeout: std::time::Duration::from_millis(args.request_timeout_ms),
        request_deadline: std::time::Duration::from_millis(args.request_timeout_ms * 2),
        max_pending: args.max_pending,
        max_mem_bytes: args.max_mem_bytes,
        watchdog: std::time::Duration::from_millis(args.watchdog_ms),
        tick_rows: args.tick_rows,
        final_report: args.final_report.clone().map(std::path::PathBuf::from),
        exit_when_done: args.exit_when_done,
        test_hooks: args.test_hooks,
    };
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

/// `taster loadgen`: replay a deterministic keyed-RNG query storm
/// against a running daemon (`--faults` picks the storm shape:
/// `serve-slow-client`, `serve-query-storm`, `serve-kill-midrun`) and
/// write serving-path latencies/shed counts as JSON to `--out`. Exit
/// codes: 0 storm completed, 2 the daemon never answered.
fn loadgen_cmd(args: &Args) {
    use taster::serve::{loadgen, LoadgenConfig};

    let cfg = LoadgenConfig {
        socket: std::path::PathBuf::from(&args.socket),
        seed: args.seed,
        profile: args.faults.clone(),
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
    let json = outcome.render_json(&args.faults.name, args.seed);
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("loadgen: cannot write {}: {e}", args.out);
        std::process::exit(2);
    }
    eprintln!(
        "loadgen: {} requests ({} ok, {} timeout, {} shed, {} not-ready), killed_daemon={} -> {}",
        outcome.sent,
        outcome.ok,
        outcome.timeouts,
        outcome.overloaded,
        outcome.not_ready,
        outcome.killed_daemon,
        args.out
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
    let resolve = |label: &str, name: &str| -> Scenario {
        match ab::scenario_by_name(name, args.scales[0], args.seed) {
            Some(s) => args.tune(s),
            None => {
                eprintln!(
                    "unknown {label} scenario {name}; known: {} and batch fault profiles: {}",
                    ab::NAMED_SCENARIOS.join(" "),
                    FaultProfile::CANONICAL
                        .iter()
                        .filter(|n| {
                            FaultProfile::by_name(n).is_some_and(|p| !p.is_serve_only())
                        })
                        .copied()
                        .collect::<Vec<_>>()
                        .join(" ")
                );
                std::process::exit(2);
            }
        }
    };
    let baseline_name = args.baseline.as_deref().unwrap_or("paper");
    let Some(treatment_name) = args.treatment.as_deref() else {
        eprintln!("ab needs --treatment <scenario>\n{}", usage());
        std::process::exit(2);
    };
    let baseline = resolve("baseline", baseline_name);
    let treatment = resolve("treatment", treatment_name);
    let options = replicate_options(args);
    eprintln!(
        "ab: {} vs {} over {} paired seeds",
        baseline.name, treatment.name, options.seeds
    );
    let cmp = or_exit(ab::ab_compare(&baseline, &treatment, options, &Obs::off()));
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

    /// The command with its operand, if it needs one.
    fn invocation(c: &Command) -> String {
        match c.operands.first() {
            Some(op) => format!("{} {op}", c.name),
            None => c.name.to_string(),
        }
    }

    /// A value `flag` accepts in `c`'s row.
    fn sample(c: &Command, flag: Flag) -> &'static str {
        match flag {
            ("--faults", _) => "lossy-feeds",
            ("--format", _) => c.formats.split('|').next().unwrap(),
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
                let line = format!("{} --format {format}", invocation(c));
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
        assert_eq!(flags.len(), 32, "{flags:?}");
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
            "lint --seeds 4 --socket x",
            "report --format xml",
            "degradation --faults blackout",
            "profile --metrics",
            "sweep seeding --faults lossy-feeds",
            "loadgen --scale 1",
            "ab --faults lossy-feeds --treatment paper",
            "bench-json --faults lossy-feeds",
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
            ("report --scale 0.1,1", "only bench-json accepts"),
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
        ] {
            match parse(line) {
                Ok(_) => panic!("{line} parsed"),
                Err(e) => assert!(e.contains(want), "{line}: {e}"),
            }
        }
        assert!(parse("").is_err_and(|e| e.starts_with("usage: taster report")));
        let sweep = "taster sweep <seeding|mx-size> [--scale S] [--seed N] [--max-mem-bytes B]";
        assert_eq!(COMMANDS[2].usage(), sweep);
    }

    #[test]
    fn documented_invocations_parse() {
        for line in [
            // CI
            "profile --scale 0.05 --seed 11 --trace trace.jsonl --out BENCH_profile.json \
             --overhead-gate 0.05",
            "bench-json --scale 0.1 --out BENCH_pipeline.json --min-events-per-sec 500000",
            "bench-json --scale 0.1 --max-mem-bytes 4194304 --out BENCH_pipeline_oog.json \
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
            "lint --threads 8 --format json",
            // tests/
            "sweep seeding --scale 0.02 --max-mem-bytes 65536",
            "summary --scale 0.02 --max-mem-bytes 65536",
            "ablate --scale 0.02 --max-mem-bytes 65536",
            "degradation --scale 0.02 --max-mem-bytes 65536",
            "ab --treatment lossy-feeds --seeds 2 --scale 0.02 --max-mem-bytes 65536",
            // README
            "report --section table2 --format csv",
            "sweep mx-size",
            "serve --socket /tmp/taster.sock --checkpoint-dir /tmp/ckpts --resume \
             --exit-when-done --final-report report.txt",
            "bench-json --scale 0.1,1.0",
            // the end-to-end benchmark
            "serve --scale 1 --seed 3 --threads 1 --socket s.sock --checkpoint-dir ck \
             --final-report r.txt",
            "report --scale 0.05 --seed 3",
        ] {
            if let Err(e) = parse(line) {
                panic!("{line}: {e}");
            }
        }
        let bench = parse("bench-json --scale 0.1,1.0")
            .ok()
            .map(|(_, a)| a.scales);
        assert_eq!(bench, Some(vec![0.1, 1.0]));
    }
}
