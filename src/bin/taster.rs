//! `taster` — command-line front end for the spam-feed analysis
//! toolkit.
//!
//! ```text
//! taster report      [--scale S] [--seed N] [--section NAME]  regenerate tables/figures
//! taster ablate      [--scale S] [--seed N]                   run the four ablation studies
//! taster sweep       <seeding|mx-size> [--scale S] [--seed N] parameter sweeps
//! taster summary     [--scale S] [--seed N]                   world statistics only
//! taster degradation [--scale S] [--seed N]                   canonical fault-profile sweep
//! taster bench-json  [--scale S] [--seed N] [--out PATH]      pipeline scaling benchmark
//! taster profile     [--scale S] [--seed N] [--out PATH]      per-stage observability profile
//! taster serve       [--socket P] [--checkpoint-dir D]        guarded streaming daemon
//! taster loadgen     [--socket P] [--faults STORM] [--out P]  deterministic query storms
//! taster replicate   [--seeds N] [--resamples N] [--level F]  N-seed replication with CIs
//! taster ab          --treatment NAME [--baseline NAME]       paired A/B scenario comparison
//! ```
//!
//! `replicate` runs the scenario under N independent derived seeds and
//! prints every headline metric with percentile + BCa bootstrap
//! confidence intervals; `--format json` emits the same numbers as a
//! machine-readable document. `ab` replicates a baseline and a
//! treatment scenario over the *same* derived seeds (named scenarios:
//! `paper`, the presets, the ablations, or any batch fault profile)
//! and prints per-metric effect sizes, CIs on the paired difference,
//! and paired/Welch p-values. Both commands are bit-identical at any
//! `--threads` count: replicate seeds depend only on `(master seed,
//! index)` and bootstrap resampling is keyed by `(seed, metric,
//! resample index)`.
//!
//! Sections for `report`: `table1 table2 table3 fig1 … fig12 selection all`
//! (default `all`).
//!
//! `report` also accepts `--faults <profile>` to run under a named
//! fault-injection profile (`off clean flaky-crawler feed-outage
//! lossy-feeds delayed-blacklists blackout`); the default `off` leaves
//! every byte of output identical to a fault-free build. Faulted runs
//! prepend a "Fault model" section and stay bit-identical at any
//! `--threads` count. `degradation` sweeps all canonical profiles and
//! prints per-feed metric deltas against the clean run.
//!
//! Every command accepts `--threads N` to pin the worker count of the
//! parallel stages (feed collection, crawling, pairwise analyses).
//! Without the flag the `TASTER_THREADS` environment variable is
//! consulted, then the number of available cores. The thread count
//! never changes any output — every parallel stage is bit-identical
//! to a serial run — only how long the run takes.
//!
//! `bench-json` times feed collection, crawl/classification, and each
//! analysis stage (coverage, purity, proportionality, timing) at 1,
//! 2, 4 and 8 workers per `--scale` value (comma-separated list
//! accepted, e.g. `--scale 0.1,1.0`) and writes the timings (plus
//! speedups relative to one worker) as JSON, by default to
//! `BENCH_pipeline.json`. Each scale entry records the event count,
//! the streaming chunk size, a peak-buffer memory estimate, and
//! per-run collect throughput in events/sec;
//! `--min-events-per-sec R` turns the best throughput into a CI
//! floor (exit 1 below it). Every number is read back from the
//! observability layer's metrics registry — the same clock `taster
//! profile` prints — so the bench and the profile can never disagree
//! about a stage.
//!
//! `--chunk N` caps the event rows one out-of-core read of the
//! collection driver decodes (default 65 536), for `report` and
//! `serve` alike; in core the resident log is read in place. Chunk
//! size never changes any output byte — only peak memory and locality.
//!
//! Usage errors exit 2. A scenario that cannot run — an invalid
//! configuration, or an event spill that cannot be created or read —
//! exits 1 with `cannot run scenario: …` from every command that
//! builds a world.
//!
//! Observability flags:
//!
//! * `--metrics` (`report`, `profile`) appends a deterministic
//!   "Pipeline metrics" section — counters and histograms, sorted,
//!   wall times excluded — to the report. Bit-identical at any
//!   `--threads` count.
//! * `--trace PATH` (`report`, `profile`) writes the span/event log
//!   as JSON lines. Spans carry wall-clock nanoseconds, so the file
//!   differs run to run by design; everything else in it is
//!   deterministic.
//! * `taster profile` runs one fully-observed experiment and prints
//!   the deterministic span tree + metrics followed by a per-stage
//!   self-time table, then writes `BENCH_pipeline.json`-compatible
//!   stage timings to `--out`. `--overhead-gate FRAC` additionally
//!   measures instrumented vs. uninstrumented collection and exits
//!   non-zero when the metrics overhead exceeds `FRAC` (the CI gate).
//!
//! With `--metrics` and `--trace` both absent, every command's output
//! is byte-identical to a build without the observability layer.

// The CLI is the one target that talks to stdout/stderr by design;
// unwrap/expect stay denied via the workspace lint table.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use taster::analysis::classify::Category;
use taster::core::{ab, ablation, degradation, profile, replicate, sweep, Experiment, Scenario};
use taster::sim::FaultProfile;

struct Args {
    command: String,
    positional: Vec<String>,
    scales: Vec<f64>,
    seed: u64,
    section: String,
    format: String,
    threads: Option<usize>,
    faults: String,
    out: String,
    metrics: bool,
    trace: Option<String>,
    overhead_gate: Option<f64>,
    chunk: Option<usize>,
    max_mem_bytes: Option<u64>,
    min_events_per_sec: Option<f64>,
    self_test: bool,
    strict: bool,
    baseline: Option<String>,
    write_baseline: bool,
    prune_baseline: bool,
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

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or_else(usage)?;
    let mut out = Args {
        command,
        positional: Vec::new(),
        scales: vec![1.0],
        seed: 20_100_801,
        section: "all".to_string(),
        format: "text".to_string(),
        threads: None,
        faults: "off".to_string(),
        out: "BENCH_pipeline.json".to_string(),
        metrics: false,
        trace: None,
        overhead_gate: None,
        chunk: None,
        max_mem_bytes: None,
        min_events_per_sec: None,
        self_test: false,
        strict: false,
        baseline: None,
        write_baseline: false,
        prune_baseline: false,
        graph: false,
        socket: "taster-serve.sock".to_string(),
        checkpoint_dir: None,
        resume: false,
        epoch_events: 50_000,
        final_report: None,
        exit_when_done: false,
        test_hooks: false,
        request_timeout_ms: 500,
        watchdog_ms: 2_000,
        max_pending: 8,
        tick_rows: 8_192,
        rounds: 100,
        seeds: 8,
        resamples: 200,
        level: 0.95,
        treatment: None,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                // Comma-separated list; only `bench-json` accepts more
                // than one value.
                let raw = args.next().ok_or("--scale needs a value")?;
                out.scales = raw
                    .split(',')
                    .map(|s| s.trim().parse::<f64>())
                    .collect::<Result<Vec<f64>, _>>()
                    .map_err(|e| format!("bad --scale: {e}"))?;
                if out.scales.is_empty() || out.scales.iter().any(|&s| !s.is_finite() || s <= 0.0) {
                    return Err("--scale values must be positive".to_string());
                }
            }
            "--seed" => {
                out.seed = args
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--section" => {
                out.section = args.next().ok_or("--section needs a value")?;
            }
            "--format" => {
                out.format = args.next().ok_or("--format needs a value")?;
            }
            "--threads" => {
                let n: usize = args
                    .next()
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
                out.threads = Some(n);
            }
            "--faults" => {
                out.faults = args.next().ok_or("--faults needs a value")?;
            }
            "--out" => {
                out.out = args.next().ok_or("--out needs a value")?;
            }
            "--chunk" => {
                let n: usize = args
                    .next()
                    .ok_or("--chunk needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --chunk: {e}"))?;
                if n == 0 {
                    return Err("--chunk must be at least 1".to_string());
                }
                out.chunk = Some(n);
            }
            "--max-mem-bytes" => {
                let n: u64 = args
                    .next()
                    .ok_or("--max-mem-bytes needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --max-mem-bytes: {e}"))?;
                if n == 0 {
                    return Err("--max-mem-bytes must be at least 1".to_string());
                }
                out.max_mem_bytes = Some(n);
            }
            "--min-events-per-sec" => {
                let floor: f64 = args
                    .next()
                    .ok_or("--min-events-per-sec needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --min-events-per-sec: {e}"))?;
                if !floor.is_finite() || floor <= 0.0 {
                    return Err("--min-events-per-sec must be positive".to_string());
                }
                out.min_events_per_sec = Some(floor);
            }
            "--socket" => {
                out.socket = args.next().ok_or("--socket needs a path")?;
            }
            "--checkpoint-dir" => {
                out.checkpoint_dir = Some(args.next().ok_or("--checkpoint-dir needs a path")?);
            }
            "--resume" => out.resume = true,
            "--epoch-events" => {
                let n: usize = args
                    .next()
                    .ok_or("--epoch-events needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --epoch-events: {e}"))?;
                if n == 0 {
                    return Err("--epoch-events must be at least 1".to_string());
                }
                out.epoch_events = n;
            }
            "--final-report" => {
                out.final_report = Some(args.next().ok_or("--final-report needs a path")?);
            }
            "--exit-when-done" => out.exit_when_done = true,
            "--test-hooks" => out.test_hooks = true,
            "--request-timeout-ms" => {
                out.request_timeout_ms = args
                    .next()
                    .ok_or("--request-timeout-ms needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --request-timeout-ms: {e}"))?;
                if out.request_timeout_ms == 0 {
                    return Err("--request-timeout-ms must be at least 1".to_string());
                }
            }
            "--watchdog-ms" => {
                out.watchdog_ms = args
                    .next()
                    .ok_or("--watchdog-ms needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --watchdog-ms: {e}"))?;
                if out.watchdog_ms == 0 {
                    return Err("--watchdog-ms must be at least 1".to_string());
                }
            }
            "--max-pending" => {
                out.max_pending = args
                    .next()
                    .ok_or("--max-pending needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --max-pending: {e}"))?;
                if out.max_pending == 0 {
                    return Err("--max-pending must be at least 1".to_string());
                }
            }
            "--tick-rows" => {
                out.tick_rows = args
                    .next()
                    .ok_or("--tick-rows needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --tick-rows: {e}"))?;
                if out.tick_rows == 0 {
                    return Err("--tick-rows must be at least 1".to_string());
                }
            }
            "--rounds" => {
                out.rounds = args
                    .next()
                    .ok_or("--rounds needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --rounds: {e}"))?;
            }
            "--seeds" => {
                let n: usize = args
                    .next()
                    .ok_or("--seeds needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --seeds: {e}"))?;
                if n == 0 {
                    return Err("--seeds must be at least 1".to_string());
                }
                out.seeds = n;
            }
            "--resamples" => {
                let n: usize = args
                    .next()
                    .ok_or("--resamples needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --resamples: {e}"))?;
                if n == 0 {
                    return Err("--resamples must be at least 1".to_string());
                }
                out.resamples = n;
            }
            "--level" => {
                let l: f64 = args
                    .next()
                    .ok_or("--level needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --level: {e}"))?;
                if !(l > 0.0 && l < 1.0) {
                    return Err("--level must be in (0, 1)".to_string());
                }
                out.level = l;
            }
            "--treatment" => {
                out.treatment = Some(args.next().ok_or("--treatment needs a scenario name")?);
            }
            "--metrics" => out.metrics = true,
            "--self-test" => out.self_test = true,
            "--strict" => out.strict = true,
            "--baseline" => {
                out.baseline = Some(args.next().ok_or("--baseline needs a path")?);
            }
            "--write-baseline" => out.write_baseline = true,
            "--prune-baseline" => out.prune_baseline = true,
            "--graph" => out.graph = true,
            "--trace" => {
                out.trace = Some(args.next().ok_or("--trace needs a path")?);
            }
            "--overhead-gate" => {
                let frac: f64 = args
                    .next()
                    .ok_or("--overhead-gate needs a fraction")?
                    .parse()
                    .map_err(|e| format!("bad --overhead-gate: {e}"))?;
                if !frac.is_finite() || frac <= 0.0 {
                    return Err("--overhead-gate must be positive".to_string());
                }
                out.overhead_gate = Some(frac);
            }
            other if !other.starts_with('-') => out.positional.push(other.to_string()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(out)
}

fn usage() -> String {
    "usage: taster <report|ablate|sweep|summary|degradation|bench-json|profile|serve|loadgen|\
     replicate|ab|lint> \
     [--scale S[,S...]] [--seed N] [--threads N] [--chunk N] [--max-mem-bytes B] \
     [--section NAME] [--faults PROFILE] [--out PATH] [--metrics] [--trace PATH] \
     [--overhead-gate FRAC] [--min-events-per-sec R]\n       \
     taster replicate [--seeds N] [--resamples N] [--level F] [--format json] \
     [--scale S] [--seed N] [--faults PROFILE]\n       \
     taster ab --treatment NAME [--baseline NAME] [--seeds N] [--resamples N] [--level F] \
     [--format json] [--scale S] [--seed N]\n       \
     taster serve [--socket PATH] [--checkpoint-dir DIR] [--resume] [--epoch-events N] \
     [--tick-rows N] [--max-pending N] [--request-timeout-ms MS] [--watchdog-ms MS] \
     [--final-report PATH] [--exit-when-done] [--test-hooks]\n       \
     taster loadgen [--socket PATH] [--faults PROFILE] [--rounds N] \
     [--request-timeout-ms MS] [--out PATH]\n       \
     taster lint [--format json] [--strict] [--self-test] [--graph] [--threads N] \
     [--baseline PATH] [--write-baseline] [--prune-baseline]"
        .to_string()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            std::process::exit(2);
        }
    };
    if args.command == "lint" {
        lint_cmd(&args);
        return;
    }
    if args.scales.len() > 1 && args.command != "bench-json" {
        eprintln!("only bench-json accepts a --scale list\n{}", usage());
        std::process::exit(2);
    }
    let mut scenario = Scenario::default_paper()
        .with_scale(args.scales[0])
        .with_seed(args.seed);
    if let Some(n) = args.threads {
        scenario = scenario.with_threads(n);
    }
    if let Some(c) = args.chunk {
        scenario.feeds.chunk_size = c;
    }
    if let Some(b) = args.max_mem_bytes {
        scenario.ecosystem.max_mem_bytes = Some(b);
    }
    let Some(profile) = FaultProfile::by_name(&args.faults) else {
        eprintln!(
            "unknown fault profile {}; known: off {}",
            args.faults,
            FaultProfile::CANONICAL.join(" ")
        );
        std::process::exit(2);
    };
    scenario = scenario.with_faults(profile);

    match args.command.as_str() {
        "report" => report(&scenario, &args),
        "ablate" => ablate(&scenario),
        "sweep" => do_sweep(&scenario, args.positional.first().map(|s| s.as_str())),
        "summary" => summary(&scenario),
        "degradation" => degradation_cmd(&scenario),
        "bench-json" => bench_json(&args),
        "profile" => profile_cmd(&scenario, &args),
        "serve" => serve_cmd(&scenario, &args),
        "loadgen" => loadgen_cmd(&scenario, &args),
        "replicate" => replicate_cmd(&scenario, &args),
        "ab" => ab_cmd(&args),
        other => {
            eprintln!("unknown command {other}\n{}", usage());
            std::process::exit(2);
        }
    }
}

/// `taster lint`: run the workspace determinism/panic-safety static
/// analysis. Exit codes: 0 clean, 1 findings / stale baseline (or
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
    let baseline = args
        .baseline
        .clone()
        .map(std::path::PathBuf::from)
        .or_else(|| {
            let default = root.join("lint.baseline");
            default.is_file().then_some(default)
        });
    let config = LintConfig {
        root: root.clone(),
        strict: args.strict,
        baseline: if args.write_baseline {
            None
        } else {
            baseline.clone()
        },
        workers: args.threads.unwrap_or(0),
    };
    if args.graph {
        match lint::graph_json(&config) {
            Ok(json) => {
                print!("{json}");
                return;
            }
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }
    let report = match lint::run(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    if args.prune_baseline {
        let Some(path) = baseline else {
            eprintln!("--prune-baseline: no baseline file to prune");
            std::process::exit(2);
        };
        match lint::baseline::prune_file(&path, &report.stale_baseline) {
            Ok(removed) => {
                eprintln!("pruned {removed} stale entry(ies) from {}", path.display());
                return;
            }
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }
    if args.write_baseline {
        let path = args
            .baseline
            .clone()
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| root.join("lint.baseline"));
        let text = lint::baseline::Baseline::from_diagnostics(&report.diagnostics).render();
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("cannot write baseline {}: {e}", path.display());
            std::process::exit(2);
        }
        eprintln!(
            "wrote {} entry(ies) to {}",
            report.diagnostics.len(),
            path.display()
        );
        return;
    }
    if args.format == "json" {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    // Stale baseline entries gate red too: the baseline is a debt
    // ledger, and entries that match nothing are paid-off debt that
    // must be pruned (`--prune-baseline`) so it cannot mask a future
    // regression at the same (rule, path, line-hash).
    if !report.is_clean() || !report.stale_baseline.is_empty() {
        std::process::exit(1);
    }
}

/// Writes the trace JSONL of an observed run, exiting on I/O failure.
fn write_trace(exp: &Experiment, path: &str) {
    if let Err(e) = std::fs::write(path, exp.obs.trace.to_jsonl()) {
        eprintln!("cannot write trace {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote trace {path}");
}

fn degradation_cmd(scenario: &Scenario) {
    eprintln!("sweeping canonical fault profiles over {}", scenario.name);
    match degradation::degradation_sweep(scenario) {
        Ok(sweep) => print!(
            "{}",
            degradation::render_degradation(&scenario.name, &sweep)
        ),
        Err(e) => {
            eprintln!("degradation sweep failed: {e}");
            std::process::exit(1);
        }
    }
}

fn report(scenario: &Scenario, args: &Args) {
    let (section, format) = (args.section.as_str(), args.format.as_str());
    eprintln!("running {}", scenario.name);
    let obs = taster::sim::Obs::with(args.metrics, args.trace.is_some());
    let e = match Experiment::try_run_observed(scenario, obs) {
        Ok(e) => e,
        Err(err) => {
            eprintln!("cannot run scenario: {err}");
            std::process::exit(1);
        }
    };
    if let Some(path) = &args.trace {
        write_trace(&e, path);
    }
    if format == "csv" {
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
/// stage timings to `--out`. With `--overhead-gate FRAC`, also
/// measures instrumented vs. uninstrumented collection and exits 1
/// when the overhead fraction exceeds the gate.
fn profile_cmd(scenario: &Scenario, args: &Args) {
    eprintln!("profiling {}", scenario.name);
    let e = match profile::profile_scenario(scenario) {
        Ok(e) => e,
        Err(err) => {
            eprintln!("cannot run scenario: {err}");
            std::process::exit(1);
        }
    };
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
    );
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
        let (off, on) = match profile::collect_overhead(scenario, 12) {
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

fn ablate(scenario: &Scenario) {
    eprintln!("running four ablations over {}", scenario.name);
    let p = ablation::poisoning(scenario);
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

    let r = ablation::blacklist_restriction(scenario);
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

    let f = ablation::provider_filter(scenario);
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

    let s = ablation::ac2_seeding(scenario);
    println!("== Ac2 seeding breadth");
    println!(
        "  Ac2∩Ac1 / Ac1 (tagged): {:.1}% narrow, {:.1}% broad",
        s.overlap_narrow * 100.0,
        s.overlap_broad * 100.0
    );
}

/// Builds the scenario's world, or exits 1 with the error the way
/// `report` does.
fn world_or_exit(scenario: &Scenario) -> taster::mailsim::MailWorld {
    taster::core::build_world(scenario, &taster::sim::Obs::off()).unwrap_or_else(|e| {
        eprintln!("cannot run scenario: {e}");
        std::process::exit(1);
    })
}

fn do_sweep(scenario: &Scenario, which: Option<&str>) {
    let world = world_or_exit(scenario);
    let points = match which {
        Some("seeding") => sweep::seeding_sweep(scenario, &world),
        Some("mx-size") => {
            sweep::mx_size_sweep(scenario, &world, &[0.02, 0.05, 0.1, 0.2, 0.4, 0.8])
        }
        _ => {
            eprintln!("usage: taster sweep <seeding|mx-size> [--scale S]");
            std::process::exit(2);
        }
    };
    let points = points.unwrap_or_else(|e| {
        eprintln!("cannot run scenario: {e}");
        std::process::exit(1);
    });
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
        let mut scenario = Scenario::default_paper()
            .with_scale(scale)
            .with_seed(args.seed);
        if let Some(n) = args.threads {
            scenario = scenario.with_threads(n);
        }
        if let Some(c) = args.chunk {
            scenario.feeds.chunk_size = c;
        }
        if let Some(b) = args.max_mem_bytes {
            scenario.ecosystem.max_mem_bytes = Some(b);
        }
        eprintln!("building world for {}", scenario.name);
        let world = world_or_exit(&scenario);
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
        let e2e = match profile::bench_end_to_end(&scenario) {
            Ok(e) => e,
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
        let rep_obs = taster::sim::Obs::with(true, false);
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

fn summary(scenario: &Scenario) {
    let world = world_or_exit(scenario);
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
fn serve_cmd(scenario: &Scenario, args: &Args) {
    use taster::serve::{core as serve_core, server, ServeConfig, ServerConfig};

    let config = ServeConfig {
        epoch_events: args.epoch_events,
        checkpoint_dir: args.checkpoint_dir.clone().map(std::path::PathBuf::from),
    };
    let built = if args.resume {
        serve_core::ServeCore::resume(scenario, config)
    } else {
        serve_core::ServeCore::new(scenario, config)
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
fn loadgen_cmd(scenario: &Scenario, args: &Args) {
    use taster::serve::{loadgen, LoadgenConfig};

    let cfg = LoadgenConfig {
        socket: std::path::PathBuf::from(&args.socket),
        seed: args.seed,
        profile: scenario.faults.clone(),
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
    let json = outcome.render_json(&scenario.faults.name, args.seed);
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

/// `taster replicate`: run the scenario under `--seeds` independent
/// replicate seeds and print per-metric bootstrap confidence intervals.
/// Exit codes: 0 on success, 1 on pipeline failure, 2 on bad options.
fn replicate_cmd(scenario: &Scenario, args: &Args) {
    let options = replicate::ReplicateOptions {
        seeds: args.seeds,
        resamples: args.resamples,
        level: args.level,
    };
    eprintln!(
        "replicating {} over {} seeds ({} resamples)",
        scenario.name, options.seeds, options.resamples
    );
    let rep = match replicate::replicate(scenario, options) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("replicate failed: {e}");
            std::process::exit(1);
        }
    };
    match args.format.as_str() {
        "text" => print!("{}", replicate::render_replication(&rep)),
        "json" => print!("{}", replicate::render_replication_json(&rep)),
        other => {
            eprintln!("unknown format {other}; known: text json");
            std::process::exit(2);
        }
    }
}

/// `taster ab`: paired A/B comparison between two named scenarios
/// (`--baseline`, `--treatment`), each replicated over `--seeds`
/// replicate seeds anchored on the baseline master seed. Exit codes:
/// 0 on success, 1 on pipeline failure, 2 on bad options.
fn ab_cmd(args: &Args) {
    let resolve = |label: &str, name: &str| -> Scenario {
        match ab::scenario_by_name(name, args.scales[0], args.seed) {
            Some(s) => s,
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
    let baseline_name = args.baseline.clone().unwrap_or_else(|| "paper".to_string());
    let Some(treatment_name) = args.treatment.clone() else {
        eprintln!("ab needs --treatment <scenario>\n{}", usage());
        std::process::exit(2);
    };
    let mut baseline = resolve("baseline", &baseline_name);
    let mut treatment = resolve("treatment", &treatment_name);
    if let Some(n) = args.threads {
        baseline = baseline.with_threads(n);
        treatment = treatment.with_threads(n);
    }
    let options = replicate::ReplicateOptions {
        seeds: args.seeds,
        resamples: args.resamples,
        level: args.level,
    };
    eprintln!(
        "ab: {} vs {} over {} paired seeds",
        baseline.name, treatment.name, options.seeds
    );
    let cmp = match ab::ab_compare(&baseline, &treatment, options, &taster::sim::Obs::off()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("ab failed: {e}");
            std::process::exit(1);
        }
    };
    match args.format.as_str() {
        "text" => print!("{}", ab::render_ab(&cmp)),
        "json" => print!("{}", ab::render_ab_json(&cmp)),
        other => {
            eprintln!("unknown format {other}; known: text json");
            std::process::exit(2);
        }
    }
}
