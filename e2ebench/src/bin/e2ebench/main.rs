//! One measured iteration of the end-to-end benchmark. `run.py` starts
//! this binary once per iteration, so every iteration begins in a fresh
//! process. It prints exactly one JSON object of named numbers on
//! stdout; diagnostics go to stderr and a failure exits non-zero.
//!
//! ```text
//! e2ebench batch --seed N --scale S --threads T [--max-mem-bytes B] --report FILE [--trace]
//! e2ebench serve --taster BIN --seed N --scale S --workdir DIR --report FILE
//! e2ebench serve --trace --seed N --scale S --workdir DIR --report FILE
//! ```
//!
//! * `batch` runs the `taster report` pipeline in process, through the
//!   same public calls `Experiment::try_run_observed` and
//!   `render_report` make, so it can stamp the moment the world is
//!   built (`setup_s`).
//! * `serve` starts a real `taster serve` daemon and drives it with a
//!   closed-loop client built on `taster::serve::protocol`; with
//!   `--trace` it drives `ServeCore` in process the way the daemon loop
//!   does instead.
//!
//! With `--trace` each layer's public functions are called one at a
//! time and timed from here; nothing is added inside the crates.

mod batch;
mod serve;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use taster::core::Scenario;
use taster::ecosystem::EcosystemConfig;
use taster::mailsim::provider::PROVIDER_BUCKET;
use taster::sim::metrics::{MetricsRegistry, Stopwatch};

/// Parsed command line of one iteration.
pub(crate) struct Opts {
    pub seed: u64,
    pub scale: f64,
    pub threads: usize,
    pub max_mem_bytes: Option<u64>,
    pub report: PathBuf,
    pub workdir: PathBuf,
    pub taster: PathBuf,
    pub trace: bool,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut o = Opts {
            seed: 0,
            scale: 1.0,
            threads: 1,
            max_mem_bytes: None,
            report: PathBuf::new(),
            workdir: PathBuf::new(),
            taster: PathBuf::new(),
            trace: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--trace" {
                o.trace = true;
                continue;
            }
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let num = |v: &str| v.parse::<u64>().map_err(|e| format!("bad {flag}: {e}"));
            match flag.as_str() {
                "--seed" => o.seed = num(value)?,
                "--threads" => o.threads = num(value)?.max(1) as usize,
                "--max-mem-bytes" => o.max_mem_bytes = Some(num(value)?),
                "--scale" => {
                    o.scale = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or(format!("bad --scale {value}"))?
                }
                "--report" => o.report = PathBuf::from(value),
                "--workdir" => o.workdir = PathBuf::from(value),
                "--taster" => o.taster = PathBuf::from(value),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if o.report.as_os_str().is_empty() {
            return Err("--report is required".to_string());
        }
        Ok(o)
    }

    /// The paper-default scenario at this iteration's seed, scale,
    /// worker count and memory budget.
    pub fn scenario(&self) -> Scenario {
        let mut s = Scenario::default_paper()
            .with_scale(self.scale)
            .with_seed(self.seed)
            .with_threads(self.threads);
        s.ecosystem.max_mem_bytes = self.max_mem_bytes;
        s
    }
}

/// Named numbers, emitted in insertion order as one JSON object.
#[derive(Default)]
pub(crate) struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn put(&mut self, key: &str, value: f64) {
        self.0.push((key.to_string(), value));
    }

    fn to_json(&self) -> Result<String, String> {
        let mut fields = Vec::with_capacity(self.0.len());
        for (k, v) in &self.0 {
            if !v.is_finite() {
                return Err(format!("metric {k} is {v}"));
            }
            fields.push(format!("\"{k}\": {v}"));
        }
        Ok(format!("{{{}}}", fields.join(", ")))
    }
}

/// Times layer calls made from the benchmark's own code. Off, it calls
/// straight through, so the untraced run pays nothing for it.
pub(crate) struct Layers {
    on: bool,
    timed_s: f64,
    pub out: Metrics,
}

impl Layers {
    pub fn new(on: bool) -> Layers {
        Layers {
            on,
            timed_s: 0.0,
            out: Metrics::default(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f`; when tracing, records its wall time under `key` and
    /// adds it to the timed total.
    pub fn time<T>(&mut self, key: &str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let sw = MetricsRegistry::stopwatch();
        let value = f();
        let secs = sw.elapsed_secs();
        self.timed_s += secs;
        self.out.put(key, secs);
        value
    }

    /// Adds a time measured by the caller (summed calls) to the total.
    pub fn add_timed(&mut self, key: &str, secs: f64) {
        self.timed_s += secs;
        self.out.put(key, secs);
    }

    /// Share of `wall` not covered by a timed layer call.
    pub fn untimed_frac(&self, wall: f64) -> f64 {
        if wall <= 0.0 {
            return 0.0;
        }
        ((wall - self.timed_s) / wall).max(0.0)
    }
}

/// Provider replay work, computed from public config: out of core the
/// provider regenerates the whole log once per budget-sized bucket
/// (`crates/mailsim/src/provider.rs`), in core it makes none.
pub(crate) fn replay_passes(config: &EcosystemConfig, events: u64) -> u64 {
    if config.wants_cache(events) {
        return 0;
    }
    let bucket = config.budget_rows(events).clamp(1, PROVIDER_BUCKET) as u64;
    events.div_ceil(bucket)
}

/// Records the ecosystem/mailsim counts both traced paths share, and
/// checks the computed replay model against the cache the run built.
pub(crate) fn world_counts(
    layers: &mut Layers,
    scenario: &Scenario,
    world: &taster::mailsim::MailWorld,
) -> Result<(), String> {
    let events = world.truth.log.len as u64;
    let cached = world.truth.cache().map_or(0, |c| c.len() as u64);
    let passes = replay_passes(&scenario.ecosystem, events);
    if (passes == 0) != (cached > 0 || events == 0) {
        return Err(format!(
            "replay model says {passes} passes but the run cached {cached} of {events} events"
        ));
    }
    let out = &mut layers.out;
    out.put("ecosystem.events", events as f64);
    out.put("ecosystem.cached_events", cached as f64);
    out.put(
        "ecosystem.modelled_peak_bytes",
        taster::core::profile::budget_peak_bytes(
            &scenario.ecosystem,
            events,
            scenario.feeds.chunk_size,
        ) as f64,
    );
    out.put("mailsim.replay_passes", passes as f64);
    // Each pass regenerates every row of the log.
    out.put("mailsim.rows_replayed_per_event", passes as f64);
    Ok(())
}

/// `VmHWM` (peak resident set) of a process, in bytes.
pub(crate) fn peak_rss_bytes(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let kb = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .ok_or(format!("no VmHWM line in {path}"))?;
    Ok((kb * 1024) as f64)
}

/// Writes the report as `taster report` prints it (with the trailing
/// newline of its `println!`).
pub(crate) fn write_report(path: &Path, text: &str) -> Result<(), String> {
    let mut bytes = Vec::with_capacity(text.len() + 1);
    bytes.extend_from_slice(text.as_bytes());
    bytes.push(b'\n');
    std::fs::write(path, bytes).map_err(|e| format!("write {}: {e}", path.display()))
}

fn run(clock: &Stopwatch) -> Result<Metrics, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = args.split_first().ok_or("missing subcommand")?;
    let opts = Opts::parse(rest)?;
    match cmd.as_str() {
        "batch" => batch::run(&opts, clock),
        "serve" if opts.trace => serve::run_traced(&opts, clock),
        "serve" => serve::run_daemon(&opts, clock),
        other => Err(format!("unknown subcommand {other}")),
    }
}

fn main() -> ExitCode {
    let clock = MetricsRegistry::stopwatch();
    match run(&clock).and_then(|metrics| metrics.to_json()) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}
