//! The `serve-ingest` iterations: a real `taster serve` daemon driven by
//! a closed-loop client, and the traced in-process drive of the same
//! engine.

use crate::{peak_rss_bytes, world_counts, write_report, Layers, Metrics, Opts};
use rand::RngExt;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;
use taster::ecosystem::GroundTruth;
use taster::mailsim::MailWorld;
use taster::serve::protocol::parse_reply;
use taster::serve::{ServeConfig, ServeCore, ServeError};
use taster::sim::metrics::{MetricsRegistry, Stopwatch};
use taster::sim::rng::name_key;
use taster::sim::RngStream;

/// `taster serve`'s default `--epoch-events` and `--tick-rows`; the
/// traced drive uses them so it seals at the daemon's boundaries.
const EPOCH_EVENTS: usize = 50_000;
const TICK_ROWS: usize = 8_192;
/// Client-side deadline on every socket read and write. A seal with its
/// checkpoint write, or the final report render, stalls a reply for
/// well under a second at scale 1.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// How long the daemon may take to answer its first `status`, and to
/// finish ingesting after that.
const SETUP_LIMIT_S: f64 = 120.0;
const INGEST_LIMIT_S: f64 = 150.0;
/// Pause between a reply and the next request. The daemon serves every
/// connection already queued before it goes back to ingesting, and sheds
/// past `--max-pending` per tick; a client that reconnects within
/// microseconds can win that race eight times running and be shed. One
/// user who reads each reply is not that client.
const THINK: Duration = Duration::from_millis(1);

/// Kills and reaps the daemon if the client bails out early.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
        }
        let _ = self.0.wait();
    }
}

/// Client-side request counts. Every `ERR` reply, timeout, shed or
/// reset is a failure; latency is recorded for completed requests only.
#[derive(Default)]
struct Client {
    attempted: u64,
    failed: u64,
    latencies_us: Vec<u64>,
}

impl Client {
    fn send(&mut self, socket: &Path, query: &str, timed: bool) -> Option<String> {
        self.attempted += 1;
        let sw = MetricsRegistry::stopwatch();
        match exchange(socket, query) {
            Ok(body) => {
                if timed {
                    self.latencies_us.push(sw.elapsed_micros());
                }
                Some(body)
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("e2ebench: `{query}` failed: {e}");
                None
            }
        }
    }

    /// Nearest-rank percentile of completed-request latency.
    fn percentile_us(&self, p: f64) -> f64 {
        let mut v = self.latencies_us.clone();
        v.sort_unstable();
        let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len().max(1));
        v.get(rank - 1).map_or(0.0, |x| *x as f64)
    }
}

/// Starts the daemon, waits for its first answer, then sends a
/// keyed-RNG mix of `status`/`epoch`/`feeds` (one connection at a time)
/// until `status` reports ingestion complete, fetches the final report,
/// reads the daemon's counters and peak RSS, and shuts it down.
pub(crate) fn run_daemon(o: &Opts, clock: &Stopwatch) -> Result<Metrics, String> {
    std::fs::create_dir_all(&o.workdir).map_err(|e| format!("workdir: {e}"))?;
    let socket = o.workdir.join("s.sock");
    let log_path = o.workdir.join("daemon.log");
    let log = std::fs::File::create(&log_path).map_err(|e| format!("daemon log: {e}"))?;
    let child = Command::new(&o.taster)
        .arg("serve")
        .args([
            "--scale",
            &o.scale.to_string(),
            "--seed",
            &o.seed.to_string(),
        ])
        .args(["--threads", "1"])
        .arg("--socket")
        .arg(&socket)
        .arg("--checkpoint-dir")
        .arg(o.workdir.join("ck"))
        .arg("--final-report")
        .arg(&o.report)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(log)
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", o.taster.display()))?;
    let mut daemon = Daemon(child);
    let pid = daemon.0.id().to_string();

    // Set-up ends at the first answered request.
    loop {
        if exchange(&socket, "status").is_ok() {
            break;
        }
        if let Ok(Some(status)) = daemon.0.try_wait() {
            return Err(format!(
                "daemon exited during set-up ({status}); see {}",
                log_path.display()
            ));
        }
        if clock.elapsed_secs() > SETUP_LIMIT_S {
            return Err("daemon never answered `status`".to_string());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let setup_s = clock.elapsed_secs();

    let mut client = Client::default();
    let key = name_key("e2ebench/client-mix");
    let mut sealed = false;
    let mut index = 0u64;
    let (rows, ingest_s) = loop {
        if clock.elapsed_secs() - setup_s > INGEST_LIMIT_S {
            return Err("ingestion never completed".to_string());
        }
        // Before the first seal only `status` can succeed; `epoch` and
        // `feeds` would get a typed not-ready.
        let query = if sealed {
            let mut rng = RngStream::child_keyed(o.seed, key, index);
            index += 1;
            ["status", "epoch", "feeds"][rng.random_range(0..3usize)]
        } else {
            "status"
        };
        std::thread::sleep(THINK);
        let Some(body) = client.send(&socket, query, true) else {
            continue;
        };
        if query != "status" {
            continue;
        }
        let status = Status::parse(&body);
        sealed = status.get("epoch").is_some_and(|e| e > 0);
        if status.text("complete") == Some("true") {
            break (status.total_rows, clock.elapsed_secs() - setup_s);
        }
    };

    let report = client
        .send(&socket, "report", false)
        .ok_or("the final report request failed")?;
    let report_s = clock.elapsed_secs();
    // This `status` is served after the loop iteration that writes the
    // `--final-report` file, so the file is complete once it answers.
    let counters = Status::parse(&client.send(&socket, "status", false).unwrap_or_default());
    let peak = peak_rss_bytes(&pid)?;
    client.send(&socket, "shutdown", false);
    wait_exit(&mut daemon.0)?;

    let written = std::fs::read(&o.report).map_err(|e| format!("final report: {e}"))?;
    if written.strip_suffix(b"\n") != Some(report.as_bytes()) {
        return Err("the --final-report file differs from the `report` reply".to_string());
    }

    let mut m = Metrics::default();
    m.put("setup_s", setup_s);
    m.put("report_s", report_s);
    m.put("ingest_s", ingest_s);
    m.put("events", rows as f64);
    m.put("peak_rss_bytes", peak);
    m.put("attempted", client.attempted as f64);
    m.put("failed", client.failed as f64);
    m.put("query_samples", client.latencies_us.len() as f64);
    m.put("query_p50_us", client.percentile_us(0.50));
    m.put("query_p99_us", client.percentile_us(0.99));
    for key in ["requests", "sheds", "timeouts", "watchdog_trips"] {
        let value = counters
            .get(key)
            .ok_or(format!("daemon status lacks `{key}`"))?;
        m.put(&format!("serve.{key}"), value as f64);
    }
    Ok(m)
}

/// Drives `ServeCore` in process the way the daemon loop does (ingest
/// `TICK_ROWS` at a time, seal at each epoch boundary), timing each
/// call. The world is also built once on its own first, to time the
/// ecosystem and mailsim layers that `ServeCore::new` hides.
pub(crate) fn run_traced(o: &Opts, clock: &Stopwatch) -> Result<Metrics, String> {
    let scenario = o.scenario();
    let par = scenario.parallelism;
    let mut layers = Layers::new(true);
    let truth = layers
        .time("ecosystem.generate_s", || {
            GroundTruth::generate(&scenario.ecosystem, scenario.seed)
        })
        .map_err(|e| format!("generate: {e}"))?;
    let world = layers
        .time("mailsim.build_s", || {
            MailWorld::build(truth, scenario.mail.clone())
        })
        .map_err(|e| format!("mail world: {e}"))?;
    world_counts(&mut layers, &scenario, &world)?;
    drop(world);

    let ck = o.workdir.join("ck");
    let config = ServeConfig {
        epoch_events: EPOCH_EVENTS,
        checkpoint_dir: Some(ck.clone()),
    };
    let mut core = layers
        .time("serve.new_s", || ServeCore::new(&scenario, config))
        .map_err(|e| format!("serve core: {e}"))?;

    let (mut advance_s, mut seal_s, mut seal_max_s) = (0.0f64, 0.0f64, 0.0f64);
    let (mut seals, mut checkpoint_bytes) = (0u64, 0u64);
    while !core.ingest_complete() {
        let boundary = core.next_epoch_target();
        let sw = MetricsRegistry::stopwatch();
        core.advance_rows(&par, TICK_ROWS);
        advance_s += sw.elapsed_secs();
        if core.rows_done() >= boundary {
            let sw = MetricsRegistry::stopwatch();
            core.seal(&par).map_err(|e| format!("seal: {e}"))?;
            let s = sw.elapsed_secs();
            seal_s += s;
            seal_max_s = seal_max_s.max(s);
            seals += 1;
            let file = ck.join(format!("ckpt-{:08}.bin", core.epoch()));
            checkpoint_bytes += std::fs::metadata(&file)
                .map_err(|e| format!("checkpoint {}: {e}", file.display()))?
                .len();
        }
    }
    let rows = core.total_rows();
    let unique_domains: usize = core
        .sealed()
        .map_or(0, |s| s.feeds.iter().map(|f| f.unique_domains()).sum());
    let text = layers
        .time("serve.final_report_s", || {
            core.final_report(&par).map(str::to_string)
        })
        .map_err(|e| format!("final report: {e}"))?;
    let report_s = clock.elapsed_secs();
    write_report(&o.report, &text)?;

    layers.add_timed("serve.advance_s", advance_s);
    layers.add_timed("serve.seal_s", seal_s);
    let untimed_frac = layers.untimed_frac(report_s);
    let mut m = layers.out;
    m.put(
        "serve.advance_rows_per_s",
        rows as f64 / advance_s.max(1e-9),
    );
    m.put("serve.seals", seals as f64);
    m.put("serve.seal_max_ms", seal_max_s * 1e3);
    m.put("serve.checkpoint_bytes", checkpoint_bytes as f64);
    m.put("feeds.unique_domains", unique_domains as f64);
    m.put("core.report_bytes", (text.len() + 1) as f64);
    m.put("untimed_frac", untimed_frac);
    m.put("report_s", report_s);
    m.put("events", rows as f64);
    m.put("peak_rss_bytes", peak_rss_bytes("self")?);
    Ok(m)
}

/// The `status` reply body: `key value` lines, `rows done/total`.
struct Status {
    pairs: Vec<(String, String)>,
    total_rows: usize,
}

impl Status {
    fn parse(body: &str) -> Status {
        let pairs: Vec<(String, String)> = body
            .lines()
            .filter_map(|l| l.split_once(' '))
            .map(|(k, v)| (k.to_string(), v.trim().to_string()))
            .collect();
        let total_rows = pairs
            .iter()
            .find(|(k, _)| k == "rows")
            .and_then(|(_, v)| v.split_once('/'))
            .and_then(|(_, total)| total.parse().ok())
            .unwrap_or(0);
        Status { pairs, total_rows }
    }

    fn text(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn get(&self, key: &str) -> Option<u64> {
        self.text(key).and_then(|v| v.parse().ok())
    }
}

/// Waits for the drained daemon to exit; a clean shutdown exits 0.
fn wait_exit(child: &mut Child) -> Result<(), String> {
    let sw = MetricsRegistry::stopwatch();
    loop {
        match child.try_wait() {
            Ok(Some(status)) if status.success() => return Ok(()),
            Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
            Ok(None) if sw.elapsed_secs() > 30.0 => {
                return Err("daemon did not exit after `shutdown`".to_string())
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => return Err(format!("wait for daemon: {e}")),
        }
    }
}

/// One request on a fresh connection: the header line, then exactly the
/// body length it announces, every read and write under `IO_TIMEOUT`.
fn exchange(socket: &Path, query: &str) -> Result<String, ServeError> {
    let mut stream = UnixStream::connect(socket).map_err(|e| ServeError::Io(e.to_string()))?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.write_all(format!("{query}\n").as_bytes())?;
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    let mut chunk = [0u8; 64 * 1024];
    let header_end = loop {
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            break pos;
        }
        if buf.len() > 4096 {
            return Err(ServeError::Malformed("reply header too long".to_string()));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(ServeError::Io("connection closed before reply".to_string()));
        }
        buf.extend_from_slice(chunk.get(..n).unwrap_or_default());
    };
    let header = String::from_utf8_lossy(buf.get(..header_end).unwrap_or_default()).to_string();
    let mut body = buf.get(header_end + 1..).unwrap_or_default().to_vec();
    if let Some(len) = header
        .strip_prefix("OK ")
        .and_then(|s| s.trim().parse::<usize>().ok())
    {
        while body.len() < len {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(ServeError::Io("connection closed mid-body".to_string()));
            }
            body.extend_from_slice(chunk.get(..n).unwrap_or_default());
        }
    }
    parse_reply(&header, &body)
}
