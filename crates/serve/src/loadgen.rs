//! Deterministic query storms against a running daemon.
//!
//! The *sequence* of requests is a pure function of `(seed, index)`
//! via keyed RNG streams — replaying a storm replays the same
//! request mix, the same slow-loris stalls and the same kill point.
//! Only the measured latencies are wall-clock (recorded through the
//! quarantined [`MetricsRegistry::stopwatch`] like every other
//! timing in the workspace).
//!
//! Three serving-side fault profiles drive the misbehavior:
//!
//! * `slow-client` — with probability `serve_slow_client_prob`, the
//!   client writes half a request, stalls past the daemon's read
//!   timeout, and expects a typed `ERR timeout`.
//! * `query-storm` — `serve_query_burst` back-to-back requests per
//!   round, exercising admission control (`ERR overloaded`).
//! * `kill-midrun` — polls `epoch` until the daemon has sealed
//!   `serve_kill_epoch` epochs, then sends the `die` crash hook and
//!   reports the daemon dead (the resume test takes over from there).

use crate::error::ServeError;
use crate::protocol::parse_reply;
use crate::Stream;
use rand::RngExt;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;
use taster_sim::metrics::MetricsRegistry;
use taster_sim::rng::StreamKey;
use taster_sim::{FaultProfile, RngStream};

/// Load-generator configuration.
pub struct LoadgenConfig {
    /// Daemon socket path.
    pub socket: PathBuf,
    /// Keyed-RNG seed for the request sequence.
    pub seed: u64,
    /// Serving-side fault profile shaping the storm.
    pub profile: FaultProfile,
    /// Rounds to run (each round is 1 request, or a burst under
    /// `query-storm`).
    pub rounds: usize,
    /// Per-socket-operation deadline on the client side.
    pub request_timeout: Duration,
}

/// What the storm observed, by typed outcome.
#[derive(Debug, Default)]
pub struct LoadgenOutcome {
    /// Requests attempted.
    pub sent: u64,
    /// `OK` replies.
    pub ok: u64,
    /// `ERR timeout` replies (or client-side deadline hits).
    pub timeouts: u64,
    /// `ERR overloaded` replies (admission control sheds).
    pub overloaded: u64,
    /// `ERR not-ready` replies.
    pub not_ready: u64,
    /// Other typed `ERR` replies.
    pub other_errors: u64,
    /// Transport failures (daemon gone, connection reset).
    pub io_errors: u64,
    /// The `die` hook fired and the daemon stopped answering.
    pub killed_daemon: bool,
    /// Round-trip latency of every completed request, microseconds.
    pub latencies_micros: Vec<u64>,
}

impl LoadgenOutcome {
    /// The `p`-th percentile (0–100) of observed latencies.
    pub fn percentile_micros(&self, p: f64) -> u64 {
        if self.latencies_micros.is_empty() {
            return 0;
        }
        let mut sorted = self.latencies_micros.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted.get(rank.min(sorted.len() - 1)).copied().unwrap_or(0)
    }

    /// Serving-path latency summary as a JSON object, in the
    /// `BENCH_pipeline.json` family (hand-rolled like the rest of the
    /// workspace's JSON output).
    pub fn render_json(&self, profile: &str, seed: u64) -> String {
        format!(
            "{{\n  \"serve\": {{\n    \"profile\": \"{profile}\",\n    \"seed\": {seed},\n    \
             \"sent\": {},\n    \"ok\": {},\n    \"timeouts\": {},\n    \"overloaded\": {},\n    \
             \"not_ready\": {},\n    \"other_errors\": {},\n    \"io_errors\": {},\n    \
             \"killed_daemon\": {},\n    \"latency_micros\": {{\n      \"p50\": {},\n      \
             \"p90\": {},\n      \"p99\": {},\n      \"max\": {}\n    }}\n  }}\n}}\n",
            self.sent,
            self.ok,
            self.timeouts,
            self.overloaded,
            self.not_ready,
            self.other_errors,
            self.io_errors,
            self.killed_daemon,
            self.percentile_micros(50.0),
            self.percentile_micros(90.0),
            self.percentile_micros(99.0),
            self.latencies_micros.iter().copied().max().unwrap_or(0),
        )
    }

    fn count(&mut self, result: &Result<String, ServeError>) {
        match result {
            Ok(_) => self.ok += 1,
            Err(ServeError::Timeout(_)) => self.timeouts += 1,
            Err(ServeError::Overloaded(_)) => self.overloaded += 1,
            Err(ServeError::NotReady(_)) => self.not_ready += 1,
            Err(ServeError::Io(_)) => self.io_errors += 1,
            Err(_) => self.other_errors += 1,
        }
    }
}

/// Runs the storm. Transport-level failure to reach the daemon at all
/// (before any request succeeds) is a typed error; once the storm is
/// under way, daemon death is an observation (`killed_daemon`), not a
/// failure — that is what `kill-midrun` is for.
pub fn run(cfg: &LoadgenConfig) -> Result<LoadgenOutcome, ServeError> {
    let mut out = LoadgenOutcome::default();
    wait_for_daemon(&cfg.socket, cfg.request_timeout)?;
    let slow_prob = cfg.profile.serve_slow_client_prob;
    let burst = cfg.profile.serve_query_burst.max(1) as usize;
    let kill_epoch = cfg.profile.serve_kill_epoch;
    let queries = ["status", "epoch", "feeds"];
    let request_key = Stream::Request.key();
    let mut request_idx = 0u64;
    for round in 0..cfg.rounds {
        if kill_epoch > 0 && sealed_epoch(cfg) >= u64::from(kill_epoch) {
            out.sent += 1;
            match exchange(cfg, "die") {
                // `die` aborts before replying; any outcome other than
                // an OK means the hook landed.
                Ok(_) => out.ok += 1,
                Err(_) => out.killed_daemon = true,
            }
            return Ok(out);
        }
        for _ in 0..burst {
            let mut rng = RngStream::child_keyed(cfg.seed, request_key, request_idx);
            request_idx += 1;
            let query = queries
                .get(rng.random_range(0..queries.len()))
                .copied()
                .unwrap_or("status");
            out.sent += 1;
            let sw = MetricsRegistry::stopwatch();
            let result = if slow_prob > 0.0 && rng.random_bool(slow_prob) {
                exchange_slow(cfg, query)
            } else {
                exchange(cfg, query)
            };
            out.latencies_micros.push(sw.elapsed_micros());
            out.count(&result);
        }
        if kill_epoch > 0 {
            // A pending kill is a *poll*: give ingestion time to seal
            // the target epoch instead of burning all rounds in
            // microseconds (debug-build daemons seal slowly).
            std::thread::sleep(Duration::from_millis(50));
        }
        let _ = round;
    }
    Ok(out)
}

/// Polls until the daemon accepts a `status` request (it may still be
/// building its world when the load generator starts). Bounded: ~10s
/// of attempts, then a typed error.
fn wait_for_daemon(socket: &Path, timeout: Duration) -> Result<(), ServeError> {
    let mut last = String::new();
    for _ in 0..200 {
        match try_exchange(socket, "status", timeout, false) {
            Ok(_) => return Ok(()),
            Err(e) => last = e.to_string(),
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    Err(ServeError::Io(format!(
        "daemon at {} never became ready: {last}",
        socket.display()
    )))
}

/// Current sealed epoch, or 0 when the daemon has none (or is gone).
fn sealed_epoch(cfg: &LoadgenConfig) -> u64 {
    let Ok(body) = exchange(cfg, "epoch") else {
        return 0;
    };
    body.lines()
        .find_map(|l| l.strip_prefix("epoch "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

fn exchange(cfg: &LoadgenConfig, query: &str) -> Result<String, ServeError> {
    try_exchange(&cfg.socket, query, cfg.request_timeout, false)
}

/// The slow-loris client: writes half the request, stalls past any
/// reasonable server read timeout, then finishes. A guarded daemon
/// answers with `ERR timeout`; a broken one hangs (and this client's
/// own read deadline converts that into a typed timeout too).
fn exchange_slow(cfg: &LoadgenConfig, query: &str) -> Result<String, ServeError> {
    try_exchange(&cfg.socket, query, cfg.request_timeout, true)
}

fn try_exchange(
    socket: &Path,
    query: &str,
    timeout: Duration,
    stall: bool,
) -> Result<String, ServeError> {
    let stream = UnixStream::connect(socket).map_err(|e| ServeError::Io(e.to_string()))?;
    let mut stream = stream;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let line = format!("{query}\n");
    if stall {
        let bytes = line.as_bytes();
        let half = bytes.len() / 2;
        stream.write_all(bytes.get(..half).unwrap_or_default())?;
        // Stall long enough to blow the server's per-op read timeout.
        std::thread::sleep(timeout + Duration::from_millis(150));
        // The daemon may already have timed this request out, replied
        // `ERR timeout` and closed its end — then this tail write fails
        // with a broken pipe while the reply sits buffered on the
        // socket. Ignore the write error and fall through to the read
        // so the typed timeout is observed instead of an io error.
        let _ = stream.write_all(bytes.get(half..).unwrap_or_default());
    } else {
        stream.write_all(line.as_bytes())?;
    }
    // Bounded reply read: header line first, then exactly the length
    // it promises. A reply that never completes hits the read timeout.
    let deadline = MetricsRegistry::stopwatch();
    let budget = timeout.as_secs_f64() * 4.0 + 1.0;
    let mut buf: Vec<u8> = Vec::with_capacity(256);
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            break pos;
        }
        if deadline.elapsed_secs() > budget {
            return Err(ServeError::Timeout(
                "reply header never arrived".to_string(),
            ));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(ServeError::Io("connection closed before reply".to_string()));
        }
        buf.extend_from_slice(chunk.get(..n).unwrap_or_default());
        if buf.len() > 64 * 1024 {
            return Err(ServeError::Malformed("reply header too long".to_string()));
        }
    };
    let header = String::from_utf8(buf.get(..header_end).unwrap_or_default().to_vec())
        .map_err(|_| ServeError::Malformed("reply header is not UTF-8".to_string()))?;
    let mut body: Vec<u8> = buf.get(header_end + 1..).unwrap_or_default().to_vec();
    if let Some(spec) = header.strip_prefix("OK ") {
        let want: usize = spec
            .trim()
            .parse()
            .map_err(|_| ServeError::Malformed(format!("bad OK length `{spec}`")))?;
        while body.len() < want {
            if deadline.elapsed_secs() > budget {
                return Err(ServeError::Timeout(
                    "reply body never completed".to_string(),
                ));
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(ServeError::Io("connection closed mid-body".to_string()));
            }
            body.extend_from_slice(chunk.get(..n).unwrap_or_default());
        }
    }
    parse_reply(&header, &body)
}
