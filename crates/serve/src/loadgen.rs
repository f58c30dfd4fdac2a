//! Deterministic query storms against a running daemon.
//!
//! The *sequence* of requests is a pure function of `(seed, index)`
//! via keyed RNG streams — replaying a storm replays the same
//! request mix, the same slow-loris stalls and the same kill point.
//! Only the measured latencies are wall-clock (recorded through the
//! quarantined [`MetricsRegistry::stopwatch`] like every other
//! timing in the workspace).
//!
//! A [`Storm`] shapes the misbehavior; `off` is a plain client, one
//! well-formed request per round, and three storms misbehave:
//!
//! * `slow-client` — with probability `slow_client_prob`, the client
//!   writes half a request, stalls past the daemon's read timeout, and
//!   expects a typed `ERR timeout`.
//! * `query-storm` — `burst` back-to-back requests per round,
//!   exercising admission control (`ERR overloaded`).
//! * `kill-midrun` — polls `epoch` until the daemon has sealed
//!   `kill_epoch` epochs, then sends the `die` crash hook and reports
//!   the daemon dead (the resume test takes over from there).

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
use taster_sim::RngStream;

/// How a load generator misbehaves toward the daemon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Storm {
    /// The name `taster loadgen --faults` selects it by.
    pub name: &'static str,
    /// Probability a request stalls mid-write (slow-loris).
    pub slow_client_prob: f64,
    /// Requests per round, sent back to back.
    pub burst: u32,
    /// Kill the daemon once it has sealed this many epochs (0: never).
    pub kill_epoch: u32,
}

impl Storm {
    /// A plain client: one well-formed request per round.
    pub const OFF: Storm = Storm {
        name: "off",
        slow_client_prob: 0.0,
        burst: 1,
        kill_epoch: 0,
    };

    /// Every storm, [`Storm::OFF`] first.
    pub const ALL: [Storm; 4] = [
        Storm::OFF,
        // A third of the requests stall: the daemon must time each
        // out with a typed error while the others keep getting answers.
        Storm {
            name: "slow-client",
            slow_client_prob: 0.35,
            ..Storm::OFF
        },
        // Bursts that push the daemon into admission control.
        Storm {
            name: "query-storm",
            burst: 64,
            ..Storm::OFF
        },
        // Killed without a drain after two sealed epochs; `serve
        // --resume` must replay the tail and end byte-identical.
        Storm {
            name: "kill-midrun",
            kill_epoch: 2,
            ..Storm::OFF
        },
    ];

    /// Looks a storm up by name.
    pub fn by_name(name: &str) -> Option<Storm> {
        Storm::ALL.into_iter().find(|s| s.name == name)
    }
}

impl Default for Storm {
    fn default() -> Storm {
        Storm::OFF
    }
}

/// Load-generator configuration.
pub struct LoadgenConfig {
    /// Daemon socket path.
    pub socket: PathBuf,
    /// Keyed-RNG seed for the request sequence.
    pub seed: u64,
    /// The storm's shape.
    pub storm: Storm,
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
    /// workspace's JSON output). Its `profile` key names the storm.
    pub fn render_json(&self, storm: &str, seed: u64) -> String {
        format!(
            "{{\n  \"serve\": {{\n    \"profile\": \"{storm}\",\n    \"seed\": {seed},\n    \
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
    let Storm {
        slow_client_prob,
        burst,
        kill_epoch,
        ..
    } = cfg.storm;
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
            let result = if slow_client_prob > 0.0 && rng.random_bool(slow_client_prob) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storms_fix_their_stall_burst_and_kill_point() {
        let shape =
            |name| Storm::by_name(name).map(|s| (s.slow_client_prob, s.burst, s.kill_epoch));
        assert_eq!(shape("off"), Some((0.0, 1, 0)));
        assert_eq!(shape("slow-client"), Some((0.35, 1, 0)));
        assert_eq!(shape("query-storm"), Some((0.0, 64, 0)));
        assert_eq!(shape("kill-midrun"), Some((0.0, 1, 2)));
        // Collection fault profiles are not storms.
        assert_eq!(shape("lossy-feeds"), None);
        assert_eq!(Storm::default(), Storm::OFF);
    }
}
