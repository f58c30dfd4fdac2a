//! The guarded daemon loop: a single-threaded reactor over a Unix
//! socket, alternating bounded socket work with bounded ingestion
//! slices.
//!
//! Guardrails, each with a counter surfaced in `status`:
//!
//! * **Admission control** — at most `max_pending` requests are
//!   served per tick; everything beyond that (and everything arriving
//!   while the memory estimate exceeds `max_mem_bytes`) gets an
//!   immediate `ERR overloaded` instead of queueing unboundedly.
//! * **Deadlines** — every socket operation carries a read/write
//!   timeout and every request a total budget; a slow-loris client
//!   gets `ERR timeout`, never a stuck daemon.
//! * **Watchdog** — each ingestion slice is stopwatched; a slice that
//!   overruns its budget trips the watchdog, which halves the slice
//!   size (degrade) rather than stalling the serving path. Queries
//!   keep answering from the last sealed epoch throughout.
//! * **Graceful drain** — `shutdown` finishes the replies already
//!   accepted, then exits; `die` (gated behind `--test-hooks`)
//!   aborts the process mid-epoch for the crash-recovery tests.
//!
//! The loop is deliberately single-threaded: the container budget is
//! one core, the workspace bans thread spawns outside `sim::par`, and
//! interleaving keeps the snapshot-isolation story trivial (readers
//! see the sealed epoch; only the loop touches the building state).

use crate::core::ServeCore;
use crate::error::ServeError;
use crate::protocol::{parse_request, render_err, render_ok, Request, MAX_REQUEST_BYTES};
use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;
use taster_sim::metrics::MetricsRegistry;
use taster_sim::Parallelism;

/// Smallest ingestion slice the watchdog will degrade to.
const MIN_TICK_ROWS: usize = 1024;

/// Socket-facing configuration.
pub struct ServerConfig {
    /// Unix socket path (stale files are replaced on bind).
    pub socket: PathBuf,
    /// Per-socket-operation deadline (every read and write).
    pub request_timeout: Duration,
    /// End-to-end budget for reading one request line.
    pub request_deadline: Duration,
    /// Requests served per tick; the rest are shed.
    pub max_pending: usize,
    /// Memory ceiling for admission control; `None` disables it.
    pub max_mem_bytes: Option<u64>,
    /// Budget for one ingestion slice before the watchdog trips.
    pub watchdog: Duration,
    /// Initial rows per ingestion slice.
    pub tick_rows: usize,
    /// Where to write the final report once ingestion completes.
    pub final_report: Option<PathBuf>,
    /// Exit after ingestion completes and the report is written
    /// (instead of serving until `shutdown`).
    pub exit_when_done: bool,
    /// Enable the `die` crash hook.
    pub test_hooks: bool,
}

/// Guardrail counters, mirrored into the `status` reply.
#[derive(Debug, Default, Clone)]
pub struct ServerStats {
    /// Requests answered (OK or typed error).
    pub requests: u64,
    /// Connections shed by admission control.
    pub sheds: u64,
    /// Requests that blew a deadline.
    pub timeouts: u64,
    /// Requests rejected as malformed.
    pub malformed: u64,
    /// Watchdog trips (ingestion slice overran its budget).
    pub watchdog_trips: u64,
    /// Epochs sealed (the daemon's heartbeat).
    pub epochs_sealed: u64,
    /// Client connections that failed mid-reply.
    pub io_errors: u64,
}

impl ServerStats {
    /// The multi-line `status` reply body: ingestion progress, every
    /// guardrail counter and the seal health (milliseconds spent
    /// sealing, the longest seal, the checkpoint chain's bytes), one
    /// `key value` pair per line.
    pub fn render(&self, core: &ServeCore) -> String {
        let seals = core.seal_stats();
        format!(
            "rows {}/{}\nepoch {}\ncomplete {}\nmem_bytes {}\nrequests {}\nsheds {}\n\
             timeouts {}\nmalformed {}\nwatchdog_trips {}\nepochs_sealed {}\nio_errors {}\n\
             seal_ms_total {:.3}\nseal_ms_max {:.3}\ncheckpoint_bytes {}\n",
            core.rows_done(),
            core.total_rows(),
            core.epoch(),
            core.ingest_complete(),
            core.estimated_bytes(),
            self.requests,
            self.sheds,
            self.timeouts,
            self.malformed,
            self.watchdog_trips,
            self.epochs_sealed,
            self.io_errors,
            seals.secs_total * 1e3,
            seals.secs_max * 1e3,
            seals.checkpoint_bytes,
        )
    }
}

/// Runs the daemon until `shutdown` (or completion, with
/// `exit_when_done`). Returns the guardrail counters.
pub fn run(
    core: &mut ServeCore,
    cfg: &ServerConfig,
    par: &Parallelism,
) -> Result<ServerStats, ServeError> {
    match std::fs::remove_file(&cfg.socket) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(ServeError::Io(format!("remove stale socket: {e}"))),
    }
    let listener = UnixListener::bind(&cfg.socket)
        .map_err(|e| ServeError::Io(format!("bind {}: {e}", cfg.socket.display())))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| ServeError::Io(format!("nonblocking listener: {e}")))?;

    let mut stats = ServerStats::default();
    let mut tick_rows = cfg.tick_rows.max(MIN_TICK_ROWS);
    let mut draining = false;
    let mut report_written = cfg.final_report.is_none();

    loop {
        // Socket phase: serve up to `max_pending` requests, shed the
        // rest of this tick's arrivals. Handling is synchronous, so
        // "queue depth" and "requests per tick" are the same bound.
        let mut served_this_tick = 0usize;
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if draining {
                        shed(stream, cfg, &ServeError::ShuttingDown);
                        continue;
                    }
                    let over_mem = cfg
                        .max_mem_bytes
                        .is_some_and(|cap| core.estimated_bytes() > cap.saturating_mul(9) / 10);
                    if over_mem {
                        stats.sheds += 1;
                        shed(
                            stream,
                            cfg,
                            &ServeError::Overloaded(
                                "ingestion memory near --max-mem-bytes".to_string(),
                            ),
                        );
                        continue;
                    }
                    if served_this_tick >= cfg.max_pending {
                        stats.sheds += 1;
                        shed(
                            stream,
                            cfg,
                            &ServeError::Overloaded(format!(
                                "request queue full ({} per tick)",
                                cfg.max_pending
                            )),
                        );
                        continue;
                    }
                    served_this_tick += 1;
                    handle(stream, core, cfg, par, &mut stats, &mut draining);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(ServeError::Io(format!("accept: {e}"))),
            }
        }
        if draining {
            break;
        }

        // Ingestion phase: one bounded slice under the watchdog.
        if !core.ingest_complete() {
            let boundary = core.next_epoch_target();
            let sw = MetricsRegistry::stopwatch();
            core.advance_rows(par, tick_rows)?;
            if sw.elapsed_secs() > cfg.watchdog.as_secs_f64() {
                stats.watchdog_trips += 1;
                tick_rows = (tick_rows / 2).max(MIN_TICK_ROWS);
            }
            if core.rows_done() >= boundary {
                core.seal(par)?;
                stats.epochs_sealed += 1;
            }
        } else {
            if !report_written {
                let mut text = core.final_report(par)?.to_string();
                // `taster report` prints the render through `println!`;
                // match its trailing newline so the file is
                // byte-identical to redirected CLI output.
                text.push('\n');
                if let Some(path) = &cfg.final_report {
                    std::fs::write(path, &text)
                        .map_err(|e| ServeError::Io(format!("write {}: {e}", path.display())))?;
                }
                report_written = true;
            }
            if cfg.exit_when_done {
                break;
            }
            if served_this_tick == 0 {
                // Idle and fully ingested: don't spin on accept().
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
    let _ = std::fs::remove_file(&cfg.socket);
    Ok(stats)
}

/// Sheds a connection with a typed error, best-effort and bounded:
/// one write under the normal write timeout, then drop.
fn shed(stream: UnixStream, cfg: &ServerConfig, err: &ServeError) {
    let mut stream = stream;
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(cfg.request_timeout));
    let _ = stream.write_all(&render_err(err));
}

/// Serves one connection synchronously: bounded read, dispatch,
/// bounded write. Client misbehavior lands in `stats`, never in a
/// panic or a hang.
fn handle(
    stream: UnixStream,
    core: &mut ServeCore,
    cfg: &ServerConfig,
    par: &Parallelism,
    stats: &mut ServerStats,
    draining: &mut bool,
) {
    let mut stream = stream;
    if stream.set_nonblocking(false).is_err()
        || stream.set_read_timeout(Some(cfg.request_timeout)).is_err()
        || stream.set_write_timeout(Some(cfg.request_timeout)).is_err()
    {
        stats.io_errors += 1;
        return;
    }
    let request = read_request_line(&mut stream, cfg).and_then(|line| parse_request(&line));
    let reply: Vec<u8> = match request {
        Ok(Request::Status) => {
            stats.requests += 1;
            render_ok(&stats.render(core))
        }
        Ok(Request::Epoch) => {
            stats.requests += 1;
            match core.sealed() {
                Some(s) => render_ok(&format!(
                    "epoch {}\nrows {}\nwatermark {}\n",
                    s.epoch, s.rows_done, s.watermark.0
                )),
                None => render_err(&ServeError::NotReady("no epoch sealed yet".to_string())),
            }
        }
        Ok(Request::Feeds) => {
            stats.requests += 1;
            match core.sealed() {
                Some(s) => {
                    let mut body = String::new();
                    for feed in s.feeds.iter() {
                        body.push_str(&format!(
                            "{} samples {} domains {}\n",
                            feed.id.label(),
                            feed.samples.map_or("-".to_string(), |v| v.to_string()),
                            feed.unique_domains(),
                        ));
                    }
                    render_ok(&body)
                }
                None => render_err(&ServeError::NotReady("no epoch sealed yet".to_string())),
            }
        }
        Ok(Request::Report) => {
            stats.requests += 1;
            match core.final_report(par) {
                Ok(text) => render_ok(text),
                Err(e) => render_err(&e),
            }
        }
        Ok(Request::Shutdown) => {
            stats.requests += 1;
            *draining = true;
            render_ok("draining\n")
        }
        Ok(Request::Die) => {
            if cfg.test_hooks {
                // Crash hook: no reply, no cleanup — the whole point
                // is to model a SIGKILL mid-run for the resume tests.
                std::process::abort();
            }
            stats.malformed += 1;
            render_err(&ServeError::Malformed(
                "`die` requires --test-hooks".to_string(),
            ))
        }
        Err(e) => {
            match &e {
                ServeError::Timeout(_) => stats.timeouts += 1,
                _ => stats.malformed += 1,
            }
            render_err(&e)
        }
    };
    if stream.write_all(&reply).is_err() {
        stats.io_errors += 1;
    }
}

/// Reads one request line with three bounds: a per-read timeout (set
/// on the stream), a total deadline, and a byte cap. Never allocates
/// past the cap and never blocks past the deadline.
fn read_request_line(stream: &mut UnixStream, cfg: &ServerConfig) -> Result<String, ServeError> {
    let sw = MetricsRegistry::stopwatch();
    let mut buf: Vec<u8> = Vec::with_capacity(64);
    let mut chunk = [0u8; 64];
    loop {
        if sw.elapsed_secs() > cfg.request_deadline.as_secs_f64() {
            return Err(ServeError::Timeout(format!(
                "request exceeded its {}ms budget",
                cfg.request_deadline.as_millis()
            )));
        }
        let n = stream.read(&mut chunk)?; // per-op timeout -> typed Timeout via From
        if n == 0 {
            return Err(ServeError::Malformed(
                "connection closed mid-request".to_string(),
            ));
        }
        let got = chunk.get(..n).unwrap_or_default();
        buf.extend_from_slice(got);
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line = buf.get(..pos).unwrap_or_default();
            return String::from_utf8(line.to_vec())
                .map_err(|_| ServeError::Malformed("request is not UTF-8".to_string()));
        }
        if buf.len() > MAX_REQUEST_BYTES {
            return Err(ServeError::Malformed(format!(
                "request line exceeds {MAX_REQUEST_BYTES} bytes"
            )));
        }
    }
}
