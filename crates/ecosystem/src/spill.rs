//! Out-of-core storage for the time-sorted event log.
//!
//! When the sorted event cache does not fit the memory budget,
//! [`GroundTruth::generate`](crate::GroundTruth::generate) writes each
//! generated row once, in generation order, to a scratch file. The
//! rows become the spill in three sequential passes over what is on
//! disk:
//!
//! 1. *count*: read the scratch file once and count its rows per second
//!    of simulated time (`TimeSort`). That histogram gives every row its
//!    time-sorted position — the same stable counting sort the in-core
//!    cache uses;
//! 2. *distribute*: read the scratch file again, tag each row with its
//!    offset inside its *run* (a range of sorted positions no wider than
//!    the memory budget allows) and append it to that run's region of a
//!    runs file;
//! 3. *scatter*: for each run in order, scatter its rows into a run-sized
//!    buffer by offset, sum each block of 2¹² rows (`BLOCK_ROWS`) it
//!    completes, and append the buffer to the spill.
//!
//! Runs are wide enough ([`run_rows`]) that one distribution pass gives
//! every run a write buffer of at least [`MIN_RUN_BUFFER`] bytes, so the
//! number of runs written at once stays bounded and no row costs a
//! system call of its own.
//!
//! The spill is fixed-width ([`ROW_BYTES`] per row, sorted row `r` at
//! byte `r × ROW_BYTES`). Each block's sum is a word-wise FNV-1a over
//! the block's index and its rows; the sums stay in memory, and the
//! 8-byte trailer is the digest of them all. Opening the spill checks
//! its length and that digest; every read checks each block it touches
//! against its sum before decoding the block straight into columns.
//! Every file lives in [`std::env::temp_dir`] under a per-process name
//! and is unlinked as soon as it is open, so nothing outlives the
//! process, however it ends.

use crate::buffer::{EventBuffer, NO_CHAFF};
use crate::campaign::{DeliveryVector, TargetClass};
use crate::event::SpamEvent;
use crate::ids::BotnetId;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, ErrorKind, Write};
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use taster_sim::rng::FNV1A64_OFFSET;
use taster_sim::{Obs, SimTime};

/// Bytes per spilled row: time (8), campaign, advertised and chaff
/// domain (4 each), target class and delivery vector (2 each).
pub const ROW_BYTES: usize = 24;

/// A runs-file record: the spill row plus its offset inside its run.
const RECORD_BYTES: usize = ROW_BYTES + 4;

/// Block size of sequential reads and of the scratch and spill writers.
const IO_BYTES: usize = 1 << 20;

/// Rows per checksummed block of the spill (96 KiB). A power of two
/// that divides the default collection chunk and [`MAX_READ_ROWS`], so
/// reads that wide start and end on block boundaries, and small enough
/// that a read of a few rows fetches and checks little more than it
/// needs.
const BLOCK_ROWS: usize = 1 << 12;

/// Smallest write buffer one run gets while rows are distributed.
pub const MIN_RUN_BUFFER: usize = 16 << 10;

/// Largest write buffer one run gets while rows are distributed.
const MAX_RUN_BUFFER: usize = 4 << 20;

/// Widest sort run, in rows. Wider runs buy nothing once one
/// distribution pass suffices, and the run buffer is the sort's peak.
pub const MAX_RUN_ROWS: usize = 1 << 22;

/// Widest read of the finished spill, in rows. Wider reads buy nothing,
/// and the decoded rows stay resident while a reader consumes them.
pub const MAX_READ_ROWS: usize = 1 << 18;

/// Why a spill could not be written or read back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpillError {
    /// A system call on a spill file failed.
    Io {
        /// What was being done: `create`, `unlink`, `write`, `read`, …
        op: &'static str,
        /// The operating system's error class.
        kind: ErrorKind,
        /// The operating system's message.
        detail: String,
    },
    /// The spill does not hold what was written: a wrong length, a
    /// checksum mismatch or an undecodable row.
    Corrupt(String),
}

impl SpillError {
    fn io(op: &'static str, e: std::io::Error) -> SpillError {
        SpillError::Io {
            op,
            kind: e.kind(),
            detail: e.to_string(),
        }
    }
}

impl std::fmt::Display for SpillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpillError::Io { op, detail, .. } => write!(f, "spill {op} failed: {detail}"),
            SpillError::Corrupt(msg) => write!(f, "corrupt spill: {msg}"),
        }
    }
}

impl std::error::Error for SpillError {}

/// Distinguishes the scratch files one process creates.
static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

/// Creates a read-write scratch file in `dir` under a per-process name
/// and unlinks it at once: the returned handle is the only way to it,
/// and the kernel frees it when the handle drops.
fn scratch_file(dir: &Path, role: &str) -> Result<File, SpillError> {
    let seq = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("taster-{}-{seq}-{role}.spill", std::process::id()));
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .create_new(true)
        .open(&path)
        .map_err(|e| SpillError::io("create", e))?;
    std::fs::remove_file(&path).map_err(|e| SpillError::io("unlink", e))?;
    Ok(file)
}

/// FNV-1a's 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// One word-wise FNV-1a step. The xor and the multiplication by the
/// (odd) prime are both bijections of the running hash, so a sum over
/// a sequence of words changes whenever any one word does.
fn fnv_step(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(FNV_PRIME)
}

/// Continues `hash` over each little-endian `u64` of `bytes` (whole
/// rows, so a multiple of 8 bytes).
fn words_sum(hash: u64, bytes: &[u8]) -> u64 {
    let (words, _) = bytes.as_chunks::<8>();
    words
        .iter()
        .fold(hash, |h, w| fnv_step(h, u64::from_le_bytes(*w)))
}

/// The sum of block `k` whose rows are `bytes`: the block's index, then
/// its rows, so a block read from the wrong place fails too.
fn block_sum(k: usize, bytes: &[u8]) -> u64 {
    words_sum(fnv_step(FNV1A64_OFFSET, k as u64), bytes)
}

/// The spill's trailer: the block sums, folded the same way.
fn digest(sums: &[u64]) -> u64 {
    sums.iter().fold(FNV1A64_OFFSET, |h, &s| fnv_step(h, s))
}

/// The block sums of sorted rows handed over in order, in pieces of
/// any width.
#[derive(Default)]
struct BlockSums {
    sums: Vec<u64>,
    /// The open block's sum so far, over its first `rows` rows.
    open: u64,
    rows: usize,
}

impl BlockSums {
    /// Sums `bytes`, whole rows that follow the rows added so far.
    fn add(&mut self, mut bytes: &[u8]) {
        debug_assert_eq!(bytes.len() % ROW_BYTES, 0);
        while !bytes.is_empty() {
            if self.rows == 0 {
                self.open = block_sum(self.sums.len(), &[]);
            }
            let take = (BLOCK_ROWS - self.rows).min(bytes.len() / ROW_BYTES);
            let (head, rest) = bytes.split_at(take * ROW_BYTES);
            self.open = words_sum(self.open, head);
            self.rows += take;
            if self.rows == BLOCK_ROWS {
                self.sums.push(self.open);
                self.rows = 0;
            }
            bytes = rest;
        }
    }

    fn finish(mut self) -> Vec<u64> {
        if self.rows > 0 {
            self.sums.push(self.open);
        }
        self.sums
    }
}

fn u32_at(b: &[u8], at: usize) -> u32 {
    let mut w = [0u8; 4];
    w.copy_from_slice(&b[at..at + 4]);
    u32::from_le_bytes(w)
}

fn time_of(row: &[u8]) -> SimTime {
    let mut w = [0u8; 8];
    w.copy_from_slice(&row[..8]);
    SimTime(u64::from_le_bytes(w))
}

fn encode_row(e: &SpamEvent, out: &mut [u8; ROW_BYTES]) {
    out[..8].copy_from_slice(&e.time.0.to_le_bytes());
    out[8..12].copy_from_slice(&e.campaign.0.to_le_bytes());
    out[12..16].copy_from_slice(&e.advertised.0.to_le_bytes());
    out[16..20].copy_from_slice(&e.chaff.map_or(NO_CHAFF, |d| d.0).to_le_bytes());
    let (target, vector) = match e.target {
        TargetClass::BruteForce => (0, 0),
        TargetClass::Harvested(v) => (1, v),
        TargetClass::Purchased => (2, 0),
        TargetClass::Social => (3, 0),
    };
    let (delivery, botnet) = match e.delivery {
        DeliveryVector::Direct => (0, 0),
        DeliveryVector::Botnet(b) => (1, b.0),
    };
    out[20..].copy_from_slice(&[target, vector, delivery, botnet]);
}

fn target_of(row: &[u8]) -> Result<TargetClass, SpillError> {
    match (row[20], row[21]) {
        (0, 0) => Ok(TargetClass::BruteForce),
        (1, v) => Ok(TargetClass::Harvested(v)),
        (2, 0) => Ok(TargetClass::Purchased),
        (3, 0) => Ok(TargetClass::Social),
        (tag, arg) => Err(SpillError::Corrupt(format!(
            "unknown target class {tag}/{arg}"
        ))),
    }
}

fn delivery_of(row: &[u8]) -> Result<DeliveryVector, SpillError> {
    match (row[22], row[23]) {
        (0, 0) => Ok(DeliveryVector::Direct),
        (1, b) => Ok(DeliveryVector::Botnet(BotnetId(b))),
        (tag, arg) => Err(SpillError::Corrupt(format!(
            "unknown delivery vector {tag}/{arg}"
        ))),
    }
}

/// Appends the rows of `bytes` to `out`, one column at a time.
fn decode_rows(bytes: &[u8], out: &mut EventBuffer) -> Result<(), SpillError> {
    let (rows, _) = bytes.as_chunks::<ROW_BYTES>();
    out.time.extend(rows.iter().map(|r| time_of(r)));
    out.campaign.extend(rows.iter().map(|r| u32_at(r, 8)));
    out.advertised.extend(rows.iter().map(|r| u32_at(r, 12)));
    out.chaff.extend(rows.iter().map(|r| u32_at(r, 16)));
    for r in rows {
        out.target.push(target_of(r)?);
        out.delivery.push(delivery_of(r)?);
    }
    Ok(())
}

/// Reads records `first..first + count` of `width` bytes each from
/// `file`, one block at a time, handing each record to `each`.
fn for_each_record(
    file: &File,
    first: usize,
    count: usize,
    width: usize,
    block: &mut [u8],
    mut each: impl FnMut(&[u8]) -> Result<(), SpillError>,
) -> Result<(), SpillError> {
    let per_block = (block.len() / width).max(1);
    let mut done = 0;
    while done < count {
        let take = per_block.min(count - done);
        let bytes = &mut block[..take * width];
        file.read_exact_at(bytes, ((first + done) * width) as u64)
            .map_err(|e| SpillError::io("read", e))?;
        for record in bytes.chunks_exact(width) {
            each(record)?;
        }
        done += take;
    }
    Ok(())
}

/// The stable counting sort by second of simulated time that fixes
/// every row's sorted position, in core and out of core alike. Holds
/// rows per second, then (after [`TimeSort::start_positions`]) each
/// second's next free sorted position. Positions go out in the order
/// they are asked for, so asking in generation order keeps ties in
/// generation order.
pub(crate) struct TimeSort {
    slots: Vec<u32>,
}

impl TimeSort {
    /// An empty histogram for times up to `latest_secs`.
    pub(crate) fn new(latest_secs: u64) -> TimeSort {
        TimeSort {
            slots: vec![0; latest_secs as usize + 1],
        }
    }

    /// Counts one row at `t`; `None` when `t` is past the latest time
    /// the histogram holds.
    pub(crate) fn count(&mut self, t: SimTime) -> Option<()> {
        *self.slots.get_mut(usize::try_from(t.0).ok()?)? += 1;
        Some(())
    }

    /// Turns the counts into each second's first sorted position.
    pub(crate) fn start_positions(&mut self) {
        let mut next = 0u32;
        for slot in &mut self.slots {
            let count = *slot;
            *slot = next;
            next += count;
        }
    }

    /// The sorted position of the next row at `t`, if `t` was counted.
    pub(crate) fn position(&mut self, t: SimTime) -> Option<usize> {
        let slot = self.slots.get_mut(usize::try_from(t.0).ok()?)?;
        let pos = *slot;
        *slot += 1;
        Some(pos as usize)
    }

    /// The sorted position of every row of `times` (generation order).
    pub(crate) fn positions(times: &[SimTime]) -> Vec<u32> {
        let mut sort = TimeSort::new(times.iter().map(|t| t.0).max().unwrap_or(0));
        // The histogram reaches the latest time, so every count lands
        // and every row gets a position.
        for &t in times {
            let _ = sort.count(t);
        }
        sort.start_positions();
        times
            .iter()
            .filter_map(|&t| sort.position(t))
            .map(|p| p as u32)
            .collect()
    }
}

/// Width in rows of one sort run for `n` rows under `budget_rows`: the
/// budget, capped at [`MAX_RUN_ROWS`], but never narrower than the
/// floor at which a single distribution pass still gives each of the
/// `⌈n / run⌉` runs a [`MIN_RUN_BUFFER`] write buffer inside one run's
/// worth of row bytes. With `m = MIN_RUN_BUFFER / ROW_BYTES`, that is
/// `run² ≥ (n + run) × m`, which `run = √(n × m) + m` meets.
pub fn run_rows(n: usize, budget_rows: usize) -> usize {
    let m = MIN_RUN_BUFFER / ROW_BYTES;
    let floor = (n * m).isqrt() + m + 1;
    budget_rows.min(MAX_RUN_ROWS).max(floor).clamp(1, n.max(1))
}

/// Collects generated rows in generation order, then sorts them into a
/// [`Spill`].
pub(crate) struct SpillBuilder {
    scratch: BufWriter<File>,
    rows: u64,
    /// The latest time pushed: the width of the per-second histogram.
    latest: SimTime,
    /// The first write failure; the generator's row sink cannot fail,
    /// so it surfaces from [`SpillBuilder::finish`].
    error: Option<SpillError>,
    row: [u8; ROW_BYTES],
}

impl SpillBuilder {
    /// Opens the scratch file.
    pub(crate) fn new() -> Result<SpillBuilder, SpillError> {
        let file = scratch_file(&std::env::temp_dir(), "rows")?;
        Ok(SpillBuilder {
            scratch: BufWriter::with_capacity(IO_BYTES, file),
            rows: 0,
            latest: SimTime::ZERO,
            error: None,
            row: [0; ROW_BYTES],
        })
    }

    /// Appends one row in generation order.
    pub(crate) fn push(&mut self, event: &SpamEvent) {
        if self.error.is_some() {
            return;
        }
        encode_row(event, &mut self.row);
        if let Err(e) = self.scratch.write_all(&self.row) {
            self.error = Some(SpillError::io("write", e));
            return;
        }
        self.latest = self.latest.max(event.time);
        self.rows += 1;
    }

    /// Sorts the rows into the spill, in runs of [`run_rows`] sorted
    /// positions, under `generate/sort/count`, `generate/sort/distribute`
    /// and `generate/sort/scatter` spans. Freeing the scratch file and
    /// histogram, and then the runs file, takes seconds at scale 10, so
    /// each free has a span too: `generate/sort/free_scratch` and
    /// `generate/sort/free_runs`.
    pub(crate) fn finish(self, budget_rows: usize, obs: &Obs) -> Result<Spill, SpillError> {
        let SpillBuilder {
            scratch,
            rows,
            latest,
            error,
            ..
        } = self;
        if let Some(e) = error {
            return Err(e);
        }
        let scratch = scratch
            .into_inner()
            .map_err(|e| SpillError::io("write", e.into_error()))?;
        // The sort's positions and run offsets are `u32`.
        let n = u32::try_from(rows).map(|n| n as usize).map_err(|_| {
            SpillError::Corrupt(format!("{rows} rows exceed the u32 sort positions"))
        })?;
        let run = run_rows(n, budget_rows);
        let mut times = {
            let _span = obs.span("generate/sort/count");
            count_times(&scratch, n, latest)?
        };
        let runs_file = scratch_file(&std::env::temp_dir(), "runs")?;
        {
            let _span = obs.span("generate/sort/distribute");
            distribute(&scratch, n, run, &mut times, &runs_file)?;
        }
        // The scratch rows and the histogram are dead once every row
        // sits in its run; free them before the run buffer exists.
        {
            let _span = obs.span("generate/sort/free_scratch");
            drop(scratch);
            drop(times);
        }
        let (file, sums) = {
            let _span = obs.span("generate/sort/scatter");
            scatter(&runs_file, n, run)?
        };
        {
            let _span = obs.span("generate/sort/free_runs");
            drop(runs_file);
        }
        Spill::open(file, n, n.div_ceil(run), sums)
    }
}

/// Counts the `n` generation-order scratch rows per second, in one
/// sequential read, and turns the counts into start positions.
fn count_times(scratch: &File, n: usize, latest: SimTime) -> Result<TimeSort, SpillError> {
    let mut times = TimeSort::new(latest.0);
    let mut block = vec![0u8; IO_BYTES];
    for_each_record(scratch, 0, n, ROW_BYTES, &mut block, |row| {
        times
            .count(time_of(row))
            .ok_or_else(|| SpillError::Corrupt("row time past the latest written".to_string()))
    })?;
    times.start_positions();
    Ok(times)
}

/// Reads the generation-order scratch rows once and appends each, with
/// its offset inside its run, to that run's region of `runs_file` (run
/// `k` covers sorted positions `k × run ..`). [`run_rows`] keeps the
/// runs few enough that their write buffers together stay within one
/// run's row bytes — the run buffer, which is not allocated yet.
fn distribute(
    scratch: &File,
    n: usize,
    run: usize,
    times: &mut TimeSort,
    runs_file: &File,
) -> Result<(), SpillError> {
    let runs = n.div_ceil(run);
    let cap = (run * ROW_BYTES / runs.max(1)).clamp(MIN_RUN_BUFFER, MAX_RUN_BUFFER) / RECORD_BYTES
        * RECORD_BYTES;
    let mut buffers: Vec<Vec<u8>> = (0..runs).map(|_| Vec::new()).collect();
    let mut next: Vec<u64> = (0..runs).map(|k| (k * run * RECORD_BYTES) as u64).collect();
    let flush = |buf: &mut Vec<u8>, at: &mut u64| -> Result<(), SpillError> {
        runs_file
            .write_all_at(buf, *at)
            .map_err(|e| SpillError::io("write", e))?;
        *at += buf.len() as u64;
        buf.clear();
        Ok(())
    };
    let mut block = vec![0u8; IO_BYTES];
    for_each_record(scratch, 0, n, ROW_BYTES, &mut block, |row| {
        let pos = times
            .position(time_of(row))
            .filter(|&p| p < n)
            .ok_or_else(|| SpillError::Corrupt("row time was never counted".to_string()))?;
        let k = pos / run;
        let buf = &mut buffers[k];
        if buf.capacity() == 0 {
            buf.reserve_exact(cap);
        }
        buf.extend_from_slice(row);
        buf.extend_from_slice(&((pos - k * run) as u32).to_le_bytes());
        if buf.len() >= cap {
            flush(buf, &mut next[k])?;
        }
        Ok(())
    })?;
    for (buf, at) in buffers.iter_mut().zip(&mut next) {
        if !buf.is_empty() {
            flush(buf, at)?;
        }
    }
    Ok(())
}

/// Scatters each run of `runs_file` into sorted order in a run-sized
/// buffer and appends it to a new spill file, summing its blocks on the
/// way; ends the file with the trailer. Returns the file and the sums.
fn scatter(runs_file: &File, n: usize, run: usize) -> Result<(File, Vec<u64>), SpillError> {
    let mut spill =
        BufWriter::with_capacity(IO_BYTES, scratch_file(&std::env::temp_dir(), "sorted")?);
    let mut sums = BlockSums::default();
    let mut sorted = vec![0u8; run.min(n) * ROW_BYTES];
    let mut block = vec![0u8; IO_BYTES];
    for lo in (0..n).step_by(run) {
        let len = run.min(n - lo);
        for_each_record(runs_file, lo, len, RECORD_BYTES, &mut block, |rec| {
            let at = u32_at(rec, ROW_BYTES) as usize;
            let dst = sorted
                .get_mut(at * ROW_BYTES..(at + 1) * ROW_BYTES)
                .filter(|_| at < len)
                .ok_or_else(|| {
                    SpillError::Corrupt(format!("run offset {at} outside a {len}-row run"))
                })?;
            dst.copy_from_slice(&rec[..ROW_BYTES]);
            Ok(())
        })?;
        let out = &sorted[..len * ROW_BYTES];
        sums.add(out);
        spill
            .write_all(out)
            .map_err(|e| SpillError::io("write", e))?;
    }
    let sums = sums.finish();
    spill
        .write_all(&digest(&sums).to_le_bytes())
        .map_err(|e| SpillError::io("write", e))?;
    let file = spill
        .into_inner()
        .map_err(|e| SpillError::io("write", e.into_error()))?;
    Ok((file, sums))
}

/// The finished, time-sorted spill: `rows` fixed-width rows plus the
/// trailer, with the sum of each block. Reads are positioned (`pread`),
/// so one handle serves any number of readers.
#[derive(Debug)]
pub struct Spill {
    file: File,
    rows: usize,
    runs: usize,
    /// Block `k`'s sum, for rows `k × BLOCK_ROWS ..`.
    sums: Vec<u64>,
}

impl Spill {
    /// Adopts a spill file of `rows` rows, sorted in `runs` runs with
    /// block sums `sums`, after checking its length and that its
    /// trailer is the digest of `sums`. The rows themselves are checked
    /// block by block as they are read.
    fn open(file: File, rows: usize, runs: usize, sums: Vec<u64>) -> Result<Spill, SpillError> {
        debug_assert_eq!(sums.len(), rows.div_ceil(BLOCK_ROWS));
        let body = rows * ROW_BYTES;
        let want = (body + 8) as u64;
        let len = file
            .metadata()
            .map_err(|e| SpillError::io("stat", e))?
            .len();
        if len != want {
            return Err(SpillError::Corrupt(format!(
                "{len} bytes on disk, {want} expected for {rows} rows"
            )));
        }
        let mut trailer = [0u8; 8];
        file.read_exact_at(&mut trailer, body as u64)
            .map_err(|e| SpillError::io("read", e))?;
        if u64::from_le_bytes(trailer) != digest(&sums) {
            return Err(SpillError::Corrupt("checksum mismatch".to_string()));
        }
        Ok(Spill {
            file,
            rows,
            runs,
            sums,
        })
    }

    /// Rows in the spill.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Sort runs the spill was built from.
    pub fn runs(&self) -> usize {
        self.runs
    }

    /// Bytes the spill occupies on disk, trailer included.
    pub fn bytes(&self) -> u64 {
        (self.rows * ROW_BYTES + 8) as u64
    }

    /// Visits sorted rows `range` (clamped to the spill) in order, at
    /// most `width` rows (and at most [`MAX_READ_ROWS`]) per visit, the
    /// body of [`GroundTruth::visit_sorted`](crate::GroundTruth::visit_sorted)
    /// out of core. Each visit gets one buffer whose `first` is its
    /// first sorted index. The last block read stays held across
    /// visits, so no block is fetched and checked twice in one call,
    /// however narrow the visits. An empty range still gets one, empty,
    /// visit.
    pub(crate) fn visit<E: From<SpillError>>(
        &self,
        range: Range<usize>,
        width: usize,
        mut visit: impl FnMut(&EventBuffer, Range<usize>) -> Result<(), E>,
    ) -> Result<(), E> {
        let end = range.end.min(self.rows);
        let start = range.start.min(end);
        let width = width.clamp(1, MAX_READ_ROWS);
        let mut buf = EventBuffer::with_capacity(width.min(end - start));
        let mut blocks = BlockReader {
            spill: self,
            bytes: Vec::new(),
            held: None,
        };
        let mut lo = start;
        loop {
            let hi = end.min(lo.saturating_add(width));
            buf.clear();
            buf.first = lo;
            blocks.decode(lo..hi, &mut buf)?;
            visit(&buf, 0..buf.len())?;
            lo = hi;
            if lo >= end {
                return Ok(());
            }
        }
    }
}

/// Reads a spill block by block, holding the last block it checked.
struct BlockReader<'a> {
    spill: &'a Spill,
    /// The rows of block `held`, which matched its sum.
    bytes: Vec<u8>,
    held: Option<usize>,
}

impl BlockReader<'_> {
    /// Appends sorted rows `rows` to `out`, checking each block they
    /// touch before decoding any of its rows.
    fn decode(&mut self, rows: Range<usize>, out: &mut EventBuffer) -> Result<(), SpillError> {
        let mut lo = rows.start;
        while lo < rows.end {
            let k = lo / BLOCK_ROWS;
            let base = k * BLOCK_ROWS;
            let hi = rows.end.min(base + BLOCK_ROWS);
            self.hold(k)?;
            decode_rows(
                &self.bytes[(lo - base) * ROW_BYTES..(hi - base) * ROW_BYTES],
                out,
            )?;
            lo = hi;
        }
        Ok(())
    }

    /// Makes block `k` the held block, reading it and checking it
    /// against its sum unless it is held already.
    fn hold(&mut self, k: usize) -> Result<(), SpillError> {
        if self.held == Some(k) {
            return Ok(());
        }
        self.held = None;
        let first = k * BLOCK_ROWS;
        self.bytes
            .resize(BLOCK_ROWS.min(self.spill.rows - first) * ROW_BYTES, 0);
        self.spill
            .file
            .read_exact_at(&mut self.bytes, (first * ROW_BYTES) as u64)
            .map_err(|e| SpillError::io("read", e))?;
        if block_sum(k, &self.bytes) != self.spill.sums[k] {
            return Err(SpillError::Corrupt(format!(
                "checksum mismatch in block {k}"
            )));
        }
        self.held = Some(k);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::CampaignId;
    use taster_domain::DomainId;

    fn event(t: u64, i: u32) -> SpamEvent {
        SpamEvent {
            time: SimTime(t),
            campaign: CampaignId(i),
            advertised: DomainId(i * 3),
            chaff: i.is_multiple_of(2).then_some(DomainId(i + 7)),
            target: match i % 4 {
                0 => TargetClass::BruteForce,
                1 => TargetClass::Harvested((i % 5) as u8),
                2 => TargetClass::Purchased,
                _ => TargetClass::Social,
            },
            delivery: if i.is_multiple_of(3) {
                DeliveryVector::Direct
            } else {
                DeliveryVector::Botnet(BotnetId((i % 6) as u8))
            },
        }
    }

    /// Times with heavy ties, so stability is exercised.
    fn rows(n: u32) -> Vec<SpamEvent> {
        (0..n)
            .map(|i| event(u64::from((i * 7919) % 97), i))
            .collect()
    }

    fn sorted(events: &[SpamEvent]) -> Vec<SpamEvent> {
        let mut want = events.to_vec();
        want.sort_by_key(|e| e.time);
        want
    }

    fn spill(events: &[SpamEvent], budget_rows: usize) -> Spill {
        let mut b = SpillBuilder::new().unwrap();
        for e in events {
            b.push(e);
        }
        b.finish(budget_rows, &Obs::off()).unwrap()
    }

    /// Appends sorted rows `range` to `out`, read in visits of `width`
    /// rows, checking each visit's width and first index; stops at the
    /// first failing visit.
    fn read(
        s: &Spill,
        range: Range<usize>,
        width: usize,
        out: &mut Vec<SpamEvent>,
    ) -> Result<(), SpillError> {
        let mut next = range.start.min(s.rows());
        s.visit(range, width, |buf, rows| {
            assert!(rows.len() <= width.max(1));
            assert_eq!(buf.first, next);
            next += rows.len();
            out.extend(rows.map(|r| buf.event(r)));
            Ok(())
        })
    }

    fn flip(file: &File, at: usize) {
        let mut byte = [0u8; 1];
        file.read_exact_at(&mut byte, at as u64).unwrap();
        byte[0] ^= 0x10;
        file.write_all_at(&byte, at as u64).unwrap();
    }

    #[test]
    fn rows_round_trip_through_the_codec() {
        let events = rows(40);
        let mut bytes = Vec::new();
        let mut raw = [0u8; ROW_BYTES];
        for e in &events {
            encode_row(e, &mut raw);
            bytes.extend_from_slice(&raw);
        }
        let mut buf = EventBuffer::default();
        decode_rows(&bytes, &mut buf).unwrap();
        let got: Vec<SpamEvent> = (0..buf.len()).map(|r| buf.event(r)).collect();
        assert_eq!(got, events);
    }

    #[test]
    fn time_sort_positions_are_a_stable_argsort() {
        let times: Vec<SimTime> = rows(500).iter().map(|e| e.time).collect();
        let pos = TimeSort::positions(&times);
        let mut want: Vec<usize> = (0..times.len()).collect();
        want.sort_by_key(|&g| times[g]);
        let mut got = vec![0usize; times.len()];
        for (g, &p) in pos.iter().enumerate() {
            got[p as usize] = g;
        }
        assert_eq!(got, want);
    }

    #[test]
    fn runs_are_budget_wide_above_the_single_pass_floor() {
        let n = 1_000_000;
        let floor = run_rows(n, 1);
        assert!(floor > 1);
        // Every run's buffer fits inside one run of row bytes.
        assert!(n.div_ceil(floor) * MIN_RUN_BUFFER <= floor * ROW_BYTES);
        // A 1-row budget over scale 10's ~137 M rows sorts in one pass;
        // the run buffer, and all write buffers together, stay under
        // 8 MiB.
        let scale10 = 137_000_000;
        let run = run_rows(scale10, 1);
        assert!(run * ROW_BYTES < 8 << 20, "run of {run} rows");
        assert!(scale10.div_ceil(run) * MIN_RUN_BUFFER <= run * ROW_BYTES);
        assert_eq!(run_rows(n, floor * 3), floor * 3);
        assert_eq!(run_rows(n, usize::MAX), MAX_RUN_ROWS.min(n));
        assert_eq!(run_rows(0, 5), 1);
    }

    #[test]
    fn spill_is_a_stable_time_sort_at_any_run_width() {
        let n = 30_000;
        let events = rows(n as u32);
        let want = sorted(&events);
        // Runs, and reads, that straddle block boundaries.
        assert_ne!(run_rows(n, 7_000) % BLOCK_ROWS, 0);
        for budget in [1, 7_000, n, usize::MAX] {
            let s = spill(&events, budget);
            assert_eq!(s.runs(), n.div_ceil(run_rows(n, budget)));
            for width in [1, 7, BLOCK_ROWS - 1, BLOCK_ROWS + 1, n] {
                let mut got = Vec::new();
                read(&s, 0..n, width, &mut got).unwrap();
                assert!(got == want, "budget {budget}, width {width}");
            }
            // A range read starts at its global sorted index.
            let mut tail = Vec::new();
            read(&s, n - 10..n + 100, usize::MAX, &mut tail).unwrap();
            assert_eq!(tail, want[n - 10..]);
        }
        assert!(
            spill(&events, 1).runs() >= 3,
            "a 1-row budget sorts in runs"
        );
    }

    #[test]
    fn empty_log_spills_only_the_trailer() {
        let s = spill(&[], 4);
        assert_eq!((s.runs(), s.rows(), s.bytes()), (0, 0, 8));
        let mut visits = 0;
        s.visit(0..10, 4, |_, rows| {
            visits += 1;
            assert!(rows.is_empty());
            Ok::<(), SpillError>(())
        })
        .unwrap();
        assert_eq!(visits, 1);
    }

    #[test]
    fn a_temp_dir_under_a_regular_file_fails_with_enotdir() {
        let parent = std::env::temp_dir().join(format!("taster-spill-test-{}", std::process::id()));
        std::fs::write(&parent, b"a regular file").unwrap();
        let err = scratch_file(&parent.join("tmp"), "rows").unwrap_err();
        std::fs::remove_file(&parent).unwrap();
        match err {
            SpillError::Io { op, kind, .. } => {
                assert_eq!(op, "create");
                assert_eq!(kind, ErrorKind::NotADirectory);
            }
            other => panic!("expected an I/O error, got {other}"),
        }
    }

    #[test]
    fn a_truncated_spill_is_rejected() {
        let Spill {
            file,
            rows,
            runs,
            sums,
        } = spill(&rows(100), 30);
        file.set_len(file.metadata().unwrap().len() - 1).unwrap();
        let err = Spill::open(file, rows, runs, sums).unwrap_err();
        assert!(matches!(err, SpillError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("bytes on disk"), "{err}");
    }

    #[test]
    fn a_flipped_trailer_byte_is_rejected_at_open() {
        let Spill {
            file,
            rows,
            runs,
            sums,
        } = spill(&rows(100), 30);
        flip(&file, rows * ROW_BYTES + 3);
        let err = Spill::open(file, rows, runs, sums).unwrap_err();
        assert_eq!(err, SpillError::Corrupt("checksum mismatch".to_string()));
    }

    /// The trailer only vouches for the sums; the rows are checked as
    /// they are read, so a flip anywhere fails the first read of its
    /// block and no other.
    #[test]
    fn a_spill_with_one_flipped_byte_is_rejected() {
        // Three whole blocks and a partial fourth, sorted in runs that
        // straddle them.
        let n = 3 * BLOCK_ROWS + 100;
        let events = rows(n as u32);
        let want = sorted(&events);
        let s = spill(&events, 5_000);
        flip(&s.file, (BLOCK_ROWS + 17) * ROW_BYTES + 5);
        flip(&s.file, (3 * BLOCK_ROWS + 42) * ROW_BYTES + 9);
        let corrupt = |k: usize| {
            Err(SpillError::Corrupt(format!(
                "checksum mismatch in block {k}"
            )))
        };

        // Row-at-a-time reads get every row before the flipped block.
        let mut got = Vec::new();
        assert_eq!(read(&s, 0..n, 1, &mut got), corrupt(1));
        assert!(got == want[..BLOCK_ROWS]);
        let mut got = Vec::new();
        assert_eq!(read(&s, 2 * BLOCK_ROWS..n, 1, &mut got), corrupt(3));
        assert!(got == want[2 * BLOCK_ROWS..3 * BLOCK_ROWS]);

        // Any read that touches a flipped block fails, wherever it
        // starts and however wide it is.
        for (range, width, k) in [
            (BLOCK_ROWS + 17..BLOCK_ROWS + 18, 1, 1),
            (2 * BLOCK_ROWS - 1..2 * BLOCK_ROWS + 1, 7, 1),
            (3 * BLOCK_ROWS + 99..n, 1, 3),
            (0..n, n, 1),
        ] {
            assert_eq!(read(&s, range, width, &mut Vec::new()), corrupt(k));
        }

        // Reads of the other blocks still succeed.
        for (lo, hi) in [(0, BLOCK_ROWS), (2 * BLOCK_ROWS, 3 * BLOCK_ROWS)] {
            let mut got = Vec::new();
            read(&s, lo..hi, 7, &mut got).unwrap();
            assert!(got == want[lo..hi]);
        }
    }

    /// One pass fetches and checks each block once, however narrow its
    /// visits: a flip made after block 0 was checked goes unseen for
    /// the rest of the pass, and the next pass fails on it.
    #[test]
    fn a_pass_fetches_each_block_once_at_any_width() {
        let n = BLOCK_ROWS + 10;
        let s = spill(&rows(n as u32), n);
        let mut visits = 0;
        s.visit(0..n, 1, |_, _| {
            if visits == 0 {
                flip(&s.file, 100 * ROW_BYTES);
            }
            visits += 1;
            Ok::<(), SpillError>(())
        })
        .unwrap();
        assert_eq!(visits, n);
        assert_eq!(
            read(&s, 0..1, 1, &mut Vec::new()),
            Err(SpillError::Corrupt(
                "checksum mismatch in block 0".to_string()
            ))
        );
    }

    #[test]
    fn changing_any_one_word_changes_the_block_sum() {
        let mut bytes = Vec::new();
        let mut raw = [0u8; ROW_BYTES];
        for e in rows(3) {
            encode_row(&e, &mut raw);
            bytes.extend_from_slice(&raw);
        }
        let sum = block_sum(5, &bytes);
        assert_ne!(block_sum(4, &bytes), sum, "the block index is summed");
        for word in 0..bytes.len() / 8 {
            for delta in [1, 1 << 63, u64::MAX, 0x9E37_79B9_7F4A_7C15] {
                let mut changed = bytes.clone();
                let at = &mut changed[word * 8..word * 8 + 8];
                let w = u64::from_le_bytes(at.try_into().unwrap()) ^ delta;
                at.copy_from_slice(&w.to_le_bytes());
                assert_ne!(block_sum(5, &changed), sum, "word {word}, delta {delta:#x}");
            }
        }
    }

    #[test]
    fn an_unknown_tag_under_a_matching_block_sum_is_rejected() {
        for (at, want) in [
            (20, "unknown target class 9/"),
            (22, "unknown delivery vector 9/"),
        ] {
            let mut s = spill(&rows(100), 30);
            s.file
                .write_all_at(&[9], (57 * ROW_BYTES + at) as u64)
                .unwrap();
            let mut block = vec![0u8; 100 * ROW_BYTES];
            s.file.read_exact_at(&mut block, 0).unwrap();
            s.sums[0] = block_sum(0, &block);
            let err = read(&s, 0..100, 100, &mut Vec::new()).unwrap_err();
            assert!(
                matches!(&err, SpillError::Corrupt(m) if m.starts_with(want)),
                "{err}"
            );
        }
    }
}
