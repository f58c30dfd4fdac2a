//! Out-of-core storage for the time-sorted event log.
//!
//! When the sorted event cache does not fit the memory budget,
//! [`GroundTruth::generate`](crate::GroundTruth::generate) writes each
//! generated row once, in generation order, to a scratch file: the
//! 16-byte row the in-core sort moves (`buffer::Row`) and its bucket of
//! 2¹¹ seconds. It counts the rows of each bucket as it writes (about
//! 3,900 counters at scale 1), and cuts the buckets into *runs*: greedy
//! ranges of whole buckets holding at most [`run_rows`] rows, but a
//! bucket wider than that is a run of its own. Two sequential passes
//! over what is on disk then sort the rows:
//!
//! 1. *distribute*: read the scratch file once and append each record to
//!    its run's region of a runs file;
//! 2. *scatter*: for each run in order, sort its records with the
//!    in-core cache's two-level sort (`buffer::sort_by_time`), sum each
//!    block of 2¹² rows (`BLOCK_ROWS`) it completes, and append the bare
//!    16-byte rows to the spill.
//!
//! The spill is fixed-width ([`ROW_BYTES`] per row, sorted row `r` at
//! byte `r × ROW_BYTES`). A row keeps only its second's low 11 bits: the
//! spill keeps its row count per bucket in memory beside the block sums,
//! and a reader rebuilds each second from a bucket cursor. Each block's
//! sum is a word-wise FNV-1a over the block's index and its rows; the
//! 8-byte trailer is the digest of the sums. Opening the spill checks
//! its length and that digest; every read checks each block it touches
//! against its sum before decoding the block straight into columns.
//! Every file lives in [`std::env::temp_dir`] under a per-process name
//! and is unlinked as soon as it is open, so nothing outlives the
//! process, however it ends.

use crate::buffer::{count_row, sort_by_time, EventBuffer, Placer, Row};
use crate::event::SpamEvent;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, ErrorKind, Write};
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use taster_sim::rng::FNV1A64_OFFSET;
use taster_sim::Obs;

/// Bytes per spilled row and per row the sort moves (`buffer::Row`).
pub const ROW_BYTES: usize = 16;

/// Bytes of a scratch or runs-file row: the row, then its bucket (`u32`).
const BUCKETED_BYTES: usize = ROW_BYTES + 4;

/// Block size of sequential reads and of the scratch and spill writers.
const IO_BYTES: usize = 1 << 20;

/// Rows per checksummed block of the spill (64 KiB). A power of two
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

/// A scratch or runs-file record: `row`, then its `bucket`.
fn bucketed(bucket: usize, row: Row) -> [u8; BUCKETED_BYTES] {
    let mut out = [0; BUCKETED_BYTES];
    out[..ROW_BYTES].copy_from_slice(&row.to_bytes());
    out[ROW_BYTES..].copy_from_slice(&(bucket as u32).to_le_bytes());
    out
}

/// Reads the [`bucketed`] records `rows` of a scratch or runs file in
/// order, a block at a time, handing each one's bucket and row to `each`.
fn for_each_record(
    file: &File,
    rows: Range<usize>,
    mut each: impl FnMut(usize, Row) -> Result<(), SpillError>,
) -> Result<(), SpillError> {
    let per_block = IO_BYTES / BUCKETED_BYTES;
    let mut block = vec![0u8; per_block * BUCKETED_BYTES];
    for lo in rows.clone().step_by(per_block) {
        let bytes = &mut block[..per_block.min(rows.end - lo) * BUCKETED_BYTES];
        file.read_exact_at(bytes, (lo * BUCKETED_BYTES) as u64)
            .map_err(|e| SpillError::io("read", e))?;
        for [row @ .., b0, b1, b2, b3] in bytes.as_chunks::<BUCKETED_BYTES>().0 {
            let bucket = u32::from_le_bytes([*b0, *b1, *b2, *b3]) as usize;
            each(bucket, Row::from_bytes(row))?;
        }
    }
    Ok(())
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

/// The sort runs of a log with `counts[b]` rows in bucket `b`: greedy
/// ranges of whole buckets holding at most `run` rows each, but a bucket
/// wider than `run` is a run of its own.
fn bucket_runs(counts: &[usize], run: usize) -> Vec<Range<usize>> {
    let mut runs = Vec::new();
    let (mut lo, mut rows) = (0, 0);
    for (b, &count) in counts.iter().enumerate() {
        if rows > 0 && rows + count > run {
            runs.push(lo..b);
            (lo, rows) = (b, 0);
        }
        rows += count;
    }
    if rows > 0 {
        runs.push(lo..counts.len());
    }
    runs
}

/// Collects generated rows in generation order, then sorts them into a
/// [`Spill`].
pub(crate) struct SpillBuilder {
    scratch: BufWriter<File>,
    /// Rows pushed per bucket of 2¹¹ seconds.
    counts: Vec<usize>,
    /// The first write failure; the generator's row sink cannot fail,
    /// so it surfaces from [`SpillBuilder::finish`].
    error: Option<SpillError>,
}

impl SpillBuilder {
    /// Opens the scratch file.
    pub(crate) fn new() -> Result<SpillBuilder, SpillError> {
        let file = scratch_file(&std::env::temp_dir(), "rows")?;
        Ok(SpillBuilder {
            scratch: BufWriter::with_capacity(IO_BYTES, file),
            counts: Vec::new(),
            error: None,
        })
    }

    /// Appends one row in generation order and counts it in its bucket.
    pub(crate) fn push(&mut self, event: &SpamEvent) {
        let record = bucketed(count_row(&mut self.counts, event.time), Row::of(event));
        if let Err(e) = self.scratch.write_all(&record) {
            self.error.get_or_insert(SpillError::io("write", e));
        }
    }

    /// Sorts the rows into the spill, in runs of whole buckets at most
    /// `run` rows wide ([`run_rows`]), under `generate/sort/distribute`
    /// and `generate/sort/scatter` spans. Freeing the scratch file, then
    /// the runs file, takes seconds at scale 10, so each free has a span
    /// too: `generate/sort/free_scratch` and `generate/sort/free_runs`.
    pub(crate) fn finish(self, run: usize, obs: &Obs) -> Result<Spill, SpillError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let scratch = (self.scratch)
            .into_inner()
            .map_err(|e| SpillError::io("write", e.into_error()))?;
        let counts = self.counts;
        let runs = bucket_runs(&counts, run);
        let runs_file = scratch_file(&std::env::temp_dir(), "runs")?;
        {
            let _span = obs.span("generate/sort/distribute");
            distribute(&scratch, &counts, &runs, run, &runs_file)?;
        }
        // The scratch rows are dead once every row sits in its run; free
        // them before the run buffer exists.
        {
            let _span = obs.span("generate/sort/free_scratch");
            drop(scratch);
        }
        let (file, sums) = {
            let _span = obs.span("generate/sort/scatter");
            scatter(&runs_file, &counts, &runs)?
        };
        {
            let _span = obs.span("generate/sort/free_runs");
            drop(runs_file);
        }
        let mut ends = counts;
        for b in 1..ends.len() {
            ends[b] += ends[b - 1];
        }
        Spill::open(file, ends, runs.len(), sums)
    }
}

/// Reads the generation-order scratch rows once and appends each to its
/// run's region of `runs_file`, in the order they come. `run` keeps the
/// runs few enough that their write buffers together stay within one
/// run's row bytes — the run buffer, which is not allocated yet.
fn distribute(
    scratch: &File,
    counts: &[usize],
    runs: &[Range<usize>],
    run: usize,
    runs_file: &File,
) -> Result<(), SpillError> {
    let cap = (run.saturating_mul(ROW_BYTES) / runs.len().max(1))
        .clamp(MIN_RUN_BUFFER, MAX_RUN_BUFFER)
        / BUCKETED_BYTES
        * BUCKETED_BYTES;
    // Each bucket's run, and each run's next byte in `runs_file`.
    let mut run_of = vec![0; counts.len()];
    let mut next = Vec::with_capacity(runs.len());
    let mut rows = 0;
    for (k, buckets) in runs.iter().enumerate() {
        run_of[buckets.clone()].fill(k);
        next.push((rows * BUCKETED_BYTES) as u64);
        rows += counts[buckets.clone()].iter().sum::<usize>();
    }
    let mut buffers: Vec<Vec<u8>> = (0..runs.len()).map(|_| Vec::with_capacity(cap)).collect();
    let flush = |buf: &mut Vec<u8>, at: &mut u64| -> Result<(), SpillError> {
        runs_file
            .write_all_at(buf, *at)
            .map_err(|e| SpillError::io("write", e))?;
        *at += buf.len() as u64;
        buf.clear();
        Ok(())
    };
    for_each_record(scratch, 0..rows, |bucket, row| {
        let Some(&k) = run_of.get(bucket) else {
            let msg = format!("a row of bucket {bucket} was never counted");
            return Err(SpillError::Corrupt(msg));
        };
        let buf = &mut buffers[k];
        buf.extend_from_slice(&bucketed(bucket, row));
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

/// Sorts each run of `runs_file` with [`sort_by_time`] and appends its
/// rows to a new spill file, summing its blocks on the way; ends the
/// file with the trailer. Returns the file and the sums.
fn scatter(
    runs_file: &File,
    counts: &[usize],
    runs: &[Range<usize>],
) -> Result<(File, Vec<u64>), SpillError> {
    let mut spill =
        BufWriter::with_capacity(IO_BYTES, scratch_file(&std::env::temp_dir(), "sorted")?);
    let mut sums = BlockSums::default();
    let (mut placed, mut bytes) = (Vec::new(), Vec::new());
    let mut first = 0;
    for buckets in runs {
        let counts = &counts[buckets.clone()];
        let len = counts.iter().sum::<usize>();
        let records = first..first + len;
        let fill = |p: &mut Placer| for_each_record(runs_file, records, |b, r| p.put(b, r));
        sort_by_time(buckets.start, counts, &mut placed, fill, |_, rows| {
            bytes.clear();
            for row in rows {
                bytes.extend_from_slice(&row.to_bytes());
            }
            sums.add(&bytes);
            spill
                .write_all(&bytes)
                .map_err(|e| SpillError::io("write", e))
        })?;
        first += len;
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

/// The finished, time-sorted spill: fixed-width rows plus the trailer,
/// with the sum of each block and the rows of each bucket. Reads are
/// positioned (`pread`), so one handle serves any number of readers.
#[derive(Debug)]
pub struct Spill {
    file: File,
    runs: usize,
    /// Block `k`'s sum, for rows `k × BLOCK_ROWS ..`.
    sums: Vec<u64>,
    /// The sorted row after bucket `b`'s last: bucket `b` holds rows
    /// `ends[b - 1] .. ends[b]`.
    ends: Vec<usize>,
}

impl Spill {
    /// Adopts a spill file whose bucket `b` ends before sorted row
    /// `ends[b]`, sorted in `runs` runs with block sums `sums`, after
    /// checking its length and that its trailer is the digest of `sums`.
    /// The rows themselves are checked block by block as they are read.
    fn open(file: File, ends: Vec<usize>, runs: usize, sums: Vec<u64>) -> Result<Self, SpillError> {
        let rows = ends.last().copied().unwrap_or(0);
        debug_assert_eq!(sums.len(), rows.div_ceil(BLOCK_ROWS));
        let body = rows * ROW_BYTES;
        let want = (body + 8) as u64;
        let len = file
            .metadata()
            .map_err(|e| SpillError::io("stat", e))?
            .len();
        if len != want {
            let msg = format!("{len} bytes on disk, {want} expected for {rows} rows");
            return Err(SpillError::Corrupt(msg));
        }
        let mut trailer = [0u8; 8];
        file.read_exact_at(&mut trailer, body as u64)
            .map_err(|e| SpillError::io("read", e))?;
        if u64::from_le_bytes(trailer) != digest(&sums) {
            return Err(SpillError::Corrupt("checksum mismatch".to_string()));
        }
        Ok(Spill {
            file,
            runs,
            sums,
            ends,
        })
    }

    /// Rows in the spill.
    pub fn rows(&self) -> usize {
        self.ends.last().copied().unwrap_or(0)
    }

    /// Sort runs the spill was built from.
    pub fn runs(&self) -> usize {
        self.runs
    }

    /// Bytes the spill occupies on disk, trailer included.
    pub fn bytes(&self) -> u64 {
        (self.rows() * ROW_BYTES + 8) as u64
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
        let end = range.end.min(self.rows());
        let start = range.start.min(end);
        let width = width.clamp(1, MAX_READ_ROWS);
        let mut buf = EventBuffer::with_capacity(width.min(end - start));
        let mut blocks = BlockReader {
            spill: self,
            bytes: Vec::new(),
            held: None,
            bucket: self.ends.partition_point(|&e| e <= start),
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

/// Reads a spill block by block, holding the last block it checked,
/// with a cursor on the bucket of the next row it decodes.
struct BlockReader<'a> {
    spill: &'a Spill,
    /// The rows of block `held`, which matched its sum.
    bytes: Vec<u8>,
    held: Option<usize>,
    bucket: usize,
}

impl BlockReader<'_> {
    /// Appends sorted rows `rows` (from the cursor's bucket on) to
    /// `out`, checking each block they touch before decoding any of its
    /// rows.
    fn decode(&mut self, rows: Range<usize>, out: &mut EventBuffer) -> Result<(), SpillError> {
        let ends = &self.spill.ends;
        let mut lo = rows.start;
        while lo < rows.end {
            while ends[self.bucket] <= lo {
                self.bucket += 1;
            }
            let k = lo / BLOCK_ROWS;
            let base = k * BLOCK_ROWS;
            let hi = rows.end.min(base + BLOCK_ROWS).min(ends[self.bucket]);
            self.hold(k)?;
            let rows = self.bytes[(lo - base) * ROW_BYTES..(hi - base) * ROW_BYTES]
                .as_chunks::<ROW_BYTES>()
                .0;
            out.extend_bucket(self.bucket, rows.iter().map(Row::from_bytes));
            lo = hi;
        }
        Ok(())
    }

    /// Makes block `k` the held block, reading it and checking it
    /// against its sum, and its rows' class codes, unless it is held
    /// already.
    fn hold(&mut self, k: usize) -> Result<(), SpillError> {
        if self.held == Some(k) {
            return Ok(());
        }
        self.held = None;
        let first = k * BLOCK_ROWS;
        self.bytes
            .resize(BLOCK_ROWS.min(self.spill.rows() - first) * ROW_BYTES, 0);
        self.spill
            .file
            .read_exact_at(&mut self.bytes, (first * ROW_BYTES) as u64)
            .map_err(|e| SpillError::io("read", e))?;
        if block_sum(k, &self.bytes) != self.spill.sums[k] {
            let msg = format!("checksum mismatch in block {k}");
            return Err(SpillError::Corrupt(msg));
        }
        let (rows, _) = self.bytes.as_chunks::<ROW_BYTES>();
        if rows.iter().any(|r| !Row::from_bytes(r).is_known()) {
            let msg = format!("unknown class codes in block {k}");
            return Err(SpillError::Corrupt(msg));
        }
        self.held = Some(k);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::tests::{edge_logs, stable_sorted as sorted};
    use crate::campaign::{DeliveryVector, TargetClass};
    use crate::ids::{BotnetId, CampaignId};
    use taster_domain::DomainId;
    use taster_sim::SimTime;

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

    /// Times with heavy ties, so stability is exercised, all in bucket
    /// 0: one bucket wider than any run.
    fn rows(n: u32) -> Vec<SpamEvent> {
        (0..n)
            .map(|i| event(u64::from((i * 7919) % 97), i))
            .collect()
    }

    /// Heavy ties too, but 291 distinct seconds across 48 buckets.
    fn spread(n: u32) -> Vec<SpamEvent> {
        (0..n)
            .map(|i| event(u64::from((i * 7919) % 97 * 1_000 + i % 3), i))
            .collect()
    }

    /// Spills `events` in runs of whole buckets at most `run` rows wide.
    fn spill_in_runs(events: &[SpamEvent], run: usize) -> Spill {
        let mut b = SpillBuilder::new().unwrap();
        for e in events {
            b.push(e);
        }
        b.finish(run, &Obs::off()).unwrap()
    }

    fn spill(events: &[SpamEvent], budget_rows: usize) -> Spill {
        spill_in_runs(events, run_rows(events.len(), budget_rows))
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
        for events in [rows(40), spread(40)] {
            let mut buf = EventBuffer::default();
            for e in &events {
                let row = Row::from_bytes(&Row::of(e).to_bytes());
                buf.extend_bucket(crate::buffer::bucket_of(e.time), [row].into_iter());
            }
            let got: Vec<SpamEvent> = (0..buf.len()).map(|r| buf.event(r)).collect();
            assert_eq!(got, events);
        }
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

    /// Runs are greedy ranges of whole buckets; a bucket wider than the
    /// run is a run of its own, and empty buckets join a neighbour.
    #[test]
    fn runs_cut_at_buckets_and_isolate_over_wide_ones() {
        let counts = [3, 0, 4, 10, 1, 1, 0, 2];
        assert_eq!(bucket_runs(&counts, 5), [0..2, 2..3, 3..4, 4..8]);
        assert_eq!(
            bucket_runs(&counts, 1),
            [0..1, 1..3, 3..4, 4..5, 5..7, 7..8]
        );
        assert_eq!(bucket_runs(&counts, usize::MAX), vec![0..counts.len()]);
        assert!(bucket_runs(&[0, 0], 5).is_empty());
    }

    #[test]
    fn spill_is_a_stable_time_sort_at_any_run_width() {
        let n = 30_000;
        let events = spread(n as u32);
        let want = sorted(&events);
        // Runs, and reads, that straddle block boundaries.
        assert_ne!(run_rows(n, 7_000) % BLOCK_ROWS, 0);
        for budget in [1, 7_000, n, usize::MAX] {
            let s = spill(&events, budget);
            // Whole buckets fill a run less than full.
            let runs = n.div_ceil(run_rows(n, budget));
            assert!((runs..=2 * runs).contains(&s.runs()), "{}", s.runs());
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
        // One bucket wider than any run is a run of its own.
        let events = rows(n as u32);
        let s = spill(&events, 1);
        assert_eq!(s.runs(), 1);
        let mut got = Vec::new();
        read(&s, 0..n, BLOCK_ROWS + 1, &mut got).unwrap();
        assert!(got == sorted(&events));
    }

    /// The edge cases the in-core sort is checked on, spilled in runs
    /// of one bucket each (every bucket wider than a 1-row run), of
    /// several buckets beside one bucket too wide for its run, and in
    /// one run.
    #[test]
    fn edge_logs_spill_as_a_stable_time_sort() {
        for events in edge_logs() {
            let want = sorted(&events);
            for run in [1, 12, usize::MAX] {
                let s = spill_in_runs(&events, run);
                let mut got = Vec::new();
                read(&s, 0..events.len(), 5, &mut got).unwrap();
                assert!(got == want, "run {run}: {events:?}");
            }
        }
        // The long log's first two buckets (6 and 5 rows) share a run of
        // 12; its third (600 rows) and its last (4) are runs of their own.
        let long = edge_logs().pop().unwrap();
        assert_eq!(spill_in_runs(&long, 12).runs(), 3);
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
            runs,
            sums,
            ends,
        } = spill(&rows(100), 30);
        file.set_len(file.metadata().unwrap().len() - 1).unwrap();
        let err = Spill::open(file, ends, runs, sums).unwrap_err();
        assert!(matches!(err, SpillError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("bytes on disk"), "{err}");
    }

    #[test]
    fn a_flipped_trailer_byte_is_rejected_at_open() {
        let Spill {
            file,
            runs,
            sums,
            ends,
        } = spill(&rows(100), 30);
        flip(&file, 100 * ROW_BYTES + 3);
        let err = Spill::open(file, ends, runs, sums).unwrap_err();
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
        let events = spread(n as u32);
        let want = sorted(&events);
        let s = spill_in_runs(&events, 5_000);
        assert!(s.runs() >= 3);
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
        let bytes: Vec<u8> = rows(3).iter().flat_map(|e| Row::of(e).to_bytes()).collect();
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

    /// A row's class word is its bytes 12–15: byte 13 holds the target
    /// tag (bits 3–4) and the low bits of its argument (5–7), byte 14
    /// the delivery tag (bit 5) and the low bits of its argument (6–7),
    /// and bits 6–7 of byte 15 are unused. A zero tag with a nonzero
    /// argument, or an unused bit set, is a code no row is packed with.
    #[test]
    fn an_unknown_tag_under_a_matching_block_sum_is_rejected() {
        for (at, byte) in [(13, 0b0010_0000), (14, 0b0100_0000), (15, 0b1000_0000)] {
            let mut s = spill(&rows(100), 30);
            s.file
                .write_all_at(&[byte], (57 * ROW_BYTES + at) as u64)
                .unwrap();
            let mut block = vec![0u8; 100 * ROW_BYTES];
            s.file.read_exact_at(&mut block, 0).unwrap();
            s.sums[0] = block_sum(0, &block);
            let err = read(&s, 0..100, 100, &mut Vec::new()).unwrap_err();
            assert!(
                matches!(&err, SpillError::Corrupt(m) if m.starts_with("unknown class codes")),
                "{err}"
            );
        }
    }
}
