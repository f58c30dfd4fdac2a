//! Out-of-core storage for the time-sorted event log.
//!
//! When the sorted event cache does not fit the memory budget,
//! [`GroundTruth::generate`](crate::GroundTruth::generate) writes each
//! generated row once, in generation order, to a scratch file, counting
//! rows per second of simulated time as it goes (`TimeSort`). That
//! per-second histogram gives every row its time-sorted position — the
//! same stable counting sort the in-core cache uses — so the scratch rows
//! become the spill in one linear distribution sort:
//!
//! 1. read the scratch file once, tag each row with its offset inside
//!    its *run* (a range of sorted positions no wider than the memory
//!    budget allows) and append it to that run's region of a runs file;
//! 2. for each run in order, scatter its rows into a run-sized buffer by
//!    offset and append the buffer to the spill.
//!
//! Runs are wide enough ([`run_rows`]) that one distribution pass gives
//! every run a write buffer of at least [`MIN_RUN_BUFFER`] bytes, so the
//! number of runs written at once stays bounded and no row costs a
//! system call of its own.
//!
//! The spill is fixed-width ([`ROW_BYTES`] per row, sorted row `r` at
//! byte `r × ROW_BYTES`) and ends with the FNV-1a trailer the serve
//! checkpoints use; opening it checks the length and the trailer before
//! anything reads a row. Every file lives in [`std::env::temp_dir`]
//! under a per-process name and is unlinked as soon as it is open, so
//! nothing outlives the process, however it ends.

use crate::buffer::{EventBuffer, NO_CHAFF};
use crate::campaign::{DeliveryVector, TargetClass};
use crate::event::SpamEvent;
use crate::ids::{BotnetId, CampaignId};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, ErrorKind, Write};
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use taster_domain::DomainId;
use taster_sim::rng::{fnv1a64, FNV1A64_OFFSET};
use taster_sim::SimTime;

/// Bytes per spilled row: time (8), campaign, advertised and chaff
/// domain (4 each), target class and delivery vector (2 each).
pub const ROW_BYTES: usize = 24;

/// A runs-file record: the spill row plus its offset inside its run.
const RECORD_BYTES: usize = ROW_BYTES + 4;

/// Block size of sequential reads and of the scratch and spill writers.
const IO_BYTES: usize = 1 << 20;

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

fn decode_row(row: &[u8]) -> Result<SpamEvent, SpillError> {
    let target = match (row[20], row[21]) {
        (0, 0) => TargetClass::BruteForce,
        (1, v) => TargetClass::Harvested(v),
        (2, 0) => TargetClass::Purchased,
        (3, 0) => TargetClass::Social,
        (tag, arg) => {
            return Err(SpillError::Corrupt(format!(
                "unknown target class {tag}/{arg}"
            )))
        }
    };
    let delivery = match (row[22], row[23]) {
        (0, 0) => DeliveryVector::Direct,
        (1, b) => DeliveryVector::Botnet(BotnetId(b)),
        (tag, arg) => {
            return Err(SpillError::Corrupt(format!(
                "unknown delivery vector {tag}/{arg}"
            )))
        }
    };
    let chaff = u32_at(row, 16);
    Ok(SpamEvent {
        time: time_of(row),
        campaign: CampaignId(u32_at(row, 8)),
        advertised: DomainId(u32_at(row, 12)),
        chaff: (chaff != NO_CHAFF).then_some(DomainId(chaff)),
        target,
        delivery,
    })
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
    /// An empty histogram pre-sized for times up to `horizon_secs`
    /// (later times still fit; the histogram grows).
    pub(crate) fn new(horizon_secs: u64) -> TimeSort {
        TimeSort {
            slots: vec![0; horizon_secs as usize + 1],
        }
    }

    /// Counts one row at `t`.
    pub(crate) fn count(&mut self, t: SimTime) {
        let i = t.0 as usize;
        if i >= self.slots.len() {
            let grown = (i + 1).max(self.slots.len() + self.slots.len() / 8);
            self.slots.resize(grown, 0);
        }
        self.slots[i] += 1;
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
        for &t in times {
            sort.count(t);
        }
        sort.start_positions();
        // Every time was counted, so every row gets a position.
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
    times: TimeSort,
    /// The first write failure; the generator's row sink cannot fail,
    /// so it surfaces from [`SpillBuilder::finish`].
    error: Option<SpillError>,
    row: [u8; ROW_BYTES],
}

impl SpillBuilder {
    /// Opens the scratch file. `horizon_secs`, the latest expected
    /// event time, pre-sizes the per-second histogram.
    pub(crate) fn new(horizon_secs: u64) -> Result<SpillBuilder, SpillError> {
        let file = scratch_file(&std::env::temp_dir(), "rows")?;
        Ok(SpillBuilder {
            scratch: BufWriter::with_capacity(IO_BYTES, file),
            rows: 0,
            times: TimeSort::new(horizon_secs),
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
        self.times.count(event.time);
        self.rows += 1;
    }

    /// Sorts the rows into the spill, in runs of [`run_rows`] sorted
    /// positions.
    pub(crate) fn finish(self, budget_rows: usize) -> Result<Spill, SpillError> {
        let SpillBuilder {
            scratch,
            rows,
            mut times,
            error,
            ..
        } = self;
        if let Some(e) = error {
            return Err(e);
        }
        let scratch = scratch
            .into_inner()
            .map_err(|e| SpillError::io("write", e.into_error()))?;
        // Sorted indices are `u32` everywhere downstream.
        let n = u32::try_from(rows)
            .map(|n| n as usize)
            .map_err(|_| SpillError::Corrupt(format!("{rows} rows exceed the u32 sorted index")))?;
        let run = run_rows(n, budget_rows);
        let runs = n.div_ceil(run);
        times.start_positions();
        let runs_file = scratch_file(&std::env::temp_dir(), "runs")?;
        distribute(&scratch, n, run, &mut times, &runs_file)?;
        // The scratch rows and the histogram are dead once every row
        // sits in its run; free them before the run buffer exists.
        drop(scratch);
        drop(times);

        let mut spill =
            BufWriter::with_capacity(IO_BYTES, scratch_file(&std::env::temp_dir(), "sorted")?);
        let mut hash = FNV1A64_OFFSET;
        let mut sorted = vec![0u8; run.min(n) * ROW_BYTES];
        let mut block = vec![0u8; IO_BYTES];
        for k in 0..runs {
            let lo = k * run;
            let len = run.min(n - lo);
            for_each_record(&runs_file, lo, len, RECORD_BYTES, &mut block, |rec| {
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
            hash = fnv1a64(hash, out);
            spill
                .write_all(out)
                .map_err(|e| SpillError::io("write", e))?;
        }
        spill
            .write_all(&hash.to_le_bytes())
            .map_err(|e| SpillError::io("write", e))?;
        let file = spill
            .into_inner()
            .map_err(|e| SpillError::io("write", e.into_error()))?;
        Ok(Spill::open(file, n)?.with_runs(runs))
    }
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

/// The finished, time-sorted spill: `rows` fixed-width rows plus the
/// FNV-1a trailer. Reads are positioned (`pread`), so one handle serves
/// any number of readers.
#[derive(Debug)]
pub struct Spill {
    file: File,
    rows: usize,
    runs: usize,
}

impl Spill {
    /// Adopts a spill file of `rows` rows after checking its length and
    /// its FNV-1a trailer.
    fn open(file: File, rows: usize) -> Result<Spill, SpillError> {
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
        let mut hash = FNV1A64_OFFSET;
        let mut block = vec![0u8; IO_BYTES.min(body.max(1))];
        let mut done = 0;
        while done < body {
            let take = block.len().min(body - done);
            let bytes = &mut block[..take];
            file.read_exact_at(bytes, done as u64)
                .map_err(|e| SpillError::io("read", e))?;
            hash = fnv1a64(hash, bytes);
            done += take;
        }
        let mut trailer = [0u8; 8];
        file.read_exact_at(&mut trailer, body as u64)
            .map_err(|e| SpillError::io("read", e))?;
        if u64::from_le_bytes(trailer) != hash {
            return Err(SpillError::Corrupt("checksum mismatch".to_string()));
        }
        Ok(Spill {
            file,
            rows,
            runs: 0,
        })
    }

    fn with_runs(mut self, runs: usize) -> Spill {
        self.runs = runs;
        self
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

    /// Replaces `out` with sorted rows `range` (clamped to the spill),
    /// each tagged with its sorted index.
    pub(crate) fn read_into(
        &self,
        range: Range<usize>,
        out: &mut EventBuffer,
    ) -> Result<(), SpillError> {
        let end = range.end.min(self.rows);
        let start = range.start.min(end);
        out.clear();
        let mut block = vec![0u8; IO_BYTES.min((end - start).max(1) * ROW_BYTES)];
        let mut r = start;
        for_each_record(
            &self.file,
            start,
            end - start,
            ROW_BYTES,
            &mut block,
            |row| {
                out.push(&decode_row(row)?, r as u32);
                r += 1;
                Ok(())
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn spill(events: &[SpamEvent], budget_rows: usize) -> Spill {
        let mut b = SpillBuilder::new(16).unwrap();
        for e in events {
            b.push(e);
        }
        b.finish(budget_rows).unwrap()
    }

    #[test]
    fn rows_round_trip_through_the_codec() {
        let mut raw = [0u8; ROW_BYTES];
        for e in rows(40) {
            encode_row(&e, &mut raw);
            assert_eq!(decode_row(&raw).unwrap(), e);
        }
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
        let mut want = events.clone();
        want.sort_by_key(|e| e.time);
        for budget in [1, 7_000, n, usize::MAX] {
            let s = spill(&events, budget);
            assert_eq!(s.runs(), n.div_ceil(run_rows(n, budget)));
            let mut buf = EventBuffer::default();
            s.read_into(0..n, &mut buf).unwrap();
            let got: Vec<SpamEvent> = (0..buf.len()).map(|r| buf.event(r)).collect();
            assert_eq!(got, want, "budget {budget}");
            assert_eq!(buf.sorted_idx, (0..n as u32).collect::<Vec<u32>>());
            // A range read carries global sorted indices.
            s.read_into(n - 10..n + 100, &mut buf).unwrap();
            assert_eq!(buf.len(), 10);
            assert_eq!(buf.sorted_idx[0], (n - 10) as u32);
            assert_eq!(buf.event(9), want[n - 1]);
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
        let mut buf = EventBuffer::default();
        s.read_into(0..10, &mut buf).unwrap();
        assert!(buf.is_empty());
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
        let Spill { file, rows, .. } = spill(&rows(100), 30);
        file.set_len(file.metadata().unwrap().len() - 1).unwrap();
        let err = Spill::open(file, rows).unwrap_err();
        assert!(matches!(err, SpillError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("bytes on disk"), "{err}");
    }

    #[test]
    fn a_spill_with_one_flipped_byte_is_rejected() {
        let Spill { file, rows, .. } = spill(&rows(100), 30);
        let mut byte = [0u8; 1];
        file.read_exact_at(&mut byte, 1234).unwrap();
        byte[0] ^= 0x10;
        file.write_all_at(&byte, 1234).unwrap();
        let err = Spill::open(file, rows).unwrap_err();
        assert_eq!(err, SpillError::Corrupt("checksum mismatch".to_string()));
    }
}
