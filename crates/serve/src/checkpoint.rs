//! Crash-safe epoch checkpoints: a chain of per-epoch deltas.
//!
//! Each seal writes `ckpt-<epoch:08>.bin` holding only what that epoch
//! added to the daemon's collection state: for each of the ten feeds,
//! the per-domain stats applied since the previous seal (sorted by
//! domain id, so the bytes are deterministic), the FQDN hashes noted
//! (ascending), the sample count and the gap markers, plus the row
//! cursor and a configuration fingerprint. The last epoch's delta is
//! taken before its source tails drain, because a resume replays those
//! itself.
//!
//! `serve --resume` folds the longest run of consecutive valid files
//! `ckpt-1..k` with [`Feed::merge`] — commutative and associative, so
//! the fold is the state after epoch k — and replays only the rows
//! after it. Restoring and replaying yields output byte-identical to
//! an uninterrupted run; the kill-and-resume tests pin this. A fresh
//! run removes the directory's `ckpt-*` files and starts a new chain,
//! and a resume removes the files past its chain, so the directory
//! only ever holds one chain.
//!
//! Durability protocol: encode to `ckpt-<epoch>.tmp`, fsync-free
//! atomic `rename` to `ckpt-<epoch>.bin`. A crash mid-write leaves
//! only a `.tmp`; a torn or rotted file fails the trailing FNV-1a
//! checksum and ends the chain there, so the resume starts from the
//! epoch before it. A file from another configuration (including the
//! full-state checkpoints of the `v1` format) is a typed fingerprint
//! error, never folded.
//!
//! Disk footprint: the chain stores each domain once per epoch that
//! touched it. For a scale-1 world at 50 000 events per epoch that is
//! about 56 MB in all, against the two 26.5 MB full-state files the
//! `v1` format kept while rewriting 1.18 GB over the run.

use crate::error::ServeError;
use std::path::Path;
use taster_domain::DomainId;
use taster_feeds::feed::DomainStats;
use taster_feeds::{Feed, FeedId};
use taster_sim::{SimTime, TimeWindow};

const MAGIC: &[u8; 8] = b"TSTRCKP1";

/// One link of the chain: what one epoch added.
#[derive(Debug)]
pub struct Checkpoint {
    /// Scenario fingerprint; a resume under a different seed, scale,
    /// profile or epoch size must be refused, not silently blended.
    pub fingerprint: String,
    /// The epoch this delta sealed (1-based).
    pub epoch: u64,
    /// Time-sorted event rows ingested when it sealed.
    pub rows_done: u64,
    /// The epoch's delta: ten feeds in [`FeedId::ALL`] order, restored
    /// in the building state so a resume can fold them.
    pub feeds: Vec<Feed>,
}

/// The state a resume restores: a checkpoint chain folded.
#[derive(Debug)]
pub(crate) struct Chain {
    /// The last epoch folded (`ckpt-1..=epoch`).
    pub(crate) epoch: u64,
    /// Time-sorted event rows ingested at that epoch.
    pub(crate) rows_done: u64,
    /// Everything the chain's epochs added, building, in
    /// [`FeedId::ALL`] order.
    pub(crate) feeds: Vec<Feed>,
    /// Summed size of the folded files.
    pub(crate) bytes: u64,
}

/// The file name of epoch `epoch`'s checkpoint.
fn file_name(epoch: u64) -> String {
    format!("ckpt-{epoch:08}.bin")
}

/// The epoch whose checkpoint file is named `name`, if any.
fn chain_epoch(name: &str) -> Option<u64> {
    let epoch = name
        .strip_prefix("ckpt-")?
        .strip_suffix(".bin")?
        .parse()
        .ok()?;
    (name == file_name(epoch)).then_some(epoch)
}

/// FNV-1a 64-bit, the repo's deterministic hash of choice.
fn fnv1a64(bytes: &[u8]) -> u64 {
    taster_sim::rng::fnv1a64(taster_sim::rng::FNV1A64_OFFSET, bytes)
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u64(out, b.len() as u64);
    out.extend_from_slice(b);
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ServeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| ServeError::Checkpoint("truncated checkpoint".to_string()))?;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| ServeError::Checkpoint("truncated checkpoint".to_string()))?;
        self.pos = end;
        Ok(slice)
    }

    fn u64(&mut self) -> Result<u64, ServeError> {
        let raw = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(raw);
        Ok(u64::from_le_bytes(b))
    }

    fn bytes(&mut self) -> Result<&'a [u8], ServeError> {
        let n = self.u64()?;
        let n = usize::try_from(n)
            .map_err(|_| ServeError::Checkpoint("absurd length field".to_string()))?;
        if n > self.buf.len() {
            return Err(ServeError::Checkpoint("length exceeds payload".to_string()));
        }
        self.take(n)
    }
}

impl Checkpoint {
    /// Serializes the checkpoint: deterministic, the same state always
    /// produces the same bytes.
    pub fn encode(&self) -> Vec<u8> {
        encode(&self.fingerprint, self.epoch, self.rows_done, &self.feeds)
    }

    /// Parses and validates checkpoint bytes. Any truncation, type
    /// confusion or bit rot fails the checksum or a structural check —
    /// decoding never panics.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, ServeError> {
        if bytes.len() < MAGIC.len() + 8 {
            return Err(ServeError::Checkpoint("file too short".to_string()));
        }
        let (payload, tail) = bytes.split_at(bytes.len() - 8);
        let mut sum = [0u8; 8];
        sum.copy_from_slice(tail);
        if fnv1a64(payload) != u64::from_le_bytes(sum) {
            return Err(ServeError::Checkpoint("checksum mismatch".to_string()));
        }
        let mut r = Reader {
            buf: payload,
            pos: 0,
        };
        if r.take(MAGIC.len())? != MAGIC {
            return Err(ServeError::Checkpoint("bad magic".to_string()));
        }
        let fingerprint = String::from_utf8(r.bytes()?.to_vec())
            .map_err(|_| ServeError::Checkpoint("fingerprint is not UTF-8".to_string()))?;
        let epoch = r.u64()?;
        let rows_done = r.u64()?;
        let n_feeds = r.u64()?;
        if n_feeds != FeedId::ALL.len() as u64 {
            return Err(ServeError::Checkpoint(format!(
                "checkpoint carries {n_feeds} feeds, need {}",
                FeedId::ALL.len()
            )));
        }
        let mut feeds = Vec::with_capacity(FeedId::ALL.len());
        for &id in FeedId::ALL.iter() {
            let stored = r.u64()?;
            if stored != id.index() as u64 {
                return Err(ServeError::Checkpoint(format!(
                    "feed order mismatch: expected {} got {stored}",
                    id.index()
                )));
            }
            let reports_volume = r.u64()? != 0;
            let samples = if r.u64()? != 0 { Some(r.u64()?) } else { None };
            let n_entries = r.u64()?;
            let mut entries = Vec::with_capacity(n_entries.min(1 << 24) as usize);
            for _ in 0..n_entries {
                let d = r.u64()?;
                let d = u32::try_from(d)
                    .map_err(|_| ServeError::Checkpoint("domain id overflow".to_string()))?;
                let first_seen = SimTime(r.u64()?);
                let last_seen = SimTime(r.u64()?);
                let volume = r.u64()?;
                entries.push((
                    DomainId(d),
                    DomainStats {
                        first_seen,
                        last_seen,
                        volume,
                    },
                ));
            }
            let fqdns = if r.u64()? != 0 {
                let n = r.u64()?;
                let mut v = Vec::with_capacity(n.min(1 << 24) as usize);
                for _ in 0..n {
                    v.push(r.u64()?);
                }
                Some(v)
            } else {
                None
            };
            let n_gaps = r.u64()?;
            let mut gaps = Vec::with_capacity(n_gaps.min(1 << 16) as usize);
            for _ in 0..n_gaps {
                let start = SimTime(r.u64()?);
                let end = SimTime(r.u64()?);
                gaps.push(TimeWindow::new(start, end));
            }
            feeds.push(Feed::from_parts(
                id,
                reports_volume,
                samples,
                entries,
                fqdns,
                gaps,
            ));
        }
        if r.pos != payload.len() {
            return Err(ServeError::Checkpoint("trailing garbage".to_string()));
        }
        Ok(Checkpoint {
            fingerprint,
            epoch,
            rows_done,
            feeds,
        })
    }
}

/// Serializes one epoch's delta. Deterministic: per-feed entries are
/// sorted by domain id and FQDN hashes ascending (a sealed delta is
/// already in order), so the same state always produces the same
/// bytes.
fn encode(fingerprint: &str, epoch: u64, rows_done: u64, feeds: &[Feed]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    put_bytes(&mut out, fingerprint.as_bytes());
    put_u64(&mut out, epoch);
    put_u64(&mut out, rows_done);
    put_u64(&mut out, feeds.len() as u64);
    for feed in feeds {
        put_u64(&mut out, feed.id.index() as u64);
        put_u64(&mut out, u64::from(feed.reports_volume));
        match feed.samples {
            Some(s) => {
                put_u64(&mut out, 1);
                put_u64(&mut out, s);
            }
            None => put_u64(&mut out, 0),
        }
        // Ascending domain order, whether the feed is sealed or not.
        let entries: Vec<(DomainId, DomainStats)> = feed.iter().collect();
        put_u64(&mut out, entries.len() as u64);
        for (d, s) in entries {
            put_u64(&mut out, u64::from(d.0));
            put_u64(&mut out, s.first_seen.0);
            put_u64(&mut out, s.last_seen.0);
            put_u64(&mut out, s.volume);
        }
        match feed.fqdn_hashes_sorted() {
            Some(hashes) => {
                put_u64(&mut out, 1);
                put_u64(&mut out, hashes.len() as u64);
                for &h in hashes.iter() {
                    put_u64(&mut out, h);
                }
            }
            None => put_u64(&mut out, 0),
        }
        let gaps = feed.gaps();
        put_u64(&mut out, gaps.len() as u64);
        for g in gaps {
            put_u64(&mut out, g.start.0);
            put_u64(&mut out, g.end.0);
        }
    }
    let sum = fnv1a64(&out);
    put_u64(&mut out, sum);
    out
}

/// Writes epoch `epoch`'s delta under `dir` with the atomic
/// write-then-rename protocol, returning the bytes written.
pub(crate) fn write(
    dir: &Path,
    fingerprint: &str,
    epoch: u64,
    rows_done: u64,
    delta: &[Feed],
) -> Result<u64, ServeError> {
    std::fs::create_dir_all(dir)
        .map_err(|e| ServeError::Checkpoint(format!("create {}: {e}", dir.display())))?;
    let bytes = encode(fingerprint, epoch, rows_done, delta);
    let tmp = dir.join(format!("ckpt-{epoch:08}.tmp"));
    let fin = dir.join(file_name(epoch));
    std::fs::write(&tmp, &bytes)
        .map_err(|e| ServeError::Checkpoint(format!("write {}: {e}", tmp.display())))?;
    std::fs::rename(&tmp, &fin)
        .map_err(|e| ServeError::Checkpoint(format!("rename {}: {e}", fin.display())))?;
    Ok(bytes.len() as u64)
}

/// Removes every `ckpt-*.bin` and `ckpt-*.tmp` file in `dir` except
/// the chain `ckpt-1..=keep_through`; other files stay. A fresh run
/// passes 0, a resume its chain's last epoch: under a delta chain a
/// stale file would be folded into the wrong state. A missing
/// directory has nothing to clear.
pub(crate) fn clear(dir: &Path, keep_through: u64) -> Result<(), ServeError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => {
            return Err(ServeError::Checkpoint(format!(
                "read {}: {e}",
                dir.display()
            )))
        }
    };
    for entry in entries {
        let path = entry
            .map_err(|e| ServeError::Checkpoint(format!("read {}: {e}", dir.display())))?
            .path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let ours = name.starts_with("ckpt-") && (name.ends_with(".bin") || name.ends_with(".tmp"));
        let kept = chain_epoch(name).is_some_and(|e| (1..=keep_through).contains(&e));
        if ours && !kept {
            std::fs::remove_file(&path)
                .map_err(|e| ServeError::Checkpoint(format!("remove {}: {e}", path.display())))?;
        }
    }
    Ok(())
}

/// Folds the longest run of consecutive valid checkpoints `ckpt-1..k`
/// in `dir` into the state after epoch k. The chain ends at the first
/// epoch whose file is missing, torn or corrupt, so a crash mid-write
/// degrades to the epoch before it. A file written for another
/// configuration is a typed error, never folded. Returns `None` when
/// `ckpt-1` is unusable.
pub(crate) fn load_chain(dir: &Path, fingerprint: &str) -> Result<Option<Chain>, ServeError> {
    let mut chain: Option<Chain> = None;
    for epoch in 1u64.. {
        let path = dir.join(file_name(epoch));
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => break,
            Err(e) => {
                return Err(ServeError::Checkpoint(format!(
                    "read {}: {e}",
                    path.display()
                )))
            }
        };
        let Ok(ckpt) = Checkpoint::decode(&bytes) else {
            break; // torn write or bit rot: resume from the epoch before
        };
        if ckpt.fingerprint != fingerprint {
            return Err(ServeError::Checkpoint(format!(
                "fingerprint mismatch in {}: checkpoint is for `{}`, this run is `{}`",
                path.display(),
                ckpt.fingerprint,
                fingerprint
            )));
        }
        if ckpt.epoch != epoch || ckpt.rows_done < chain.as_ref().map_or(0, |c| c.rows_done) {
            break; // a header that contradicts its file name ends the chain
        }
        let size = bytes.len() as u64;
        let Some(c) = chain.as_mut() else {
            chain = Some(Chain {
                epoch,
                rows_done: ckpt.rows_done,
                feeds: ckpt.feeds,
                bytes: size,
            });
            continue;
        };
        for (acc, delta) in c.feeds.iter_mut().zip(ckpt.feeds) {
            if acc.reports_volume != delta.reports_volume {
                return Err(ServeError::Checkpoint(format!(
                    "{} disagrees with its chain on feed {}",
                    path.display(),
                    acc.id
                )));
            }
            acc.merge(delta);
        }
        c.epoch = epoch;
        c.rows_done = ckpt.rows_done;
        c.bytes += size;
    }
    Ok(chain)
}
