//! Crash-safe epoch checkpoints.
//!
//! A checkpoint freezes the serve daemon's *building* collection state
//! at an epoch boundary: for each of the ten feeds, the per-domain
//! stats (sorted by domain id, so the bytes are deterministic), the
//! FQDN hash set, the sample counter and the gap markers, plus the row
//! cursor and a configuration fingerprint. Restoring it and replaying
//! the remaining rows yields output byte-identical to an uninterrupted
//! run — the kill-and-resume tests pin this.
//!
//! Durability protocol: encode to `ckpt-<epoch>.tmp`, fsync-free
//! atomic `rename` to `ckpt-<epoch>.bin`. A crash mid-write leaves
//! only a `.tmp` (ignored on load); a torn read is caught by the
//! trailing FNV-1a checksum, and the loader falls back to the
//! newest checkpoint that validates.

use crate::error::ServeError;
use std::path::{Path, PathBuf};
use taster_domain::DomainId;
use taster_feeds::feed::DomainStats;
use taster_feeds::{Feed, FeedId};
use taster_sim::{SimTime, TimeWindow};

const MAGIC: &[u8; 8] = b"TSTRCKP1";

/// A frozen ingestion state: everything `serve --resume` needs.
#[derive(Debug)]
pub struct Checkpoint {
    /// Scenario fingerprint; a resume under a different seed, scale,
    /// profile or epoch size must be refused, not silently blended.
    pub fingerprint: String,
    /// Sealed epoch counter at freeze time.
    pub epoch: u64,
    /// Time-sorted event rows already ingested.
    pub rows_done: u64,
    /// The ten building feeds in [`FeedId::ALL`] order.
    pub feeds: Vec<Feed>,
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
    /// Serializes the checkpoint. Deterministic: per-feed entries are
    /// sorted by domain id and FQDN hashes ascending, so the same
    /// state always produces the same bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        put_bytes(&mut out, self.fingerprint.as_bytes());
        put_u64(&mut out, self.epoch);
        put_u64(&mut out, self.rows_done);
        put_u64(&mut out, self.feeds.len() as u64);
        for feed in &self.feeds {
            put_u64(&mut out, feed.id.index() as u64);
            put_u64(&mut out, u64::from(feed.reports_volume));
            match feed.samples {
                Some(s) => {
                    put_u64(&mut out, 1);
                    put_u64(&mut out, s);
                }
                None => put_u64(&mut out, 0),
            }
            let mut entries: Vec<(DomainId, DomainStats)> = feed.iter().collect();
            entries.sort_by_key(|(d, _)| d.0);
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
                    for h in hashes {
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

    /// Writes the checkpoint under `dir` with the atomic
    /// write-then-rename protocol, returning the final path.
    pub fn write_atomic(&self, dir: &Path) -> Result<PathBuf, ServeError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| ServeError::Checkpoint(format!("create {}: {e}", dir.display())))?;
        let tmp = dir.join(format!("ckpt-{:08}.tmp", self.epoch));
        let fin = dir.join(format!("ckpt-{:08}.bin", self.epoch));
        std::fs::write(&tmp, self.encode())
            .map_err(|e| ServeError::Checkpoint(format!("write {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, &fin)
            .map_err(|e| ServeError::Checkpoint(format!("rename {}: {e}", fin.display())))?;
        prune(dir, 2);
        Ok(fin)
    }
}

/// Best-effort removal of all but the `keep` newest checkpoints.
/// Two are kept so a crash *during* the next write still leaves a
/// fully-durable predecessor to fall back to; pruning failures are
/// ignored (disk pressure never aborts a seal).
fn prune(dir: &Path, keep: usize) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut bins: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("ckpt-") && n.ends_with(".bin"))
        })
        .collect();
    if bins.len() <= keep {
        return;
    }
    bins.sort();
    let drop = bins.len() - keep;
    for old in bins.iter().take(drop) {
        let _ = std::fs::remove_file(old);
    }
}

/// Loads the newest checkpoint in `dir` whose checksum validates and
/// whose fingerprint matches. Corrupt or foreign files are skipped
/// (newest first), so a crash mid-write degrades to the previous
/// epoch instead of failing the resume. Returns `None` when the
/// directory holds no usable checkpoint.
pub fn load_latest(dir: &Path, fingerprint: &str) -> Result<Option<Checkpoint>, ServeError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => {
            return Err(ServeError::Checkpoint(format!(
                "read {}: {e}",
                dir.display()
            )))
        }
    };
    let mut candidates: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("ckpt-") && n.ends_with(".bin"))
        })
        .collect();
    candidates.sort();
    for path in candidates.iter().rev() {
        let Ok(bytes) = std::fs::read(path) else {
            continue;
        };
        match Checkpoint::decode(&bytes) {
            Ok(ckpt) if ckpt.fingerprint == fingerprint => return Ok(Some(ckpt)),
            Ok(ckpt) => {
                return Err(ServeError::Checkpoint(format!(
                    "fingerprint mismatch in {}: checkpoint is for `{}`, this run is `{}`",
                    path.display(),
                    ckpt.fingerprint,
                    fingerprint
                )))
            }
            Err(_) => continue, // torn write; fall back to an older epoch
        }
    }
    Ok(None)
}
