//! Chunked struct-of-arrays event buffer for streaming consumers, and
//! the one row codec and time sort under both homes of the event log.
//!
//! The resident sorted cache is one [`EventBuffer`]; out of core, each
//! read of the time-sorted spill fills one per chunk, and consumers
//! process it in place. Struct-of-arrays layout keeps the per-member match
//! loop columnar — the structural filters touch only the `target`,
//! `delivery` and `campaign` columns, so members that skip an event
//! never pull its other columns through the cache.
//!
//! Both homes of the log are sorted by `sort_by_time` over 16-byte
//! `Row`s, the codec the spill stores too: one pack, one unpack.

use crate::campaign::{DeliveryVector, TargetClass};
use crate::event::SpamEvent;
use crate::ids::{BotnetId, CampaignId};
use crate::spill::{SpillError, ROW_BYTES};
use taster_domain::DomainId;
use taster_sim::SimTime;

/// Column sentinel for "no chaff domain".
pub const NO_CHAFF: u32 = u32::MAX;

/// Bits of a second below its bucket: a bucket spans 2¹¹ seconds. A
/// constant, not an option: widths from 2⁸ to 2¹⁴ seconds sorted a
/// scale-1 log equally fast.
const BUCKET_BITS: u32 = 11;

/// The mask of a second's bits within its bucket.
const LOW_MASK: u32 = (1 << BUCKET_BITS) - 1;

/// The bucket of 2¹¹ seconds that `t` falls in.
pub(crate) fn bucket_of(t: SimTime) -> usize {
    (t.0 >> BUCKET_BITS) as usize
}

/// Counts one row at `t` in `counts`, rows per bucket from bucket 0,
/// growing it as needed; returns the row's bucket.
pub(crate) fn count_row(counts: &mut Vec<usize>, t: SimTime) -> usize {
    let bucket = bucket_of(t);
    if bucket >= counts.len() {
        counts.resize(bucket + 1, 0);
    }
    counts[bucket] += 1;
    bucket
}

/// One event row in [`ROW_BYTES`] = 16 bytes, the one row codec: its
/// campaign, advertised and chaff columns, and one word of the second
/// within its bucket (bits 0–10) and its class codes ([`class_bits`]).
/// The bucket, the rest of the second, is kept apart: sorted rows sit in
/// bucket order beside a row count per bucket, and scratch and runs-file
/// rows carry it.
#[derive(Clone, Copy, Default)]
pub(crate) struct Row {
    campaign: u32,
    advertised: u32,
    chaff: u32,
    word: u32,
}

impl Row {
    /// The row of an event at `t` with campaign, advertised and chaff
    /// columns `ids`.
    fn pack(t: SimTime, ids: [u32; 3], target: TargetClass, delivery: DeliveryVector) -> Row {
        let [campaign, advertised, chaff] = ids;
        let word = (t.0 & u64::from(LOW_MASK)) as u32 | class_bits(target, delivery);
        Row {
            campaign,
            advertised,
            chaff,
            word,
        }
    }

    /// The row of `event`.
    pub(crate) fn of(event: &SpamEvent) -> Row {
        let chaff = event.chaff.map_or(NO_CHAFF, |d| d.0);
        let ids = [event.campaign.0, event.advertised.0, chaff];
        Row::pack(event.time, ids, event.target, event.delivery)
    }

    /// The second within its bucket.
    fn low(self) -> usize {
        (self.word & LOW_MASK) as usize
    }

    fn target(self) -> TargetClass {
        match self.word >> 11 & 0b11 {
            0 => TargetClass::BruteForce,
            1 => TargetClass::Harvested((self.word >> 13) as u8),
            2 => TargetClass::Purchased,
            _ => TargetClass::Social,
        }
    }

    fn delivery(self) -> DeliveryVector {
        match self.word >> 21 & 1 {
            0 => DeliveryVector::Direct,
            _ => DeliveryVector::Botnet(BotnetId((self.word >> 22) as u8)),
        }
    }

    /// Whether the row's class codes are ones [`class_bits`] writes: bits
    /// 30–31 clear, and no argument for a tag without one.
    pub(crate) fn is_known(self) -> bool {
        let w = self.word;
        let target = w >> 11 & 0b11 == 1 || w >> 13 & 0xFF == 0;
        w >> 30 == 0 && target && (w >> 21 & 1 == 1 || w >> 22 == 0)
    }

    /// The row as the spill stores it: its four words, little-endian.
    pub(crate) fn to_bytes(self) -> [u8; ROW_BYTES] {
        let words = [self.campaign, self.advertised, self.chaff, self.word];
        let mut out = [0; ROW_BYTES];
        for (at, w) in out.chunks_exact_mut(4).zip(words) {
            at.copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// The row whose bytes are `b` ([`Row::to_bytes`]).
    pub(crate) fn from_bytes(b: &[u8; ROW_BYTES]) -> Row {
        let word = |at: usize| u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]]);
        Row {
            campaign: word(0),
            advertised: word(4),
            chaff: word(8),
            word: word(12),
        }
    }
}

/// Bits 11–29 of a row's word, the class codes of `target` and
/// `delivery`: the target tag (brute force, harvested, purchased, social)
/// in 11–12 and its argument in 13–20, the delivery tag (direct, botnet)
/// in 21 and its argument in 22–29; an argument-free variant's argument
/// is 0.
fn class_bits(target: TargetClass, delivery: DeliveryVector) -> u32 {
    let (tag, arg) = match target {
        TargetClass::BruteForce => (0, 0),
        TargetClass::Harvested(v) => (1, v),
        TargetClass::Purchased => (2, 0),
        TargetClass::Social => (3, 0),
    };
    let (dtag, darg) = match delivery {
        DeliveryVector::Direct => (0, 0),
        DeliveryVector::Botnet(b) => (1, b.0),
    };
    tag << 11 | u32::from(arg) << 13 | dtag << 21 | u32::from(darg) << 22
}

/// Where [`sort_by_time`]'s `fill` puts each row: the next free slot of
/// its bucket's region.
pub(crate) struct Placer<'a> {
    first: usize,
    next: Vec<usize>,
    rows: &'a mut [Row],
}

impl Placer<'_> {
    /// Puts `row` in the next free slot of bucket `bucket`.
    pub(crate) fn put(&mut self, bucket: usize, row: Row) -> Result<(), SpillError> {
        let at = self.next.get_mut(bucket.wrapping_sub(self.first));
        let Some(at) = at.filter(|at| **at < self.rows.len()) else {
            let msg = format!("a row of bucket {bucket} past the counted rows");
            return Err(SpillError::Corrupt(msg));
        };
        self.rows[*at] = row;
        *at += 1;
        Ok(())
    }
}

/// Stably sorts rows by second, ties in the order they arrive: the one
/// time sort, of the whole log in core
/// ([`EventBuffer::into_time_sorted`]) and of each run of the spill.
/// `counts[i]` rows fall in bucket `first + i`, and `fill` puts every
/// row with its bucket, in arrival order, through the [`Placer`] it is
/// given. Two counting sorts keep that order:
///
/// 1. move every row once into its bucket's region of `placed` (grown
///    to the rows counted, and reused across a caller's calls); what
///    `fill` owns is dropped when it returns;
/// 2. sort each bucket by the low bits of its seconds in a scratch
///    buffer the size of the bucket, and hand it to `emit` with its
///    bucket, in bucket order.
///
/// Every write of step 1 goes to one of a few thousand sequential
/// streams, and step 2 works in cache, so no row is written to a random
/// place in a buffer of the log's size. A row of an uncounted bucket, or
/// a bucket that does not get exactly its count, is a `Corrupt` error.
pub(crate) fn sort_by_time(
    first: usize,
    counts: &[usize],
    placed: &mut Vec<Row>,
    fill: impl FnOnce(&mut Placer) -> Result<(), SpillError>,
    mut emit: impl FnMut(usize, &[Row]) -> Result<(), SpillError>,
) -> Result<(), SpillError> {
    // Each bucket's next free slot, from the start of its region.
    let mut next = vec![0; counts.len()];
    for b in 1..counts.len() {
        next[b] = next[b - 1] + counts[b - 1];
    }
    let n = counts.iter().sum();
    placed.resize(placed.len().max(n), Row::default());
    let rows = &mut placed[..n];
    let mut placer = Placer { first, next, rows };
    fill(&mut placer)?;
    let Placer { next, rows, .. } = placer;
    let mut slots = vec![0usize; 1 << BUCKET_BITS];
    let mut sorted = Vec::new();
    let mut end = 0;
    for (i, (&count, &filled)) in counts.iter().zip(&next).enumerate() {
        let start = end;
        end += count;
        if filled != end {
            let got = filled - start;
            let msg = format!("bucket {} got {got} rows, {count} counted", first + i);
            return Err(SpillError::Corrupt(msg));
        }
        if count == 0 {
            continue;
        }
        let bucket = &rows[start..end];
        slots.fill(0);
        for r in bucket {
            slots[r.low()] += 1;
        }
        let mut at = 0;
        for slot in &mut slots {
            let count = *slot;
            *slot = at;
            at += count;
        }
        sorted.clear();
        sorted.resize(count, Row::default());
        for r in bucket {
            let slot = &mut slots[r.low()];
            sorted[*slot] = *r;
            *slot += 1;
        }
        emit(first + i, &sorted)?;
    }
    Ok(())
}

/// One chunk of the event stream in struct-of-arrays layout. The rows
/// are consecutive in time-sorted order, so row `r` is sorted row
/// `first + r` — the key every per-event RNG and fault stream uses,
/// which is what makes the output independent of chunk size and worker
/// count.
#[derive(Debug, Default, Clone)]
pub struct EventBuffer {
    /// Delivery instants.
    pub time: Vec<SimTime>,
    /// Originating campaign (raw `CampaignId` index).
    pub campaign: Vec<u32>,
    /// Advertised domain (raw `DomainId` index).
    pub advertised: Vec<u32>,
    /// Chaff domain (raw index) or [`NO_CHAFF`].
    pub chaff: Vec<u32>,
    /// Recipient address-list class.
    pub target: Vec<TargetClass>,
    /// Delivery vector.
    pub delivery: Vec<DeliveryVector>,
    /// Time-sorted index of row 0 in the full log.
    pub first: usize,
}

impl EventBuffer {
    /// An empty buffer with room for `cap` rows per column.
    pub fn with_capacity(cap: usize) -> EventBuffer {
        EventBuffer {
            time: Vec::with_capacity(cap),
            campaign: Vec::with_capacity(cap),
            advertised: Vec::with_capacity(cap),
            chaff: Vec::with_capacity(cap),
            target: Vec::with_capacity(cap),
            delivery: Vec::with_capacity(cap),
            first: 0,
        }
    }

    /// Appends one event.
    pub fn push(&mut self, event: &SpamEvent) {
        self.time.push(event.time);
        self.campaign.push(event.campaign.0);
        self.advertised.push(event.advertised.0);
        self.chaff.push(event.chaff.map_or(NO_CHAFF, |d| d.0));
        self.target.push(event.target);
        self.delivery.push(event.delivery);
    }

    /// Reassembles row `r` as a [`SpamEvent`].
    pub fn event(&self, r: usize) -> SpamEvent {
        SpamEvent {
            time: self.time[r],
            campaign: CampaignId(self.campaign[r]),
            advertised: DomainId(self.advertised[r]),
            chaff: self.chaff(r),
            target: self.target[r],
            delivery: self.delivery[r],
        }
    }

    /// Chaff domain of row `r`, if any.
    pub fn chaff(&self, r: usize) -> Option<DomainId> {
        let c = self.chaff[r];
        (c != NO_CHAFF).then_some(DomainId(c))
    }

    /// Rows currently held.
    pub fn len(&self) -> usize {
        self.time.len()
    }

    /// Whether the buffer holds no rows.
    pub fn is_empty(&self) -> bool {
        self.time.is_empty()
    }

    /// Clears all columns, keeping capacity.
    pub fn clear(&mut self) {
        self.time.clear();
        self.campaign.clear();
        self.advertised.clear();
        self.chaff.clear();
        self.target.clear();
        self.delivery.clear();
    }

    /// Appends `rows`, sorted rows of bucket `bucket`, one column at a
    /// time: the one unpack of the row codec.
    pub(crate) fn extend_bucket(&mut self, bucket: usize, rows: impl Iterator<Item = Row> + Clone) {
        let base = (bucket as u64) << BUCKET_BITS;
        self.time
            .extend(rows.clone().map(|r| SimTime(base | r.low() as u64)));
        self.campaign.extend(rows.clone().map(|r| r.campaign));
        self.advertised.extend(rows.clone().map(|r| r.advertised));
        self.chaff.extend(rows.clone().map(|r| r.chaff));
        self.target.extend(rows.clone().map(|r| r.target()));
        self.delivery.extend(rows.map(|r| r.delivery()));
    }

    /// Consumes a generation-order buffer and returns it stably sorted
    /// by time (ties in generation order), from sorted row 0: counts the
    /// rows of each bucket of 2¹¹ seconds (about 4,500 counters over the
    /// default horizon), then sorts them with [`sort_by_time`], which
    /// frees the generation-order columns after its first step. The
    /// peak is the columns plus the rows, `n × (24 + 16)` bytes
    /// ([`EcosystemConfig::cache_peak_bytes`](crate::EcosystemConfig::cache_peak_bytes)).
    pub(crate) fn into_time_sorted(self) -> Result<EventBuffer, SpillError> {
        let n = self.len();
        let mut counts = Vec::new();
        for &t in &self.time {
            count_row(&mut counts, t);
        }
        let rows = |placer: &mut Placer| {
            let rows = self.time.iter().zip(&self.campaign).zip(&self.advertised);
            let rows = rows.zip(&self.chaff).zip(&self.target).zip(&self.delivery);
            for (((((&t, &campaign), &advertised), &chaff), &target), &delivery) in rows {
                let row = Row::pack(t, [campaign, advertised, chaff], target, delivery);
                placer.put(bucket_of(t), row)?;
            }
            // Frees the generation-order columns before the second step.
            drop(self);
            Ok(())
        };
        let mut out = EventBuffer::with_capacity(n);
        sort_by_time(0, &counts, &mut Vec::new(), rows, |bucket, rows| {
            out.extend_bucket(bucket, rows.iter().copied());
            Ok(())
        })?;
        Ok(out)
    }

    /// Bytes per buffered row across all columns (for peak-memory
    /// estimates in benchmarks).
    pub fn bytes_per_event() -> usize {
        std::mem::size_of::<SimTime>()
            + 3 * std::mem::size_of::<u32>()
            + std::mem::size_of::<TargetClass>()
            + std::mem::size_of::<DeliveryVector>()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn sample(t: u64, chaff: Option<u32>) -> SpamEvent {
        SpamEvent {
            time: SimTime(t),
            campaign: CampaignId(3),
            advertised: DomainId(17),
            chaff: chaff.map(DomainId),
            target: TargetClass::BruteForce,
            delivery: DeliveryVector::Botnet(BotnetId(1)),
        }
    }

    #[test]
    fn push_and_reassemble_round_trip() {
        let mut buf = EventBuffer::with_capacity(4);
        let a = sample(5, Some(9));
        let b = sample(7, None);
        buf.push(&a);
        buf.push(&b);
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.event(0), a);
        assert_eq!(buf.event(1), b);
        assert_eq!(buf.chaff(0), Some(DomainId(9)));
        assert_eq!(buf.chaff(1), None);
        buf.clear();
        assert!(buf.is_empty());
    }

    /// Row `i` of a hand-built log: its campaign is `i`, so tied rows
    /// stay distinguishable, and `i` walks every class code pairing.
    fn row(t: u64, i: u32) -> SpamEvent {
        const TARGETS: [TargetClass; 6] = [
            TargetClass::BruteForce,
            TargetClass::Harvested(0),
            TargetClass::Harvested(1),
            TargetClass::Harvested(255),
            TargetClass::Purchased,
            TargetClass::Social,
        ];
        const DELIVERIES: [DeliveryVector; 4] = [
            DeliveryVector::Direct,
            DeliveryVector::Botnet(BotnetId(0)),
            DeliveryVector::Botnet(BotnetId(1)),
            DeliveryVector::Botnet(BotnetId(255)),
        ];
        SpamEvent {
            time: SimTime(t),
            campaign: CampaignId(i),
            advertised: DomainId(i.wrapping_mul(2_654_435_761)),
            chaff: i.is_multiple_of(3).then_some(DomainId(u32::MAX - 1 - i)),
            target: TARGETS[i as usize % TARGETS.len()],
            delivery: DELIVERIES[i as usize / TARGETS.len() % DELIVERIES.len()],
        }
    }

    /// The hand-built logs both sorts, in core and spilled, are checked
    /// on: what the generated log never holds. An empty and three
    /// one-row logs; then rows at the bucket edges 2¹¹ − 1, 2¹¹ and
    /// 2¹¹ + 1 and at the horizon's last second, and 300 rows of one
    /// second among rows of its bucket's edges and of its neighbours, in
    /// a generation order that is not time order. The rows walk every
    /// class code, chaff and [`NO_CHAFF`].
    pub(crate) fn edge_logs() -> Vec<Vec<SpamEvent>> {
        use crate::config::MAX_HORIZON_DAYS;
        use taster_sim::DAY;
        let last = MAX_HORIZON_DAYS * DAY - 1;
        let bucket = 1 << BUCKET_BITS;
        let mut times = vec![last, bucket + 1, bucket, bucket - 1, 0, bucket, last, 0];
        let tied = 3 * bucket + 5;
        for i in 0..300 {
            times.push(tied);
            times.push([4 * bucket - 1, 3 * bucket, tied + 1, tied - 1][i % 4]);
        }
        times.extend([bucket - 1, last - 1, 1, bucket + 1, last, 0, bucket]);
        let log = |times: &[u64]| (0u32..).zip(times).map(|(i, &t)| row(t, i)).collect();
        [&[][..], &[17], &[bucket], &[last], &times]
            .iter()
            .map(|times| log(times))
            .collect()
    }

    /// `events` stably sorted by time, ties in the order given.
    pub(crate) fn stable_sorted(events: &[SpamEvent]) -> Vec<SpamEvent> {
        let mut want = events.to_vec();
        want.sort_by_key(|e| e.time);
        want
    }

    /// Sorts `events` as a generation-order buffer and compares every
    /// row and column with a stable sort by time.
    fn check_sort(events: &[SpamEvent]) {
        let mut buf = EventBuffer::with_capacity(events.len());
        for e in events {
            buf.push(e);
        }
        let sorted = buf.into_time_sorted().unwrap();
        let n = events.len();
        let lens = [
            sorted.time.len(),
            sorted.campaign.len(),
            sorted.advertised.len(),
            sorted.chaff.len(),
            sorted.target.len(),
            sorted.delivery.len(),
        ];
        assert_eq!((lens, sorted.first), ([n; 6], 0));
        let got: Vec<SpamEvent> = (0..n).map(|r| sorted.event(r)).collect();
        assert!(got == stable_sorted(events), "{events:?}");
    }

    #[test]
    fn into_time_sorted_is_a_stable_sort_by_time() {
        for log in edge_logs() {
            check_sort(&log);
        }
    }

    /// A bucket that gets other rows than its count, or a row of a
    /// bucket outside the counted ones, is a typed error, not a panic.
    #[test]
    fn rows_that_miss_their_counts_are_corrupt() {
        let sort = |first, counts: &[usize], buckets: &[usize]| {
            let fill = |p: &mut Placer| buckets.iter().try_for_each(|&b| p.put(b, Row::default()));
            sort_by_time(first, counts, &mut Vec::new(), fill, |_, _| Ok(()))
        };
        sort(4, &[1, 2], &[5, 4, 5]).unwrap();
        for (first, counts, buckets) in [
            (4, &[1, 2][..], &[5, 5, 5][..]),
            (4, &[1, 2], &[4, 5]),
            (4, &[1, 2], &[3, 5, 5]),
            (4, &[1, 2], &[4, 5, 6]),
        ] {
            let err = sort(first, counts, buckets).unwrap_err();
            assert!(matches!(err, SpillError::Corrupt(_)), "{buckets:?}: {err}");
        }
    }

    /// `is_known` accepts exactly the class codes `class_bits` writes: every
    /// word whose codes survive a decode and re-encode, over all 2²¹
    /// values of bits 11–31.
    #[test]
    fn check_accepts_exactly_the_packed_class_codes() {
        for codes in 0..1u32 << 21 {
            let row = Row {
                word: codes << BUCKET_BITS | 5,
                ..Row::default()
            };
            let packed = class_bits(row.target(), row.delivery()) == codes << BUCKET_BITS;
            assert_eq!(row.is_known(), packed, "codes {codes:#x}");
        }
    }

    #[test]
    fn bytes_per_event_is_positive_and_small() {
        let b = EventBuffer::bytes_per_event();
        assert!(b > 0 && b <= 64, "bytes per event {b}");
    }
}
