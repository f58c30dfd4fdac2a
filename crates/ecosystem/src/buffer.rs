//! Chunked struct-of-arrays event buffer for streaming consumers.
//!
//! The resident sorted cache is one [`EventBuffer`]; out of core, each
//! read of the time-sorted spill fills one per chunk, and consumers
//! process it in place. Struct-of-arrays layout keeps the per-member match
//! loop columnar — the structural filters touch only the `target`,
//! `delivery` and `campaign` columns, so members that skip an event
//! never pull its other columns through the cache.

use crate::campaign::{DeliveryVector, TargetClass};
use crate::event::SpamEvent;
use crate::ids::{BotnetId, CampaignId};
use taster_domain::DomainId;
use taster_sim::SimTime;

/// Column sentinel for "no chaff domain".
pub const NO_CHAFF: u32 = u32::MAX;

/// The row codec's class codes, `[target tag, target argument,
/// delivery tag, delivery argument]`: bytes 20–23 of a spill row, and
/// the high bits of the in-core sort's packed word. A tag is below 4
/// (target) or 2 (delivery); an argument-free variant's argument is 0.
pub(crate) fn class_codes(target: TargetClass, delivery: DeliveryVector) -> [u8; 4] {
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
    [tag, arg, dtag, darg]
}

/// The target class whose code is `(tag, arg)`; `None` for a code
/// [`class_codes`] never writes.
pub(crate) fn target_of_code(tag: u8, arg: u8) -> Option<TargetClass> {
    match (tag, arg) {
        (0, 0) => Some(TargetClass::BruteForce),
        (1, v) => Some(TargetClass::Harvested(v)),
        (2, 0) => Some(TargetClass::Purchased),
        (3, 0) => Some(TargetClass::Social),
        _ => None,
    }
}

/// The delivery vector whose code is `(tag, arg)`; `None` for a code
/// [`class_codes`] never writes.
pub(crate) fn delivery_of_code(tag: u8, arg: u8) -> Option<DeliveryVector> {
    match (tag, arg) {
        (0, 0) => Some(DeliveryVector::Direct),
        (1, b) => Some(DeliveryVector::Botnet(BotnetId(b))),
        _ => None,
    }
}

/// Bits of a second below the in-core sort's bucket: a bucket spans
/// 2¹¹ seconds. A constant, not an option: widths from 2⁸ to 2¹⁴
/// seconds sorted a scale-1 log equally fast.
const BUCKET_BITS: u32 = 11;

/// The mask of a second's bits within its bucket.
const LOW_MASK: u64 = (1 << BUCKET_BITS) - 1;

/// Bytes of one row as the in-core sort moves it ([`Packed`]); the
/// sort's transient on top of the columns.
pub(crate) const PACKED_ROW_BYTES: usize = std::mem::size_of::<Packed>();

/// One row as the in-core sort moves it: its campaign, advertised and
/// chaff columns, and one word of its second's low [`BUCKET_BITS`] bits
/// and its class codes ([`pack_word`]).
#[derive(Clone, Copy, Default)]
struct Packed {
    campaign: u32,
    advertised: u32,
    chaff: u32,
    word: u32,
}

/// The packed word of a row at `t` with class `codes`: bits 0–10 the
/// second within its bucket, 11–12 the target tag, 13–20 its argument,
/// 21 the delivery tag, 22–29 its argument.
fn pack_word(t: SimTime, codes: [u8; 4]) -> u32 {
    let [tag, arg, dtag, darg] = codes.map(u32::from);
    debug_assert!(tag < 4 && dtag < 2, "class tags fit their bits");
    (t.0 & LOW_MASK) as u32 | tag << 11 | arg << 13 | dtag << 21 | darg << 22
}

/// The second within its bucket that `word` holds.
fn low_bits(word: u32) -> usize {
    (u64::from(word) & LOW_MASK) as usize
}

/// The class codes that `word` holds.
fn word_codes(word: u32) -> [u8; 4] {
    [
        (word >> 11 & 0b11) as u8,
        (word >> 13) as u8,
        (word >> 21 & 1) as u8,
        (word >> 22) as u8,
    ]
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

    /// Consumes a generation-order buffer and returns it stably sorted
    /// by time (ties in generation order), from sorted row 0. Two
    /// counting sorts do it, each keeping the order rows arrive in:
    ///
    /// 1. count the rows of each bucket of 2¹¹ seconds (`BUCKET_BITS`;
    ///    about 4,500 counters over the default horizon);
    /// 2. move every row once, in generation order, to its bucket as a
    ///    16-byte record: campaign, advertised, chaff, and one word of
    ///    the second's low bits and the row's class codes;
    /// 3. free the generation-order columns;
    /// 4. sort each bucket by the low bits of its seconds in a scratch
    ///    buffer the size of the bucket, and append it to fresh columns.
    ///
    /// The peak is the columns plus the records, `n × (24 + 16)` bytes
    /// ([`EcosystemConfig::cache_peak_bytes`](crate::EcosystemConfig::cache_peak_bytes)).
    /// Every write of step 2 goes to one of a few thousand sequential
    /// streams, and step 4 works in a cache-resident scratch buffer, so
    /// no row is written to a random place in a column of the log's
    /// size.
    pub(crate) fn into_time_sorted(self) -> EventBuffer {
        let n = self.len();
        let bucket = |t: SimTime| (t.0 >> BUCKET_BITS) as usize;
        let buckets = self.time.iter().map(|&t| bucket(t) + 1).max().unwrap_or(0);
        // Each bucket's first record, then (after step 2) its end.
        let mut ends = vec![0usize; buckets];
        for &t in &self.time {
            ends[bucket(t)] += 1;
        }
        let mut at = 0;
        for end in &mut ends {
            let count = *end;
            *end = at;
            at += count;
        }
        let mut packed = vec![Packed::default(); n];
        let rows = self.time.iter().zip(&self.campaign).zip(&self.advertised);
        let rows = rows.zip(&self.chaff).zip(&self.target).zip(&self.delivery);
        for (((((&t, &campaign), &advertised), &chaff), &target), &delivery) in rows {
            let end = &mut ends[bucket(t)];
            packed[*end] = Packed {
                campaign,
                advertised,
                chaff,
                word: pack_word(t, class_codes(target, delivery)),
            };
            *end += 1;
        }
        drop(self);
        let mut out = EventBuffer::with_capacity(n);
        let mut slots = vec![0usize; 1 << BUCKET_BITS];
        let mut scratch = Vec::new();
        let mut start = 0;
        for (b, &end) in ends.iter().enumerate() {
            let rows = &packed[start..end];
            start = end;
            if rows.is_empty() {
                continue;
            }
            slots.fill(0);
            for r in rows {
                slots[low_bits(r.word)] += 1;
            }
            let mut at = 0;
            for slot in &mut slots {
                let count = *slot;
                *slot = at;
                at += count;
            }
            scratch.clear();
            scratch.resize(rows.len(), Packed::default());
            for r in rows {
                let slot = &mut slots[low_bits(r.word)];
                scratch[*slot] = *r;
                *slot += 1;
            }
            let base = (b as u64) << BUCKET_BITS;
            out.time.extend(
                scratch
                    .iter()
                    .map(|r| SimTime(base | low_bits(r.word) as u64)),
            );
            out.campaign.extend(scratch.iter().map(|r| r.campaign));
            out.advertised.extend(scratch.iter().map(|r| r.advertised));
            out.chaff.extend(scratch.iter().map(|r| r.chaff));
            for r in &scratch {
                let [tag, arg, dtag, darg] = word_codes(r.word);
                // Every code was written by `class_codes` above, so
                // every code decodes; the fallbacks are never taken.
                out.target
                    .push(target_of_code(tag, arg).unwrap_or(TargetClass::BruteForce));
                out.delivery
                    .push(delivery_of_code(dtag, darg).unwrap_or(DeliveryVector::Direct));
            }
        }
        out
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
mod tests {
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

    /// Sorts `times` as a generation-order buffer and compares every
    /// row and column with a stable sort by time.
    fn check_sort(times: &[u64]) {
        let events: Vec<SpamEvent> = (0u32..).zip(times).map(|(i, &t)| row(t, i)).collect();
        let mut buf = EventBuffer::with_capacity(events.len());
        for e in &events {
            buf.push(e);
        }
        let sorted = buf.into_time_sorted();
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
        let mut want = events;
        want.sort_by_key(|e| e.time);
        assert!(got == want, "{times:?}");
    }

    /// The sort on what the generated log never holds: bucket edges,
    /// the horizon's last second, long ties and every class code.
    #[test]
    fn into_time_sorted_is_a_stable_sort_by_time() {
        use crate::config::MAX_HORIZON_DAYS;
        use taster_sim::DAY;
        let last = MAX_HORIZON_DAYS * DAY - 1;
        let bucket = 1 << BUCKET_BITS;
        check_sort(&[]);
        check_sort(&[17]);
        check_sort(&[last]);
        let mut times = vec![last, bucket + 1, bucket, bucket - 1, 0, bucket, last, 0];
        // Many rows in one second, among rows of its bucket's edges and
        // of its neighbours, in generation order that is not time order.
        let tied = 3 * bucket + 5;
        for i in 0..300u64 {
            times.push([tied, 4 * bucket - 1, tied, 3 * bucket, tied, tied + 1][i as usize % 6]);
        }
        times.extend([bucket - 1, last - 1, 1, bucket + 1, last, 0, bucket]);
        check_sort(&times);
    }

    #[test]
    fn bytes_per_event_is_positive_and_small() {
        let b = EventBuffer::bytes_per_event();
        assert!(b > 0 && b <= 64, "bytes per event {b}");
    }
}
