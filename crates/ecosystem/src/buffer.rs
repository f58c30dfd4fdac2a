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
use crate::ids::CampaignId;
use taster_domain::DomainId;
use taster_sim::SimTime;

/// Column sentinel for "no chaff domain".
pub const NO_CHAFF: u32 = u32::MAX;

/// One chunk of the event stream in struct-of-arrays layout, plus the
/// time-sorted index of each row — the key every per-event RNG and
/// fault stream uses, which is what makes the output independent of
/// chunk size and worker count.
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
    /// Time-sorted index of each row in the full log.
    pub sorted_idx: Vec<u32>,
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
            sorted_idx: Vec::with_capacity(cap),
        }
    }

    /// Appends one event with its time-sorted index.
    pub fn push(&mut self, event: &SpamEvent, sorted_idx: u32) {
        self.time.push(event.time);
        self.campaign.push(event.campaign.0);
        self.advertised.push(event.advertised.0);
        self.chaff.push(event.chaff.map_or(NO_CHAFF, |d| d.0));
        self.target.push(event.target);
        self.delivery.push(event.delivery);
        self.sorted_idx.push(sorted_idx);
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
        self.sorted_idx.clear();
    }

    /// Consumes a generation-order buffer and returns the time-sorted
    /// equivalent: output row `rank[g]` is input row `g` (`rank` is the
    /// sorted position of every row), and
    /// `sorted_idx[r] == r` for every row. Columns are scattered one
    /// at a time, each source column dropped as soon as its sorted
    /// copy exists, so peak memory is one extra column (the 8-byte
    /// time column), not a second full buffer.
    pub fn into_sorted(self, rank: &[u32]) -> EventBuffer {
        let n = self.len();
        debug_assert_eq!(rank.len(), n, "rank must cover every row");
        fn scatter<T: Copy>(src: Vec<T>, rank: &[u32], fill: T) -> Vec<T> {
            let mut out = vec![fill; src.len()];
            for (g, v) in src.into_iter().enumerate() {
                out[rank[g] as usize] = v;
            }
            out
        }
        let time = scatter(self.time, rank, SimTime::ZERO);
        let campaign = scatter(self.campaign, rank, 0);
        let advertised = scatter(self.advertised, rank, 0);
        let chaff = scatter(self.chaff, rank, NO_CHAFF);
        let target = scatter(self.target, rank, TargetClass::BruteForce);
        let delivery = scatter(self.delivery, rank, DeliveryVector::Direct);
        EventBuffer {
            time,
            campaign,
            advertised,
            chaff,
            target,
            delivery,
            sorted_idx: (0..n as u32).collect(),
        }
    }

    /// Bytes per buffered row across all columns (for peak-memory
    /// estimates in benchmarks).
    pub fn bytes_per_event() -> usize {
        std::mem::size_of::<SimTime>()
            + 4 * std::mem::size_of::<u32>()
            + std::mem::size_of::<TargetClass>()
            + std::mem::size_of::<DeliveryVector>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::BotnetId;

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
        buf.push(&a, 1);
        buf.push(&b, 0);
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.event(0), a);
        assert_eq!(buf.event(1), b);
        assert_eq!(buf.sorted_idx, vec![1, 0]);
        assert_eq!(buf.chaff(0), Some(DomainId(9)));
        assert_eq!(buf.chaff(1), None);
        buf.clear();
        assert!(buf.is_empty());
    }

    #[test]
    fn bytes_per_event_is_positive_and_small() {
        let b = EventBuffer::bytes_per_event();
        assert!(b > 0 && b <= 64, "bytes per event {b}");
    }
}
