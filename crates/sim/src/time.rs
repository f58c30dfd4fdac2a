//! Simulation time.
//!
//! Time is measured in whole seconds since the scenario epoch (the
//! start of the measurement period — in the paper, 2010-08-01). The
//! default scenario spans 92 days, like the paper's August–October
//! window. Seconds-resolution is ample: the finest-grained analysis
//! (Fig 10) works in hours.

/// One minute in seconds.
pub const MINUTE: u64 = 60;
/// One hour in seconds.
pub const HOUR: u64 = 3600;
/// One day in seconds.
pub const DAY: u64 = 86_400;

/// An instant, in seconds since the scenario epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The scenario epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs from whole days since epoch.
    pub fn from_days(days: u64) -> SimTime {
        SimTime(days * DAY)
    }

    /// Seconds since epoch.
    pub fn secs(self) -> u64 {
        self.0
    }

    /// Whole days since epoch (floor).
    pub fn day(self) -> u64 {
        self.0 / DAY
    }

    /// Fractional days since epoch.
    pub fn days_f64(self) -> f64 {
        self.0 as f64 / DAY as f64
    }

    /// Second-of-day in `0..86_400`.
    pub fn second_of_day(self) -> u64 {
        self.0 % DAY
    }

    /// Saturating addition of a duration in seconds.
    pub fn plus(self, secs: u64) -> SimTime {
        SimTime(self.0.saturating_add(secs))
    }

    /// Saturating subtraction of a duration in seconds.
    pub fn minus(self, secs: u64) -> SimTime {
        SimTime(self.0.saturating_sub(secs))
    }

    /// Absolute difference in seconds.
    pub fn abs_diff(self, other: SimTime) -> u64 {
        self.0.abs_diff(other.0)
    }

    /// Signed difference `self − other` in seconds.
    pub fn signed_diff(self, other: SimTime) -> i64 {
        self.0 as i64 - other.0 as i64
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let d = self.day();
        let rem = self.second_of_day();
        write!(
            f,
            "d{:03} {:02}:{:02}:{:02}",
            d,
            rem / HOUR,
            (rem % HOUR) / MINUTE,
            rem % MINUTE
        )
    }
}

impl std::ops::Add<u64> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: u64) -> SimTime {
        self.plus(rhs)
    }
}

/// A half-open time window `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimeWindow {
    /// Inclusive start.
    pub start: SimTime,
    /// Exclusive end.
    pub end: SimTime,
}

impl TimeWindow {
    /// Constructs a window; panics when `end < start`.
    pub fn new(start: SimTime, end: SimTime) -> TimeWindow {
        assert!(end >= start, "window end before start");
        TimeWindow { start, end }
    }

    /// A window covering `days` whole days from the epoch.
    pub fn first_days(days: u64) -> TimeWindow {
        TimeWindow::new(SimTime::ZERO, SimTime::from_days(days))
    }

    /// Window length in seconds.
    pub fn len_secs(&self) -> u64 {
        self.end.0 - self.start.0
    }

    /// Membership test (`start ≤ t < end`).
    pub fn contains(&self, t: SimTime) -> bool {
        t >= self.start && t < self.end
    }

    /// Iterates the whole day indices the window touches.
    pub fn days(&self) -> impl Iterator<Item = u64> {
        let first = self.start.day();
        let last = if self.end.0 == 0 {
            0
        } else {
            (self.end.0 - 1) / DAY + 1
        };
        first..last
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let t = SimTime::from_days(2).plus(3 * HOUR + 5 * MINUTE + 7);
        assert_eq!(t.day(), 2);
        assert_eq!(t.second_of_day(), 3 * HOUR + 5 * MINUTE + 7);
        assert_eq!(format!("{t}"), "d002 03:05:07");
    }

    #[test]
    fn arithmetic() {
        let a = SimTime(100);
        let b = SimTime(40);
        assert_eq!(a.abs_diff(b), 60);
        assert_eq!(b.abs_diff(a), 60);
        assert_eq!(a.signed_diff(b), 60);
        assert_eq!(b.signed_diff(a), -60);
        assert_eq!(b.minus(100), SimTime::ZERO);
        assert_eq!(a + 10, SimTime(110));
    }

    #[test]
    fn window_membership() {
        let w = TimeWindow::first_days(3);
        assert!(w.contains(SimTime::ZERO));
        assert!(w.contains(SimTime(3 * DAY - 1)));
        assert!(!w.contains(SimTime(3 * DAY)));
        assert_eq!(w.len_secs(), 3 * DAY);
    }

    #[test]
    fn window_day_iteration() {
        let w = TimeWindow::new(SimTime(DAY / 2), SimTime(2 * DAY + 1));
        assert_eq!(w.days().collect::<Vec<_>>(), vec![0, 1, 2]);
        let empty = TimeWindow::new(SimTime::ZERO, SimTime::ZERO);
        assert_eq!(empty.days().count(), 0);
    }

    #[test]
    #[should_panic(expected = "window end before start")]
    fn window_rejects_inverted() {
        TimeWindow::new(SimTime(5), SimTime(4));
    }
}
