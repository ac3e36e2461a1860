//! Typed event logs for timeline figures.
//!
//! An [`EventLog<T>`] counts `(time, T)` markers — ksoftirqd
//! wake-ups, C-state entries, mode transitions — and, while it
//! records, keeps them at the exact times the paper's timeline
//! figures (Fig 2, 7, 9) plot as marks. Untraced runs need only the
//! count, so their logs keep no entries and stay flat in run length.

use crate::time::SimTime;

/// An append-only log of timestamped markers that always counts them
/// and keeps their entries only while recording.
///
/// [`new`](EventLog::new) records; [`counting`](EventLog::counting)
/// starts with recording off. [`len`](EventLog::len) counts every
/// [`push`](EventLog::push) either way, while
/// [`entries`](EventLog::entries) holds only the markers pushed while
/// recording.
///
/// # Examples
///
/// ```
/// use simcore::{EventLog, SimTime};
/// let mut log: EventLog<&str> = EventLog::new();
/// log.push(SimTime::from_micros(3), "wake");
/// log.push(SimTime::from_micros(9), "sleep");
/// assert_eq!(log.len(), 2);
/// assert_eq!(log.iter().next().unwrap().1, "wake");
///
/// let mut count_only: EventLog<&str> = EventLog::counting();
/// count_only.push(SimTime::from_micros(3), "wake");
/// assert_eq!(count_only.len(), 1);
/// assert!(count_only.entries().is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventLog<T> {
    entries: Vec<(SimTime, T)>,
    pushed: usize,
    recording: bool,
}

impl<T> Default for EventLog<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventLog<T> {
    /// Creates an empty log that records its entries.
    pub fn new() -> Self {
        EventLog {
            entries: Vec::new(),
            pushed: 0,
            recording: true,
        }
    }

    /// Creates an empty log that only counts until
    /// [`set_recording`](Self::set_recording) turns recording on.
    pub fn counting() -> Self {
        EventLog {
            recording: false,
            ..Self::new()
        }
    }

    /// Turns keeping entries on or off; the count is unaffected.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// True if pushed markers are kept as entries.
    pub fn is_recording(&self) -> bool {
        self.recording
    }

    /// Counts a marker at time `t`, keeping it if recording.
    #[inline]
    pub fn push(&mut self, t: SimTime, marker: T) {
        self.pushed += 1;
        if self.recording {
            self.entries.push((t, marker));
        }
    }

    /// Number of markers pushed, recorded or not.
    pub fn len(&self) -> usize {
        self.pushed
    }

    /// True if no marker was ever pushed.
    pub fn is_empty(&self) -> bool {
        self.pushed == 0
    }

    /// The kept entries in insertion order.
    pub fn entries(&self) -> &[(SimTime, T)] {
        &self.entries
    }

    /// Iterator over the kept `(time, marker)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = &(SimTime, T)> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_log_counts_every_push_and_keeps_only_recorded_ones() {
        let mut log: EventLog<u8> = EventLog::counting();
        log.push(SimTime::ZERO, 1);
        assert_eq!(log.len(), 1);
        assert!(!log.is_empty());
        assert!(log.entries().is_empty());
        log.set_recording(true);
        log.push(SimTime::from_micros(5), 2);
        assert_eq!(log.len(), 2);
        assert_eq!(log.entries(), &[(SimTime::from_micros(5), 2)]);
    }
}
