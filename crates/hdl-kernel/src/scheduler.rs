//! Timed event queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::signal::SignalId;
use crate::time::SimTime;
use crate::value::Value;

/// A timed event: a value written to a signal at the scheduled time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Target signal.
    pub signal: SignalId,
    /// Value to write.
    pub value: Value,
}

/// One queued event with its ordering key.
///
/// Equality covers the full `(time, sequence, event)` tuple; ordering uses
/// only `(time, sequence)`.  The two stay consistent because `sequence` is
/// unique per queue — `cmp` can only return `Equal` for one and the same
/// entry — while full-tuple equality keeps `assert_eq!`-style comparisons
/// honest (two entries with equal keys but different payloads must not
/// compare equal).
#[derive(Debug, PartialEq)]
struct QueueEntry {
    time: SimTime,
    sequence: u64,
    event: Event,
}

// `Event` carries `Value::Real(f64)`, so `Eq` cannot be derived; scheduled
// values are finite simulation quantities (a NaN write is an upstream bug),
// which makes the reflexivity promise sound in practice.
impl Eq for QueueEntry {}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.sequence).cmp(&(other.time, other.sequence))
    }
}

/// A time-ordered event queue with stable ordering for same-time events
/// (insertion order is preserved, as in SystemC's evaluation phase).
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<QueueEntry>>,
    next_sequence: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules an event at an absolute time.
    pub fn push(&mut self, time: SimTime, event: Event) {
        let entry = QueueEntry {
            time,
            sequence: self.next_sequence,
            event,
        };
        self.next_sequence += 1;
        self.heap.push(Reverse(entry));
    }

    /// Time of the earliest queued event.
    pub fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Drains every event scheduled exactly at `time` into `out`, in
    /// insertion order, and returns how many were appended.
    ///
    /// The caller owns (and typically reuses) the scratch buffer, so a
    /// simulation's hot loop performs no per-time-point allocation once the
    /// buffer has grown to the high-water mark.
    pub fn pop_into(&mut self, time: SimTime, out: &mut Vec<Event>) -> usize {
        let mut appended = 0;
        while let Some(Reverse(entry)) = self.heap.peek() {
            if entry.time != time {
                break;
            }
            let Reverse(entry) = self.heap.pop().expect("peeked entry exists");
            out.push(entry.event);
            appended += 1;
        }
        appended
    }

    /// Removes every queued event and resets the sequence counter, so a
    /// reused queue orders same-time events exactly like a fresh one.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.next_sequence = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(signal: usize, value: f64) -> Event {
        Event {
            signal: SignalId(signal),
            value: Value::Real(value),
        }
    }

    fn drain_at(q: &mut EventQueue, time: SimTime) -> Vec<Event> {
        let mut out = Vec::new();
        q.pop_into(time, &mut out);
        out
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(20), write(0, 2.0));
        q.push(SimTime::from_nanos(10), write(0, 1.0));
        assert_eq!(q.len(), 2);
        assert_eq!(q.next_time(), Some(SimTime::from_nanos(10)));
        let first = drain_at(&mut q, SimTime::from_nanos(10));
        assert_eq!(first, vec![write(0, 1.0)]);
        assert_eq!(q.next_time(), Some(SimTime::from_nanos(20)));
    }

    #[test]
    fn same_time_events_preserve_insertion_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(5), write(3, 1.0));
        q.push(SimTime::from_nanos(5), write(3, 2.0));
        let events = drain_at(&mut q, SimTime::from_nanos(5));
        assert_eq!(events, vec![write(3, 1.0), write(3, 2.0)]);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_into_appends_without_clearing() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(1), write(7, 1.0));
        q.push(SimTime::from_nanos(2), write(7, 2.0));
        let mut out = Vec::new();
        assert_eq!(q.pop_into(SimTime::from_nanos(1), &mut out), 1);
        assert_eq!(q.pop_into(SimTime::from_nanos(2), &mut out), 1);
        assert_eq!(out.len(), 2, "pop_into appends; the caller clears");
    }

    #[test]
    fn pop_into_at_wrong_time_returns_nothing() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(5), write(1, 1.0));
        let mut out = Vec::new();
        assert_eq!(q.pop_into(SimTime::from_nanos(4), &mut out), 0);
        assert!(out.is_empty());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn empty_queue_has_no_next_time() {
        let q = EventQueue::new();
        assert_eq!(q.next_time(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn clear_resets_the_sequence_counter() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(1), write(0, 1.0));
        q.clear();
        assert!(q.is_empty());
        // After clear, same-time insertion order starts from sequence 0
        // again — a reused queue is indistinguishable from a fresh one.
        q.push(SimTime::from_nanos(2), write(0, 2.0));
        q.push(SimTime::from_nanos(2), write(0, 3.0));
        let events = drain_at(&mut q, SimTime::from_nanos(2));
        assert_eq!(events, vec![write(0, 2.0), write(0, 3.0)]);
    }

    #[test]
    fn entry_equality_covers_the_event_payload() {
        // Regression test: the old hand-written `PartialEq` compared only
        // `(time, sequence)`, so two entries with equal keys but different
        // events compared equal.
        let a = QueueEntry {
            time: SimTime::from_nanos(5),
            sequence: 0,
            event: write(1, 1.0),
        };
        let b = QueueEntry {
            time: SimTime::from_nanos(5),
            sequence: 0,
            event: write(2, 1.0),
        };
        assert_ne!(a, b, "equal keys but different payloads must differ");
        assert_eq!(
            a.cmp(&b),
            std::cmp::Ordering::Equal,
            "ordering still uses only (time, sequence)"
        );
        let c = QueueEntry {
            time: SimTime::from_nanos(5),
            sequence: 0,
            event: write(1, 1.0),
        };
        assert_eq!(a, c);
    }
}
