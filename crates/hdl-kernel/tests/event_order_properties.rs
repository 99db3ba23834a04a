//! Property tests of the scheduler's event-ordering contract.
//!
//! The queue promises: events drain in ascending time order, and events
//! scheduled for the *same* time drain in insertion order (SystemC's
//! stable evaluation order).  The kernel-level consequence is that the
//! last same-time write to a signal wins — deterministically, for any
//! interleaving of scheduled writes.

use hdl_kernel::scheduler::{Event, EventQueue};
use hdl_kernel::{Kernel, SimTime, Value};
use proptest::collection::vec;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any interleaving of (time-bucket, payload) pushes drains sorted by
    /// time, and payloads within one time bucket keep insertion order.
    #[test]
    fn same_time_events_drain_in_insertion_order(
        buckets in vec(0_usize..8, 1..64),
    ) {
        // Signal ids come from a kernel; a scratch one donates `sig`.
        let mut donor = Kernel::new();
        let sig = donor.add_signal("s", Value::Int(0));
        let mut queue = EventQueue::new();
        // Payload i records the insertion position, so the drained
        // sequence is checkable against the pushed one.
        for (i, &bucket) in buckets.iter().enumerate() {
            queue.push(
                SimTime::from_nanos(bucket as u64),
                Event {
                    signal: sig,
                    value: Value::Int(i as i64),
                },
            );
        }
        prop_assert_eq!(queue.len(), buckets.len());

        let mut drained = Vec::new();
        while let Some(t) = queue.next_time() {
            let before = drained.len();
            queue.pop_into(t, &mut drained);
            // Every event at `t` comes out in one drain.
            prop_assert!(drained.len() > before);
            if let Some(next) = queue.next_time() {
                prop_assert!(next > t, "time buckets drain in ascending order");
            }
        }

        // Reconstruct the expected order: stable sort by bucket keeps
        // insertion order within a bucket — exactly the queue's contract.
        let mut expected: Vec<(usize, i64)> = buckets
            .iter()
            .enumerate()
            .map(|(i, &b)| (b, i as i64))
            .collect();
        expected.sort_by_key(|&(bucket, _)| bucket);
        let got: Vec<i64> = drained
            .iter()
            .map(|event| match event {
                Event { value: Value::Int(i), .. } => *i,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        let want: Vec<i64> = expected.into_iter().map(|(_, i)| i).collect();
        prop_assert_eq!(got, want);
    }

    /// Kernel-level consequence: when several writes target one signal at
    /// one timestamp, the last scheduled write is the committed value.
    #[test]
    fn last_same_time_write_wins(
        values in vec(0.0_f64..1000.0, 2..16),
    ) {
        let mut kernel = Kernel::new();
        let sig = kernel.add_signal("s", Value::Real(-1.0));
        let at = SimTime::from_micros(3);
        for &v in &values {
            kernel.schedule_write(at, sig, Value::Real(v));
        }
        kernel.run_until(at).expect("drain");
        let last = *values.last().expect("non-empty");
        prop_assert_eq!(kernel.read(sig).expect("read"), Value::Real(last));
    }
}
