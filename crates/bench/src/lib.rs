//! Shared helpers for the benchmark / experiment-reproduction harness.
//!
//! Every bench target regenerates one experiment of EXPERIMENTS.md: it first
//! prints the table or series the experiment reports (so `cargo bench`
//! output doubles as the reproduction record), then runs the Criterion
//! measurements of the code paths involved.
//!
//! [`CountingAllocator`] is the one counting `#[global_allocator]` of the
//! workspace's allocation audits, in the benches and in the root package's
//! tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use hdl_models::scenario::ScenarioOutcome;
use magnetics::loop_analysis::LoopMetrics;

/// A [`System`]-backed global allocator that counts allocations and tracks
/// live and peak heap bytes.  An audit installs it in its own binary with
/// `#[global_allocator] static ALLOC: CountingAllocator =
/// CountingAllocator::new();`.
///
/// Every successful `alloc` counts once.  `realloc` is the trait's default
/// (alloc, copy, dealloc), so a reallocation also counts once and moves its
/// bytes through `live` like any other allocation.  Relaxed atomics are
/// fine: an audit runs its workload to completion, worker threads joined,
/// before it reads the counters.
#[derive(Debug)]
pub struct CountingAllocator {
    allocs: AtomicUsize,
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl CountingAllocator {
    /// An allocator with every counter at zero.
    pub const fn new() -> Self {
        Self {
            allocs: AtomicUsize::new(0),
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    /// Allocations so far.
    pub fn allocs(&self) -> usize {
        self.allocs.load(Ordering::Relaxed)
    }

    /// Heap bytes currently allocated.
    pub fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// The highest [`live`](Self::live) value since the last
    /// [`reset_peak`](Self::reset_peak).
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Restarts peak tracking from the current live size and returns that
    /// baseline, so `peak() - baseline` is the workload's own high-water
    /// mark.
    pub fn reset_peak(&self) -> usize {
        let live = self.live();
        self.peak.store(live, Ordering::Relaxed);
        live
    }
}

impl Default for CountingAllocator {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: delegates every allocation verbatim to `System`; the counter
// updates never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            self.allocs.fetch_add(1, Ordering::Relaxed);
            let live = self.live.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            self.peak.fetch_max(live, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        self.live.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

/// Prints a loop-metrics row in the fixed-width format shared by the
/// experiment tables.
pub fn print_metrics_row(label: &str, metrics: &LoopMetrics) {
    println!(
        "{label:<28} {:>8.3} {:>10.1} {:>8.0} {:>10.3} {:>12.0} {:>10}",
        metrics.b_max.as_tesla(),
        metrics.h_max.as_kiloamperes_per_meter(),
        metrics.coercivity.value(),
        metrics.remanence.as_tesla(),
        metrics.loop_area,
        metrics.negative_slope_samples
    );
}

/// Prints the header matching [`print_metrics_row`].
pub fn print_metrics_header() {
    println!(
        "{:<28} {:>8} {:>10} {:>8} {:>10} {:>12} {:>10}",
        "case", "Bmax[T]", "Hmax[kA/m]", "Hc[A/m]", "Br[T]", "area[J/m3]", "neg.slope"
    );
}

/// Prints a scenario outcome as a metrics row labelled with its backend,
/// followed by the run cost (samples, updates, wall-clock).
pub fn print_outcome_row(outcome: &ScenarioOutcome) {
    match &outcome.metrics {
        Some(metrics) => print_metrics_row(outcome.backend.label(), metrics),
        None => println!("{:<28} (no closed loop)", outcome.backend.label()),
    }
    println!(
        "{:<28} {} samples, {} slope updates, {:.3} ms",
        "",
        outcome.stats.samples,
        outcome.stats.updates,
        outcome.runtime.as_secs_f64() * 1e3
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use magnetics::units::{FieldStrength, FluxDensity};

    #[test]
    fn printing_helpers_do_not_panic() {
        let metrics = LoopMetrics {
            b_max: FluxDensity::new(1.7),
            h_max: FieldStrength::new(10_000.0),
            coercivity: FieldStrength::new(3_000.0),
            remanence: FluxDensity::new(1.2),
            loop_area: 60_000.0,
            negative_slope_samples: 0,
        };
        print_metrics_header();
        print_metrics_row("unit-test", &metrics);
    }
}
