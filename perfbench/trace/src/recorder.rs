//! Span recorder and counting allocator of the traced replay.
//!
//! Every layer call the replay makes is wrapped in a named span.  A span
//! records how often it ran, its total and self time (total minus the
//! time of spans nested inside it), how many allocations it made and how
//! far the live heap rose above its starting level.  A disabled recorder
//! takes no timestamps, which is how the replay measures its own overhead.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

// The counters publish no other data, so `Relaxed` suffices; the engine
// runs that share them (multi-worker `BatchRunner::run`) are never traced.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

/// `System` plus allocation, live-byte and peak-byte counters.
pub struct CountingAlloc;

fn grew(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates atomic counters besides, so `System`'s
// guarantees carry over.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        new
    }
}

/// What one span name accumulated.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanStat {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub allocations: u64,
    /// Largest rise of the live heap above its level at span entry.
    pub peak_bytes: usize,
}

struct Frame {
    name: &'static str,
    started: Instant,
    child_ns: u64,
    allocations: u64,
    base_bytes: usize,
    outer_peak: usize,
}

/// Collects spans; disabled, every call is a no-op.
pub struct Recorder {
    enabled: bool,
    stack: Vec<Frame>,
    stats: BTreeMap<&'static str, SpanStat>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            stack: Vec::new(),
            stats: BTreeMap::new(),
        }
    }

    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let base_bytes = LIVE_BYTES.load(Ordering::Relaxed);
        let outer_peak = PEAK_BYTES.swap(base_bytes, Ordering::Relaxed);
        self.stack.push(Frame {
            name,
            started: Instant::now(),
            child_ns: 0,
            allocations: ALLOCATIONS.load(Ordering::Relaxed),
            base_bytes,
            outer_peak,
        });
    }

    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let frame = self.stack.pop().expect("exit matches an enter");
        let elapsed = frame.started.elapsed().as_nanos() as u64;
        let peak = PEAK_BYTES.load(Ordering::Relaxed);
        // The enclosing span's peak covers this one's.
        PEAK_BYTES.store(peak.max(frame.outer_peak), Ordering::Relaxed);
        let stat = self.stats.entry(frame.name).or_default();
        stat.count += 1;
        stat.total_ns += elapsed;
        stat.self_ns += elapsed.saturating_sub(frame.child_ns);
        stat.allocations += ALLOCATIONS.load(Ordering::Relaxed) - frame.allocations;
        stat.peak_bytes = stat.peak_bytes.max(peak.saturating_sub(frame.base_bytes));
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += elapsed;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let value = f();
        self.exit();
        value
    }

    /// Turns the totals of `repeats` identical replays into per-replay
    /// means (peaks are already per call).
    pub fn divide(&mut self, repeats: u64) {
        for stat in self.stats.values_mut() {
            stat.count /= repeats;
            stat.total_ns /= repeats;
            stat.self_ns /= repeats;
            stat.allocations /= repeats;
        }
    }

    pub fn stats(&self) -> &BTreeMap<&'static str, SpanStat> {
        &self.stats
    }

    pub fn get(&self, name: &str) -> SpanStat {
        self.stats.get(name).copied().unwrap_or_default()
    }
}
