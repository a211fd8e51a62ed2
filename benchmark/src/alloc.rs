//! A counting `#[global_allocator]` wrapper: heap metrics measured from
//! outside the program, with no feature flag in the crates under test.
//!
//! The counters are *armed* only around a counted pass, so timed passes pay
//! one relaxed load per allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

/// The allocator the benchmark binary installs.
pub struct Counting;

// Statistics only — none of these publishes other data, and the harness
// arms them from its single measuring thread.
static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn on_alloc(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches only atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Relaxed) {
            on_alloc(layout.size());
        }
        // SAFETY: same layout the caller passed.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Relaxed) {
            on_alloc(layout.size());
        }
        // SAFETY: same layout the caller passed.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ARMED.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
            on_alloc(new_size);
        }
        // SAFETY: `ptr` came from this allocator with this layout, and
        // `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What one armed interval saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Heap allocations (a `realloc` counts as one).
    pub allocs: u64,
    /// Bytes requested.
    pub bytes: u64,
    /// High-water mark of live bytes above the level at arming. Memory
    /// that was live before arming and freed inside the interval lowers
    /// the running level, so this never over-reports.
    pub peak_live_bytes: u64,
}

/// Zeroes the counters and starts counting.
pub fn arm() {
    ALLOCS.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ARMED.store(true, Relaxed);
}

/// Stops counting and returns what the interval saw.
pub fn disarm() -> Counts {
    ARMED.store(false, Relaxed);
    Counts {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak_live_bytes: PEAK.load(Relaxed).max(0) as u64,
    }
}

/// Allocations counted so far in the current armed interval (0 and
/// constant while disarmed) — span boundaries read this.
pub fn allocs_now() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Largest relative difference between two counted passes before a heap
/// metric is flagged `unstable`. The only known wobble is hash-seeded
/// `HashSet` growth in `run_trial`: a few allocations in ~900,000.
pub const REPEAT_TOLERANCE: f64 = 0.001;

/// Whether two counted passes of the same deterministic work disagree by
/// more than [`REPEAT_TOLERANCE`] of their mean.
pub fn unstable(a: f64, b: f64) -> bool {
    let mean = (a + b) / 2.0;
    mean != 0.0 && (a - b).abs() / mean.abs() > REPEAT_TOLERANCE
}

/// The counters are process-wide and the test harness runs tests on
/// parallel threads: every test that arms them holds this lock.
#[cfg(test)]
pub static ARMING_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_within_a_tenth_of_a_percent_are_stable() {
        assert!(!unstable(901_840.0, 901_843.0));
        assert!(!unstable(1000.0, 1000.9));
        assert!(!unstable(0.0, 0.0));
    }

    #[test]
    fn readings_further_apart_are_flagged() {
        assert!(unstable(1000.0, 1002.0));
        assert!(unstable(1002.0, 1000.0));
    }

    /// Other test threads allocate and free while this one is armed, so
    /// only lower bounds on the two monotonic counters are asserted (the
    /// live level can be dragged below zero by their frees).
    #[test]
    fn an_armed_interval_sees_this_threads_allocations() {
        let _arming = ARMING_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        arm();
        let before = allocs_now();
        let v: Vec<u64> = Vec::with_capacity(4096);
        let seen = allocs_now() - before;
        let counts = disarm();
        drop(v);
        assert!(seen >= 1);
        assert!(counts.allocs >= 1 && counts.bytes >= 4096 * 8);
        let frozen = allocs_now();
        let w: Vec<u64> = Vec::with_capacity(16);
        assert_eq!(allocs_now(), frozen, "disarmed counters do not move");
        drop(w);
    }
}
