//! `MCML_OBS=off` must be a true no-op: the counter and span hot paths
//! may not allocate. A counting global allocator wraps `System`; the
//! test exercises the hot paths with the counter frozen and asserts the
//! allocation count never moves. Lives in its own test binary so the
//! global allocator doesn't slow the rest of the suite.
//!
//! Only allocations made on the measuring thread while it is armed are
//! counted: the test harness runs other threads (its own bookkeeping,
//! the sibling test waiting on the lock) that allocate at any moment,
//! and those are not the hot path under test.

use mcml_obs::{Counter, Mode, Stage};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set only on the measuring thread, only inside the measured window.
    /// `const` init with a `Copy` payload: reading it never allocates.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

impl CountingAlloc {
    fn count(&self) {
        // `try_with` so a thread being torn down (its TLS gone) still
        // allocates normally instead of panicking inside the allocator.
        if ARMED.try_with(Cell::get).unwrap_or(false) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: delegates verbatim to `System`; only adds a relaxed count.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.count();
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations `f` makes on the calling thread.
fn allocations_in(f: impl FnOnce()) -> (u64, u64) {
    ARMED.with(|a| a.set(true));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    ARMED.with(|a| a.set(false));
    (before, after)
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

// Mode and counters are process-global; the two tests must not interleave.
static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn off_hot_path_does_not_allocate() {
    let _g = LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // Resolve the mode (may allocate: env read, mutex init) *before*
    // freezing the counter — first use is the cold path by design.
    mcml_obs::set_mode(Mode::Off);
    mcml_obs::reset();
    mcml_obs::add(Counter::NrIterations, 1);
    drop(mcml_obs::span(Stage::Cpa));

    let (before, after) = allocations_in(|| {
        for _ in 0..100_000 {
            mcml_obs::incr(Counter::NrIterations);
            mcml_obs::add(Counter::MatrixSolves, 4);
            let guard = mcml_obs::span(Stage::Characterize);
            drop(guard);
        }
    });
    assert_eq!(before, after, "MCML_OBS=off hot path allocated");
    assert_eq!(mcml_obs::total(Counter::NrIterations), 0);
}

#[test]
fn on_hot_path_does_not_allocate_either() {
    let _g = LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // The "one relaxed fetch_add" claim: even when counting, the hot
    // path allocates nothing (spans read the clock but don't box).
    mcml_obs::set_mode(Mode::Summary);
    mcml_obs::add(Counter::NrIterations, 1);
    drop(mcml_obs::span(Stage::Cpa));

    let (before, after) = allocations_in(|| {
        for _ in 0..100_000 {
            mcml_obs::incr(Counter::NrIterations);
            let guard = mcml_obs::span(Stage::Characterize);
            drop(guard);
        }
    });
    assert_eq!(before, after, "counting hot path allocated");
}
