//! The `par` worker budget, checked in a test binary of its own.
//!
//! The budget is process-global: any other test in the same binary that
//! fans out through `par_map` claims workers from it. These checks read
//! the global count, so they live where nothing else runs, and each one
//! holds one lock from setting `EXATHLON_THREADS` through its last
//! assertion.

use exathlon_linalg::par::{active_workers, par_map, THREADS_ENV};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

#[test]
fn nested_calls_stay_within_budget() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var(THREADS_ENV, "4");
    let peak = AtomicUsize::new(0);
    let outer: Vec<usize> = (0..8).collect();
    par_map(&outer, |_| {
        let inner: Vec<usize> = (0..32).collect();
        par_map(&inner, |&x| {
            peak.fetch_max(active_workers(), Ordering::AcqRel);
            x * 2
        })
        .len()
    });
    std::env::remove_var(THREADS_ENV);
    let peak = peak.load(Ordering::Acquire);
    assert!(peak <= 3, "claimed workers exceeded cap-1: {peak}");
    assert_eq!(active_workers(), 0, "budget leaked");
}

#[test]
fn worker_panic_propagates_and_releases_budget() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var(THREADS_ENV, "4");
    let result = std::panic::catch_unwind(|| {
        let items: Vec<u32> = (0..100).collect();
        par_map(&items, |&x| {
            if x == 77 {
                panic!("boom");
            }
            x
        })
    });
    std::env::remove_var(THREADS_ENV);
    assert!(result.is_err(), "panic should propagate");
    assert_eq!(active_workers(), 0, "budget leaked after panic");
}
