//! Shared parallel-execution layer for the Exathlon pipeline.
//!
//! A single primitive — order-preserving [`par_map`] over a slice —
//! built on crossbeam scoped threads with contiguous chunk fan-out, the
//! same shape as `exathlon-sparksim`'s dataset simulation. Every parallel
//! hot path of the pipeline (per-method training, per-trace scoring,
//! per-record inference, the thresholding-rule grid) goes through it, so
//! the guarantees live in one place:
//!
//! * **Determinism.** Chunks are contiguous index ranges joined in input
//!   order, and each element is computed independently; the output is
//!   bitwise identical to the sequential `items.iter().map(f).collect()`
//!   for any thread count (asserted end-to-end by
//!   `tests/parallel_determinism.rs`).
//! * **Bounded threads.** A global worker budget caps *transitive*
//!   parallelism: when an outer `par_map` has claimed the budget (e.g.
//!   per-method training), inner calls (e.g. per-record scoring inside a
//!   method) degrade to the sequential path instead of multiplying
//!   threads.
//! * **One knob.** `EXATHLON_THREADS` overrides the worker cap for both
//!   benchmarking (`EXATHLON_THREADS=1` vs `=8`) and containment; unset
//!   or invalid values fall back to the machine's available parallelism,
//!   clamped to 16. The variable is re-read on every call, so tests can
//!   vary it at runtime.
//!
//! # Panics
//! If a worker panics, the panic propagates to the caller (after the
//! budget is returned, so later calls are unaffected).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding the worker cap.
pub const THREADS_ENV: &str = "EXATHLON_THREADS";

/// Worker-thread cap: `EXATHLON_THREADS` if set to a positive integer,
/// otherwise the machine's available parallelism, clamped to `[1, 16]`.
pub fn max_threads() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).clamp(1, 16)
}

/// Workers currently claimed by in-flight `par_map` calls, process-wide.
static ACTIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Workers currently claimed by in-flight [`par_map`] calls across the
/// whole process (the calling lanes are not counted). Reads 0 whenever
/// no fan-out is running, including after a worker panicked.
pub fn active_workers() -> usize {
    ACTIVE_WORKERS.load(Ordering::Acquire)
}

/// Claim up to `want` extra workers from the global budget of
/// `cap - 1` (the calling thread is always lane zero and is never
/// counted). Returns the number granted, possibly 0.
fn reserve_workers(want: usize, cap: usize) -> usize {
    let budget = cap.saturating_sub(1);
    loop {
        let current = ACTIVE_WORKERS.load(Ordering::Acquire);
        let grant = want.min(budget.saturating_sub(current));
        if grant == 0 {
            return 0;
        }
        if ACTIVE_WORKERS
            .compare_exchange(current, current + grant, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            return grant;
        }
    }
}

/// Returns claimed workers on drop, so panics cannot leak budget.
struct WorkerLease(usize);

impl Drop for WorkerLease {
    fn drop(&mut self) {
        if self.0 > 0 {
            ACTIVE_WORKERS.fetch_sub(self.0, Ordering::AcqRel);
        }
    }
}

/// Map `f` over `items` on up to [`max_threads`] threads, preserving
/// order. Falls back to the sequential path when the input is small, the
/// cap is 1, or the global worker budget is exhausted (nested calls) —
/// the result is identical in every case.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let n = items.len();
    let cap = max_threads();
    crate::obs::counter("par.calls", 1);
    if n <= 1 || cap <= 1 {
        return items.iter().map(&f).collect();
    }
    let lease = WorkerLease(reserve_workers(n.min(cap) - 1, cap));
    if lease.0 == 0 {
        return items.iter().map(&f).collect();
    }
    crate::obs::counter("par.parallel_calls", 1);
    crate::obs::counter("par.workers_spawned", lease.0 as u64);
    let lanes = lease.0 + 1;
    let chunk = n.div_ceil(lanes);
    let result = crossbeam::scope(|scope| {
        let f = &f;
        let mut chunks = items.chunks(chunk);
        let first = chunks.next().expect("non-empty input");
        // Spawn the tail chunks, compute the head on this thread, then
        // join in order — output order equals input order.
        let handles: Vec<_> = chunks
            .map(|c| {
                scope.spawn(move |_| {
                    let busy = crate::obs::BusyClock::start();
                    let out = c.iter().map(f).collect::<Vec<U>>();
                    busy.stop();
                    out
                })
            })
            .collect();
        let busy = crate::obs::BusyClock::start();
        let mut out: Vec<U> = Vec::with_capacity(n);
        out.extend(first.iter().map(f));
        busy.stop();
        for handle in handles {
            out.extend(handle.join().expect("par_map worker panicked"));
        }
        out
    })
    .expect("par_map scope failed");
    drop(lease);
    result
}

/// [`par_map`] with the element index: `f(i, &items[i])` in input order.
pub fn par_map_indexed<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let indexed: Vec<(usize, &T)> = items.iter().enumerate().collect();
    par_map(&indexed, |&(i, item)| f(i, item))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_threads<R>(n: &str, body: impl FnOnce() -> R) -> R {
        // Tests in one binary share the process env; serialize access.
        static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        std::env::set_var(THREADS_ENV, n);
        let r = body();
        std::env::remove_var(THREADS_ENV);
        r
    }

    #[test]
    fn preserves_order_and_values() {
        let items: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in ["1", "2", "3", "8"] {
            let got = with_threads(threads, || par_map(&items, |x| x * x));
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, |x| x + 1).is_empty());
        assert_eq!(par_map(&[41u32], |x| x + 1), vec![42]);
    }

    #[test]
    fn indexed_variant_sees_input_positions() {
        let items = vec!["a", "b", "c"];
        let got = with_threads("4", || par_map_indexed(&items, |i, s| format!("{i}:{s}")));
        assert_eq!(got, vec!["0:a", "1:b", "2:c"]);
    }

    #[test]
    fn env_override_parses() {
        assert_eq!(with_threads("3", max_threads), 3);
        assert_eq!(with_threads(" 5 ", max_threads), 5);
        let fallback =
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).clamp(1, 16);
        assert_eq!(with_threads("0", max_threads), fallback);
        assert_eq!(with_threads("bogus", max_threads), fallback);
    }
}
