//! The workspace's one parallel runner: [`run_claiming`] spreads
//! independent work items over scoped worker threads that claim them one
//! at a time. Population training, workload preparation, the bench suites
//! and the fleet sweeps all run through it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// The machine's available parallelism, or 1 when it cannot be queried.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Best-effort panic payload extraction (`panic!` with a `&str` or a
/// formatted `String` covers every panic in this workspace).
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "cell panicked".to_string()
    }
}

/// Run items `0..n` claimed from an atomic index by `threads` scoped
/// workers, each item panic-isolated, with results returned **in item
/// order** regardless of completion order.
///
/// Two properties make one exploding item survivable:
///
/// * each worker pushes `(index, outcome)` *before* claiming its next item,
///   so a later panic can never lose an earlier finished result,
/// * the item body runs under [`catch_unwind`], so a panic becomes an
///   `Err(message)` for that index while every other item still runs; lock
///   poisoning from a panic elsewhere is ignored (the protected `Vec` is
///   only ever pushed to, never left half-written).
pub fn run_claiming<T, F>(n: usize, threads: usize, run: F) -> Vec<Result<T, String>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.clamp(1, n.max(1));
    let next = AtomicUsize::new(0);
    let results = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let outcome = catch_unwind(AssertUnwindSafe(|| run(i))).map_err(panic_message);
                results.lock().unwrap_or_else(PoisonError::into_inner).push((i, outcome));
            });
        }
    });
    let mut indexed = results.into_inner().unwrap_or_else(PoisonError::into_inner);
    indexed.sort_by_key(|entry: &(usize, Result<T, String>)| entry.0);
    debug_assert_eq!(indexed.len(), n, "every claimed index must report an outcome");
    indexed.into_iter().map(|(_, outcome)| outcome).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The claiming loop isolates panics per item and returns outcomes in
    /// item order at any worker count.
    #[test]
    fn run_claiming_is_panic_isolated_and_ordered() {
        for threads in [1, 2, 8] {
            let outcomes = run_claiming(7, threads, |i| {
                if i % 3 == 1 {
                    panic!("boom at {i}");
                }
                i * 10
            });
            assert_eq!(outcomes.len(), 7);
            for (i, outcome) in outcomes.iter().enumerate() {
                match outcome {
                    Ok(v) => {
                        assert!(i % 3 != 1);
                        assert_eq!(*v, i * 10, "outcome out of order at {threads} threads");
                    }
                    Err(msg) => {
                        assert_eq!(i % 3, 1);
                        assert_eq!(msg, &format!("boom at {i}"));
                    }
                }
            }
        }
    }
}
