//! The ordered parallel map behind the cross-validation folds and the
//! per-benchmark speedup simulations.
//!
//! Items are independent jobs `0..n`. Scoped threads claim them in
//! increasing order from one atomic counter, and results come back in item
//! order, so the output is the serial loop's output for any worker count.
//! After a failure no worker claims a new item; every lower item was
//! claimed before the failing one, so it still runs, and the failure
//! reported is the lowest-index one — the one a serial loop stops at.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Workers the public entry points use: the available parallelism
/// (the map caps it at the item count).
pub(crate) fn available_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Maps `f` over `0..n` on up to `workers` threads (the calling thread is
/// one of them) and returns the results in item order.
///
/// # Errors
///
/// The error of the lowest-index failing item.
///
/// # Panics
///
/// When the lowest-index failing item panicked, its panic is re-raised on
/// the calling thread with the original payload.
pub(crate) fn try_map_ordered<R: Send, E: Send>(
    workers: usize,
    n: usize,
    f: impl Fn(usize) -> Result<R, E> + Sync,
) -> Result<Vec<R>, E> {
    // Both atomics are Relaxed: the counter's own modification order is
    // what orders the claims, a stale stop flag only lets a worker claim
    // one more item, and results travel back through the joins.
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let work = || {
        let mut done = Vec::new();
        while !stop.load(Ordering::Relaxed) {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| f(i)));
            if !matches!(outcome, Ok(Ok(_))) {
                stop.store(true, Ordering::Relaxed);
            }
            done.push((i, outcome));
        }
        done
    };
    let mut done = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers.min(n)).map(|_| s.spawn(work)).collect();
        let mut done = work();
        for h in helpers {
            done.extend(h.join().expect("item panics are caught inside the worker"));
        }
        done
    });
    // Claimed items form a prefix of 0..n, so sorting makes position and
    // index agree.
    done.sort_unstable_by_key(|&(i, _)| i);
    let mut out = Vec::with_capacity(done.len());
    for (i, outcome) in done {
        debug_assert_eq!(i, out.len());
        match outcome {
            Ok(Ok(r)) => out.push(r),
            Ok(Err(e)) => return Err(e),
            Err(payload) => resume_unwind(payload),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::{Condvar, Mutex};

    #[test]
    fn results_come_back_in_item_order() {
        for workers in [1, 2, 3, 8] {
            // Every thread holds one of the first `workers` items before
            // any item finishes, and items then finish strictly in index
            // order, so each thread ends up with interleaved indices.
            let gate = (Mutex::new((HashSet::new(), 0usize)), Condvar::new());
            let got = try_map_ordered(workers, 50, |i| {
                let (lock, cv) = &gate;
                let mut state = lock.lock().unwrap();
                state.0.insert(std::thread::current().id());
                cv.notify_all();
                let (_, finished) = &mut *cv
                    .wait_while(state, |(started, finished)| {
                        started.len() < workers || *finished < i
                    })
                    .unwrap();
                *finished += 1;
                cv.notify_all();
                Ok::<_, ()>(i * i)
            })
            .unwrap();
            assert_eq!(got, (0..50).map(|i| i * i).collect::<Vec<_>>());
            let empty = try_map_ordered(workers, 0, Ok::<_, ()>).unwrap();
            assert!(empty.is_empty());
        }
    }

    #[test]
    fn the_lowest_failing_item_wins_even_when_a_higher_one_fails_first() {
        for workers in 1..=5 {
            // Item 1 holds its failure until item 3 has failed, wherever a
            // second worker exists to run item 3 meanwhile.
            let item3_failed = (Mutex::new(false), Condvar::new());
            let highest_started = AtomicUsize::new(0);
            let got = try_map_ordered(workers, 8, |i| {
                highest_started.fetch_max(i, Ordering::Relaxed);
                match i {
                    1 => {
                        if workers > 1 {
                            let (lock, cv) = &item3_failed;
                            let _done = cv.wait_while(lock.lock().unwrap(), |done| !*done).unwrap();
                        }
                        Err("item 1")
                    }
                    3 => {
                        let (lock, cv) = &item3_failed;
                        *lock.lock().unwrap() = true;
                        cv.notify_all();
                        Err("item 3")
                    }
                    _ => Ok(i),
                }
            });
            assert_eq!(got, Err("item 1"), "{workers} worker(s)");
            // With one or two workers the schedule is fixed: nothing is
            // claimed after the first failure to finish.
            let last = highest_started.into_inner();
            match workers {
                1 => assert_eq!(last, 1),
                2 => assert_eq!(last, 3),
                _ => {}
            }
        }
    }

    #[test]
    fn a_panicking_item_re_raises_its_own_payload() {
        for workers in 1..=4 {
            let caught = catch_unwind(|| {
                try_map_ordered(workers, 6, |i| {
                    if i == 2 {
                        std::panic::panic_any(("item", i));
                    }
                    Ok::<_, ()>(i)
                })
            })
            .expect_err("the panic must reach the caller");
            assert_eq!(
                caught.downcast_ref::<(&str, usize)>(),
                Some(&("item", 2)),
                "{workers} worker(s)"
            );
        }
    }

    #[test]
    fn a_lower_error_beats_a_higher_panic() {
        for workers in 1..=4 {
            let got = try_map_ordered(workers, 6, |i| match i {
                1 => Err("item 1"),
                4 => panic!("item 4"),
                _ => Ok(i),
            });
            assert_eq!(got, Err("item 1"), "{workers} worker(s)");
        }
    }
}
