//! Deterministic fan-out of independent experiment runs across threads.
//!
//! Every sweep point of [`crate::experiments`] is an isolated simulation:
//! it builds its own chip and derives its own trace from fixed seeds, so
//! points can run concurrently and still produce bit-identical reports.
//! [`run_indexed`] distributes point indices over `std::thread::scope`
//! workers via an atomic work-stealing counter and returns the results in
//! index order, so callers observe exactly the serial output regardless of
//! scheduling.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding the sweep worker count.
pub const THREADS_ENV: &str = "SWL_SWEEP_THREADS";

/// Number of worker threads sweeps will use: `SWL_SWEEP_THREADS` when set
/// to a positive integer, else the machine's available parallelism.
pub fn sweep_threads() -> usize {
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// Runs `task(0..tasks)` across [`sweep_threads`] scoped workers and
/// returns the results in index order.
///
/// `task` must be a pure function of its index for the output to be
/// deterministic — which holds for experiment runs, as each builds all of
/// its state from per-point seeds. With one worker (or one task) this
/// degenerates to a plain serial loop.
///
/// # Panics
///
/// A panicking task panics the calling thread (not an opaque worker
/// `join` failure), with the task index in the message. Sweeps that know
/// their grid use [`run_indexed_labeled`] so the message names the failing
/// grid point.
pub fn run_indexed<T, F>(tasks: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_indexed_labeled_on(sweep_threads(), tasks, |i| format!("task #{i}"), task)
}

/// [`run_indexed`] with an explicit worker count (exposed for tests and
/// benchmarks that compare serial against parallel execution).
pub fn run_indexed_on<T, F>(threads: usize, tasks: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_indexed_labeled_on(threads, tasks, |i| format!("task #{i}"), task)
}

/// [`run_indexed`] with a `label` naming each task for panic propagation:
/// when `task(i)` panics, the coordinator re-panics with `label(i)` and the
/// original payload in the message, so a failing sweep names its grid
/// point — e.g. `(T=100, k=2)` — instead of an anonymous worker thread.
///
/// When several tasks panic, the lowest index wins (matching the "first
/// failing grid point in grid order" error contract of the sweeps).
pub fn run_indexed_labeled<T, F, L>(tasks: usize, label: L, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    L: Fn(usize) -> String,
{
    run_indexed_labeled_on(sweep_threads(), tasks, label, task)
}

/// [`run_indexed_labeled`] with an explicit worker count.
pub fn run_indexed_labeled_on<T, F, L>(threads: usize, tasks: usize, label: L, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    L: Fn(usize) -> String,
{
    let threads = threads.max(1).min(tasks);
    let run_one = |i: usize| catch_unwind(AssertUnwindSafe(|| task(i)));
    let mut slots: Vec<Option<T>> = (0..tasks).map(|_| None).collect();
    let mut first_panic: Option<(usize, Box<dyn std::any::Any + Send>)> = None;
    let note_panic = |first: &mut Option<(usize, Box<dyn std::any::Any + Send>)>,
                      i: usize,
                      payload: Box<dyn std::any::Any + Send>| {
        if first.as_ref().is_none_or(|(j, _)| i < *j) {
            *first = Some((i, payload));
        }
    };
    if threads <= 1 {
        for (i, slot) in slots.iter_mut().enumerate() {
            match run_one(i) {
                Ok(result) => *slot = Some(result),
                Err(payload) => {
                    note_panic(&mut first_panic, i, payload);
                    break;
                }
            }
        }
    } else {
        let next = AtomicUsize::new(0);
        let run_one = &run_one;
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= tasks {
                                break;
                            }
                            done.push((i, run_one(i)));
                        }
                        done
                    })
                })
                .collect();
            for worker in workers {
                for (i, result) in worker.join().expect("sweep worker died outside a task") {
                    match result {
                        Ok(result) => slots[i] = Some(result),
                        Err(payload) => note_panic(&mut first_panic, i, payload),
                    }
                }
            }
        });
    }
    if let Some((i, payload)) = first_panic {
        panic!(
            "sweep point {} panicked: {}",
            label(i),
            payload_text(&*payload)
        );
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every task index ran exactly once"))
        .collect()
}

/// Best-effort rendering of a panic payload (`&str` and `String` cover
/// everything `panic!` produces in practice).
fn payload_text(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_index_order() {
        for threads in [1, 2, 7] {
            let out = run_indexed_on(threads, 100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn handles_empty_and_single() {
        assert_eq!(run_indexed_on(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed_on(4, 1, |i| i + 1), vec![1]);
    }

    #[test]
    fn more_threads_than_tasks() {
        assert_eq!(run_indexed_on(16, 3, |i| i), vec![0, 1, 2]);
    }

    /// Runs `f` with panic output silenced (the hook is process-global, so
    /// the two panic-propagation tests serialise on a lock).
    fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        use std::sync::Mutex;
        static HOOK_LOCK: Mutex<()> = Mutex::new(());
        let guard = HOOK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = f();
        std::panic::set_hook(prev);
        drop(guard);
        result
    }

    #[test]
    fn panics_name_the_failing_grid_point() {
        for threads in [1, 4] {
            let caught = with_quiet_panics(|| {
                catch_unwind(AssertUnwindSafe(|| {
                    run_indexed_labeled_on(
                        threads,
                        4,
                        |i| {
                            if i == 0 {
                                "baseline".to_string()
                            } else {
                                format!("(T={}, k={})", 100 * i, i - 1)
                            }
                        },
                        |i| {
                            if i == 2 {
                                panic!("simulated failure");
                            }
                            i
                        },
                    )
                }))
            })
            .expect_err("the panicking task must propagate");
            let text = caught
                .downcast_ref::<String>()
                .expect("re-panic carries a formatted message")
                .clone();
            assert!(text.contains("(T=200, k=1)"), "missing label: {text}");
            assert!(
                text.contains("simulated failure"),
                "missing payload: {text}"
            );
        }
    }

    #[test]
    fn lowest_failing_index_wins() {
        let caught = with_quiet_panics(|| {
            catch_unwind(AssertUnwindSafe(|| {
                run_indexed_labeled_on(
                    4,
                    8,
                    |i| format!("point {i}"),
                    |i| {
                        if i % 2 == 1 {
                            panic!("odd index {i}");
                        }
                        i
                    },
                )
            }))
        })
        .expect_err("panics must propagate");
        let text = caught.downcast_ref::<String>().unwrap().clone();
        assert!(text.contains("point 1"), "lowest index must win: {text}");
    }
}
