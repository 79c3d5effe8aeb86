//! The parallel sweep executor.
//!
//! Every figure in the paper is a sweep: benchmarks × cache sides × many
//! configurations, each cell an independent replay of a recorded trace
//! against a fresh cache model. This module fans those cells across a
//! `std::thread::scope` job pool:
//!
//! * **Zero-copy** — worker closures borrow the recorded traces (`&`);
//!   nothing is cloned per cell.
//! * **Deterministic** — results are returned in job-index order no
//!   matter which worker computed them or when it finished, so report
//!   output is byte-identical to a sequential run (verified by the
//!   `sequential_parallel_equivalence` integration test).
//! * **Controllable** — the `JOUPPI_THREADS` environment variable caps
//!   the worker count (default: all cores; `1` forces the sequential
//!   in-place path). [`set_thread_count`] is the programmatic override
//!   used by benchmarks and tests.
//!
//! # Examples
//!
//! ```
//! let squares = jouppi_experiments::sweep::map_jobs(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;

/// Programmatic thread-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Process-wide count of sweep cells executed (observability hook for
/// `jouppi serve`'s `/metrics`); monotonically increasing.
static CELLS_EXECUTED: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of references answered by the single-pass
/// multi-geometry engine (`jouppi_single_pass_refs_total` on `/metrics`);
/// monotonically increasing.
static SINGLE_PASS_REFS: AtomicU64 = AtomicU64::new(0);

/// Total jobs run through [`map_jobs`] since process start.
pub fn cells_executed() -> u64 {
    // jouppi-lint: allow(relaxed-ordering) — point-in-time sample of a
    // monotone observability counter; exact under any ordering.
    CELLS_EXECUTED.load(Ordering::Relaxed)
}

/// Total references answered by single-pass engines since process start.
pub fn single_pass_refs() -> u64 {
    // jouppi-lint: allow(relaxed-ordering) — point-in-time sample of a
    // monotone observability counter; exact under any ordering.
    SINGLE_PASS_REFS.load(Ordering::Relaxed)
}

/// Records `n` references answered by a single-pass engine.
pub fn note_single_pass_refs(n: u64) {
    // jouppi-lint: allow(relaxed-ordering) — atomic RMW on a monotone
    // counter loses no increments; ordering only affects when other
    // threads see them, not the total.
    SINGLE_PASS_REFS.fetch_add(n, Ordering::Relaxed);
}

/// Overrides the worker count for all subsequent sweeps in this process,
/// taking precedence over `JOUPPI_THREADS`. Pass 0 to clear the override.
///
/// Exists so benchmarks and equivalence tests can compare sequential and
/// parallel execution without mutating the process environment.
pub fn set_thread_count(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// The number of worker threads a sweep will use:
/// [`set_thread_count`] override if set, else `JOUPPI_THREADS` if parsable,
/// else all available cores.
#[expect(
    clippy::disallowed_methods,
    reason = "worker count shapes scheduling only; sweep results merge in job-index order, identical at any thread count"
)]
fn thread_count() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    if let Ok(raw) = std::env::var("JOUPPI_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    available_cores()
}

/// The machine's available parallelism (1 if it cannot be determined).
fn available_cores() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs jobs `0..n` through `f`, fanning them over `thread_count()`
/// scoped worker threads, and returns the results in job-index order.
///
/// With one worker (or one job) this degenerates to a plain sequential
/// loop on the calling thread — no threads are spawned, so
/// `JOUPPI_THREADS=1` reproduces the pre-sweep-engine behavior exactly.
/// Workers pull jobs from a shared atomic counter (cheap work stealing:
/// cells vary wildly in cost — a 15-entry victim cache replay is much
/// slower than a 1-entry one — so static chunking would leave cores
/// idle).
///
/// # Panics
///
/// Propagates a panic from any job.
pub fn map_jobs<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    // jouppi-lint: allow(relaxed-ordering) — atomic RMW on a monotone
    // counter loses no increments; ordering only affects when other
    // threads see them, not the total.
    CELLS_EXECUTED.fetch_add(n as u64, Ordering::Relaxed);
    let workers = thread_count().min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || loop {
                // jouppi-lint: allow(relaxed-ordering) — fetch_add claims
                // each index exactly once by RMW atomicity; results are
                // ordered by the carried index, not by visibility.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // A send only fails if the receiver is gone, which means
                // another worker panicked; stop quietly and let the scope
                // propagate that panic.
                if tx.send((i, f(i))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let mut received = 0;
        for (i, out) in rx {
            slots[i] = Some(out);
            received += 1;
        }
        if received == n {
            Some(slots.into_iter().map(|s| s.expect("counted")).collect())
        } else {
            // A worker died before finishing; scope join will re-raise its
            // panic when this closure returns.
            None
        }
    })
    .expect("a sweep worker panicked")
}

/// Below this many references per job, thread spawn/channel overhead
/// outweighs the parallel win and a sweep runs faster sequentially
/// (a timed run showed the fig_3_1 classify schedule *losing* ~19% at
/// 2 threads on a 60k-scale run whose jobs replay ~42k references
/// each).
pub const MIN_PARALLEL_REFS_PER_JOB: u64 = 150_000;

/// Like [`map_jobs`], but sized: `refs_per_job` is the approximate
/// number of trace references each job will replay. Sweeps whose jobs
/// fall below [`MIN_PARALLEL_REFS_PER_JOB`] run sequentially on the
/// calling thread — same results in the same order (pinned by the
/// `sized_schedule_is_bit_identical` test), without paying thread
/// startup for work that finishes in microseconds.
pub fn map_jobs_sized<T: Send>(
    n: usize,
    refs_per_job: u64,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    if refs_per_job < MIN_PARALLEL_REFS_PER_JOB {
        // jouppi-lint: allow(relaxed-ordering) — atomic RMW on a monotone
        // counter loses no increments; ordering only affects when other
        // threads see them, not the total.
        CELLS_EXECUTED.fetch_add(n as u64, Ordering::Relaxed);
        return (0..n).map(f).collect();
    }
    map_jobs(n, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes the tests that reprogram the global thread override.
    static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn results_are_in_job_order() {
        let out = map_jobs(100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn zero_jobs_is_empty() {
        let out: Vec<u32> = map_jobs(0, |_| panic!("no job runs"));
        assert!(out.is_empty());
    }

    #[test]
    fn sequential_override_matches_parallel() {
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let work = |i: usize| (0..1000).fold(i as u64, |a, x| a.wrapping_mul(31).wrapping_add(x));
        set_thread_count(1);
        let seq = map_jobs(32, work);
        set_thread_count(4);
        let par = map_jobs(32, work);
        set_thread_count(0);
        assert_eq!(seq, par);
    }

    #[test]
    fn thread_count_respects_override() {
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_thread_count(3);
        assert_eq!(thread_count(), 3);
        set_thread_count(0);
        assert!(thread_count() >= 1);
    }

    #[test]
    fn sized_schedule_is_bit_identical() {
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let work = |i: usize| (0..500).fold(i as u64, |a, x| a.wrapping_mul(31).wrapping_add(x));
        set_thread_count(4);
        let parallel = map_jobs(24, work);
        // Tiny jobs: runs sequentially despite the 4-thread override...
        let small = map_jobs_sized(24, MIN_PARALLEL_REFS_PER_JOB - 1, work);
        // ...big jobs: delegates to the parallel pool.
        let big = map_jobs_sized(24, MIN_PARALLEL_REFS_PER_JOB, work);
        set_thread_count(0);
        assert_eq!(small, parallel);
        assert_eq!(big, parallel);
    }

    #[test]
    fn sized_schedule_counts_cells_and_single_pass_refs() {
        let before = cells_executed();
        let _ = map_jobs_sized(5, 0, |i| i);
        assert_eq!(cells_executed() - before, 5);
        let before = single_pass_refs();
        note_single_pass_refs(123);
        assert_eq!(single_pass_refs() - before, 123);
    }

    #[test]
    fn borrows_shared_data_by_reference() {
        let data: Vec<u64> = (0..1000).collect();
        let sums = map_jobs(10, |i| data.iter().skip(i).sum::<u64>());
        assert_eq!(sums[0], 499_500);
        assert!(sums.windows(2).all(|w| w[0] >= w[1]));
    }
}
