//! A deterministic scoped-thread work pool.
//!
//! The experiment matrix is a grid of *independent* trials: every cell
//! builds its own [`World`](../cor_kernel/struct.World.html) from scratch,
//! runs it to completion, and reports plain-data results. That makes the
//! grid embarrassingly parallel — as long as no simulation state ever
//! crosses a thread (the kernel's page frames are `Rc<RefCell<_>>` and
//! deliberately `!Send`). This crate provides the one primitive the
//! experiment engine needs: run a batch of closures across worker threads
//! and hand the results back **in submission order**, so downstream
//! rendering is byte-identical to a serial run at any thread count.
//!
//! Like `crates/proptest`, this is an offline, dependency-free stand-in
//! for what would otherwise be a crates.io dependency (rayon); the build
//! container has no network access.
//!
//! # Determinism argument
//!
//! Each job is `FnOnce() -> T + Send`: it owns everything it touches and
//! builds any simulation state *inside* the closure, on the worker that
//! claims it. Workers claim jobs from a shared queue in an arbitrary
//! order, but results land in a slot chosen by the job's submission
//! index, so `run` returns exactly what the serial loop
//! `jobs.into_iter().map(|j| j()).collect()` would — the schedule can
//! reorder *execution*, never *observation*.
//!
//! # Examples
//!
//! ```
//! use cor_pool::Pool;
//!
//! let pool = Pool::new(4);
//! let jobs: Vec<_> = (0..32u64).map(|i| move || i * i).collect();
//! let squares = pool.run(jobs);
//! assert_eq!(squares[7], 49);
//! assert_eq!(squares, Pool::serial().run((0..32u64).map(|i| move || i * i).collect::<Vec<_>>()));
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Jobs claimed per queue interaction. Trials are coarse (a fraction of a
/// millisecond to a few milliseconds each; a whole `experiments all`
/// takes under 0.3 s on a 2-core Xeon), so a small chunk keeps the tail
/// balanced; the chunking exists so a future fine-grained workload can
/// raise it without touching the claim loop.
const CHUNK: usize = 1;

/// A fixed-width worker pool dispatching closures over scoped threads.
///
/// The pool holds no threads between calls: [`Pool::run`] spawns scoped
/// workers for the batch and joins them before returning, so borrowing
/// from the caller's stack is safe and nothing outlives the call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool with exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
        }
    }

    /// A single-threaded pool: `run` degenerates to an in-order loop on
    /// the calling thread.
    pub fn serial() -> Self {
        Pool::new(1)
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every job and returns the results in submission order.
    ///
    /// With one worker (or zero/one jobs) the jobs run in order on the
    /// calling thread with no synchronization at all — the serial and
    /// pooled paths produce identical output by construction.
    ///
    /// # Panics
    ///
    /// If a job panics, the panic is propagated to the caller after the
    /// remaining workers drain (matching the serial loop's fail-fast
    /// observable: the batch dies).
    pub fn run<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        if self.threads == 1 || jobs.len() <= 1 {
            return jobs.into_iter().map(|j| j()).collect();
        }
        let n = jobs.len();
        let workers = self.threads.min(n);
        // Each job sits in its own slot so workers take them without
        // contending on one queue lock for the whole batch.
        let job_slots: Vec<Mutex<Option<F>>> =
            jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let result_slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                handles.push(scope.spawn(|| loop {
                    let start = next.fetch_add(CHUNK, Ordering::Relaxed);
                    if start >= n {
                        return;
                    }
                    for i in start..(start + CHUNK).min(n) {
                        let job = job_slots[i]
                            .lock()
                            .expect("job slot poisoned")
                            .take()
                            .expect("job claimed twice");
                        let out = job();
                        *result_slots[i].lock().expect("result slot poisoned") = Some(out);
                    }
                }));
            }
            // Join explicitly so a worker panic surfaces as this thread's
            // panic rather than a silent missing result.
            for h in handles {
                if let Err(payload) = h.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
        result_slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .unwrap_or_else(|| panic!("job {i} produced no result"))
            })
            .collect()
    }

    /// Maps `f` over `0..count` in parallel, results in index order —
    /// convenience for grids addressed by cell index.
    pub fn run_indexed<T, F>(&self, count: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Send + Sync,
    {
        let f = &f;
        self.run((0..count).map(|i| move || f(i)).collect())
    }
}

impl Default for Pool {
    /// A pool with one worker per core the machine makes available.
    fn default() -> Self {
        Pool::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = Pool::new(8);
        let jobs: Vec<_> = (0..100u64)
            .map(|i| {
                move || {
                    // Stagger so late indices often finish first.
                    if i % 3 == 0 {
                        std::thread::yield_now();
                    }
                    i * 7
                }
            })
            .collect();
        let out = pool.run(jobs);
        assert_eq!(out, (0..100u64).map(|i| i * 7).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let work = || (0..50u64).map(|i| move || i.pow(3) % 97).collect::<Vec<_>>();
        assert_eq!(Pool::serial().run(work()), Pool::new(4).run(work()));
    }

    #[test]
    fn empty_and_single_batches() {
        let pool = Pool::new(4);
        let empty: Vec<fn() -> u32> = Vec::new();
        assert!(pool.run(empty).is_empty());
        assert_eq!(pool.run(vec![|| 42u32]), vec![42]);
    }

    #[test]
    fn thread_count_clamps_to_one() {
        assert_eq!(Pool::new(0).threads(), 1);
        assert_eq!(Pool::serial().threads(), 1);
    }

    #[test]
    fn run_indexed_matches_direct_map() {
        let pool = Pool::new(3);
        assert_eq!(
            pool.run_indexed(10, |i| i * i),
            (0..10).map(|i| i * i).collect::<Vec<_>>()
        );
    }

    #[test]
    fn jobs_may_borrow_caller_state() {
        let data: Vec<u64> = (0..20).collect();
        let pool = Pool::new(4);
        let jobs: Vec<_> = data.iter().map(|&x| move || x + 1).collect();
        let out = pool.run(jobs);
        assert_eq!(out.iter().sum::<u64>(), (1..=20).sum::<u64>());
    }

    #[test]
    fn worker_panic_propagates() {
        let pool = Pool::new(2);
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("boom")),
            Box::new(|| 3),
        ];
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.run(jobs)));
        assert!(res.is_err(), "panic must propagate to the caller");
    }
}
