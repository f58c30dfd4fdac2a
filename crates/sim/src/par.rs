//! Deterministic parallel execution over scoped threads.
//!
//! Three stages fan out, the ones whose time a second worker
//! measurably cuts: the collection driver's event shards
//! (`feeds::IngestState::advance`), the crawl's domain shards
//! (`crawler::Crawler::crawl`) and `replicate`'s per-seed runs. Each
//! task owns its derived RNG stream and writes only its own output;
//! the analyses after the crawl run serially. This module fans such
//! tasks across a bounded worker pool built on [`std::thread::scope`]
//! (no external dependencies) while keeping output *bit-identical* to
//! a serial run:
//!
//! * results are returned in **input order**, regardless of which
//!   worker ran which task or in what order tasks finished;
//! * tasks receive no information about the worker count, so a
//!   correct caller (one whose tasks are pure functions of their
//!   input) produces the same output at any [`Parallelism`].
//!
//! Worker count resolution: the `--threads` CLI flag
//! ([`Parallelism::fixed`]), else [`std::thread::available_parallelism`]
//! ([`Parallelism::default`]).

#![allow(
    clippy::disallowed_methods,
    reason = "the one fan-out pool: scoped workers whose results merge in input order"
)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker-count configuration for the parallel stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    workers: usize,
}

impl Default for Parallelism {
    /// One worker per available core.
    fn default() -> Parallelism {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Parallelism::fixed(cores)
    }
}

impl Parallelism {
    /// Exactly `workers` worker threads (clamped to at least one).
    pub fn fixed(workers: usize) -> Parallelism {
        Parallelism {
            workers: workers.max(1),
        }
    }

    /// Serial execution: a single worker on the calling thread.
    pub fn serial() -> Parallelism {
        Parallelism::fixed(1)
    }

    /// The configured worker count (always ≥ 1).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Maps `f` over `items`, returning results in input order.
    ///
    /// With one worker (or zero/one items) this runs inline on the
    /// calling thread; otherwise up to `workers` scoped threads pull
    /// tasks from a shared index. `f` must be a pure function of its
    /// item for output to be independent of the worker count — every
    /// caller in this workspace passes tasks that own derived RNG
    /// streams, which satisfies this.
    pub fn par_map<T, U, F>(&self, items: Vec<T>, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        let n = items.len();
        if self.workers == 1 || n <= 1 {
            return items.into_iter().map(f).collect();
        }

        // Each task slot holds Some(input) before the run and its
        // output after; a shared atomic cursor hands out the next
        // unclaimed index. Input order is preserved because task i's
        // result lands in slot i no matter which worker computes it.
        let tasks: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let slots: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        let workers = self.workers.min(n);

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    // The atomic cursor hands each index to exactly one
                    // worker, so the slot always still holds its input;
                    // skip defensively rather than panic if it does not.
                    let Some(item) = tasks[i]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .take()
                    else {
                        continue;
                    };
                    let out = f(item);
                    *slots[i]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(out);
                });
            }
        });

        slots.into_iter().map(take_slot).collect()
    }
}

/// Unwraps one completed result slot. `scope()` propagates worker
/// panics before `par_map` reaches this point, so an empty slot means
/// results were lost; returning a shortened vector would silently
/// corrupt the ordered merge, so this is the one place the pool
/// prefers a loud abort.
#[expect(
    clippy::expect_used,
    reason = "scope() propagates worker panics; an empty slot means lost results and must abort rather than silently corrupt the ordered merge"
)]
fn take_slot<U>(slot: Mutex<Option<U>>) -> U {
    slot.into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .expect("worker completed every claimed task")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        for workers in [1, 2, 3, 8, 33] {
            let par = Parallelism::fixed(workers);
            let out = par.par_map((0..100).collect(), |x: u64| x * x);
            assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn worker_count_is_invisible_to_tasks() {
        let serial = Parallelism::serial().par_map((0..500).collect(), collatz_len);
        for workers in [2, 4, 16] {
            let parallel = Parallelism::fixed(workers).par_map((0..500).collect(), collatz_len);
            assert_eq!(serial, parallel);
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let par = Parallelism::fixed(8);
        assert_eq!(par.par_map(Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(par.par_map(vec![7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn fixed_clamps_to_one() {
        assert_eq!(Parallelism::fixed(0).workers(), 1);
        assert!(Parallelism::default().workers() >= 1);
    }

    fn collatz_len(mut n: u64) -> u32 {
        n += 1;
        let mut steps = 0;
        while n != 1 {
            n = if n.is_multiple_of(2) {
                n / 2
            } else {
                3 * n + 1
            };
            steps += 1;
        }
        steps
    }
}
