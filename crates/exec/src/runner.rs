//! Deterministic work-stealing execution of scenario batches.
//!
//! The runner replaces the ad-hoc scoped-thread fan-outs that used to be
//! copy-pasted into the bench tables and the spectrum census. Work is
//! dealt in chunks off a shared atomic cursor — idle workers steal the
//! next chunk as soon as they finish one, so a pocket of slow scenarios
//! (long steady-state periods) cannot idle the rest of the pool — and
//! results are stitched back into submission order, so the output is
//! byte-identical for any thread count.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::cache::{CacheStats, ResultCache};
use crate::scenario::Scenario;

/// Default number of scenarios grabbed per steal.
pub const DEFAULT_CHUNK: usize = 8;

/// A deterministic parallel executor for [`Scenario`] batches.
#[derive(Debug, Clone)]
pub struct Runner {
    threads: usize,
    chunk: usize,
}

impl Default for Runner {
    fn default() -> Self {
        Self::new()
    }
}

/// Execution counters of one [`Runner::run_cached`] batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecReport {
    /// Scenarios submitted.
    pub scenarios: u64,
    /// Worker threads used.
    pub threads: u64,
    /// Chunk size used for stealing.
    pub chunk: u64,
    /// Cache counters measured over this batch alone.
    pub cache: CacheStats,
}

impl Runner {
    /// A runner using every available core.
    #[must_use]
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        Self {
            threads,
            chunk: DEFAULT_CHUNK,
        }
    }

    /// A runner with an explicit worker count (`0` is clamped to `1`).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            chunk: DEFAULT_CHUNK,
        }
    }

    /// Sets the number of scenarios grabbed per steal (`0` clamped to `1`).
    #[must_use]
    pub fn chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    /// Configured worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Configured steal-chunk size.
    #[must_use]
    pub fn chunk_size(&self) -> usize {
        self.chunk
    }

    /// Executes every scenario, returning outcomes in submission order.
    pub fn run<S: Scenario>(&self, scenarios: &[S]) -> Vec<S::Output> {
        self.execute(scenarios, |s| s.execute())
    }

    /// Executes every scenario through `cache`: key-equal scenarios (e.g.
    /// isomorphic stream pairs) simulate once and replay for the rest.
    /// Outcomes come back in submission order; the report carries the
    /// batch's own hit/miss delta.
    pub fn run_cached<S: Scenario>(
        &self,
        scenarios: &[S],
        cache: &ResultCache<S::Key, S::Output>,
    ) -> (Vec<S::Output>, ExecReport) {
        let before = cache.stats();
        let outputs = self.execute(scenarios, |s| match s.key() {
            Some(key) => cache.get_or_compute(key, || s.execute()),
            None => s.execute(),
        });
        let after = cache.stats();
        let report = ExecReport {
            scenarios: scenarios.len() as u64,
            threads: self.threads.min(scenarios.len().max(1)) as u64,
            chunk: self.chunk as u64,
            cache: CacheStats {
                hits: after.hits - before.hits,
                misses: after.misses - before.misses,
                coalesced: after.coalesced - before.coalesced,
            },
        };
        (outputs, report)
    }

    fn execute<S, F, O>(&self, scenarios: &[S], work: F) -> Vec<O>
    where
        S: Sync,
        O: Send,
        F: Fn(&S) -> O + Sync,
    {
        let n = scenarios.len();
        if n == 0 {
            return Vec::new();
        }
        let threads = self.threads.min(n);
        if threads == 1 {
            return scenarios.iter().map(work).collect();
        }
        let cursor = AtomicUsize::new(0);
        let merged: Mutex<Vec<(usize, O)>> = Mutex::new(Vec::with_capacity(n));
        let worker = || {
            let mut local: Vec<(usize, O)> = Vec::new();
            loop {
                let start = cursor.fetch_add(self.chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                let end = (start + self.chunk).min(n);
                for (i, s) in scenarios[start..end].iter().enumerate() {
                    local.push((start + i, work(s)));
                }
            }
            #[expect(
                clippy::expect_used,
                reason = "the lock is held only for an `append`, which cannot panic, so it is never poisoned"
            )]
            merged.lock().expect("runner merge").append(&mut local);
        };
        // The calling thread is one of the `threads` workers: it would
        // otherwise only wait in the scope's join, and every spawned thread
        // adds a stack and an allocator arena to the resident set.
        std::thread::scope(|scope| {
            for _ in 1..threads {
                scope.spawn(worker);
            }
            worker();
        });
        #[expect(
            clippy::expect_used,
            reason = "`thread::scope` re-raises any worker panic before this line, so the mutex is not poisoned"
        )]
        let mut indexed = merged.into_inner().expect("runner merge");
        debug_assert_eq!(indexed.len(), n);
        // Stitch back into submission order: determinism across thread
        // counts falls out of sorting by the original index.
        indexed.sort_by_key(|(i, _)| *i);
        indexed.into_iter().map(|(_, o)| o).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scenario that records which worker-visible index it ran as.
    struct Square(u64);

    impl Scenario for Square {
        type Output = u64;
        type Key = u64;

        fn key(&self) -> Option<u64> {
            Some(self.0)
        }

        fn execute(&self) -> u64 {
            self.0 * self.0
        }
    }

    #[test]
    fn preserves_submission_order() {
        let scenarios: Vec<Square> = (0..100).map(Square).collect();
        let expected: Vec<u64> = (0..100).map(|i| i * i).collect();
        for threads in [1, 2, 3, 8] {
            let out = Runner::with_threads(threads).chunk(3).run(&scenarios);
            assert_eq!(out, expected, "threads = {threads}");
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let out = Runner::new().run(&Vec::<Square>::new());
        assert!(out.is_empty());
    }

    #[test]
    fn cached_run_dedupes_key_equal_scenarios() {
        // 40 scenarios but only 10 distinct keys.
        let scenarios: Vec<Square> = (0..40).map(|i| Square(i % 10)).collect();
        let cache = ResultCache::new();
        let (out, report) = Runner::with_threads(4).run_cached(&scenarios, &cache);
        let expected: Vec<u64> = (0..40).map(|i| (i % 10) * (i % 10)).collect();
        assert_eq!(out, expected);
        assert_eq!(report.scenarios, 40);
        assert_eq!(cache.len(), 10);
        let stats = report.cache;
        // Racing workers may both miss a fresh key, but hits + misses is
        // exactly the lookup count and at least 10 must have missed.
        assert_eq!(stats.hits + stats.misses, 40);
        assert!(stats.misses >= 10);
        // Every duplicate in-flight computation is visible as a coalesce.
        assert_eq!(stats.coalesced, stats.misses - 10);
        // A serial re-run hits every time.
        let (out2, report2) = Runner::with_threads(1).run_cached(&scenarios, &cache);
        assert_eq!(out2, expected);
        assert_eq!(report2.cache.hits, 40);
        assert_eq!(report2.cache.misses, 0);
    }

    #[test]
    fn report_threads_capped_by_batch() {
        let cache = ResultCache::new();
        let (_, report) = Runner::with_threads(16).run_cached(&[Square(1), Square(2)], &cache);
        assert_eq!(report.threads, 2);
        assert_eq!(report.chunk, DEFAULT_CHUNK as u64);
    }
}
