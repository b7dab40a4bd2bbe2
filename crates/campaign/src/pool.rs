//! The workspace's single threading implementation: a scoped worker
//! pool over a shared work queue.
//!
//! Promoted and generalized from the private `parallel_map` that used
//! to live in `dra-bench`: the pool adds a configurable worker count
//! (campaign determinism is *verified* by running the same campaign on
//! 1 and N workers) and per-item panic isolation (one poisoned cell
//! must fail that cell, not the whole campaign).
//!
//! Work distribution is a shared queue: idle workers claim the next
//! item as they finish, so long items never serialize behind short
//! ones regardless of input order.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// A fixed-size scoped worker pool.
#[derive(Debug, Clone, Copy)]
pub struct WorkerPool {
    workers: usize,
}

impl WorkerPool {
    /// Pool with exactly `workers` threads (clamped to ≥ 1).
    pub fn new(workers: usize) -> Self {
        WorkerPool {
            workers: workers.max(1),
        }
    }

    /// Pool sized to the machine (`available_parallelism`, min 1).
    pub fn auto() -> Self {
        Self::new(default_workers())
    }

    /// Map `inputs` through `f`, preserving input order in the output.
    ///
    /// # Panics
    /// Propagates the first panic raised by `f` (see [`Self::try_map`]
    /// for the isolating variant).
    pub fn map<I, O, F>(&self, inputs: Vec<I>, f: F) -> Vec<O>
    where
        I: Send,
        O: Send,
        F: Fn(&I) -> O + Sync,
    {
        self.try_map(inputs, f)
            .into_iter()
            .map(|r| match r {
                Ok(o) => o,
                Err(p) => panic!("worker item panicked: {}", p.message),
            })
            .collect()
    }

    /// Map with per-item panic isolation: a panic in `f` becomes an
    /// `Err(ItemPanic)` for that item only; the remaining items still
    /// run to completion.
    pub fn try_map<I, O, F>(&self, inputs: Vec<I>, f: F) -> Vec<Result<O, ItemPanic>>
    where
        I: Send,
        O: Send,
        F: Fn(&I) -> O + Sync,
    {
        let n = inputs.len();
        if n == 0 {
            return Vec::new();
        }
        let threads = self.workers.min(n);
        if threads == 1 {
            // Run inline: no thread spawn cost, same semantics.
            return inputs
                .iter()
                .enumerate()
                .map(|(idx, input)| run_item(&f, input, idx))
                .collect();
        }

        let results: Mutex<Vec<Option<Result<O, ItemPanic>>>> =
            Mutex::new((0..n).map(|_| None).collect());
        // Items move out through the shared queue so `I` only needs
        // `Send`; each worker owns the item while running `f` on it.
        let work: Mutex<std::vec::IntoIter<(usize, I)>> = Mutex::new(
            inputs
                .into_iter()
                .enumerate()
                .collect::<Vec<_>>()
                .into_iter(),
        );
        let f = &f;

        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| loop {
                    let item = work.lock().expect("work queue lock").next();
                    match item {
                        Some((idx, input)) => {
                            let out = run_item(f, &input, idx);
                            results.lock().expect("results lock")[idx] = Some(out);
                        }
                        None => break,
                    }
                });
            }
        });

        results
            .into_inner()
            .expect("results lock")
            .into_iter()
            .map(|o| o.expect("all work items completed"))
            .collect()
    }
}

fn run_item<I, O, F: Fn(&I) -> O>(f: &F, input: &I, index: usize) -> Result<O, ItemPanic> {
    catch_unwind(AssertUnwindSafe(|| f(input))).map_err(|payload| ItemPanic {
        index,
        message: panic_message(payload.as_ref()),
    })
}

/// A captured panic from one work item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemPanic {
    /// Position of the panicked item in the *input* vector. `try_map`
    /// already returns results in input order, but a caller that keys
    /// records by item identity must use this — not the result slot it
    /// happened to read the error from — so a future reordering of the
    /// result vector cannot silently mis-attribute failures.
    pub index: usize,
    /// The panic payload rendered as text (`&str`/`String` payloads;
    /// anything else becomes a placeholder).
    pub message: String,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Machine-sized worker count.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
}

/// Map `inputs` through `f` on a machine-sized pool, preserving order.
///
/// Drop-in for the old `dra_bench::parallel_map` (which now re-exports
/// this function).
pub fn parallel_map<I, O, F>(inputs: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    WorkerPool::auto().map(inputs, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let inputs: Vec<u64> = (0..100).collect();
        let out = WorkerPool::new(7).map(inputs.clone(), |&x| x * 2);
        let expect: Vec<u64> = inputs.iter().map(|x| x * 2).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn map_empty() {
        let out: Vec<u8> = WorkerPool::new(4).map(Vec::<u8>::new(), |_| 0u8);
        assert!(out.is_empty());
    }

    #[test]
    fn single_worker_runs_inline() {
        let out = WorkerPool::new(1).map(vec![1, 2, 3], |&x: &i32| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn try_map_isolates_panics() {
        let out = WorkerPool::new(4).try_map((0..20u32).collect(), |&x| {
            if x % 7 == 3 {
                panic!("poisoned item {x}");
            }
            x * 10
        });
        for (i, r) in out.iter().enumerate() {
            if i % 7 == 3 {
                let p = r.as_ref().unwrap_err();
                assert!(p.message.contains("poisoned item"), "{:?}", p);
                assert_eq!(p.index, i, "panic must carry its input index");
            } else {
                assert_eq!(*r.as_ref().unwrap(), i as u32 * 10);
            }
        }
    }

    #[test]
    fn item_panic_index_names_the_input_position() {
        for workers in [1, 4] {
            let out = WorkerPool::new(workers).try_map(vec![10u32, 11, 12, 13], |&x| {
                if x % 2 == 1 {
                    panic!("odd input {x}");
                }
                x
            });
            let bad: Vec<usize> = out
                .iter()
                .filter_map(|r| r.as_ref().err().map(|p| p.index))
                .collect();
            assert_eq!(bad, vec![1, 3], "workers = {workers}");
        }
    }

    #[test]
    fn try_map_isolates_panics_inline_too() {
        let out = WorkerPool::new(1).try_map(vec![0u8, 1], |&x| {
            if x == 0 {
                panic!("zero");
            }
            x
        });
        assert!(out[0].is_err());
        assert_eq!(*out[1].as_ref().unwrap(), 1);
    }

    #[test]
    fn parallel_map_matches_serial() {
        let offset = 7u64;
        let out = parallel_map((0..50u64).collect(), |&x| x + offset);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64 + offset);
        }
    }

    #[test]
    fn results_independent_of_worker_count() {
        let inputs: Vec<u64> = (0..64).collect();
        let one = WorkerPool::new(1).map(inputs.clone(), |&x| x * x);
        let many = WorkerPool::new(8).map(inputs, |&x| x * x);
        assert_eq!(one, many);
    }
}
