//! Persistent worker-pool fan-out for order-space search.
//!
//! The order-space engine evaluates many independent (order ×
//! subcommunicator × payload) points; this module gives those loops a
//! deterministic parallel `map` built on a **process-global, lazily
//! initialized worker pool** — no external dependencies. Earlier
//! revisions spawned a fresh `std::thread::scope` per call; profiling the
//! bound-ladder sweeps showed the spawn/join cost per invocation eating
//! most of the parallel win on short ladders (the measured 1.04× pooled
//! vs 1.32× serial anomaly), so the workers are now spawned once and
//! parked on job channels between calls.
//!
//! Determinism: [`map`] returns results **in input order** regardless of
//! thread count or scheduling, so parallel callers produce byte-identical
//! output to the serial path (ties in later sorts are broken by position
//! exactly as before). Work is distributed dynamically through a shared
//! atomic cursor, so uneven item costs (e.g. characterizing packed vs
//! spread orders) still balance across workers.
//!
//! Worker-count precedence (first match wins):
//! 1. [`set_threads`] — the programmatic override (e.g. an
//!    `order_sweep --threads N` flag);
//! 2. the `MRE_PAR_THREADS` environment variable
//!    (`MRE_PAR_THREADS=1` forces the serial path; useful for
//!    benchmarking the speedup and for debugging);
//! 3. [`std::thread::available_parallelism`].
//!
//! The pool's *capacity* (threads actually spawned) is fixed on first
//! parallel use to `max(available_parallelism, threads())`; later calls
//! asking for more workers than the capacity are capped. A fan-out issued
//! *from inside* a pool worker runs inline on that worker (serial), which
//! keeps nested parallelism deadlock-free.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, OnceLock};

/// Environment variable overriding the worker count.
pub const THREADS_ENV: &str = "MRE_PAR_THREADS";

/// Programmatic worker-count override (0 = unset). Takes precedence over
/// the environment; see the module docs for the full precedence chain.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker count for subsequent fan-outs (`0` clears the
/// override). Takes precedence over `MRE_PAR_THREADS`. Call it before the
/// first parallel operation if you need it to also bound the pool
/// capacity — the pool is sized once, lazily, on first use.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// The worker count [`map`] will use: the [`set_threads`] override if
/// set, else `MRE_PAR_THREADS` if set and valid, else the machine's
/// available parallelism, else 1.
pub fn threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    if let Ok(value) = std::env::var(THREADS_ENV) {
        if let Ok(n) = value.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A unit of work shipped to a parked pool worker: call `task(worker)`
/// and report the outcome on `done`.
///
/// The `'static` on `task` is a lie told once, inside [`broadcast`], and
/// made sound there: the dispatching call does not return until every job
/// it submitted has reported on `done`, so the borrow behind `task`
/// strictly outlives every use.
struct Job {
    task: &'static (dyn Fn(usize) + Sync),
    worker: usize,
    done: mpsc::Sender<std::thread::Result<()>>,
}

/// The process-global pool: one job channel per parked worker thread.
struct Pool {
    senders: Vec<mpsc::Sender<Job>>,
}

/// Running totals for the pool, exposed through [`pool_stats`] so
/// benchmarks can record that ladder invocations reused one pool instead
/// of spawning per call.
static BROADCASTS: AtomicU64 = AtomicU64::new(0);
static JOBS: AtomicU64 = AtomicU64::new(0);

static POOL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// True on pool worker threads; nested fan-outs run inline.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let capacity = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .max(threads());
        let senders = (0..capacity)
            .map(|w| {
                let (tx, rx) = mpsc::channel::<Job>();
                std::thread::Builder::new()
                    .name(format!("mre-par-{w}"))
                    .spawn(move || {
                        IN_POOL.with(|flag| flag.set(true));
                        while let Ok(job) = rx.recv() {
                            let result = catch_unwind(AssertUnwindSafe(|| (job.task)(job.worker)));
                            // The dispatcher may itself have panicked and
                            // hung up; a send failure is then harmless.
                            let _ = job.done.send(result);
                        }
                    })
                    .expect("failed to spawn pool worker");
                tx
            })
            .collect();
        Pool { senders }
    })
}

/// Snapshot of the global pool, if it has been initialized: spawned
/// capacity plus cumulative broadcast/job dispatch counts.
#[derive(Debug, Clone, Copy)]
pub struct PoolStats {
    /// Worker threads spawned (fixed at first use).
    pub capacity: usize,
    /// Pooled fan-outs dispatched since process start.
    pub broadcasts: u64,
    /// Individual worker jobs dispatched since process start.
    pub jobs: u64,
}

/// Returns pool statistics, or `None` if no parallel fan-out has run yet
/// (the pool is lazy; serial runs never spawn it).
pub fn pool_stats() -> Option<PoolStats> {
    POOL.get().map(|pool| PoolStats {
        capacity: pool.senders.len(),
        broadcasts: BROADCASTS.load(Ordering::Relaxed),
        jobs: JOBS.load(Ordering::Relaxed),
    })
}

/// Applies `f` to every item and returns the results in input order.
///
/// `f` receives `(index, &item)`. Items are claimed one at a time from a
/// shared cursor, so long and short items mix freely across workers. With
/// one worker (or one item) the pool is not touched at all.
///
/// Panics in `f` propagate to the caller once every claimed item has
/// settled; the pool survives and later calls keep working.
///
/// ```
/// use mre_core::par;
/// let squares = par::map(&[1, 2, 3, 4], |_, &x: &i32| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = threads().min(items.len());
    if workers <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let chunks: Mutex<Vec<Vec<(usize, R)>>> = Mutex::new(Vec::with_capacity(workers));
    broadcast(workers, |_| {
        let mut local = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                break;
            }
            local.push((i, f(i, &items[i])));
        }
        chunks.lock().unwrap().push(local);
    });
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    for chunk in chunks.into_inner().unwrap() {
        for (i, r) in chunk {
            debug_assert!(slots[i].is_none());
            slots[i] = Some(r);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index was claimed exactly once"))
        .collect()
}

/// Runs `f(worker_index)` on up to `workers` pooled threads and waits for
/// them all — the raw fan-out under [`map`], exposed for engines that
/// coordinate through shared atomics instead of an input slice (e.g. the
/// branch-and-bound frontier of `order_search`, whose workers claim
/// candidates from a shared cursor and race a CAS incumbent).
///
/// With `workers <= 1` — or when called from inside a pool worker — the
/// closure runs inline on the caller's thread for every index, which is
/// byte-identical to a serial call and keeps nested fan-outs
/// deadlock-free. Panics in `f` propagate to the caller after all
/// dispatched jobs settle.
pub fn broadcast<F>(workers: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let inline = workers <= 1 || IN_POOL.with(|flag| flag.get());
    if inline {
        for w in 0..workers.max(1) {
            f(w);
        }
        return;
    }
    let pool = pool();
    let capacity = pool.senders.len();
    if capacity <= 1 {
        for w in 0..workers {
            f(w);
        }
        return;
    }
    let task: &(dyn Fn(usize) + Sync) = &f;
    // SAFETY: the only unsafe in the crate. The `'static` is erased
    // lifetime, not truth: `task` borrows `f`, which lives on this stack
    // frame. Soundness rests on the barrier below — this function does
    // not return (or unwind) until it has received one completion message
    // per dispatched job, and a worker sends its completion only *after*
    // its last use of `task` (panics included, via `catch_unwind`). So no
    // worker can touch `task` after this frame is gone. `recv()` on a
    // dead worker panics here rather than dropping the barrier.
    #[allow(unsafe_code)]
    let task: &'static (dyn Fn(usize) + Sync) =
        unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(task) };
    // Every index 0..workers runs exactly once. When the pool has fewer
    // threads than requested workers, jobs queue round-robin on the
    // parked workers (each drains its queue FIFO), preserving the
    // every-index contract at reduced parallelism.
    let (done_tx, done_rx) = mpsc::channel();
    for w in 0..workers {
        pool.senders[w % capacity]
            .send(Job {
                task,
                worker: w,
                done: done_tx.clone(),
            })
            .expect("pool worker hung up");
    }
    drop(done_tx);
    BROADCASTS.fetch_add(1, Ordering::Relaxed);
    JOBS.fetch_add(workers as u64, Ordering::Relaxed);
    let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
    for _ in 0..workers {
        match done_rx.recv().expect("pool worker died before completing") {
            Ok(()) => {}
            Err(payload) => panic = Some(payload),
        }
    }
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
}

/// [`map`] over owned items: each item moves into `f` by value on the
/// worker that claims it, so whatever `f` leaves of it — all of it, for a
/// closure that just drops the item — is freed on that worker, not by the
/// caller after the fan-out. Results come back in input order.
///
/// ```
/// use mre_core::par;
/// let lens = par::map_into(vec![String::from("a"), String::from("bb")], |_, s| s.len());
/// assert_eq!(lens, vec![1, 2]);
/// ```
pub fn map_into<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    if threads().min(items.len()) <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    // One slot per item, so the claiming worker can take its item out of
    // a shared slice. Each slot is taken exactly once.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    map(&slots, |i, slot| {
        let item = slot
            .lock()
            .expect("taking a slot never panics while holding it")
            .take()
            .expect("every index is claimed exactly once");
        f(i, item)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = map(&items, |i, &x| {
            assert_eq!(i, x);
            x * 3
        });
        assert_eq!(out, (0..1000).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton() {
        let empty: Vec<u8> = vec![];
        assert!(map(&empty, |_, &x| x).is_empty());
        assert_eq!(map(&[7], |_, &x: &u8| x + 1), vec![8]);
    }

    #[test]
    fn matches_serial_with_uneven_work() {
        let items: Vec<u64> = (0..200).collect();
        let slow = |i: usize, &x: &u64| {
            // Uneven cost: every 7th item spins longer.
            let mut acc = x;
            let spins = if i.is_multiple_of(7) { 10_000 } else { 10 };
            for _ in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        };
        let serial: Vec<u64> = items.iter().enumerate().map(|(i, x)| slow(i, x)).collect();
        assert_eq!(map(&items, slow), serial);
    }

    /// Each item moves into `f` on the worker that claims it: it is
    /// dropped exactly once, on a pool worker when there are two or more,
    /// and the results stay in input order.
    #[test]
    fn map_into_consumes() {
        use std::sync::Arc;
        /// Records, per item, the name of every thread that dropped it.
        struct Tracked(usize, Arc<Mutex<Vec<Vec<String>>>>);
        impl Drop for Tracked {
            fn drop(&mut self) {
                let name = std::thread::current().name().unwrap_or("").to_string();
                self.1.lock().unwrap()[self.0].push(name);
            }
        }
        let n = 64;
        let drops = Arc::new(Mutex::new(vec![Vec::new(); n]));
        let items: Vec<Tracked> = (0..n).map(|i| Tracked(i, Arc::clone(&drops))).collect();
        let out = map_into(items, |i, item| {
            assert_eq!(i, item.0);
            i * 2
        });
        assert_eq!(out, (0..n).map(|i| i * 2).collect::<Vec<_>>());
        for (i, threads_seen) in drops.lock().unwrap().iter().enumerate() {
            assert_eq!(threads_seen.len(), 1, "item {i} dropped {threads_seen:?}");
            if threads() >= 2 {
                assert!(
                    threads_seen[0].starts_with("mre-par-"),
                    "item {i} dropped on {:?}, not on a pool worker",
                    threads_seen[0]
                );
            }
        }
    }

    #[test]
    fn threads_is_positive() {
        assert!(threads() >= 1);
    }

    #[test]
    fn broadcast_runs_every_worker_and_inline_when_single() {
        use std::sync::atomic::AtomicU64;
        let mask = AtomicU64::new(0);
        broadcast(5, |w| {
            mask.fetch_or(1 << w, Ordering::Relaxed);
        });
        assert_eq!(mask.load(Ordering::Relaxed), 0b11111);
        let main_thread = std::thread::current().id();
        broadcast(1, |w| {
            assert_eq!(w, 0);
            assert_eq!(std::thread::current().id(), main_thread);
        });
    }

    #[test]
    fn pool_threads_are_reused_across_calls() {
        use std::collections::BTreeSet;
        use std::thread::ThreadId;
        let observe = || {
            let ids = Mutex::new(BTreeSet::<String>::new());
            broadcast(3, |_| {
                let id: ThreadId = std::thread::current().id();
                ids.lock().unwrap().insert(format!("{id:?}"));
            });
            ids.into_inner().unwrap()
        };
        let first = observe();
        let second = observe();
        // The same parked workers serve both fan-outs. (On a single-core
        // machine both run inline on the caller — still equal sets.)
        assert_eq!(first, second);
        if let Some(stats) = pool_stats() {
            if stats.capacity > 1 {
                assert!(stats.broadcasts >= 2);
                assert!(stats.jobs >= 6);
            }
        }
    }

    #[test]
    fn nested_broadcast_runs_inline_on_worker() {
        use std::sync::atomic::AtomicUsize;
        let total = AtomicUsize::new(0);
        broadcast(2, |_| {
            // Nested fan-out: must run inline (all indices, same thread).
            let me = std::thread::current().id();
            broadcast(4, |_| {
                assert_eq!(std::thread::current().id(), me);
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn panic_propagates_and_pool_survives() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            map(&[1u8, 2, 3, 4, 5, 6, 7, 8], |_, &x| {
                if x == 5 {
                    panic!("boom");
                }
                x
            })
        }));
        assert!(result.is_err());
        // The pool keeps serving after a job panicked.
        let out = map(&[10u8, 20, 30], |_, &x| x + 1);
        assert_eq!(out, vec![11, 21, 31]);
    }
}
